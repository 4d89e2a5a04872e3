"""Truncated formal power series over arbitrary-precision integers.

An IntSeries represents a power series known exactly up to an explicit
order N: coefficients of q^0 .. q^N are authoritative, everything above is
unknown. Arithmetic propagates validity honestly (the result order of a
binary operation is the minimum of the operand orders) and reading a
coefficient beyond the order raises instead of returning 0. That contract
is what makes every ``is this coefficient nonnegative`` verdict in the
package sound.

Coefficients are stored sparsely (theta-type series have O(sqrt N) terms);
multiplication and inversion run over dense scratch lists internally.

A product has two kernels, chosen by the number t of nonzero terms of the
sparser operand:

- t <= _SCHOOLBOOK_MAX_TERMS: the schoolbook loop, t * (N + 1) steps over a
  dense copy of the other operand. Theta numerators and monomials take
  this path.
- otherwise, Kronecker substitution. Each operand is packed into one int,
  coefficient i in the w-bit slot i; the two ints are multiplied once by
  CPython; the low N + 1 slots of the product are read back as signed
  integers, each negative slot borrowing one from the slot above it. The
  slot width w is a whole number of bytes chosen so that no product
  coefficient reaches 2^(w-1) in absolute value. The packing goes through
  int.to_bytes and int.from_bytes with an explicit length and byte order,
  as Python 3.10 requires.

Both kernels give the same exact coefficients; the tests check each
against a naive list convolution. wang_yee_rhs calls _kronecker_mul on its
own dense lists, so the slot format stays private to this module.

_times_one_minus_list and _div_one_minus_list multiply and divide a plain
coefficient list by (1 - q^e) in place: the product expansions, the
IntSeries methods and the dense sums in trunclab all go through them.

_theta_sum is the one builder of the sparse theta-type sums
sum_j (-1)^j (u j + v) q^(R j(j+1)/2 + b j + c): the bilateral theta sum
and its k-term cuts, the index-weighted numerator of d_series, mao's
alternating sums, the I1-I4 blocks, the Jacobi cube and the gz numerator.
The pentagonal and jacobi-cube suites certify it against the product
expansions.

Coefficients must be of type int; bool is rejected too, since a bool
coefficient is almost always a comparison result that leaked in. The public
constructors check every key and value. Results computed inside this module
are built by ``_make``, which checks nothing, so arithmetic pays nothing
for the check.
"""

from __future__ import annotations

# Largest term count of the sparser operand that still goes to the schoolbook
# loop; above it, the Kronecker kernel is faster on every shape measured.
_SCHOOLBOOK_MAX_TERMS = 16


class IntSeries:
    """A power series with integer coefficients, exact to a fixed order.

    Instances are treated as immutable: no public operation mutates
    ``coeffs``, so series may be shared freely (memo caches rely on this).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict[int, int], order: int):
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        kept = {}
        for d, c in coeffs.items():
            if type(d) is not int or type(c) is not int:
                raise ValueError(
                    f"degrees and coefficients must be int, got {d!r}: {c!r}"
                )
            if d < 0:
                raise ValueError(f"negative degree {d} in coefficient map")
            if c and d <= order:
                kept[d] = c
        self.coeffs = kept
        self.order = order

    @classmethod
    def _make(cls, coeffs: dict[int, int], order: int) -> IntSeries:
        """Wrap a coefficient map computed in this module, unchecked: int
        degrees in 0..order mapped to nonzero int coefficients."""
        series = object.__new__(cls)
        series.coeffs = coeffs
        series.order = order
        return series

    @classmethod
    def _from_list(cls, dense: list[int], order: int) -> IntSeries:
        """Unchecked counterpart of from_dense for computed int lists."""
        return cls._make({d: c for d, c in enumerate(dense) if c}, order)

    @classmethod
    def from_dense(cls, dense: list[int], order: int | None = None) -> IntSeries:
        if order is None:
            order = len(dense) - 1
        return cls({d: c for d, c in enumerate(dense)}, order)

    @classmethod
    def one(cls, order: int) -> IntSeries:
        return cls({0: 1}, order)

    @classmethod
    def zero(cls, order: int) -> IntSeries:
        return cls({}, order)

    def dense(self, upto: int | None = None) -> list[int]:
        """Coefficients of q^0..q^upto as a fresh list (upto defaults to order)."""
        if upto is None:
            upto = self.order
        if upto > self.order:
            raise ValueError(f"coefficients beyond order {self.order} are unknown")
        out = [0] * (upto + 1)
        for d, c in self.coeffs.items():
            if d <= upto:
                out[d] = c
        return out

    def coeff(self, n: int) -> int:
        """Exact coefficient of q^n. Beyond the order it is unknown, not zero."""
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if n > self.order:
            raise ValueError(
                f"coefficient of q^{n} requested but series is only valid to order {self.order}"
            )
        return self.coeffs.get(n, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())[:6]
        shown = " ".join(f"{c:+d}q^{d}" for d, c in terms) or "0"
        suffix = " ..." if len(self.coeffs) > 6 else ""
        return f"IntSeries({shown}{suffix}, order={self.order})"

    def _combine(self, other: IntSeries, sign: int) -> IntSeries:
        n = min(self.order, other.order)
        if self.order == n:
            out = dict(self.coeffs)
        else:
            out = {d: c for d, c in self.coeffs.items() if d <= n}
        for d, c in other.coeffs.items():
            if d <= n:
                c = out.get(d, 0) + sign * c
                if c:
                    out[d] = c
                else:
                    del out[d]
        return IntSeries._make(out, n)

    def __add__(self, other: IntSeries) -> IntSeries:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: IntSeries) -> IntSeries:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> IntSeries:
        return self.scale(-1)

    def scale(self, c: int) -> IntSeries:
        if type(c) is not int:
            raise ValueError(f"scale factor must be int, got {c!r}")
        if not c:
            return IntSeries._make({}, self.order)
        return IntSeries._make({d: c * v for d, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, IntSeries):
            return NotImplemented
        n = min(self.order, other.order)
        # iterate the sparser operand over a dense copy of the other
        a, b = self, other
        if len(b.coeffs) < len(a.coeffs):
            a, b = b, a
        if len(a.coeffs) > _SCHOOLBOOK_MAX_TERMS:
            return IntSeries._from_list(_kronecker_mul(a.dense(n), b.dense(n), n), n)
        bd = b.dense(n)
        out = [0] * (n + 1)
        for da, ca in a.coeffs.items():
            if da > n:
                continue
            for db in range(n - da + 1):
                cb = bd[db]
                if cb:
                    out[da + db] += ca * cb
        return IntSeries._from_list(out, n)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntSeries:
        if e < 0:
            raise ValueError("negative powers are not supported; use invert")
        result = IntSeries.one(self.order)
        for _ in range(e):
            result = result * self
        return result

    def invert(self) -> IntSeries:
        """Multiplicative inverse; requires constant coefficient 1 or -1."""
        c0 = self.coeffs.get(0, 0)
        if c0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant coefficient {c0}")
        n = self.order
        a = self.dense()
        nz = sorted(d for d in self.coeffs if d >= 1)
        b = [0] * (n + 1)
        b[0] = c0
        for m in range(1, n + 1):
            acc = 0
            for i in nz:
                if i > m:
                    break
                acc += a[i] * b[m - i]
            b[m] = -c0 * acc
        return IntSeries._from_list(b, n)

    def shifted(self, e: int) -> IntSeries:
        """Multiply by q^e (e >= 0) or divide by q^|e| (e < 0).

        The validity window moves with the coefficients: the result order is
        order + e in both directions. A downward shift requires every
        coefficient below q^|e| to vanish.
        """
        if e >= 0:
            return IntSeries._make({d + e: c for d, c in self.coeffs.items()},
                                   self.order + e)
        drop = -e
        if drop > self.order:
            raise ValueError(f"cannot shift down by {drop}: order is {self.order}")
        for d, c in self.coeffs.items():
            if d < drop and c:
                raise ValueError(
                    f"cannot divide by q^{drop}: nonzero coefficient at q^{d}"
                )
        return IntSeries._make({d - drop: c for d, c in self.coeffs.items()},
                               self.order - drop)

    def truncate(self, order: int) -> IntSeries:
        if order > self.order:
            raise ValueError(f"cannot extend validity from {self.order} to {order}")
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        return IntSeries._make({d: c for d, c in self.coeffs.items() if d <= order},
                               order)

    def times_one_minus(self, e: int) -> IntSeries:
        """Multiply by (1 - q^e) in O(order) time."""
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e}")
        out = self.dense()
        _times_one_minus_list(out, e)
        return IntSeries._from_list(out, self.order)

    def div_one_minus(self, e: int) -> IntSeries:
        """Divide by (1 - q^e), i.e. multiply by the geometric series in q^e."""
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e}")
        out = self.dense()
        _div_one_minus_list(out, e)
        return IntSeries._from_list(out, self.order)


def _slot_width(bound: int) -> int:
    """Bytes per packed slot for coefficients of absolute value at most
    bound: the least w with bound < 2^(8w - 1)."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs: list[int], width: int) -> int:
    """The sum of coeffs[i] * 2^(8 * width * i), for signed coefficients
    of absolute value below 2^(8 * width - 1)."""
    zero = bytes(width)
    value = int.from_bytes(
        b"".join([c.to_bytes(width, "little") if c > 0 else zero for c in coeffs]),
        "little")
    if min(coeffs) < 0:
        value -= int.from_bytes(
            b"".join([(-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs]),
            "little")
    return value


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The coefficients of slots 0..count-1 of a packed value, each of
    absolute value below 2^(8 * width - 1). Slots from count on are ignored,
    whatever they hold."""
    size = width * count
    raw = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    slots = [int.from_bytes(raw[i:i + width], "little", signed=True)
             for i in range(0, size, width)]
    # a slot read as negative lent 2^(8 * width) to the slot above it
    return [s + (below < 0) for s, below in zip(slots, [0] + slots)]


def _kronecker_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients of q^0..q^n of the product of two nonempty coefficient
    lists, by Kronecker substitution (see the module docstring)."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * (n + 1)
    # |each product coefficient| <= bound, and so is |each coefficient of a
    # and b|, since neither is all zero
    width = _slot_width(bound)
    return _unpack(_pack(a, width) * _pack(b, width), width, n + 1)


def _times_one_minus_list(dense: list[int], e: int) -> None:
    """Multiply a coefficient list by (1 - q^e) in place, to its own length."""
    # the slice dense[e:] is a copy, so every coefficient reads old values
    dense[e:] = [x - y for x, y in zip(dense[e:], dense)]


def _div_one_minus_list(dense: list[int], e: int) -> None:
    """Divide a coefficient list by (1 - q^e) in place, to its own length:
    the one geometric loop behind every division by (1 - q^e)."""
    for d in range(e, len(dense)):
        dense[d] += dense[d - e]


def _require_window(R: int, S: int) -> None:
    """Reject (R, S) outside the window 1 <= S < R of the triple product."""
    if not 1 <= S < R:
        raise ValueError(f"need 1 <= S < R, got R={R}, S={S}")


def pochhammer(a: int, step: int, order: int) -> IntSeries:
    """(q^a; q^step)_infinity truncated: product of (1 - q^(a + i*step)).

    Factors whose exponent exceeds the order contribute nothing and are
    skipped, so a > order gives the constant series 1.
    """
    if a < 1 or step < 1:
        raise ValueError(f"a and step must be positive, got a={a}, step={step}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    dense = [0] * (order + 1)
    dense[0] = 1
    for e in range(a, order + 1, step):
        _times_one_minus_list(dense, e)
    return IntSeries._from_list(dense, order)


def triple_product(R: int, S: int, order: int) -> IntSeries:
    """(q^S, q^(R-S), q^R; q^R)_infinity truncated to the given order."""
    _require_window(R, S)
    dense = [0] * (order + 1)
    dense[0] = 1
    for base in (S, R - S, R):
        for e in range(base, order + 1, R):
            _times_one_minus_list(dense, e)
    return IntSeries._from_list(dense, order)


def _theta_sum(R: int, b: int, c: int, order: int, terms: int | None = None,
               u: int = 0, v: int = 1) -> IntSeries:
    """Sum over 0 <= j < terms of (-1)^j (u j + v) q^(R j(j+1)/2 + b j + c),
    to the given order, over every j >= 0 when terms is None: the one
    builder of the sparse theta-type sums.

    The exponent grows by R(j+1) + b >= 1 from j to j + 1, which R >= 0 and
    R + b >= 1 guarantee, so the walk stops at the first exponent past the
    order and no two terms share an exponent.
    """
    if R < 0 or R + b < 1 or c < 0:
        raise ValueError(f"need R >= 0, R + b >= 1 and c >= 0, got R={R}, b={b}, c={c}")
    coeffs: dict[int, int] = {}
    j, e = 0, c
    while e <= order and (terms is None or j < terms):
        coeffs[e] = (u * j + v) * (1 if j % 2 == 0 else -1)
        j += 1
        e += R * j + b
    return IntSeries(coeffs, order)


def bilateral_theta(R: int, S: int, order: int, k: int | None = None) -> IntSeries:
    """Sum of (-1)^j q^(R*j(j+1)/2 - S*j) over all integers j, or over
    -k <= j < k when k is given.

    The constraint 1 <= S < R keeps every exponent nonnegative. The tail
    j = -(i+1) has exponent R i(i+1)/2 + S i + S and sign -(-1)^i. Exponents
    from the two tails may coincide (R = 2S); contributions accumulate.
    """
    _require_window(R, S)
    return _theta_sum(R, -S, 0, order, k) - _theta_sum(R, S, S, order, k)


def lambert_diff(R: int, S: int, order: int) -> IntSeries:
    """Series whose q^m coefficient counts divisors of m that are S mod R
    minus those that are (R-S) mod R."""
    _require_window(R, S)
    dense = [0] * (order + 1)
    for d in range(S, order + 1, R):
        for mult in range(d, order + 1, d):
            dense[mult] += 1
    for d in range(R - S, order + 1, R):
        for mult in range(d, order + 1, d):
            dense[mult] -= 1
    return IntSeries._from_list(dense, order)
