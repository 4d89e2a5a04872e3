"""Truncated formal power series over arbitrary-precision integers.

An IntSeries represents a power series known exactly up to an explicit
order N: coefficients of q^0 .. q^N are authoritative, everything above is
unknown. Arithmetic propagates validity honestly (the result order of a
binary operation is the minimum of the operand orders) and reading a
coefficient beyond the order raises instead of returning 0. That contract
is what makes every ``is this coefficient nonnegative`` verdict in the
package sound.

An IntSeries stores one list of order + 1 ints, q^0 first, and every
kernel below reads and writes such lists, so no operation converts between
storage formats. A theta-type sum has only O(sqrt N) nonzero terms but
still takes N + 1 slots; the kernels find its nonzero degrees with
itertools.compress.

A product's kernel is chosen where the product is made, not by a rule at
run time. Every product in the package has one sparse operand: a theta-type
sum, a monomial, or the Euler product (q; q)_infinity. So IntSeries.__mul__
always takes the schoolbook pass (_schoolbook_mul) with the operand of
fewer nonzero terms as the sparse side: one slice update per nonzero term,
which adds the other operand, times that term, to the output from the
term's degree on. For t nonzero terms that is about t (N + 1) additions at
list speed. It is built for one sparse operand; two dense operands cost
O(N^2) additions.

The one other kernel is Kronecker substitution (_kronecker_mul), and its
one caller is _euler_cubed, the cube of the Euler product: there the
sparse side has about 1.6 sqrt(N) terms but the coefficients are narrow,
so one big-integer multiply wins. Each operand is packed into one int,
coefficient i in the 8w-bit slot i; the two ints are multiplied once by
CPython; the low N + 1 slots of the product are read back as signed
integers, each negative slot borrowing one from the slot above it. The
slot width w is chosen so that no product coefficient reaches 2^(8w-1) in
absolute value. The packing goes through int.to_bytes and int.from_bytes
with an explicit length and byte order, as Python 3.10 requires.

Both kernels give the same exact coefficients; the tests check each
against a naive list convolution. No module outside this one calls
_kronecker_mul, so the slot format is private to it.

_times_one_minus_list and _div_one_minus_list multiply and divide a plain
coefficient list by (1 - q^e) in place: the IntSeries methods and the
dense sums in trunclab go through them. Both are slice operations; the
division runs one accumulate per residue class mod e once the list holds
at least 16 coefficients per class, and one slice per block of e
coefficients below that.

The product expansions (pochhammer, triple_product) do not apply their
factors one by one, and form no series product. Each is a sum of shifted
quotients base / prod (1 - q^f), and the one walker _quotients keeps that
running quotient, cut to the coefficients that survive each term's shift;
the dense sums in trunclab walk theirs with it too. _euler_sum multiplies
a coefficient list by (q^a; q^s)_infinity by Euler's distinct-parts sum,
base (q^a; q^s)_infinity = sum_k (-1)^k q^(a k + s k(k-1)/2) base / (q^s; q^s)_k,
in about sqrt(2N/s) geometric steps of the walker: O(N^1.5)
instead of O(N^2). pochhammer is one such sum over the list of 1;
triple_product chains three, each over the list the one before returned;
mao's product-sum series in trunclab, a Heine sum, takes one,
(q^A; q^R)_infinity, over its summed list.
The sum does not go through Jacobi's triple product.

IntSeries.invert is the one reciprocal kernel. p(n) in partitions, every
theta quotient and gz each invert a sparse theta-type sum: the pentagonal
sum, the bilateral theta sum (the triple product, by Jacobi's triple
product identity) and the Jacobi cube ((q; q)_infinity cubed). Its terms
of weight +-1 and degree at least _INVERT_BLOCK add to a whole block of
coefficients in one slice update (_add_shifted, the pass behind every
product too); the rest stay in a loop over single coefficients. At
N = 3000 that takes about a third off the inverse of the pentagonal sum;
the Jacobi cube (weights 2j + 1) keeps the loop.

_theta_terms yields the terms (-1)^j (u j + v) q^(R j(j+1)/2 + b j + c),
j = 0, 1, ..., of a sparse theta-type sum, and _theta_sum, the one builder
of the whole sums, cuts them, at v = 1, at an order: the bilateral theta
sum, mao's alternating sums, the I1-I4 blocks and the Jacobi cube. The
k-truncated numerators of the sign suites, running sums in trunclab, read
the same generator one k at a time. The pentagonal and jacobi-cube suites
certify _theta_sum against the product expansions, so they compare Euler's
distinct-parts sum with the bilateral theta sum.

Coefficients must be of type int; bool is rejected too, since a bool
coefficient is almost always a comparison result that leaked in. The public
constructors check every key and value. Results computed inside the package
are wrapped by ``_from_list``, which checks nothing and takes ownership of
its list, so arithmetic pays nothing for the check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, compress, count, repeat
from math import isqrt
from operator import add, mul, sub

# invert's block length: the pentagonal sum has 18 nonzero degrees below it,
# which stay in the per-coefficient loop, and 88 up to 3000
_INVERT_BLOCK = 128

class IntSeries:
    """A power series with integer coefficients, exact to a fixed order.

    The coefficients of q^0 .. q^order are stored as one list of order + 1
    ints, so every kernel reads and writes it without conversion. A sparse
    sum holds all N + 1 slots too: about 24 kB at N = 3000 (one 8-byte
    pointer per slot; the zeros share one int object).

    Instances are treated as immutable: no public operation mutates the
    list, so series may be shared freely (memo caches rely on this).
    """

    __slots__ = ("_dense", "order")

    def __init__(self, coeffs: dict[int, int], order: int):
        _require_nonnegative("order", order)
        dense = [0] * (order + 1)
        for d, c in coeffs.items():
            if type(d) is not int or type(c) is not int:
                raise ValueError(
                    f"degrees and coefficients must be int, got {d!r}: {c!r}"
                )
            if d < 0:
                raise ValueError(f"negative degree {d} in coefficient map")
            if d <= order:
                dense[d] = c
        self._dense = dense
        self.order = order

    @classmethod
    def _from_list(cls, dense: list[int], order: int) -> IntSeries:
        """Wrap a list of order + 1 ints computed in this package,
        unchecked. The series takes ownership: the caller must not mutate
        the list afterwards."""
        series = object.__new__(cls)
        series._dense = dense
        series.order = order
        return series

    @classmethod
    def one(cls, order: int) -> IntSeries:
        return cls({0: 1}, order)

    @property
    def coeffs(self) -> dict[int, int]:
        """The nonzero coefficients as a fresh {degree: coefficient} dict.

        It is rebuilt on every read, so the package itself reads ``dense``
        and ``coeff`` instead.
        """
        return {d: c for d, c in enumerate(self._dense) if c}

    def dense(self) -> list[int]:
        """The coefficients of q^0..q^order as a fresh list."""
        return list(self._dense)

    def coeff(self, n: int) -> int:
        """Exact coefficient of q^n. Beyond the order it is unknown, not zero."""
        _require_nonnegative("degree", n)
        if n > self.order:
            raise ValueError(
                f"coefficient of q^{n} requested but series is only valid to order {self.order}"
            )
        return self._dense[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSeries):
            return NotImplemented
        # the list holds order + 1 coefficients, so equal lists have equal orders
        return self._dense == other._dense

    def __hash__(self):
        return hash(tuple(self._dense))

    def __repr__(self) -> str:
        terms = [(d, c) for d, c in enumerate(self._dense) if c]
        shown = " ".join(f"{c:+d}q^{d}" for d, c in terms[:6]) or "0"
        suffix = " ..." if len(terms) > 6 else ""
        return f"IntSeries({shown}{suffix}, order={self.order})"

    def _combine(self, other: IntSeries, op) -> IntSeries:
        # map stops at the shorter list, so the result has the smaller order
        return IntSeries._from_list(list(map(op, self._dense, other._dense)),
                                    min(self.order, other.order))

    def __add__(self, other: IntSeries) -> IntSeries:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other: IntSeries) -> IntSeries:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self._combine(other, sub)

    def __neg__(self) -> IntSeries:
        return self.scale(-1)

    def scale(self, c: int) -> IntSeries:
        if type(c) is not int:
            raise ValueError(f"scale factor must be int, got {c!r}")
        return IntSeries._from_list([c * v for v in self._dense], self.order)

    def __mul__(self, other):
        """The product, to the smaller order, by the schoolbook pass over
        the operand of fewer nonzero terms: about t (order + 1) additions
        for t such terms, so it is built for one sparse operand (see the
        module docstring). An int scales the series."""
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, IntSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return IntSeries._from_list(
            _mul_lists(self._dense[:n + 1], other._dense[:n + 1], n), n)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntSeries:
        if e < 0:
            raise ValueError("negative powers are not supported; use invert")
        result = IntSeries.one(self.order)
        for _ in range(e):
            result = result * self
        return result

    def invert(self) -> IntSeries:
        """Multiplicative inverse; requires constant coefficient 1 or -1.

        b = 1/a satisfies b[m] = sum over the nonzero a[i], i >= 1, of
        w_i b[m - i] with w_i = -a[0] a[i]. The coefficients are found in
        blocks of _INVERT_BLOCK: a term of degree at least the block length
        reads only coefficients below the block, so if its weight is 1 or
        -1 it adds to the whole block in one slice update, with no multiply.
        The other terms stay in the loop over the block's coefficients: the
        terms of lower degree, and the weighted ones, whose slice would
        need the loop's multiplies and a pass of its own.
        """
        a = self._dense
        c0 = a[0]
        if c0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant coefficient {c0}")
        n = self.order
        terms = [(i, -c0 * a[i]) for i in compress(range(1, n + 1), a[1:])]
        far = [(i, w) for i, w in terms if i >= _INVERT_BLOCK and w in (1, -1)]
        near = [(i, w) for i, w in terms if i < _INVERT_BLOCK or w not in (1, -1)]
        b = [0] * (n + 1)
        b[0] = c0
        for s in range(0, n + 1, _INVERT_BLOCK):
            end = min(s + _INVERT_BLOCK, n + 1)
            for i, w in far:
                if i >= end:
                    break
                lo = max(s, i)
                _add_shifted(b, b[lo - i:end - i], lo, w)
            for m in range(max(s, 1), end):
                acc = b[m]
                for i, w in near:
                    if i > m:
                        break
                    acc += w * b[m - i]
                b[m] = acc
        return IntSeries._from_list(b, n)

    def shifted(self, e: int) -> IntSeries:
        """Multiply by q^e (e >= 0) or divide by q^|e| (e < 0).

        The validity window moves with the coefficients: the result order is
        order + e in both directions. A downward shift requires every
        coefficient below q^|e| to vanish.
        """
        _require_int("shift", e)
        if e >= 0:
            return IntSeries._from_list([0] * e + self._dense, self.order + e)
        drop = -e
        if drop > self.order:
            raise ValueError(f"cannot shift down by {drop}: order is {self.order}")
        for d in range(drop):
            if self._dense[d]:
                raise ValueError(
                    f"cannot divide by q^{drop}: nonzero coefficient at q^{d}"
                )
        return IntSeries._from_list(self._dense[drop:], self.order - drop)

    def truncate(self, order: int) -> IntSeries:
        if order > self.order:
            raise ValueError(f"cannot extend validity from {self.order} to {order}")
        _require_nonnegative("order", order)
        return IntSeries._from_list(self._dense[:order + 1], order)

    def times_one_minus(self, e: int) -> IntSeries:
        """Multiply by (1 - q^e) in O(order) time."""
        _require_positive("exponent", e)
        out = self.dense()
        _times_one_minus_list(out, e)
        return IntSeries._from_list(out, self.order)

    def div_one_minus(self, e: int) -> IntSeries:
        """Divide by (1 - q^e), i.e. multiply by the geometric series in q^e."""
        _require_positive("exponent", e)
        out = self.dense()
        _div_one_minus_list(out, e)
        return IntSeries._from_list(out, self.order)


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
    # bytes per slot: the least w with bound < 2^(8w - 1), which holds every
    # coefficient of the product and of each operand
    width = bound.bit_length() // 8 + 1
    return _unpack(_pack(a, width) * _pack(b, width), width, n + 1)


def _add_shifted(acc: list[int], src: list[int], e: int, c: int = 1) -> None:
    """acc += c q^e src in place, to acc's own length: one slice update,
    the pass behind every product, inversion and running sum."""
    end = e + len(src)
    if c == 1:
        acc[e:end] = map(add, acc[e:end], src)
    elif c == -1:
        acc[e:end] = map(sub, acc[e:end], src)
    else:
        acc[e:end] = map(add, acc[e:end], map(mul, repeat(c), src))


def _schoolbook_mul(sparse: list[int], dense: list[int], n: int) -> list[int]:
    """Coefficients of q^0..q^n of the product of two coefficient lists, one
    slice update per nonzero coefficient c at degree d of sparse: c times
    dense is added to the coefficients from q^d on."""
    out = [0] * (n + 1)
    # a term past q^n meets an empty slice and adds nothing
    for d in compress(range(len(sparse)), sparse):
        _add_shifted(out, dense, d, sparse[d])
    return out


def _mul_lists(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients of q^0..q^n of the product of two nonempty coefficient
    lists, by the schoolbook pass with the operand of fewer nonzero terms
    as the sparse side."""
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    return _schoolbook_mul(a, b, n)


def _times_one_minus_list(dense: list[int], e: int) -> None:
    """Multiply a coefficient list by (1 - q^e) in place, to its own length."""
    # the slice dense[e:] is a copy, and the map is consumed before the
    # assignment, so every coefficient reads old values
    dense[e:] = map(sub, dense[e:], dense)


def _div_one_minus_list(dense: list[int], e: int) -> None:
    """Divide a coefficient list by (1 - q^e) in place, to its own length:
    the one geometric loop behind every division by (1 - q^e).

    The quotient is a running sum within each residue class mod e. A list
    of at least 16 e coefficients takes one accumulate per class; a shorter
    one has too few coefficients per class to pay for the e slice copies,
    and adds each block of e coefficients to the next: under 16 slices.
    """
    if len(dense) >= 16 * e:
        for r in range(e):
            dense[r::e] = accumulate(dense[r::e])
    else:
        for s in range(e, len(dense), e):
            dense[s:s + e] = map(add, dense[s:s + e], dense[s - e:s])


def _require_int(name: str, value: int) -> None:
    """Reject a non-int order, degree, count or depth; bool too, since a
    bool is almost always a comparison result that leaked in."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _require_nonnegative(name: str, value: int) -> None:
    """Reject a negative or non-int order, degree or count."""
    _require_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_positive(name: str, value: int) -> None:
    """Reject a count, weight or exponent below 1, or not an int."""
    _require_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_window(R: int, S: int) -> None:
    """Reject (R, S) outside the window 1 <= S < R of the triple product."""
    _require_int("R", R)
    _require_int("S", S)
    if not 1 <= S < R:
        raise ValueError(f"need 1 <= S < R, got R={R}, S={S}")


def _quotients(base: list[int], terms: Iterable[tuple[int, tuple[int, ...]]]
               ) -> Iterator[tuple[int, list[int]]]:
    """Walk the running quotient base / prod (1 - q^f) of a q-series sum.

    terms yields (e, exponents), e nondecreasing. For each e <= order =
    len(base) - 1, one running copy of base is cut to the order - e + 1
    coefficients that survive the shift e, divided by (1 - q^f) for each f
    in exponents, and yielded as (e, list); the walk stops at the first e
    past the order. Callers read the list before the next step and leave
    it, and base, unchanged.
    """
    order = len(base) - 1
    quotient = list(base)
    for e, exponents in terms:
        if e > order:
            return
        del quotient[order - e + 1:]
        for f in exponents:
            _div_one_minus_list(quotient, f)
        yield e, quotient


def _euler_sum(a: int, step: int, base: list[int]) -> list[int]:
    """Coefficients of q^0..q^order of base times (q^a; q^step)_infinity,
    order = len(base) - 1, by Euler's distinct-parts sum,
    sum_k (-1)^k q^(a k + step k(k-1)/2) base / (q^step; q^step)_k
    (Andrews, The Theory of Partitions, (2.2.5)).

    The walker ``_quotients`` takes base/(q^step; q^step)_k one geometric
    step per k >= 1, and the sum adds it with its sign. There are about
    sqrt(2 order / step) terms, so the sum costs O(order^1.5). base itself
    is left unchanged.
    """
    acc = list(base)  # the term k = 0
    terms = ((a * k + step * k * (k - 1) // 2, (step * k,)) for k in count(1))
    for k, (e, quotient) in enumerate(_quotients(base, terms), 1):
        acc[e:] = map(sub if k % 2 else add, acc[e:], quotient)
    return acc


def pochhammer(a: int, step: int, order: int) -> IntSeries:
    """(q^a; q^step)_infinity truncated: product of (1 - q^(a + i*step)).

    The product is expanded by Euler's distinct-parts sum (``_euler_sum``),
    about sqrt(2 order / step) geometric steps of one running quotient, so
    O(order^1.5) list operations instead of one O(order) step per factor.
    ``pochhammer(1, 1, 20000)`` takes about 0.4 s (Python 3.11, 2-core host).
    A factor whose exponent exceeds the order contributes nothing, so
    a > order gives the constant series 1.
    """
    _require_positive("a", a)
    _require_positive("step", step)
    _require_nonnegative("order", order)
    return IntSeries._from_list(_euler_sum(a, step, [1] + [0] * order), order)


def _euler_cubed(order: int) -> IntSeries:
    """(q; q)_infinity cubed, to the given order: the product side of
    jacobi-cube and its table, the only readers, each building it once, so
    it is not memoized. The Euler product is expanded by ``pochhammer`` and
    cubed by two Kronecker products, the only callers of ``_kronecker_mul``:
    at the cube's narrow coefficients one big-integer multiply beats one
    slice pass for each of the Euler product's 1.6 sqrt(order) terms. At
    order 2500 the two products take 4 ms against 10 ms by the schoolbook
    pass, and the whole cube 15 ms, where chaining three Euler sums (as
    ``triple_product`` does) takes 31 ms (Python 3.11, 2-core host)."""
    e = pochhammer(1, 1, order)._dense
    return IntSeries._from_list(
        _kronecker_mul(_kronecker_mul(e, e, order), e, order), order)


def triple_product(R: int, S: int, order: int) -> IntSeries:
    """(q^S, q^(R-S), q^R; q^R)_infinity truncated to the given order.

    Three chained Euler sums (see ``_euler_sum``): (q^R; q^R) is expanded
    from 1, then multiplied by (q^(R-S); q^R), then by (q^S; q^R), each sum
    running over the list the one before returned, so no series product is
    formed. Starting from the sparse (q^R; q^R) keeps the list narrow: at
    order 3000, after two sums it holds 15-23-bit coefficients for R = 3..7,
    where (q^S; q^R) alone holds 44-67-bit ones. Each sum is O(order^1.5):
    ``triple_product(5, 2, 20000)`` takes about 0.47 s and
    ``triple_product(3, 1, 20000)`` about 0.62 s, against 3.3 s and 5.2 s
    when the two dense sums were joined by one Kronecker product (Python
    3.11, 2-core host).
    """
    _require_window(R, S)
    _require_nonnegative("order", order)
    one = [1] + [0] * order
    dense = _euler_sum(S, R, _euler_sum(R - S, R, _euler_sum(R, R, one)))
    return IntSeries._from_list(dense, order)


def _sign(j: int) -> int:
    """(-1)^j."""
    return 1 if j % 2 == 0 else -1


def _theta_terms(R: int, b: int, c: int, u: int = 0, v: int = 1
                 ) -> Iterator[tuple[int, int]]:
    """The terms j = 0, 1, ... of a theta-type sum, without end, as
    (exponent, weight): R j(j+1)/2 + b j + c and (-1)^j (u j + v)."""
    j, e = 0, c
    while True:
        yield e, (u * j + v) * _sign(j)
        j += 1
        e += R * j + b


def _theta_sum(R: int, b: int, c: int, order: int, u: int = 0) -> IntSeries:
    """Sum over j >= 0 of (-1)^j (u j + 1) q^(R j(j+1)/2 + b j + c), to the
    given order: the one builder of the sparse theta-type sums.

    The exponent grows by R(j+1) + b >= 1 from j to j + 1, which R >= 0 and
    R + b >= 1 guarantee, so the walk stops at the first exponent past the
    order and no two terms share an exponent.
    """
    if R < 0 or R + b < 1 or c < 0:
        raise ValueError(f"need R >= 0, R + b >= 1 and c >= 0, got R={R}, b={b}, c={c}")
    _require_nonnegative("order", order)
    dense = [0] * (order + 1)
    for e, w in _theta_terms(R, b, c, u):
        if e > order:
            break
        dense[e] = w
    return IntSeries._from_list(dense, order)


def bilateral_theta(R: int, S: int, order: int) -> IntSeries:
    """Sum of (-1)^j q^(R*j(j+1)/2 - S*j) over all integers j.

    The constraint 1 <= S < R keeps every exponent nonnegative. The tail
    j = -(i+1) has exponent R i(i+1)/2 + S i + S and sign -(-1)^i. Exponents
    from the two tails may coincide (R = 2S); contributions accumulate.
    """
    _require_window(R, S)
    return _theta_sum(R, -S, 0, order) - _theta_sum(R, S, S, order)


def lambert_diff(R: int, S: int, order: int) -> IntSeries:
    """Series whose q^m coefficient counts divisors of m that are S mod R
    minus those that are (R-S) mod R.

    Each pair m = d e with d in the residue class is counted once, by one
    slice update: per divisor d <= sqrt(order) over all its multiples, and
    per cofactor e over the m = d e with d > sqrt(order), which step by
    R e. That is O(sqrt(order)) slices, where one slice per divisor would
    be O(order) and slower than a loop over the multiples.
    """
    _require_window(R, S)
    _require_nonnegative("order", order)
    dense = [0] * (order + 1)
    root = isqrt(order)
    for c, op in ((S, add), (R - S, sub)):
        for d in range(c, root + 1, R):
            dense[d::d] = map(op, dense[d::d], repeat(1))
        first = c + R * ((root - c) // R + 1)  # the least d > root in the class
        for e in range(1, order // first + 1):
            dense[first * e::R * e] = map(op, dense[first * e::R * e], repeat(1))
    return IntSeries._from_list(dense, order)
