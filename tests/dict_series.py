"""The dict-backed IntSeries, kept as a test oracle for the list storage.

IntSeries once stored its nonzero coefficients in a {degree: coefficient}
dict and converted to and from lists around every kernel. The methods
below are that class's bodies, unchanged apart from the class name, the
product and invert's loop, which are now the one copies in
reference.naive_mul and reference.naive_invert: the list-backed IntSeries
must agree with them on every result, order and error message.
"""

from __future__ import annotations

from reference import naive_invert, naive_mul


class DictSeries:
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
    def _make(cls, coeffs: dict[int, int], order: int) -> DictSeries:
        series = object.__new__(cls)
        series.coeffs = coeffs
        series.order = order
        return series

    @classmethod
    def _from_list(cls, dense: list[int], order: int) -> DictSeries:
        return cls._make({d: c for d, c in enumerate(dense) if c}, order)

    def dense(self) -> list[int]:
        out = [0] * (self.order + 1)
        for d, c in self.coeffs.items():
            out[d] = c
        return out

    def coeff(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if n > self.order:
            raise ValueError(
                f"coefficient of q^{n} requested but series is only valid to order {self.order}"
            )
        return self.coeffs.get(n, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())[:6]
        shown = " ".join(f"{c:+d}q^{d}" for d, c in terms) or "0"
        suffix = " ..." if len(self.coeffs) > 6 else ""
        return f"IntSeries({shown}{suffix}, order={self.order})"

    def _combine(self, other: DictSeries, sign: int) -> DictSeries:
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
        return DictSeries._make(out, n)

    def __add__(self, other: DictSeries) -> DictSeries:
        return self._combine(other, 1)

    def __sub__(self, other: DictSeries) -> DictSeries:
        return self._combine(other, -1)

    def __neg__(self) -> DictSeries:
        return self.scale(-1)

    def scale(self, c: int) -> DictSeries:
        if type(c) is not int:
            raise ValueError(f"scale factor must be int, got {c!r}")
        if not c:
            return DictSeries._make({}, self.order)
        return DictSeries._make({d: c * v for d, v in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        n = min(self.order, other.order)
        return DictSeries._from_list(naive_mul(self.dense(), other.dense(), n), n)

    def invert(self) -> DictSeries:
        c0 = self.coeffs.get(0, 0)
        if c0 not in (1, -1):
            raise ValueError(f"cannot invert series with constant coefficient {c0}")
        return DictSeries._from_list(naive_invert(self.dense()), self.order)

    def shifted(self, e: int) -> DictSeries:
        if e >= 0:
            return DictSeries._make({d + e: c for d, c in self.coeffs.items()},
                                    self.order + e)
        drop = -e
        if drop > self.order:
            raise ValueError(f"cannot shift down by {drop}: order is {self.order}")
        for d, c in self.coeffs.items():
            if d < drop and c:
                raise ValueError(
                    f"cannot divide by q^{drop}: nonzero coefficient at q^{d}"
                )
        return DictSeries._make({d - drop: c for d, c in self.coeffs.items()},
                                self.order - drop)

    def truncate(self, order: int) -> DictSeries:
        if order > self.order:
            raise ValueError(f"cannot extend validity from {self.order} to {order}")
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        return DictSeries._make({d: c for d, c in self.coeffs.items() if d <= order},
                                order)
