"""Gaussian binomials for the test oracles, by the Pascal-type recurrence.

The library applies each Gaussian binomial as (1 - q^e) factor steps over
plain lists. The oracles that check it build [n, k] here instead, from
[n, k] = [n-1, k-1] + q^k [n-1, k], never by division, so the two sides
take different routes to the same exact coefficients.
"""

from functools import lru_cache

from qtrunc.qseries import IntSeries


@lru_cache(maxsize=None)
def _pascal(n: int, k: int) -> tuple[int, ...]:
    if k < 0 or n < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    low = _pascal(n - 1, k - 1)
    high = _pascal(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(low):
        out[i] += c
    for i, c in enumerate(high):
        out[i + k] += c
    return tuple(out)


def q_binomial(n: int, k: int, step: int = 1, order: int | None = None) -> IntSeries:
    """Gaussian binomial [n, k] in the variable q^step.

    Out-of-range (n, k) gives the zero polynomial. The result is marked
    valid to its degree k(n-k)*step unless a higher order is requested.
    """
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    coeffs = _pascal(n, k)
    if order is None:
        order = (len(coeffs) - 1) * step if coeffs else 0
    return IntSeries({i * step: c for i, c in enumerate(coeffs)}, order)
