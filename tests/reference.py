"""The one copy of every list oracle that more than one test module uses,
and the one call recorder.

Standard library only, and nothing from qtrunc: a reference that called
the library would share the route it is meant to check.
tests/test_reference.py enforces both rules, and that no test
module defines a function another one defines too.
"""


def naive_mul(a: list, b: list, order: int) -> list:
    """a times b to the given order, by quadratic convolution."""
    out = [0] * (order + 1)
    # every pair of terms, skipping the zero terms of b: a single factor
    # (1 - q^e) then costs two passes over a
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        for j, y in b_terms:
            if i + j <= order:
                out[i + j] += x * y
    return out


def naive_invert(a: list) -> list:
    """1/a to the order len(a) - 1, for a[0] = 1 or -1, one coefficient at
    a time: b[m] = -a[0] times the sum over the nonzero a[i], 1 <= i <= m,
    of a[i] b[m - i]. This was IntSeries.invert's loop before the block
    slices."""
    c0 = a[0]
    nonzero = [i for i in range(1, len(a)) if a[i]]
    b = [0] * len(a)
    b[0] = c0
    for m in range(1, len(a)):
        acc = 0
        for i in nonzero:
            if i > m:
                break
            acc += a[i] * b[m - i]
        b[m] = -c0 * acc
    return b


def factor_steps(bases: tuple, step: int, order: int) -> list:
    """Expand the product over b in bases of prod_i (1 - q^(b + i*step)) one
    factor at a time, each factor one O(order) pass over the list: the
    O(order^2) reference for the Euler-sum expansions of qseries."""
    dense = [1] + [0] * order
    for base in bases:
        for e in range(base, order + 1, step):
            # the slice dense[e:] is a copy, so every coefficient reads old values
            dense[e:] = [x - y for x, y in zip(dense[e:], dense)]
    return dense


def nested_lambert_diff(R: int, S: int, order: int) -> list:
    """lambert_diff's coefficients, one increment per multiple of each divisor."""
    dense = [0] * (order + 1)
    for d in range(S, order + 1, R):
        for mult in range(d, order + 1, d):
            dense[mult] += 1
    for d in range(R - S, order + 1, R):
        for mult in range(d, order + 1, d):
            dense[mult] -= 1
    return dense


def record(monkeypatch, owner, name, view=lambda *args: args) -> list:
    """Replace owner.name by a wrapper that appends view(*args) to the
    returned list, then calls the original. The view is taken before the
    call, so it sees a list argument as it was before the call mutated it."""
    calls = []
    original = getattr(owner, name)

    def recording(*args):
        calls.append(view(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls
