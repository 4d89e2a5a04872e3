"""The orbit pass of verify_phi and the per-element reporter behind it.

verify_phi maps each element of its domain once: it visits the case-1
member of every orbit {x, phi(x)} and proves by counting that the partners
are all the case-2 elements. When any test of that pass fails it runs the
per-element reporter instead, so the report is always the reporter's. The
rigged failures below each break one thing the pass must notice: the pass
has to hand over to the reporter, and the payload has to be the one the
reporter gives alone.
"""

import pytest

from qtrunc import bijections, gpn, p_euler, verify_phi
from qtrunc.partitions import _partition_tuples
from reference import record


def _record_reporter(monkeypatch):
    """Record the weights the per-element reporter runs at."""
    return record(monkeypatch, bijections, "_phi_report", lambda n, indices: n)


def _reporter_alone(monkeypatch, n):
    """verify_phi(n) with the orbit pass failing at once: the payload the
    per-element reporter gives on its own."""
    with monkeypatch.context() as m:
        m.setattr(bijections, "_phi_orbits", lambda n, indices: False)
        return verify_phi(n).to_dict()


def test_verify_phi_maps_each_element_once(monkeypatch):
    """Timing-free gate: a passing run applies _phi once per element of the
    domain (the per-element loop applies it twice) and never reports."""
    calls = record(monkeypatch, bijections, "_phi")
    entered = _record_reporter(monkeypatch)
    assert verify_phi(20).passed
    domain = sum(p_euler(20 - gpn(j)) for j in range(-20, 21) if gpn(j) <= 20)
    assert domain == 1808
    assert len(calls) == 1808
    assert entered == []


def test_orbit_pass_and_reporter_agree_on_the_real_involution():
    for n in range(1, 23):
        indices = sorted(j for j in range(-n, n + 1) if gpn(j) <= n)
        assert bijections._phi_orbits(n, indices), n
        assert bijections._phi_report(n, indices).to_dict() == verify_phi(n).to_dict()


def _rig(monkeypatch, name, rigged):
    """Route the listed (parts, j) inputs of a bijections kernel to rigged
    results."""
    real = getattr(bijections, name)
    monkeypatch.setattr(bijections, name, lambda parts, j: rigged.get((parts, j)) or real(parts, j))


def _rig_enumerator(monkeypatch, replaced):
    """Replace the partitions of the listed weights by the given lists."""
    real = bijections._partition_tuples
    monkeypatch.setattr(bijections, "_partition_tuples",
                        lambda m: iter(replaced[m]) if m in replaced else real(m))


# At n = 5, (4,) at j = -1 is case 2 with image (1, 1, 1, 1, 1) at j = 0;
# (3, 1, 1) at j = 0 is case 1 with image (2, 2) at j = -1.
@pytest.mark.parametrize("name, rigged", [
    # wrong only on one case-2 input: the image of (3, 1) instead
    ("_phi", {((4,), -1): ((2, 1, 1, 1), 0, 2)}),
    # the right image, tagged with the case the case test does not give
    ("_phi", {((3, 1, 1), 0): ((2, 2), -1, 2)}),
    ("_phi", {((2, 2), -1): ((3, 1, 1), 0, 1)}),
    # a case-1 image of the wrong weight whose own image leads back: only
    # the image's validation shows it
    ("_phi", {((3, 1, 1), 0): ((2, 2, 1), -1, 1), ((2, 2, 1), -1): ((3, 1, 1), 0, 2)}),
    # a case test that sends one case-1 element to case 2: its partner is
    # then nobody's image, and only the case counts show it
    ("_phi_case", {((3, 1, 1), 0): 2}),
])
def test_orbit_pass_hands_a_rigged_kernel_to_the_reporter(monkeypatch, name, rigged):
    _rig(monkeypatch, name, rigged)
    entered = _record_reporter(monkeypatch)
    report = verify_phi(5)
    assert entered == [5]
    assert not report.passed
    assert report.to_dict() == _reporter_alone(monkeypatch, 5)


def _without(m, *dropped):
    return [parts for parts in _partition_tuples(m) if parts not in dropped]


@pytest.mark.parametrize("replaced", [
    # (2, 2, 1) dropped and (3, 1, 1) repeated: both case 1 at j = 0, so
    # every count still matches and only the order shows it
    {5: [(5,), (4, 1), (3, 2), (3, 1, 1), (3, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]},
    # the orbit of (2, 2, 1) at j = 0 dropped whole, with its partner
    # (2, 1, 1) at j = -1: the case counts balance, and only the count
    # against p(m) shows it
    {5: _without(5, (2, 2, 1)), 4: _without(4, (2, 1, 1))},
])
def test_orbit_pass_hands_a_wrong_enumeration_to_the_reporter(monkeypatch, replaced):
    _rig_enumerator(monkeypatch, replaced)
    entered = _record_reporter(monkeypatch)
    report = verify_phi(5)
    assert entered == [5]
    # each element the reporter sees still maps correctly
    assert report.passed
    assert report.to_dict() == _reporter_alone(monkeypatch, 5)
