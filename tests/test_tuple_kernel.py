"""The tuple kernel behind the combinatorial certificates.

The slow paths it replaced are kept here as oracles: the recursive
enumerator, the object-based phi and psi, and the O(largest * length)
conjugate. The verifiers run on plain tuples, so the failure-path tests
check that a bad image or input still yields the violation or the
ValueError, with the message text, that the Partition and IndexedPartition
constructors give.
"""

import pytest

from qtrunc import IndexedPartition, Partition, bijections, gpn, psi, verify_phi, verify_psi
from qtrunc.bijections import _phi, _psi
from qtrunc.partitions import _conjugate, _partition_tuples
from reference import record


def recursive_partition_tuples(n, max_part=None):
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in recursive_partition_tuples(n - first, first):
            yield (first,) + rest


def slow_conjugate(parts):
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def object_phi(x):
    lam, j, n = x.lam, x.j, x.n
    t = len(lam.parts)
    if t == 0:
        if j == 0:
            raise ValueError("the involution is undefined on (empty, j=0)")
        if j >= 1:
            return IndexedPartition(Partition((3 * j - 1,)), j - 1, n), 1
        ones = -3 * j - 2
        return IndexedPartition(Partition((1,) * ones), j + 1, n), 2
    lam1 = lam.parts[0]
    if t + 3 * j >= lam1:
        parts = (t + 3 * j - 1,) + tuple(p - 1 for p in lam.parts)
        parts = tuple(p for p in parts if p > 0)
        return IndexedPartition(Partition(parts), j - 1, n), 1
    ones = lam1 - (t + 3 * j) - 1
    parts = tuple(p + 1 for p in lam.parts[1:]) + (1,) * ones
    return IndexedPartition(Partition(parts), j + 1, n), 2


def object_psi(lam, k):
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if lam.rank > -3 * k:
        raise ValueError(
            f"rank {lam.rank} violates the precondition rank <= {-3 * k}"
        )
    conj = slow_conjugate(lam.parts)
    return Partition((conj[0] + 2 * k - 1,) + conj[1:])


def constructor_error(parts, j=None, n=None):
    """The message Partition(parts), or IndexedPartition of it, raises."""
    with pytest.raises(ValueError) as exc:
        lam = Partition(parts)
        if j is not None:
            IndexedPartition(lam, j, n)
    return str(exc.value)


def test_enumerator_matches_recursive_oracle():
    for n in range(31):
        assert list(_partition_tuples(n)) == list(recursive_partition_tuples(n)), n


def test_phi_kernel_matches_object_oracle():
    pairs = 0
    for n in range(1, 26):
        for j in range(-n, n + 1):
            if gpn(j) > n:
                continue
            for parts in recursive_partition_tuples(n - gpn(j)):
                image, case = object_phi(IndexedPartition(Partition(parts), j, n))
                assert _phi(parts, j) == (image.lam.parts, image.j, case), (parts, j)
                pairs += 1
    assert pairs > 25000
    with pytest.raises(ValueError, match=r"undefined on \(empty, j=0\)"):
        _phi((), 0)


def test_psi_and_conjugate_kernels_match_oracles():
    images = 0
    for m in range(26):
        for parts in recursive_partition_tuples(m):
            assert _conjugate(parts) == slow_conjugate(parts)
            lam = Partition(parts)
            assert lam.conjugate().parts == slow_conjugate(parts)
            k = 1
            while lam.rank <= -3 * k:
                assert _psi(parts, k) == object_psi(lam, k).parts, (parts, k)
                images += 1
                k += 1
            # the first k past the precondition, and k = 0, fail alike
            for bad_k in (k, 0):
                with pytest.raises(ValueError) as fast:
                    psi(lam, bad_k)
                with pytest.raises(ValueError) as slow:
                    object_psi(lam, bad_k)
                assert str(fast.value) == str(slow.value)
    assert images > 1000


def _rig_phi(monkeypatch, rigged):
    """Route the listed (parts, j) inputs of _phi to rigged images."""
    real = bijections._phi

    def fake(parts, j):
        return rigged.get((parts, j)) or real(parts, j)

    monkeypatch.setattr(bijections, "_phi", fake)


def test_verify_phi_reports_non_increasing_image(monkeypatch):
    _rig_phi(monkeypatch, {((3, 1), 0): ((1, 2), 1, 2)})
    report = verify_phi(4)
    message = constructor_error((1, 2), 1, 4)
    assert message == "parts must be non-increasing, got (1, 2)"
    # (2,) at j=1 maps back to the rigged input, so its round trip fails too
    assert report.to_dict()["violations"] == [
        {"witness": {"partition": [3, 1], "j": 0, "check": "apply"},
         "expected": "image", "actual": message},
        {"witness": {"partition": [3, 1], "j": 0, "check": "apply-back"},
         "expected": "preimage", "actual": message},
    ]


def test_verify_phi_reports_wrong_weight_image(monkeypatch):
    _rig_phi(monkeypatch, {((3, 1), 0): ((2, 1), 1, 2)})
    report = verify_phi(4)
    message = constructor_error((2, 1), 1, 4)
    assert message == "weight 3 does not match n - gpn(j) = 2"
    assert report.to_dict()["violations"] == [
        {"witness": {"partition": [3, 1], "j": 0, "check": "apply"},
         "expected": "image", "actual": message},
        {"witness": {"partition": [3, 1], "j": 0, "check": "apply-back"},
         "expected": "preimage", "actual": message},
    ]


def test_verify_phi_reports_wrong_weight_preimage(monkeypatch):
    # (3,1) at j=0 maps to (2,) at j=1, whose image is rigged
    _rig_phi(monkeypatch, {((2,), 1): ((3, 2), 0, 1)})
    report = verify_phi(4)
    message = constructor_error((3, 2), 0, 4)
    assert message == "weight 5 does not match n - gpn(j) = 4"
    assert report.to_dict()["violations"] == [
        {"witness": {"partition": [2], "j": 1, "check": "apply-back"},
         "expected": "preimage", "actual": message},
        {"witness": {"partition": [2], "j": 1, "check": "apply"},
         "expected": "image", "actual": message},
    ]


def test_verify_phi_rejects_malformed_input(monkeypatch):
    real = bijections._partition_tuples

    def fake(m):
        yield from real(m)
        if m == 4:
            yield (1, 3)
    monkeypatch.setattr(bijections, "_partition_tuples", fake)
    with pytest.raises(ValueError) as exc:
        verify_phi(4)
    assert str(exc.value) == constructor_error((1, 3))


def _rig_psi(monkeypatch, rigged):
    real = bijections._psi
    monkeypatch.setattr(bijections, "_psi", lambda parts, k: rigged.get(parts) or real(parts, k))


def test_verify_psi_reports_non_increasing_image(monkeypatch):
    ones = (1,) * 10
    _rig_psi(monkeypatch, {ones: (1, 13)})
    report = verify_psi(15, 2)
    message = constructor_error((1, 13))
    assert message == "parts must be non-increasing, got (1, 13)"
    assert report.to_dict()["violations"] == [{
        "witness": {"partition": list(ones), "j": -2, "check": "apply"},
        "expected": "image",
        "actual": message,
    }]


def test_verify_psi_reports_wrong_weight_image_as_non_member(monkeypatch):
    ones = (1,) * 10
    _rig_psi(monkeypatch, {ones: (13, 1)})
    report = verify_psi(15, 2)
    assert report.to_dict()["violations"] == [{
        "witness": {"partition": list(ones), "j": -2, "check": "membership"},
        "expected": "member of rank class > 3 at weight 13",
        "actual": [13, 1],
    }]


def _rig_class(monkeypatch, variant, extra):
    real = bijections._rank_class

    def fake(v, j, n):
        members = real(v, j, n)
        return members + [extra] if v == variant else members
    monkeypatch.setattr(bijections, "_rank_class", fake)


def test_verify_psi_precondition_message(monkeypatch):
    # (10,) has the source weight 15 - gpn(-2) but rank 9
    _rig_class(monkeypatch, 1, (10,))
    report = verify_psi(15, 2)
    message = "rank 9 violates the precondition rank <= -6"
    assert report.params["source_size"] == 4
    assert report.to_dict()["violations"] == [{
        "witness": {"partition": [10], "j": -2, "check": "apply"},
        "expected": "image",
        "actual": message,
    }]
    with pytest.raises(ValueError) as exc:
        psi(Partition((10,)), 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("variant, extra, j", [
    (1, (1, 2, 1, 1, 1, 1, 1, 1, 1), None),
    (1, (2, 2, 2), -2),
])
def test_verify_psi_rejects_malformed_class_member(monkeypatch, variant, extra, j):
    _rig_class(monkeypatch, variant, extra)
    with pytest.raises(ValueError) as exc:
        verify_psi(15, 2)
    assert str(exc.value) == constructor_error(extra, j, None if j is None else 15)


# The target class is not built, so each image is checked on its own: a
# non-partition is an apply violation with the constructor's message; a
# wrong weight, or a rank on the boundary 3(k-1) = 3, is not a member.
@pytest.mark.parametrize("image, check", [
    ((4, 10), "apply"),
    ((12,), "membership"),
    ((8, 2, 1, 1, 1), "membership"),
])
def test_verify_psi_checks_each_image(monkeypatch, image, check):
    ones = (1,) * 10
    _rig_psi(monkeypatch, {ones: image})
    report = verify_psi(15, 2)
    if check == "apply":
        expected, actual = "image", constructor_error(image)
        assert actual == "parts must be non-increasing, got (4, 10)"
    else:
        expected, actual = "member of rank class > 3 at weight 13", list(image)
    assert report.params["target_size"] == 21
    assert report.to_dict()["violations"] == [{
        "witness": {"partition": list(ones), "j": -2, "check": check},
        "expected": expected,
        "actual": actual,
    }]


def test_verify_psi_enumerates_only_the_source_class(monkeypatch):
    calls = record(monkeypatch, bijections, "_rank_class")
    assert verify_psi(15, 2).passed
    assert calls == [(1, -2, 15)]


def test_verifiers_build_no_partition_objects(monkeypatch):
    built = []
    for cls in (Partition, IndexedPartition):
        original = cls.__post_init__

        def counting(self, original=original, name=cls.__name__):
            built.append(name)
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    assert verify_phi(20).passed
    assert verify_psi(20, 2).passed
    assert built == []
    IndexedPartition(Partition((1,)), 0, 1)
    assert built == ["Partition", "IndexedPartition"]
