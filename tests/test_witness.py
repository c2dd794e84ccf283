from collections import Counter

import pytest
from helpers import bipartite_instances, instance_count

from menger.errors import InputError
from menger.witness import BipartiteInstance, check_separation, find_witness


def _inst_a():
    # the least-preimage section of V1* is {0, 1} and 0 already lands in V2*
    return BipartiteInstance.create(
        w_labels=(0, 1, 2),
        v1_labels=("a", "b"),
        v2_labels=("c",),
        f1={0: "a", 1: "b", 2: "a"},
        f2={0: "c", 1: "c", 2: "c"},
        v1_star={"a", "b"},
        v2_star={"c"},
    )


def _inst_b():
    # section of V1* = {a, b} is {0, 1}; both land on u outside V2*, so the
    # pigeonhole step must fire on the shared second image
    return BipartiteInstance.create(
        w_labels=(0, 1, 2, 3, 4),
        v1_labels=("a", "b", "c"),
        v2_labels=("u", "v", "w"),
        f1={0: "a", 1: "b", 2: "c", 3: "a", 4: "b"},
        f2={0: "u", 1: "u", 2: "v", 3: "w", 4: "u"},
        v1_star={"a", "b"},
        v2_star={"v", "w"},
    )


def test_create_validations():
    with pytest.raises(InputError, match="nonempty"):
        BipartiteInstance.create((), ("a",), ("c",), {}, {}, {"a"}, {"c"})
    with pytest.raises(InputError, match=r"\|V1\|"):
        BipartiteInstance.create((0,), ("a",), ("c", "d"), {0: "a"}, {0: "c"}, {"a"}, {"c", "d"})
    with pytest.raises(InputError, match="duplicates"):
        BipartiteInstance.create((0, 0), ("a",), ("c",), {0: "a"}, {0: "c"}, {"a"}, {"c"})
    with pytest.raises(InputError, match="undefined"):
        BipartiteInstance.create((0, 1), ("a",), ("c",), {0: "a"}, {0: "c", 1: "c"}, {"a"}, {"c"})
    with pytest.raises(InputError, match="outside"):
        BipartiteInstance.create((0,), ("a",), ("c",), {0: "z"}, {0: "c"}, {"a"}, {"c"})
    with pytest.raises(InputError, match="not surjective"):
        BipartiteInstance.create(
            (0, 1), ("a", "b"), ("c",), {0: "a", 1: "a"}, {0: "c", 1: "c"}, {"a", "b"}, {"c"}
        )
    with pytest.raises(InputError, match="majority"):
        BipartiteInstance.create(
            (0, 1), ("a", "b"), ("c",), {0: "a", 1: "b"}, {0: "c", 1: "c"}, {"a"}, {"c"}
        )
    with pytest.raises(InputError, match="inside"):
        BipartiteInstance.create(
            (0,), ("a",), ("c",), {0: "a"}, {0: "c"}, {"a", "zz"}, {"c"}
        )


def test_find_witness_a_case():
    wit = find_witness(_inst_a())
    assert wit.kind == "A"
    assert wit.w == 0 and wit.w_other is None


def test_find_witness_b_case():
    inst = _inst_b()
    wit = find_witness(inst)
    assert wit.kind == "B"
    assert {wit.w, wit.w_other} == {0, 1}
    assert inst.f2[wit.w] == inst.f2[wit.w_other]
    assert inst.f1[wit.w] != inst.f1[wit.w_other]


def test_find_witness_prefers_a_over_b():
    # 0 and 1 form a B-pair on u, but 2 sits in both marked sets; the A scan
    # runs to completion before any pigeonhole argument starts
    inst = BipartiteInstance.create(
        w_labels=(0, 1, 2, 3),
        v1_labels=("a", "b", "c"),
        v2_labels=("u", "v", "w"),
        f1={0: "a", 1: "b", 2: "c", 3: "a"},
        f2={0: "u", 1: "u", 2: "v", 3: "w"},
        v1_star={"a", "b", "c"},
        v2_star={"v", "w"},
    )
    wit = find_witness(inst)
    assert wit.kind == "A" and wit.w == 2


def test_check_separation_produces_explicit_disagreement():
    inst = _inst_b()
    phi1 = {"a": 10, "b": 11, "c": 12}
    phi2 = {"u": 20, "v": 21, "w": 22}
    proof = check_separation(inst, phi1, phi2)
    assert proof.left == phi1[inst.f1[proof.w]]
    assert proof.right == phi2[inst.f2[proof.w]]
    assert proof.left != proof.right
    assert proof.witness.kind == "B"


def test_check_separation_b_witness_with_one_colliding_end():
    # phi values are rigged so the first end of the B-pair composes equal on
    # both sides; the proof must fall through to the other end
    inst = _inst_b()
    phi1 = {"a": 5, "b": 11}
    phi2 = {"v": 21, "w": 22, "u": 5}
    proof = check_separation(inst, phi1, phi2)
    assert proof.w == 1
    assert proof.left == 11 and proof.right == 5


def test_check_separation_preconditions():
    inst = _inst_b()
    good2 = {"v": 21, "w": 22, "u": 20}
    with pytest.raises(InputError, match="not injective on the marked set"):
        check_separation(inst, {"a": 7, "b": 7}, good2)
    with pytest.raises(InputError, match="phi2 undefined on marked label 'w'"):
        check_separation(inst, {"a": 1, "b": 2}, {"v": 21, "u": 20})
    inst_a = _inst_a()
    with pytest.raises(InputError, match="agree at 0"):
        check_separation(inst_a, {"a": 9, "b": 8}, {"c": 9})


def test_enumerate_instances_matches_closed_form_count():
    got = sum(1 for _ in bipartite_instances(3, 2, 2))
    assert got == instance_count(3, 2, 2)


def test_witness_oracle_small_sweep_is_all_a():
    # with |V2| <= 2 a strict majority is the whole side, so the A scan
    # cannot miss; find_witness re-verifies each witness it returns
    kinds = Counter(find_witness(inst).kind for inst in bipartite_instances(3, 2, 2))
    assert kinds == {"A": instance_count(3, 2, 2)}


def test_witness_oracle_full_sweep_reaches_both_branches():
    kinds = Counter(find_witness(inst).kind for inst in bipartite_instances(4, 3, 3))
    assert kinds.keys() == {"A", "B"}   # B needs |W| >= 4 and |V2| >= 3
    assert kinds.total() == instance_count(4, 3, 3)
