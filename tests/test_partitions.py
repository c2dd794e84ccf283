import random

import pytest
from helpers import (
    class_pairs,
    naive_coherent_blocks,
    naive_compatible,
    naive_doubled_blocks,
    naive_induced_blocks,
    random_endo_family,
    random_euclidean_space,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from menger.errors import InputError
from menger.fixtures import antipodal_perm, circle_space, rotation_perm
from menger.partitions import (
    INTERSECTIVE,
    NON_INTERSECTIVE,
    CoherentBlock,
    DoubledFamily,
    Partition,
    classify,
    coherent_decomposition,
    column_partition,
    compatible_subset,
    doubled_induced_partition,
    first_fit_block,
    induced_partition,
    intersective_transport,
    mirror_block,
    mirror_partition,
    reduced_maps,
    refines,
)
from menger.space import MapFamily, identity_perm


def test_partition_of_validates_and_canonicalizes():
    p = Partition.of("abc", [["c"], ["b", "a"]])
    assert p.blocks == (("a", "b"), ("c",))
    with pytest.raises(InputError):
        Partition.of("abc", [["a", "b"]])            # misses c
    with pytest.raises(InputError):
        Partition.of("abc", [["a", "b"], ["b", "c"]])  # overlap
    with pytest.raises(InputError):
        Partition.of("abc", [["a", "b", "c"], []])   # empty block


def test_partition_from_key_is_canonical():
    key = {"a": 1, "b": 0, "c": 1, "d": 2}.__getitem__
    p = Partition.from_key("abcd", key)
    assert p == Partition.of("abcd", [["d"], ["c", "a"], ["b"]])
    assert p.blocks == (("a", "c"), ("b",), ("d",))
    with pytest.raises(InputError, match="repeated"):
        Partition.from_key("aba", key)


def test_refines_basics():
    fine = Partition.of("abc", [["a"], ["b"], ["c"]])
    coarse = Partition.of("abc", [["a", "b"], ["c"]])
    assert refines(fine, coarse)
    assert refines(coarse, coarse)
    assert not refines(coarse, fine)
    other = Partition.of("abc", [["a"], ["b", "c"]])
    assert not refines(Partition.of("abc", [["a", "b"], ["c"]]), other)
    with pytest.raises(InputError):
        refines(fine, Partition.of("abd", [["a"], ["b"], ["d"]]))


def test_induced_partition_matches_direct_grouping():
    space = circle_space(6)
    fam = MapFamily.create(
        space, space, [identity_perm(6), rotation_perm(6, 3), rotation_perm(6, 0)]
    )
    # maps 0 and 2 are both the identity, so they agree everywhere
    p = induced_partition(fam, 4)
    assert {frozenset(b) for b in p.blocks} == naive_induced_blocks(fam, 4)
    assert p.block_of(0) == (0, 2)


def test_compatible_subsets_partition_the_point_set():
    rng = random.Random(7)
    space = random_euclidean_space(rng, 5)
    fam = random_endo_family(rng, space, 2)
    seen = set()
    for x in range(5):
        p = induced_partition(fam, x)
        sub = compatible_subset(fam, range(5), p)
        assert x in sub
        assert sub == frozenset(
            naive_compatible(fam, range(5), {frozenset(b) for b in p.blocks})
        )
        seen |= sub
    assert seen == set(range(5))


def test_doubled_family_order_and_values():
    space = circle_space(5)
    fam = MapFamily.create(space, space, [identity_perm(5), rotation_perm(5, 1)])
    df = DoubledFamily(fam)
    assert df.labels == ((0, 1), (0, 2), (1, 1), (1, 2))
    assert df.value((1, 1), (2, 4)) == 3
    assert df.value((1, 2), (2, 4)) == 0


def test_doubled_induced_partition_rejects_diagonal_and_matches_naive():
    rng = random.Random(11)
    space = random_euclidean_space(rng, 6)
    fam = random_endo_family(rng, space, 3)
    df = DoubledFamily(fam)
    with pytest.raises(InputError):
        doubled_induced_partition(df, (2, 2))
    for x1 in range(6):
        for x2 in range(6):
            if x1 == x2:
                continue
            p_hat = doubled_induced_partition(df, (x1, x2))
            assert {frozenset(b) for b in p_hat.blocks} == naive_doubled_blocks(
                fam, (x1, x2)
            )


def test_single_injective_map_always_splits_the_pair():
    space = circle_space(4)
    fam = MapFamily.create(space, space, [rotation_perm(4, 1)])
    df = DoubledFamily(fam)
    for x1 in range(4):
        for x2 in range(4):
            if x1 != x2:
                p_hat = doubled_induced_partition(df, (x1, x2))
                assert p_hat.blocks == (((0, 1),), ((0, 2),))
                assert classify(p_hat) == NON_INTERSECTIVE


def test_classify_and_columns():
    ground = [(0, 1), (0, 2), (1, 1), (1, 2)]
    mixed = Partition.of(ground, [[(0, 1), (1, 2)], [(0, 2)], [(1, 1)]])
    assert classify(mixed) == INTERSECTIVE
    within = Partition.of(ground, [[(0, 1), (1, 1)], [(0, 2)], [(1, 2)]])
    assert classify(within) == NON_INTERSECTIVE
    assert column_partition(within, 1).blocks == ((0, 1),)
    assert column_partition(within, 2).blocks == ((0,), (1,))
    assert mirror_partition(mixed).blocks == Partition.of(
        ground, [[(0, 2), (1, 1)], [(0, 1)], [(1, 2)]]
    ).blocks


def _antipodal_doubled(n: int = 8):
    space = circle_space(n)
    fam = MapFamily.create(space, space, [identity_perm(n), antipodal_perm(n)])
    return space, fam, DoubledFamily(fam)


def test_coherent_decomposition_splits_colliding_mirror_pairs():
    n = 8
    _, fam, df = _antipodal_doubled(n)
    x = 0
    p_hat = doubled_induced_partition(df, (x, x + 4))
    assert classify(p_hat) == INTERSECTIVE
    blocks = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))
    # the mirror pair (x+4, x) induces the same partition but cannot share a
    # coherent block with (x, x+4): their image sets would overlap
    assert len(blocks) == 2
    all_pairs = {p for blk in blocks for p in blk.pairs}
    assert all_pairs == {(a, (a + 4) % n) for a in range(n)}
    for blk in blocks:
        firsts = {a for a, _ in blk.pairs}
        assert len(firsts) == len(blk.pairs)


def test_coherent_blocks_verify_membership_and_disjoint_images():
    rng = random.Random(23)
    for _ in range(10):
        space = random_euclidean_space(rng, 6)
        fam = random_endo_family(rng, space, 2)
        df = DoubledFamily(fam)
        partitions = {
            doubled_induced_partition(df, (a, b))
            for a in range(6)
            for b in range(6)
            if a != b
        }
        for p_hat in partitions:
            blocks = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))
            assert [list(blk.pairs) for blk in blocks] == naive_coherent_blocks(df, p_hat)
            covered = [p for blk in blocks for p in blk.pairs]
            assert len(covered) == len(set(covered))
            for blk in blocks:
                for pair in blk.pairs:
                    assert doubled_induced_partition(df, pair) == p_hat
                images = [
                    {df.value(s, pair) for s in labels for pair in blk.pairs}
                    for labels in p_hat.blocks
                ]
                for i in range(len(images)):
                    for j in range(i + 1, len(images)):
                        assert not images[i] & images[j]


def test_coherent_blocks_match_first_fit_on_circle_rotations():
    space = circle_space(12)
    fam = MapFamily.create(space, space, [rotation_perm(12, s) for s in (0, 4, 8)])
    df = DoubledFamily(fam)
    partitions = {
        doubled_induced_partition(df, (a, b)) for a in range(12) for b in range(12) if a != b
    }
    for p_hat in partitions:
        blocks = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))
        assert [list(blk.pairs) for blk in blocks] == naive_coherent_blocks(df, p_hat)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coherent_blocks_equal_checked_build(data):
    n = data.draw(st.integers(3, 8))
    space = circle_space(n)
    maps = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(1, 4)))]
    df = DoubledFamily(MapFamily.create(space, space, maps))
    classes: dict[Partition, list[tuple[int, int]]] = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                classes.setdefault(doubled_induced_partition(df, (a, b)), []).append((a, b))
    for p_hat, members in classes.items():
        # any order, repeats included, packs into blocks that pass the checks
        order = data.draw(st.permutations(members))
        order += data.draw(st.lists(st.sampled_from(members), max_size=3))
        for blk in coherent_decomposition(df, p_hat, order):
            assert blk == CoherentBlock.build(df, p_hat, blk.pairs)
            # the mirrored block is the checked build of the swapped pairs
            swapped = [(x2, x1) for x1, x2 in blk.pairs]
            assert mirror_block(blk) == CoherentBlock.build(
                df, mirror_partition(p_hat), swapped
            )


def test_intersective_transport_on_antipodal_block():
    n = 8
    _, fam, df = _antipodal_doubled(n)
    p_hat = doubled_induced_partition(df, (0, 4))
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    res = intersective_transport(df, block)
    for x1, x2 in block.pairs:
        assert res.transport[x1] == x2
        assert (x1 + 4) % n == x2
    # both column-2 classes meet a column-1 label, and zeta swaps the indices
    assert res.intersecting == frozenset({0, 1})
    assert res.zeta == {0: 1, 1: 0}
    # simultaneous property: g_{i1}(x) == g_{i2}(T x) for the mixed labels
    for blk in p_hat.blocks:
        for (i1, j1) in blk:
            for (i2, j2) in blk:
                if j1 == 1 and j2 == 2:
                    for x1, x2 in res.transport.items():
                        assert fam.maps[i1][x1] == fam.maps[i2][x2]


def test_intersective_transport_rejects_non_intersective():
    space = circle_space(5)
    fam = MapFamily.create(space, space, [rotation_perm(5, 1)])
    df = DoubledFamily(fam)
    p_hat = doubled_induced_partition(df, (0, 1))
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    with pytest.raises(InputError):
        intersective_transport(df, block)


def test_reduced_maps_agree_on_classes():
    _, fam, df = _antipodal_doubled(8)
    p_hat = doubled_induced_partition(df, (0, 4))
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    red1 = reduced_maps(df, block, 1)
    red2 = reduced_maps(df, block, 2)
    assert red1.points == tuple(sorted({a for a, _ in block.pairs}))
    assert red2.points == tuple(sorted({b for _, b in block.pairs}))
    assert red1.partition.block_count() == 2
    for rep in red1.reps:
        assert set(rep) == set(red1.points)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_fit_block_peels_the_first_fit_packing(data):
    """Peeling one block at a time gives the blocks of first-fit over the whole order."""
    n = data.draw(st.integers(3, 8))
    space = circle_space(n)
    maps = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(1, 4)))]
    df = DoubledFamily(MapFamily.create(space, space, maps))
    classes: dict[Partition, list[tuple[int, int]]] = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                classes.setdefault(doubled_induced_partition(df, (a, b)), []).append((a, b))
    for p_hat, members in classes.items():
        order = data.draw(st.permutations(members))
        order += data.draw(st.lists(st.sampled_from(members), max_size=3))
        expected = naive_coherent_blocks(df, p_hat, order)
        peeled = []
        rest = list(order)
        while rest:
            blk, left = first_fit_block(df, p_hat, rest)
            # the leftovers keep their order: they are the pairs not taken
            assert left == [pair for pair in rest if pair not in blk.pairs]
            assert blk == CoherentBlock.build(df, p_hat, blk.pairs)
            peeled.append(blk)
            rest = left
        assert [blk.pairs for blk in peeled] == [tuple(sorted(set(b))) for b in expected]
        assert coherent_decomposition(df, p_hat, order) == tuple(peeled)
