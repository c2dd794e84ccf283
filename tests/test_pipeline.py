import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    bell_family_verdict,
    class_pairs,
    growth_strings,
    naive_certify_eta,
    naive_closest_gap,
    naive_distinct_gap,
    naive_margin,
    orbit_margin,
    orbit_row,
    random_endo_family,
    random_euclidean_space,
    reference_action_report,
    reference_block_loop,
    reference_family_report,
)
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menger.errors import (
    CoverInfeasibleError,
    GroupCapError,
    HypothesisError,
    InputError,
    InternalCheckError,
)
from menger.fixtures import antipodal_perm, circle_space, path_coords, path_space, rotation_perm
from menger import io, pipeline
from menger.io import hypothesis_doc, verify_certificate, write_certificate
from menger.gate import (
    HypothesisCheck,
    action_stages,
    check_hypotheses_action,
    check_hypotheses_family,
    default_stage_n,
    family_stage,
)
from menger.partitions import (
    INTERSECTIVE,
    DoubledFamily,
    coherent_decomposition,
    doubled_induced_partition,
    induced_classes,
    induced_partition,
)
from menger.perturb import Observable, sample_observable, sup_distance
from menger.pipeline import (
    BRANCH_SKIPPED,
    colliding_pair_classes,
    embed_equivariant,
    embed_family,
    _eta_threshold,
    margin,
    separate_on_block,
)
from menger.space import FiniteSpace, GroupAction, MapFamily, identity_perm, orbit


def _assert_orbit_injective(cert, fam):
    rows = [orbit_row(cert.observable, fam, x) for x in range(fam.source.n_points)]
    assert len(set(rows)) == len(rows)


def test_family_hypotheses_single_map_needs_r_three_on_a_circle():
    space = circle_space(9)
    fam = MapFamily.create(space, space, [identity_perm(9)])
    # the one-map family has a single partition class: the whole circle, of
    # dimension 1, so the strict bound 2*1 < r needs r >= 3
    assert not check_hypotheses_family(fam, 1).passed
    assert not check_hypotheses_family(fam, 2).passed
    assert check_hypotheses_family(fam, 3).passed


def test_family_hypotheses_three_rotations_pass_at_r_one(circle9):
    fam = MapFamily.create(
        circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)]
    )
    report = check_hypotheses_family(fam, 1)
    assert report.passed
    # the three rotations of a point are distinct, so every point realizes
    # the finest partition and it is the only check
    assert [(c.kind, c.label, c.subset_size) for c in report.checks] == [
        ("partition", "[[0], [1], [2]]", 9)
    ]


def test_family_hypotheses_report_names_the_failure():
    space = circle_space(6)
    fam = MapFamily.create(space, space, [identity_perm(6), identity_perm(6)])
    # both maps agree everywhere, so the coarse partition class is the whole
    # circle and fails at r = 1; the fine class is empty and not reported
    report = check_hypotheses_family(fam, 1)
    assert not report.passed
    assert report.failures() == report.checks
    (bad,) = report.checks
    assert (bad.label, bad.subset_size, bad.dim, bad.bound_num) == ("[[0, 1]]", 6, 1, 1)
    assert bad.describe() == "partition [[0, 1]]: dim 1 < 1/2 [FAIL]"


def _whole_group_report(action, r):
    return check_hypotheses_action(action, r, action_stages(action, None, r))


def test_action_hypotheses_antipodal_fails_at_r_one(antipodal_action):
    report = _whole_group_report(antipodal_action, 1)
    assert not report.passed
    failing = report.failures()
    assert [c.label for c in failing] == ["N=2"]
    assert failing[0].describe() == "periodic N=2: dim 1 < 2/2 [FAIL]"
    assert _whole_group_report(antipodal_action, 2).passed


def test_action_hypotheses_rotation_passes_at_r_one(rot3_action):
    report = _whole_group_report(rot3_action, 1)
    assert report.passed
    assert [c.label for c in report.checks] == ["N=1", "N=2", "N=3"]
    assert [c.subset_size for c in report.checks] == [0, 0, 9]


@st.composite
def simplicial_spaces(draw, n: int) -> FiniteSpace:
    """A path metric on n points with a few random faces and dimension labels."""
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
    labels = draw(
        st.lists(st.tuples(st.sets(st.integers(0, n - 1)), st.integers(0, 3)), max_size=2)
    )
    metric = [[abs(a - b) for b in range(n)] for a in range(n)]
    return FiniteSpace.create(metric, simplices=faces, dim_labels=labels)


@st.composite
def families(draw, n_maps: st.SearchStrategy[int]) -> MapFamily:
    n = draw(st.integers(1, 6))
    space = draw(simplicial_spaces(n))
    maps = [draw(st.permutations(range(n))) for _ in range(draw(n_maps))]
    return MapFamily.create(space, space, maps)


# every family size takes the same realized-only path; wide families get
# examples of their own
@pytest.mark.parametrize("lo, hi", [(1, 8), (9, 10)])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_family_gate_matches_per_candidate_scan(lo, hi, data, r):
    fam = data.draw(families(st.integers(lo, hi)))
    got = hypothesis_doc(check_hypotheses_family(fam, r))
    assert got == hypothesis_doc(reference_family_report(fam, r))


@pytest.mark.parametrize("lo, hi", [(1, 8), (9, 10)])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_family_gate_on_subspace_asks_the_dim_oracle_alike(lo, hi, data, r):
    n = data.draw(st.integers(2, 8))
    ambient = data.draw(simplicial_spaces(n))
    pts = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    source, ambient_pts = ambient.subspace(pts)
    maps = [
        data.draw(st.permutations(range(n)))[: len(ambient_pts)]
        for _ in range(data.draw(st.integers(lo, hi)))
    ]
    fam = MapFamily.create(source, ambient, maps)
    calls: list[frozenset[int]] = []
    declared_dim = FiniteSpace.dim

    def recording_dim(space: FiniteSpace, subset) -> int:
        if space is source:
            calls.append(frozenset(subset))
        return declared_dim(space, subset)

    with mock.patch.object(FiniteSpace, "dim", recording_dim):
        got = hypothesis_doc(check_hypotheses_family(fam, r))
        got_calls, calls[:] = list(calls), []
        assert got == hypothesis_doc(reference_family_report(fam, r))
    # every realized class asks the oracle once, in check order, and no
    # unrealized class is asked at all
    assert got_calls == calls
    assert len(got_calls) == len(got["checks"])
    assert all(got_calls)


def stage_lists(n: int, max_stages: int = 2) -> st.SearchStrategy:
    """Explicit stages on n points: element permutations, each stage with an
    integer eps_sep (a distance of ``simplicial_spaces``' path metric) or none."""
    elements = st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)
    eps_seps = st.none() | st.integers(1, max(1, n - 1)).map(Fraction)
    return st.lists(st.tuples(elements, eps_seps), min_size=1, max_size=max_stages)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_action_gate_matches_per_period_scan(data, r):
    n = data.draw(st.integers(1, 8))
    space = data.draw(simplicial_spaces(n))
    gens = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    action = GroupAction.from_generators(space, gens, cap=64)
    stages = None
    if action.elements is None or data.draw(st.booleans()):
        stages = data.draw(stage_lists(n))
    plan = action_stages(action, stages, r)
    got = hypothesis_doc(check_hypotheses_action(action, r, plan))
    assert got == hypothesis_doc(reference_action_report(action, r, plan))


def _cycles_perm(lengths: list[int]) -> tuple[int, ...]:
    """One permutation made of consecutive cycles of the given lengths."""
    perm, start = [], 0
    for k in lengths:
        perm.extend(start + (i + 1) % k for i in range(k))
        start += k
    return tuple(perm)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    lengths=st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=1, max_size=5),
    r=st.integers(1, 4),
)
def test_periodic_checks_match_the_per_n_sets_across_orbit_size_gaps(data, lengths, r):
    """Orbits of sizes such as 1, 3 and 7 leave every other N between them
    without a new periodic point: each N keeps its check, equal to the one
    built from all points at that N, and dim is asked once per orbit size
    that occurs, not once per N."""
    n = sum(lengths)
    space = data.draw(simplicial_spaces(n))
    shuffle = data.draw(st.permutations(range(n)))
    cycles = _cycles_perm(lengths)
    # the same cycle type on shuffled points, so orbits are not contiguous
    gen = tuple(shuffle[cycles[shuffle.index(x)]] for x in range(n))
    action = GroupAction.from_generators(space, [gen])
    calls = []
    dim = FiniteSpace.dim

    def recording_dim(self, subset):
        calls.append(frozenset(subset))
        return dim(self, subset)

    with mock.patch.object(FiniteSpace, "dim", recording_dim):
        got = check_hypotheses_action(action, r, [])
    assert len(calls) == len(set(lengths))
    expected = []
    for big_n in range(1, max(lengths) + 1):
        pn = frozenset(x for x in range(n) if len(orbit(action, x)) <= big_n)
        d = space.dim(pn)
        expected.append(
            HypothesisCheck("periodic", f"N={big_n}", len(pn), d, r * big_n, 2 * d < r * big_n)
        )
    assert got.checks == tuple(expected)
    assert got.passed == all(c.passed for c in expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_action_gate_implies_the_whole_group_family_gate(data, r):
    """The gate skips the family checks of a whole-group stage: whenever the
    periodic checks pass, the family of every group element over every
    point passes too, in any order of the elements."""
    n = data.draw(st.integers(1, 8))
    space = data.draw(simplicial_spaces(n))
    gens = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    action = GroupAction.from_generators(space, gens, cap=64)
    assume(action.elements is not None)
    report = check_hypotheses_action(action, r, action_stages(action, None, r))
    assert all(c.kind == "periodic" for c in report.checks)
    elements = data.draw(st.permutations(action.elements))
    if report.passed:
        assert check_hypotheses_family(MapFamily.create(space, space, elements), r).passed
    # listed explicitly, every element at every point adds no check either
    plan = action_stages(action, [(elements, None)], r)
    assert check_hypotheses_action(action, r, plan) == report


def test_action_gate_labels_each_explicit_stage_check(circle9):
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    stages = [([rotation_perm(9, s) for s in (0, 3, 6)], None), ([identity_perm(9)], None)]
    report = check_hypotheses_action(action, 1, action_stages(action, stages, 1))
    assert [c.label for c in report.checks] == [f"N={n}" for n in range(1, 10)] + [
        "[[0], [1], [2]] (stage 0)",
        "[[0]] (stage 1)",
    ]
    (bad,) = report.failures()
    assert bad.describe() == "partition [[0]] (stage 1): dim 1 < 1/2 [FAIL]"


@pytest.mark.parametrize("n, bell", enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]))
def test_bell_helper_yields_every_set_partition_once(n, bell):
    strings = list(growth_strings(n))
    assert len(strings) == len(set(strings)) == bell


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(1, 4))
def test_family_gate_reports_realized_classes_with_the_bell_verdict(data, r):
    fam = data.draw(families(st.integers(1, 10)))
    report = check_hypotheses_family(fam, r)
    sizes = [c.subset_size for c in report.checks]
    assert 0 not in sizes
    assert sum(sizes) == fam.source.n_points
    assert report.passed == bell_family_verdict(fam, r)


def test_margin_exact_values():
    space = circle_space(3)
    fam = MapFamily.create(space, space, [identity_perm(3)])
    f = Observable.create(space, [[0, Fraction(1, 2)], [0, Fraction(3, 4)], [1, 0]])
    assert margin(f, fam, []) == math.inf
    assert margin(f, fam, [(0, 1)]) == Fraction(1, 4)
    assert margin(f, fam, [(0, 1), (0, 2)]) == Fraction(1, 4)
    g = Observable.create(space, [[0, 0], [0, 0], [1, 0]])
    assert margin(g, fam, [(0, 1)]) == 0


def test_margin_matches_fraction_loop():
    space = circle_space(7)
    fam = MapFamily.create(space, space, [rotation_perm(7, s) for s in (0, 2, 5)])
    # mixed denominators, so the common denominator is a real lcm
    values = [
        [Fraction(1, 3), Fraction(2, 7)],
        [Fraction(5, 12), Fraction(1, 2)],
        [Fraction(1, 3), Fraction(9, 14)],
        [Fraction(0), Fraction(11, 30)],
        [Fraction(4, 9), Fraction(1)],
        [Fraction(7, 8), Fraction(3, 10)],
        [Fraction(5, 12), Fraction(2, 7)],
    ]
    f = Observable.create(space, values)
    pairs = [(a, b) for a in range(7) for b in range(7) if a != b]
    for chunk in (pairs, pairs[:5], pairs[10:11], pairs[::3]):
        got = margin(f, fam, chunk)
        assert isinstance(got, Fraction)
        assert got == naive_margin(f, fam, chunk)
    # points 0 and 2 agree in the first coordinate; the second sets the gap
    ident = MapFamily.create(space, space, [identity_perm(7)])
    assert margin(f, ident, [(0, 2)]) == naive_margin(f, ident, [(0, 2)]) == Fraction(5, 14)
    # point 6 copies point 1: an exact zero, not a tiny positive number
    twin = Observable.create(space, values[:6] + [values[1]])
    got = margin(twin, ident, [(1, 6), (0, 1)])
    assert isinstance(got, Fraction) and got == 0
    assert margin(f, fam, []) == naive_margin(f, fam, []) == math.inf


@pytest.mark.parametrize("closest_gap", [pipeline._closest_gap, io._closest_gap], ids=["embedder", "verifier"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closest_gap_sweeps_match_pair_loop(closest_gap, data):
    """The embedder's and the verifier's sweeps on raw integer tuples: narrow
    value ranges give ties and equal tuples, wide ones long sweeps.  Widths
    up to 8 (gate-wide's) reach the window's second- and third-coordinate skips."""
    width = data.draw(st.integers(1, 8))
    hi = data.draw(st.sampled_from([0, 2, 20, 1000]))
    points = data.draw(
        st.lists(st.tuples(*[st.integers(-hi, hi)] * width), max_size=30)
    )
    assert closest_gap(points) == naive_closest_gap(points)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closest_gap_of_distinct_points_matches_distinct_pair_loop(data):
    """The ledger's sweep runs on the distinct orbit tuples: narrow value
    ranges give many equal points and ties, and None when at most one point
    is distinct."""
    width = data.draw(st.integers(1, 8))
    hi = data.draw(st.sampled_from([0, 2, 20, 1000]))
    points = data.draw(st.lists(st.tuples(*[st.integers(-hi, hi)] * width), max_size=30))
    got = pipeline._closest_gap(list(set(points)))
    assert got == naive_distinct_gap(points)
    if len(set(points)) < 2:
        assert got is None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), r=st.integers(1, 3), n=st.integers(1, 6))
def test_gathered_orbit_tuples_match_the_per_point_generator(data, r, n):
    """The ledger's and the verifier's C-level gathers give each point's
    tuple in map order, then coordinate order; no maps give empty tuples."""
    rows = [tuple(data.draw(st.integers(0, 4)) for _ in range(r)) for _ in range(n)]
    count = data.draw(st.integers(1, n))
    maps = [
        tuple(data.draw(st.permutations(range(n)))[:count])
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    expected = [tuple(v for g in maps for v in rows[g[x]]) for x in range(count)]
    target = FiniteSpace.create([[float(a != b) for b in range(n)] for a in range(n)])
    source = FiniteSpace.create([[float(a != b) for b in range(count)] for a in range(count)])
    f = Observable(target, r, 4, tuple(rows))
    fam = MapFamily(source, target, tuple(maps), tuple(f"g{k}" for k in range(len(maps))))
    assert pipeline._orbit_tuples(f, fam) == expected
    cols = [list(col) for col in zip(*rows)]
    assert io._stage_tuples(cols, maps, count) == expected
    # a certificate may claim r = 0: no column, so every tuple is empty and they coincide
    assert io._stage_tuples([], maps, count) == [()] * count


# Few values with mixed denominators: equal orbit tuples, equal gaps and a
# real lcm all come up often.
_TIED_VALUES = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1)]
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), r=st.integers(1, 3))
def test_orbit_margin_matches_pair_loop(data, r):
    n_src = data.draw(st.integers(1, 9))
    n_tgt = data.draw(st.integers(n_src, 10))
    source = FiniteSpace.create([[float(a != b) for b in range(n_src)] for a in range(n_src)])
    target = FiniteSpace.create([[float(a != b) for b in range(n_tgt)] for a in range(n_tgt)])
    maps = [
        data.draw(st.permutations(range(n_tgt)))[:n_src]
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    fam = MapFamily.create(source, target, maps)
    f = Observable.create(target, [[data.draw(_TIED_VALUES) for _ in range(r)] for _ in range(n_tgt)])
    unordered = [(a, b) for a in range(n_src) for b in range(a + 1, n_src)]
    assert orbit_margin(f, fam) == naive_margin(f, fam, unordered)
    if n_src < 2:
        assert orbit_margin(f, fam) == math.inf
    # the ledger's gap, which certificates take as the stage margin, is the
    # margin over the separated pairs; it is the orbit margin when no pair collides
    state = pipeline._BaireState(f, Fraction(1))
    labels = state.start(family_stage(fam))
    separated = [(a, b) for a, b in unordered if orbit_row(f, fam, a) != orbit_row(f, fam, b)]
    assert state.margin == state.stages[0].gap == naive_margin(f, fam, separated)
    assert (len(set(labels)) == n_src) == (orbit_margin(f, fam) > 0)
    if len(set(labels)) == n_src:
        assert state.margin == orbit_margin(f, fam)


def test_separate_on_block_non_intersective_rotations():
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    df = DoubledFamily(fam)
    f = Observable.create(space, [[Fraction(1, 2)]] * 9)
    p_hat = doubled_induced_partition(df, (0, 1))
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    f_new, log = separate_on_block(df, block, f, Fraction(1, 10))
    assert log.branch == "non_intersective"
    # the run, not the block, writes the ledger margin
    assert log.margin_after is None
    assert log.displacement <= Fraction(1, 10)
    for x1, x2 in block.pairs:
        assert any(
            f_new.values[g[x1]][0] != f_new.values[g[x2]][0] for g in fam.maps
        )
    # uncovered points keep their original value
    covered = {y for entries in log.assignment.per_coordinate for sub, _ in entries for y in sub}
    for y in set(range(9)) - covered:
        assert f_new.values[y] == f.values[y]


def test_separate_on_block_intersective_antipodal():
    n = 8
    space = circle_space(n)
    fam = MapFamily.create(space, space, [identity_perm(n), antipodal_perm(n)])
    df = DoubledFamily(fam)
    # orbit-constant start: f(x) == f(x + 4) for every x, so every antipodal
    # pair has margin zero and the transport branch must do real work
    f = Observable.create(
        space, [[Fraction(1 + (x % 4), 10), Fraction(2 + (x % 4), 10)] for x in range(n)]
    )
    p_hat = doubled_induced_partition(df, (0, 4))
    assert margin(f, fam, [(0, 4)]) == 0
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    f_new, log = separate_on_block(df, block, f, Fraction(1, 8))
    assert log.branch == INTERSECTIVE
    assert log.margin_after is None
    assert log.displacement <= Fraction(1, 8)
    for x1, x2 in block.pairs:
        assert any(
            f_new.values[g[x1]][ell] != f_new.values[g[x2]][ell]
            for g in fam.maps
            for ell in range(2)
        )


def test_separate_on_block_rejects_nonpositive_budget():
    space = circle_space(6)
    fam = MapFamily.create(space, space, [identity_perm(6)])
    df = DoubledFamily(fam)
    f = Observable.create(space, [[Fraction(1, 2)]] * 6)
    p_hat = doubled_induced_partition(df, (0, 1))
    block = coherent_decomposition(df, p_hat, class_pairs(df, p_hat))[0]
    with pytest.raises(InputError):
        separate_on_block(df, block, f, 0)


def _count_classifications(monkeypatch):
    """Record the pairs that ``_run_stage`` classifies."""
    calls = []

    def counted(df, pair):
        calls.append(pair)
        return doubled_induced_partition(df, pair)

    monkeypatch.setattr("menger.pipeline.doubled_induced_partition", counted)
    return calls


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_keyed_classes_match_grouping_by_partition(data):
    """Flat keys group pairs and points as their partitions do, in the same order.

    Maps go into a target of at most eight points, so they often agree.
    Each is a rotation of the circle (restricted to the source) or any
    injective map; rotations make one value meet different maps across a
    pair.  A source smaller than the target is a stage-like family."""
    n = data.draw(st.integers(3, 8), label="target size")
    target = circle_space(n)
    pts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="source")
    source, pts = target.subspace(pts)
    m = len(pts)
    rotation = st.integers(0, n - 1).map(lambda s: [(p + s) % n for p in pts])
    injective = st.permutations(range(n)).map(lambda perm: perm[:m])
    maps = data.draw(st.lists(st.one_of(rotation, injective), min_size=1, max_size=5), label="maps")
    fam = MapFamily.create(source, target, maps)
    labels = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="labels")

    df = DoubledFamily(fam)
    pairs: dict = {}
    for x1 in range(m):
        for x2 in range(m):
            if x1 != x2 and labels[x1] == labels[x2]:
                pairs.setdefault(doubled_induced_partition(df, (x1, x2)), []).append((x1, x2))
    assert list(colliding_pair_classes(df, labels).items()) == list(pairs.items())

    points: dict = {}
    for x in range(m):
        points.setdefault(induced_partition(fam, x), []).append(x)
    assert list(induced_classes(fam).items()) == list(points.items())


def test_embed_family_generic_start_skips_every_block(circle9, monkeypatch):
    fam = MapFamily.create(
        circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)]
    )
    calls = _count_classifications(monkeypatch)
    cert = embed_family(fam, r=1, eps=Fraction(1, 20), seed=11)
    assert cert.kind == "family"
    assert cert.seed == 11
    assert cert.displacement == 0
    assert cert.margin > 0
    # the start is already injective: no pair is classified, no block logged
    assert calls == []
    assert cert.blocks == ()
    assert cert.observable.values == cert.f0.values
    _assert_orbit_injective(cert, fam)


def test_embed_family_mixed_start_works_only_on_colliding_pairs(circle9, monkeypatch):
    fam = MapFamily.create(
        circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)]
    )
    # orbit tuples (f(x), f(x+3), f(x+6)): the points of each third share one
    # tuple, and tuples of different thirds differ by 1/50, so exactly the
    # pairs inside a third collide
    thirds = [Fraction(0), Fraction(1, 100), Fraction(1, 50)]
    f0 = Observable.create(circle9, [[thirds[x // 3]] for x in range(9)])
    ordered = [(a, b) for a in range(9) for b in range(9) if a != b]
    colliding = {(a, b) for a, b in ordered if a // 3 == b // 3}
    separated = [p for p in ordered if p not in colliding]
    assert margin(f0, fam, sorted(colliding)) == 0
    assert margin(f0, fam, separated) == Fraction(1, 50)
    calls = _count_classifications(monkeypatch)
    eps = Fraction(1, 10)
    cert = embed_family(fam, r=1, eps=eps, f0=f0)
    # only colliding pairs are classified, one pair per doubled partition
    df = DoubledFamily(fam)
    assert set(calls) <= colliding
    assert len(calls) == len({doubled_induced_partition(df, p) for p in calls})
    assert len(calls) == len({doubled_induced_partition(df, p) for p in colliding})
    assert cert.blocks
    for log in cert.blocks:
        assert set(log.pairs) <= colliding
    # only perturbed blocks are logged
    assert all(b.branch != BRANCH_SKIPPED for b in cert.blocks)
    perturbed = cert.blocks
    # the separated pairs are in the ledger from the start, so they cap the
    # first budget below eps/2
    assert perturbed[0].budget <= margin(f0, fam, separated) / 4 < eps / 2
    assert 0 < cert.displacement <= eps
    _assert_orbit_injective(cert, fam)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), r=st.integers(1, 3), eps=st.sampled_from([Fraction(1, 20), Fraction(1, 3)]))
def test_embed_round_trip_from_coarse_starts(data, r, eps, tmp_path_factory):
    n = data.draw(st.integers(4, 9))
    space = circle_space(n)
    maps = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(1, 3)))]
    fam = MapFamily.create(space, space, maps)
    assume(check_hypotheses_family(fam, r).passed)
    coarse = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    f0 = Observable.create(
        space, [[data.draw(coarse) for _ in range(r)] for _ in range(n)]
    )
    cert = embed_family(fam, r=r, eps=eps, f0=f0)
    path = str(tmp_path_factory.mktemp("cert") / "cert.json")
    assert verify_certificate(write_certificate(path, cert)) == []
    ordered = [(a, b) for a in range(n) for b in range(n) if a != b]
    assert margin(cert.observable, fam, ordered) > 0
    assert cert.displacement <= eps


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(1, 3), eps=st.sampled_from([Fraction(1, 20), Fraction(1, 3)]))
def test_bricks_embed_round_trip_from_coarse_starts(data, r, eps, tmp_path_factory):
    """embed -> certificate -> verify with the bricks backend on a path in
    declared coordinates; a grid the bricks cannot fit is refused with
    CoverInfeasibleError, the backend's documented refusal."""
    n = data.draw(st.integers(4, 9))
    space = path_space(n)
    maps = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(1, 3)))]
    fam = MapFamily.create(space, space, maps)
    assume(check_hypotheses_family(fam, r).passed)
    coarse = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    f0 = Observable.create(
        space, [[data.draw(coarse) for _ in range(r)] for _ in range(n)]
    )
    try:
        cert = embed_family(fam, r=r, eps=eps, f0=f0, backend="bricks", coords=path_coords(n))
    except CoverInfeasibleError:
        return
    path = str(tmp_path_factory.mktemp("cert") / "cert.json")
    assert verify_certificate(write_certificate(path, cert)) == []
    ordered = [(a, b) for a in range(n) for b in range(n) if a != b]
    assert margin(cert.observable, fam, ordered) > 0
    assert cert.displacement <= eps


@pytest.mark.parametrize("seed, f0", [(3, None), (None, "constant")])
@pytest.mark.parametrize("kind", ["family", "action"])
def test_embed_refuses_bricks_without_coords_before_the_gate(circle9, monkeypatch, kind, seed, f0):
    """A seeded start that is already injective needs no cover, and is
    refused all the same, as is an unknown backend; no gate runs first."""
    if f0 is not None:
        f0 = Observable.create(circle9, [[Fraction(1, 2)]] * 9)

    def no_gate(*args):
        raise AssertionError("the gate ran before the backend was checked")

    monkeypatch.setattr(pipeline, "check_hypotheses_family", no_gate)
    monkeypatch.setattr(pipeline, "check_hypotheses_action", no_gate)
    if kind == "family":
        fam = MapFamily.create(circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)])
        embed = lambda backend: embed_family(fam, 1, Fraction(1, 10), f0, seed, backend)
    else:
        action = GroupAction.from_generators(circle9, [rotation_perm(9, 3)])
        embed = lambda backend: embed_equivariant(
            action, 1, Fraction(1, 10), f0, seed, backend=backend
        )
    with pytest.raises(InputError, match="^bricks backend needs declared coordinates$"):
        embed("bricks")
    with pytest.raises(InputError, match="^unknown cover backend 'brick'$"):
        embed("brick")


def test_embed_family_constant_start_runs_blocks(circle9):
    fam = MapFamily.create(
        circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)]
    )
    f0 = Observable.create(circle9, [[Fraction(1, 2)]] * 9)
    eps = Fraction(1, 10)
    cert = embed_family(fam, r=1, eps=eps, f0=f0)
    assert cert.margin > 0
    assert 0 < cert.displacement <= eps
    executed = [b for b in cert.blocks if b.branch not in (BRANCH_SKIPPED, "empty")]
    assert executed
    # budgets never grow along the run and the ledger margin stays positive
    budgets = [b.budget for b in executed]
    assert all(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:]))
    assert all(b.margin_after > 0 for b in executed)
    _assert_orbit_injective(cert, fam)
    # the one stage covers the whole source through the family's maps
    stage = cert.stages[0].stage
    assert stage.points == tuple(range(9))
    assert stage.maps == fam.maps


def test_embed_family_checks_inputs(circle9):
    fam = MapFamily.create(circle9, circle9, [identity_perm(9)])
    with pytest.raises(HypothesisError) as err:
        embed_family(fam, r=1, eps=Fraction(1, 10))
    assert err.value.exit_code == 2
    assert not err.value.report.passed
    good = MapFamily.create(circle9, circle9, [rotation_perm(9, s) for s in (0, 3, 6)])
    with pytest.raises(InputError):
        embed_family(good, r=1, eps=0)
    wrong_r = sample_observable(circle9, 2, seed=0)
    with pytest.raises(InputError):
        embed_family(good, r=1, eps=Fraction(1, 10), f0=wrong_r)
    elsewhere = sample_observable(circle_space(5), 1, seed=0)
    with pytest.raises(InputError):
        embed_family(good, r=1, eps=Fraction(1, 10), f0=elsewhere)


def test_embed_equivariant_rotation_action(rot3_action, circle9):
    eps = Fraction(1, 20)
    cert = embed_equivariant(rot3_action, r=1, eps=eps, seed=5)
    assert cert.kind == "action"
    assert cert.margin > 0
    assert cert.displacement <= eps
    assert len(cert.stages) == 1
    stage = cert.stages[0].stage
    assert stage.points == tuple(range(9))
    assert stage.maps == rot3_action.elements   # every point: the maps are the elements
    assert stage.eps_sep is None
    assert len(stage.maps) == 3      # the full group: identity and two rotations
    fam = MapFamily.create(circle9, circle9, list(stage.maps))
    _assert_orbit_injective(cert, fam)


def test_embed_equivariant_constant_start_perturbs(rot3_action, circle9):
    f0 = Observable.create(circle9, [[Fraction(1, 3)]] * 9)
    eps = Fraction(1, 10)
    cert = embed_equivariant(rot3_action, r=1, eps=eps, f0=f0)
    assert cert.margin > 0
    assert 0 < cert.displacement <= eps
    assert any(b.branch not in (BRANCH_SKIPPED, "empty") for b in cert.blocks)
    assert sup_distance(cert.observable, f0) == cert.displacement


def test_embed_equivariant_hypothesis_failure(antipodal_action):
    with pytest.raises(HypothesisError) as err:
        embed_equivariant(antipodal_action, r=1, eps=Fraction(1, 10))
    assert err.value.exit_code == 2
    labels = [c.label for c in err.value.report.failures()]
    assert labels == ["N=2"]


def test_embed_equivariant_antipodal_intersective_run(circle8, antipodal_action):
    # orbit-constant start forces the transport branch inside the full run
    f0 = Observable.create(
        circle8,
        [[Fraction(1 + (x % 4), 10), Fraction(2 + (x % 4), 10)] for x in range(8)],
    )
    cert = embed_equivariant(antipodal_action, r=2, eps=Fraction(1, 8), f0=f0)
    assert cert.margin > 0
    branches = {b.branch for b in cert.blocks}
    assert INTERSECTIVE in branches
    fam = MapFamily.create(circle8, circle8, list(cert.stages[0].stage.maps))
    _assert_orbit_injective(cert, fam)


def test_embed_equivariant_capped_group_needs_stages(circle9):
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    assert action.elements is None
    with pytest.raises(GroupCapError) as err:
        embed_equivariant(action, r=3, eps=Fraction(1, 10), seed=1)
    # an exceeded cap is an input problem: the caller should pass stages
    assert err.value.exit_code == 1


def test_embed_equivariant_explicit_stages(circle9):
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    # hand the embedding two finite stages drawn from the (uncomputed) group
    stage1 = [rotation_perm(9, s) for s in (0, 3, 6)]
    stage2 = [rotation_perm(9, s) for s in (0, 1)]
    sep = circle9.distance(0, 1)
    cert = embed_equivariant(
        action,
        r=3,
        eps=Fraction(1, 10),
        seed=2,
        stages=[(stage1, None), (stage2, sep)],
    )
    assert cert.margin > 0
    assert len(cert.stages) == 2
    assert cert.stages[0].stage.eps_sep is None
    assert cert.stages[1].stage.eps_sep == Fraction(sep)
    assert cert.stages[0].stage.points == tuple(range(9))
    for record in cert.stages:
        assert record.margin > 0


@pytest.mark.parametrize("eps_sep", [None, Fraction(1, 2)], ids=["whole-space", "restricted"])
@pytest.mark.parametrize(
    "element, message",
    [
        # int() would truncate each entry back to the rotation by 3
        ([v + 0.25 for v in rotation_perm(9, 3)], "stage 0 element 1: expected an integer, got 3.25"),
        ((0, 1), "stage 0 element 1: not a permutation of 0..8"),
        (rotation_perm(9, 3) + (9,), "stage 0 element 1: not a permutation of 0..8"),
    ],
    ids=["shifted-by-a-quarter", "two-entries", "ten-entries"],
)
def test_embed_equivariant_refuses_a_stage_element_that_is_no_permutation(
    rot3_action, monkeypatch, element, message, eps_sep
):
    """Every element of every given stage is a permutation of the space's
    points, whatever its eps_sep; anything else is refused before the gate."""

    def gate(*_):
        raise AssertionError("the gate ran before the stages were checked")

    monkeypatch.setattr(pipeline, "check_hypotheses_action", gate)
    stages = [([identity_perm(9), element], eps_sep)]
    with pytest.raises(InputError) as err:
        embed_equivariant(rot3_action, r=1, eps=Fraction(1, 20), seed=0, stages=stages)
    assert str(err.value) == message
    assert err.value.exit_code == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_staged_embed_round_trips_through_the_verifier(data):
    """embed_equivariant -> certificate_payload -> verify_certificate on a
    random small staged rotation action, its closure capped or not: the
    verifier finds no issue, and every stage holds the ``action_stages``
    points, some of them none, and maps."""
    n = data.draw(st.integers(4, 10), label="n")
    space = circle_space(n)
    step = data.draw(st.integers(1, n - 1), label="step")
    cap = data.draw(st.sampled_from([2, 64]), label="cap")
    action = GroupAction.from_generators(space, [rotation_perm(n, step)], cap=cap)
    shifts = list(range(0, n, math.gcd(n, step)))
    element_lists = st.lists(st.sampled_from(shifts), min_size=2, max_size=4, unique=True)
    eps_seps = st.none() | st.integers(1, n - 1).map(lambda j: space.distance(0, j))
    stages = data.draw(
        st.lists(
            st.tuples(element_lists.map(lambda ks: [rotation_perm(n, k) for k in ks]), eps_seps),
            min_size=1,
            max_size=3,
        ),
        label="stages",
    )
    r = data.draw(st.integers(2, 3), label="r")
    cert = embed_equivariant(
        action, r, Fraction(1, 20), seed=data.draw(st.integers(0, 99)), stages=stages
    )
    payload = io.certificate_payload(cert)
    payload["cert_sha256"] = hashlib.sha256(io.canonical_json(payload).encode("ascii")).hexdigest()
    assert verify_certificate(payload, space=space, action=action, stages=stages) == []
    plan = action_stages(action, stages, r)
    assert [record["points"] for record in payload["stages"]] == [list(s.points) for s in plan]
    assert [record["maps"] for record in payload["stages"]] == [
        [list(m) for m in s.maps] for s in plan
    ]


@pytest.mark.parametrize(
    "start, budgets, afters, stage_margins",
    [
        # the thirds collide in stage 1; stage 2's block is capped by a
        # quarter of stage 1's ledger margin
        (
            [0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1, 1, 1],
            [Fraction(1, 20), Fraction(1, 3840)],
            [Fraction(1, 960), Fraction(1, 51200)],
            [Fraction(1, 960), Fraction(1, 51200)],
        ),
        (
            [Fraction(1, 2), 1, 1, 1, 1, Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 20), Fraction(1, 1280)],
            [Fraction(1, 320), Fraction(17, 51200)],
            [Fraction(76589, 153600), Fraction(17, 51200)],
        ),
    ],
)
def test_embed_equivariant_two_stages_from_a_mixed_start(
    circle9, start, budgets, afters, stage_margins
):
    """Budgets and margins of a two-stage run whose ledger holds the pairs
    separated in both stages; the values are those of the explicit
    ordered-pair ledger of ``reference_block_loop``."""
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    stages = [
        ([rotation_perm(9, s) for s in (0, 3, 6)], None),
        ([rotation_perm(9, s) for s in (0, 1)], None),
    ]
    f0 = Observable.create(circle9, [[v, 1 - v] for v in start])
    cert = embed_equivariant(action, r=2, eps=Fraction(1, 10), f0=f0, stages=stages)
    assert [b.budget for b in cert.blocks] == budgets
    assert [b.margin_after for b in cert.blocks] == afters
    ref = reference_block_loop(
        [MapFamily.create(circle9, circle9, perms) for perms, _ in stages], f0, Fraction(1, 10)
    )
    assert [(b.budget, b.margin_after) for b in ref.logs] == list(zip(budgets, afters))
    assert cert.observable.values == ref.f.values
    assert [record.margin for record in cert.stages] == stage_margins
    assert cert.margin == min(stage_margins)
    assert cert.displacement == Fraction(1, 40)


def test_embed_equivariant_injective_first_stage_still_caps_the_next(circle9):
    """Stage 1 starts injective with a gap of 1/1000 and perturbs no block;
    stage 2's first budget must still be a quarter of that gap, as in the
    explicit ordered-pair ledger of ``reference_block_loop``."""
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    stages = [([rotation_perm(9, s) for s in shift], None) for shift in [(0, 1), (0, 3, 6)]]
    start = [Fraction(v, 1000) for v in (0, 1, 500, 0, 2, 1000, 0, 3, 250)]
    f0 = Observable.create(circle9, [[v, 1 - v] for v in start])
    cert = embed_equivariant(action, r=2, eps=Fraction(1, 10), f0=f0, stages=stages)
    assert [(b.budget, b.margin_after) for b in cert.blocks] == [
        (Fraction(1, 4000), Fraction(3, 25600))
    ]
    ref = reference_block_loop(
        [MapFamily.create(circle9, circle9, perms) for perms, _ in stages], f0, Fraction(1, 10)
    )
    assert [(b.budget, b.margin_after) for b in ref.logs] == [
        (b.budget, b.margin_after) for b in cert.blocks
    ]
    assert cert.observable.values == ref.f.values
    assert [record.margin for record in cert.stages] == [Fraction(1, 1000), Fraction(3, 25600)]


def test_embed_family_seeded_start_lists_no_pair(monkeypatch):
    """An injective start classifies no pair, computes no pair margin and
    lists no pair: a list of the 39800 ordered pairs alone would take about
    2.4 MiB of the traced peak."""
    n = 200
    space = circle_space(n)
    fam = MapFamily.create(space, space, [rotation_perm(n, s) for s in (0, n // 3, 2 * n // 3)])

    def refuse(*args, **kwargs):
        raise AssertionError("an injective start must not reach the pair layer")

    monkeypatch.setattr("menger.pipeline.margin", refuse)
    monkeypatch.setattr("menger.pipeline.doubled_induced_partition", refuse)
    tracemalloc.start()
    try:
        cert = embed_family(fam, r=1, eps=Fraction(1, 20), seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.blocks == ()
    assert cert.margin > 0
    assert peak < 1 << 20


def test_a_block_that_merges_a_separated_pair_breaks_monotone_progress(monkeypatch):
    """Points 0, 3 and 6 are separated at the start; a block whose
    perturbation makes every orbit tuple equal again must be refused."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    f0 = Observable.create(space, [[Fraction(0)]] + [[Fraction(1, 2)]] * 8)
    merged = Observable.create(space, [[Fraction(1, 2)]] * 9)
    real = pipeline.separate_on_block

    def merging(*args, **kwargs):
        _, log = real(*args, **kwargs)
        return merged, log

    monkeypatch.setattr("menger.pipeline.separate_on_block", merging)
    with pytest.raises(InternalCheckError, match="monotone progress violated"):
        embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)


def test_a_block_whose_pairs_still_collide_is_refused_right_after_it(monkeypatch):
    """A block run that leaves the observable unchanged keeps every label:
    the run's label test must name a pair of that block at once, not leave
    the collision to the certificate's stage margin."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    f0 = Observable.create(space, [[Fraction(1, 2)]] * 9)
    real = pipeline.separate_on_block

    def unchanged(df, block, f, *args, **kwargs):
        _, log = real(df, block, f, *args, **kwargs)
        return f, log

    monkeypatch.setattr("menger.pipeline.separate_on_block", unchanged)
    with pytest.raises(InternalCheckError, match=r"pair \(0, 1\) still collides"):
        embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)


def test_overlapping_sets_in_one_family_are_an_internal_error(monkeypatch):
    """Coherence keeps the merged sets of one coordinate disjoint, so a
    point that ``perturb`` finds covered twice is this package's fault:
    an InternalCheckError, not an input error."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    f0 = Observable.create(space, [[Fraction(1, 2)]] * 9)
    real = pipeline.build_cover

    def overlapping(*args, **kwargs):
        cover = real(*args, **kwargs)
        first = cover.families[0]
        # a set spanning the family's first and last sets overlaps both
        widened = first + (first[0] | first[-1],)
        return dataclasses.replace(cover, families=(widened,) + cover.families[1:])

    monkeypatch.setattr("menger.pipeline.build_cover", overlapping)
    with pytest.raises(InternalCheckError, match="covered twice.*coherence was violated"):
        embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)


def test_default_stage_n(circle9):
    assert default_stage_n(circle9, 1) == 3
    assert default_stage_n(circle9, 2) == 2
    assert default_stage_n(circle9, 3) == 1


def test_action_stages_refuses_r_zero_before_dividing(circle9):
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 1)], cap=5)
    rotations = tuple(rotation_perm(9, s) for s in range(3))
    with pytest.raises(InputError, match="r must be at least 1"):
        action_stages(action, [(rotations, Fraction(1, 2))], 0)


@pytest.mark.parametrize("kind", ["family", "action"])
def test_certify_refuses_a_stage_whose_labels_collide(circle9, monkeypatch, kind):
    """The stage margin comes from the ledger, which keeps the gap between
    distinct orbit tuples only; a stage where two points still share a
    tuple must fail the certificate's own check."""
    def start_only(state, stage, backend, coords):
        state.start(stage)

    monkeypatch.setattr("menger.pipeline._run_stage", start_only)
    f0 = Observable.create(circle9, [[Fraction(1, 2)]] * 9)
    rotations = [rotation_perm(9, s) for s in (0, 3, 6)]
    with pytest.raises(InternalCheckError, match="stage margin is zero"):
        if kind == "family":
            fam = MapFamily.create(circle9, circle9, rotations)
            embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)
        else:
            action = GroupAction.from_generators(circle9, [rotation_perm(9, 3)])
            embed_equivariant(action, r=1, eps=Fraction(1, 10), f0=f0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(1, 3), eps=st.sampled_from([Fraction(1, 20), Fraction(1, 3)]))
def test_lazy_block_loop_matches_whole_class_packing(data, r, eps):
    """Peeling blocks lazily perturbs the same blocks as packing every class whole."""
    n = data.draw(st.integers(4, 9))
    space = circle_space(n)
    maps = [data.draw(st.permutations(range(n))) for _ in range(data.draw(st.integers(1, 3)))]
    fam = MapFamily.create(space, space, maps)
    assume(check_hypotheses_family(fam, r).passed)
    coarse = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    if data.draw(st.booleans(), label="constant start"):
        rows = [[data.draw(coarse) for _ in range(r)]] * n
    else:
        rows = [[data.draw(coarse) for _ in range(r)] for _ in range(n)]
    f0 = Observable.create(space, rows)
    cert = embed_family(fam, r=r, eps=eps, f0=f0)
    ref = reference_block_loop([fam], f0, eps)
    assert cert.observable.values == ref.f.values
    assert cert.margin == orbit_margin(ref.f, fam)
    assert [(b.partition, b.pairs, b.budget, b.eta, b.margin_after) for b in cert.blocks] == [
        (b.partition, b.pairs, b.budget, b.eta, b.margin_after) for b in ref.logs
    ]


def _two_map_circle():
    """A 9-point run whose second class still collides after its first perturbation."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [identity_perm(9), (1, 4, 3, 8, 0, 6, 2, 5, 7)])
    half = Fraction(1, 2)
    start = [half, 1, 1, 1, 1, half, 0, half, half]
    return fam, 2, Observable.create(space, [[v, v] for v in start])


def _constant_rotations():
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    return fam, 1, Observable.create(space, [[Fraction(1, 2)]] * 9)


def _one_class_twice():
    """A 12-point run whose first class still collides after one perturbed block."""
    space = circle_space(12)
    maps = [
        (1, 2, 8, 6, 9, 3, 0, 5, 4, 11, 7, 10),
        (7, 5, 6, 2, 1, 8, 11, 10, 4, 9, 3, 0),
        (6, 10, 4, 0, 9, 5, 1, 11, 8, 2, 3, 7),
    ]
    fam = MapFamily.create(space, space, maps)
    return fam, 1, Observable.create(space, [[Fraction(0)]] * 12)


@pytest.mark.parametrize("make", [_two_map_circle, _constant_rotations, _one_class_twice])
def test_lazy_block_loop_matches_whole_class_packing_on_fixed_runs(make):
    fam, r, f0 = make()
    eps = Fraction(1, 10)
    cert = embed_family(fam, r=r, eps=eps, f0=f0)
    ref = reference_block_loop([fam], f0, eps)
    assert cert.observable.values == ref.f.values
    assert [(b.pairs, b.budget) for b in cert.blocks] == [(b.pairs, b.budget) for b in ref.logs]
    if make is _one_class_twice:
        assert [b.partition for b in cert.blocks][:2] == [cert.blocks[0].partition] * 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eta_threshold_decides_like_the_exhaustive_guard(data):
    """eta passes the pair-by-pair guard exactly when it is at most the threshold."""
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    n = data.draw(st.integers(2, 8))
    on_circle = n >= 3 and data.draw(st.booleans(), label="circle")
    space = circle_space(n) if on_circle else random_euclidean_space(rng, n)
    fam = random_endo_family(rng, space, data.draw(st.integers(1, 3)))
    dists = sorted({Fraction(space.distance(a, b)) for a in range(n) for b in range(a + 1, n)})
    # deltas and etas on the distances themselves, where the strict and
    # non-strict comparisons differ, and between them
    # deltas a hair off a distance round to that distance as floats
    hair = Fraction(1, 10**30)
    delta = data.draw(
        st.sampled_from([math.inf] + dists)
        | st.sampled_from(dists).map(lambda d: d * Fraction(3, 4))
        | st.sampled_from(dists).map(lambda d: d + hair)
        | st.sampled_from(dists).map(lambda d: d - hair)
        | st.fractions(Fraction(1, 100), Fraction(3))
    )
    threshold = _eta_threshold(fam, delta)
    etas = dists + [d / 2 for d in dists] + [Fraction(1, 2**k) for k in range(8)]
    etas += [d + Fraction(1, 10**9) for d in dists]
    for eta in etas:
        assert naive_certify_eta(fam, eta, delta) == (eta <= threshold)
