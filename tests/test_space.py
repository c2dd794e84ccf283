import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import (
    euclidean_space,
    greedy_sep,
    naive_sep,
    naive_triangle_issues,
    per_row_triangle_issues,
    reference_metric_issues,
    reference_validate_space,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menger import space as space_module
from menger.errors import GroupCapError, InputError
from menger.fixtures import circle_space, rotation_perm
from menger.space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    compose,
    identity_perm,
    invert_perm,
    orbit,
    orbits,
    periodic_set,
    _spreads,
    least_float_at_least,
    restricted_space,
    validate_space,
)


def test_create_rejects_bad_metric_shapes():
    with pytest.raises(InputError):
        FiniteSpace.create([])
    with pytest.raises(InputError):
        FiniteSpace.create([[0.0, 1.0]])
    # axiom violations are the validator's job, not the constructor's
    negative = FiniteSpace.create([[0.0, -1.0], [-1.0, 0.0]])
    assert not validate_space(negative).ok


def test_validate_reports_axiom_violations_with_paths():
    asym = FiniteSpace.create([[0.0, 1.0], [2.0, 0.0]])
    report = validate_space(asym)
    assert any("metric[0][1]" in issue or "metric[1][0]" in issue for issue in report.issues)

    bad_diag = FiniteSpace.create([[0.5, 1.0], [1.0, 0.0]])
    assert not validate_space(bad_diag).ok

    triangle = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    report = validate_space(FiniteSpace.create(triangle))
    assert any("triangle" in issue for issue in report.issues)

    good = circle_space(6)
    assert validate_space(good).ok


def test_validate_triangle_issues_match_triple_loop():
    rng = random.Random(5)
    n = 7
    metric = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            metric[a][b] = metric[b][a] = rng.choice([0.5, 1.0, 1.5, 3.0, 0.1 + 0.2])
    space = FiniteSpace.create(metric)
    expected = naive_triangle_issues(space)
    assert len(expected) > 10
    report = validate_space(space)
    assert [issue for issue in report.issues if "triangle" in issue] == expected


def test_validate_reports_axioms_in_row_major_order():
    metric = [
        [0.0, 1.0, 0.0, 2.0],
        [1.0, 0.0, -1.0, -2.0],
        [3.0, -1.0, 0.0, 1.0],
        [2.0, 2.0, 4.0, 0.5],
    ]
    space = FiniteSpace.create(metric)
    axioms = [
        "metric[3][3]: diagonal entry 0.5 is not zero",
        "metric[0][2]: asymmetric (0.0 vs 3.0)",
        "metric[0][2]: distinct points at distance 0.0",
        "metric[1][2]: distinct points at distance -1.0",
        "metric[1][3]: asymmetric (-2.0 vs 2.0)",
        "metric[1][3]: distinct points at distance -2.0",
        "metric[2][3]: asymmetric (1.0 vs 4.0)",
    ]
    assert list(validate_space(space).issues) == axioms + naive_triangle_issues(space)


def _defective_metric(rng: np.random.Generator, n: int, defects) -> np.ndarray:
    """The L1 metric of n random planar points with the defects written in:
    ("far", i, j) stretches one distance into triangle violations, ("asym",
    i, j) changes one entry alone, ("zero", i, j) and ("nan", i, j) set both,
    ("inf", i, j) sets both to inf or -inf by the parity of i + j, and
    ("diag", i, j) writes j - 10 on the diagonal at i."""
    pts = rng.integers(0, 50, size=(n, 2)).astype(float)
    m = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    m[m == 0] = 0.5
    np.fill_diagonal(m, 0.0)
    for kind, i, j in defects:
        i, j = i % n, j % n
        if kind == "far":
            m[i, j] = m[j, i] = 500.0
        elif kind == "asym":
            m[i, j] += 1.0
        elif kind == "zero":
            m[i, j] = m[j, i] = 0.0
        elif kind == "nan":
            m[i, j] = m[j, i] = math.nan
        elif kind == "inf":
            m[i, j] = m[j, i] = math.inf if (i + j) % 2 else -math.inf
        elif kind == "diag":
            m[i, i] = j - 10.0
    return m


def _defects(kinds):
    return st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 69), st.integers(0, 69)), max_size=5
    )


# Every kind but "asym" keeps the matrix symmetric.
_SYMMETRIC_KINDS = ["far", "far", "zero", "nan", "inf", "diag"]
_DEFECTS = _defects(_SYMMETRIC_KINDS + ["asym"])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 70),
    seed=st.integers(0, 2**32 - 1),
    defects=_DEFECTS,
    tile=st.sampled_from([1, 64, 1000, 1 << 16]),
)
# an inf and a -inf entry in one row, whose sum is NaN
@example(n=10, seed=1, defects=[("inf", 1, 2), ("inf", 1, 3)], tile=64)
def test_blocked_triangle_check_matches_per_row_reference(n, seed, defects, tile):
    """Row blocks and middle-point bands report the issues of the per-row
    scan in the same order; from n = 41 the default tile holds several row
    blocks, and smaller tiles cut the middle points into bands as well."""
    m = _defective_metric(np.random.default_rng(seed), n, defects)
    # An inf defect meets a -inf one in some sums, inf + -inf is NaN on
    # purpose, and both scans must agree on it; validate_space never scans
    # such a matrix, since it reports non-finite entries alone.
    with np.errstate(invalid="ignore"), mock.patch.object(space_module, "_TILE", tile):
        got = space_module._triangle_issues(m)
        want = per_row_triangle_issues(m)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    defects=_defects(_SYMMETRIC_KINDS),
    tile=st.sampled_from([1, 64, 1000, 1 << 16]),
)
# a symmetric inf, which equals its transpose, and a diagonal entry of 59
@example(n=20, seed=1, defects=[("inf", 3, 8)], tile=1 << 16)
@example(n=20, seed=1, defects=[("diag", 3, 69)], tile=64)
def test_metric_issues_of_symmetric_matrices_match_the_entry_loop(n, seed, defects, tile):
    """A symmetric matrix takes the one-test acceptance and the half scan
    over k >= i; its issues are still the entry loop's, text and order,
    including the k == i hits of a nonzero diagonal and a symmetric inf."""
    m = _defective_metric(np.random.default_rng(seed), n, defects)
    with mock.patch.object(space_module, "_TILE", tile):
        got = space_module._metric_issues(m)
    assert got == reference_metric_issues(FiniteSpace.create(m))


def test_blocked_triangle_check_on_banded_middle_points():
    """Above 256 points even one row is cut into bands of middle points."""
    m = _defective_metric(
        np.random.default_rng(3), 300, [("far", 7, 290), ("far", 299, 150), ("asym", 40, 41)]
    )
    got = space_module._triangle_issues(m)
    assert got
    assert got == per_row_triangle_issues(m)
    m = _defective_metric(np.random.default_rng(3), 300, [])
    assert space_module._metric_issues(m) == []


def test_validate_subspace_of_declared_circle_is_clean():
    sub, _ = circle_space(12).subspace([0, 1, 2, 5, 7, 11])
    # the subspace carries the circle's faces, restricted and renumbered:
    # its edges are the three circle edges between the points
    assert {face for face in sub.simplices if len(face) == 2} == {
        frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 5})
    }
    assert validate_space(sub).ok


def test_validate_declared_space_asks_no_dim(monkeypatch):
    def refuse(self, subset):
        raise AssertionError("declared dimension needs no probe")

    monkeypatch.setattr(FiniteSpace, "dim", refuse)
    assert validate_space(circle_space(9)).ok


# Entries include values that break each axiom: 0 off the diagonal, negative,
# asymmetric draws, triangle violations, NaN and inf.
_ENTRIES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, -1.0, 0.1 + 0.2, math.nan, math.inf])


@st.composite
def declared_spaces(draw) -> FiniteSpace:
    n = draw(st.integers(1, 7))
    path = [[float(abs(a - b)) for b in range(n)] for a in range(n)]
    if draw(st.booleans()):
        metric = path
    else:
        metric = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            metric = [[metric[min(a, b)][max(a, b)] if a != b else 0.0 for b in range(n)]
                      for a in range(n)]
    faces = draw(st.none() | st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
    labels = draw(
        st.none()
        | st.lists(st.tuples(st.sets(st.integers(0, n - 1)), st.integers(0, 3)), max_size=3)
    )
    space = FiniteSpace.create(metric, simplices=faces, dim_labels=labels)
    if draw(st.booleans()):
        space, _ = space.subspace(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return space


@settings(max_examples=150, deadline=None)
@given(space=declared_spaces())
def test_validate_declared_space_matches_probing_reference(space):
    assert list(validate_space(space).issues) == reference_validate_space(space)


def test_dim_of_empty_set_is_minus_one(circle9):
    assert circle9.dim(frozenset()) == -1


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([[0, 1], []], "simplices[1]: empty simplex"),
        ([[0, 1], [1, 3]], "simplices[1]: vertex out of range"),
        ([[0, 1], [-1]], "simplices[1]: vertex out of range"),
        ([[0, True]], "simplices[0]: expected an integer, got True"),
        ([[0, 1.0]], "simplices[0]: expected an integer, got 1.0"),
        # the first bad simplex is named, whatever the later ones hold
        ([[0, 3], [1.5]], "simplices[0]: vertex out of range"),
        ([[2], [0, 3]], "simplices[1]: vertex out of range"),
    ],
)
def test_simplex_errors_name_the_first_bad_simplex(simplices, message):
    metric = [[float(a != b) for b in range(3)] for a in range(3)]
    with pytest.raises(InputError) as got:
        FiniteSpace.create(metric, simplices=simplices)
    assert str(got.value) == message


def test_simplices_of_numpy_or_plain_integers_read_alike():
    metric = [[float(a != b) for b in range(3)] for a in range(3)]
    plain = FiniteSpace.create(metric, simplices=[[0, 1], (1, 2), [2]])
    numpy = FiniteSpace.create(metric, simplices=[np.array([0, 1]), [np.int64(1), 2], [2]])
    assert plain.simplices == numpy.simplices == (frozenset({0, 1}), frozenset({1, 2}), {2})
    assert {type(v) for face in numpy.simplices for v in face} == {int}
    assert FiniteSpace.create(metric, simplices=[]).simplices == ()


def test_dim_from_simplices(circle9):
    # a single vertex is 0-dimensional, an edge is 1-dimensional
    assert circle9.dim({0}) == 0
    assert circle9.dim({0, 1}) == 1
    assert circle9.dim({0, 4}) == 0          # no edge between them
    assert circle9.dim(range(9)) == 1


def test_dim_labels_monotone_closure():
    metric = [[0.0, 1.0], [1.0, 0.0]]
    space = FiniteSpace.create(metric, dim_labels=[(frozenset({0}), 3)])
    assert space.dim({0}) == 3
    assert space.dim({0, 1}) == 3            # superset inherits the label
    assert space.dim({1}) == 0


def test_subspace_translates_dimension(circle9):
    sub, points = circle9.subspace([2, 3, 7])
    assert points == (2, 3, 7)
    assert sub.n_points == 3
    assert sub.distance(0, 1) == circle9.distance(2, 3)
    assert sub.dim({0, 1}) == 1              # the 2-3 edge survives translation
    assert sub.dim({0, 2}) == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subspace_dimension_is_the_dimension_of_the_image(data):
    """Every local subset of a subspace, the empty one included, has the
    declared dimension of its image in the parent."""
    space = data.draw(declared_spaces(), label="space")       # a subspace at times
    points = st.sets(st.integers(0, space.n_points - 1), min_size=1)
    sub, pts = space.subspace(data.draw(points, label="points"))
    for mask in range(1 << len(pts)):
        local = [u for u in range(len(pts)) if mask >> u & 1]
        assert sub.dim(local) == space.dim(pts[u] for u in local)


def test_perm_algebra():
    g = rotation_perm(5, 2)
    assert compose(g, invert_perm(g)) == identity_perm(5)
    assert compose(invert_perm(g), g) == identity_perm(5)
    h = rotation_perm(5, 1)
    assert compose(g, h) == rotation_perm(5, 3)


def test_map_family_validation(circle9):
    with pytest.raises(InputError):
        MapFamily.create(circle9, circle9, [[0] * 9])    # not injective
    with pytest.raises(InputError):
        MapFamily.create(circle9, circle9, [list(range(9))], labels=["a", "a"])
    fam = MapFamily.create(circle9, circle9, [list(range(9))])
    assert fam.labels == ("g0",)


def test_group_closure_and_order(circle9):
    action = GroupAction.from_generators(circle9, [rotation_perm(9, 3)])
    assert action.order == 3
    assert identity_perm(9) in action.elements


def test_group_cap_raises_and_uncapped_path():
    space = circle_space(12)
    action = GroupAction.from_generators(space, [rotation_perm(12, 1)], cap=5)
    assert action.elements is None
    with pytest.raises(GroupCapError):
        _ = action.order


def test_orbits_and_periodic_sets(rot3_action):
    assert orbit(rot3_action, 0) == frozenset({0, 3, 6})
    assert orbits(rot3_action) == [orbit(rot3_action, x) for x in range(9)]
    assert periodic_set(rot3_action, 2) == frozenset()
    assert periodic_set(rot3_action, 3) == frozenset(range(9))


def _separation_reference(space, pts, eps, cap):
    """Largest eps-separated subset of ``pts`` up to ``cap`` points, the greedy count above."""
    return naive_sep(space, pts, eps) if len(pts) <= cap else greedy_sep(space, pts, eps)


def _planar_space(data, max_points):
    coords = data.draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=2, max_size=max_points, unique=True,
        ),
        label="points",
    )
    return euclidean_space(coords)


def _eps(data, space):
    """Either a distance the space realises, exactly, or a small rational."""
    n = space.n_points
    a, b = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
    if a != b and data.draw(st.booleans(), label="realised"):
        return Fraction(space.distance(a, b))
    return Fraction(data.draw(st.integers(1, 80), label="eps_num"), 10)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spreads_decides_like_the_largest_separated_set(data):
    space = _planar_space(data, 30)
    pts = sorted(
        data.draw(
            st.sets(st.integers(0, space.n_points - 1), min_size=1, max_size=10), label="pts"
        )
    )
    eps = _eps(data, space)
    target = data.draw(st.integers(1, 8), label="target")
    cap = data.draw(st.sampled_from([space_module.EXACT_CAP, 3]), label="cap")
    with mock.patch.object(space_module, "EXACT_CAP", cap):
        got = _spreads(space.rows(), pts, least_float_at_least(eps), target)
    assert got == (_separation_reference(space, pts, eps, cap) >= target)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_restricted_space_matches_definition_on_random_stages(data):
    m = data.draw(st.integers(3, 12), label="m")
    space = circle_space(m)
    action = GroupAction.from_generators(space, [rotation_perm(m, data.draw(st.integers(1, m - 1)))])
    f_perms = data.draw(
        st.lists(st.permutations(range(m)), min_size=1, max_size=6), label="f_perms"
    )
    eps = _eps(data, space)
    r, n = data.draw(st.integers(1, 2), label="r"), data.draw(st.integers(1, 3), label="n")
    cap = data.draw(st.sampled_from([space_module.EXACT_CAP, 2]), label="cap")
    with mock.patch.object(space_module, "EXACT_CAP", cap):
        got = restricted_space(action, f_perms, eps, r=r, n=n)
    expected = set()
    for x in range(m):
        f_orbit = sorted({p[x] for p in f_perms})
        if frozenset(f_orbit) == orbit(action, x):
            expected.add(x)
        elif _separation_reference(space, f_orbit, eps, cap) >= r * n:
            expected.add(x)
    assert got == frozenset(expected)


def test_restricted_space_matches_definition():
    space = circle_space(12)
    action = GroupAction.from_generators(space, [rotation_perm(12, 1)])
    f_perms = [rotation_perm(12, k) for k in range(6)]
    eps = Fraction(1, 10)
    got = restricted_space(action, f_perms, eps, r=1, n=3)
    expected = set()
    for x in range(12):
        f_orbit = sorted({p[x] for p in f_perms})
        if frozenset(f_orbit) == orbit(action, x):
            expected.add(x)
        elif naive_sep(space, f_orbit, eps) >= 1 * 3:
            expected.add(x)
    assert got == frozenset(expected)
    # chord distances on a 12-gon comfortably exceed 1/10, so the separation
    # route admits every point even though F-orbits are strict subsets
    assert got == frozenset(range(12))


def test_restricted_space_above_the_cap_keeps_the_greedy_answer():
    # 26 rotations of a 30-gon: every F-orbit has 26 > EXACT_CAP points
    space = circle_space(30)
    action = GroupAction.from_generators(space, [rotation_perm(30, 1)])
    f_perms = [rotation_perm(30, k) for k in range(26)]
    for k in (1, 2, 3, 5, 10, 15):
        eps = Fraction(space.distance(0, k))
        for target in (2, 3, 5, 10, 13):
            got = restricted_space(action, f_perms, eps, r=1, n=target)
            expected = {
                x for x in range(30)
                if greedy_sep(space, [p[x] for p in f_perms], eps) >= target
            }
            assert got == frozenset(expected)
    # an exact search would admit four more points here, so the cap decides
    eps = Fraction(space.distance(0, 15))
    with mock.patch.object(space_module, "EXACT_CAP", 30):
        exact = restricted_space(action, f_perms, eps, r=1, n=2)
    assert exact - restricted_space(action, f_perms, eps, r=1, n=2) == {16, 17, 18, 19}


def test_restricted_space_compares_distances_exactly():
    # an equilateral triangle of side binary 0.3, which lies just below 3/10
    space = FiniteSpace.create([[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]])
    action = GroupAction.from_generators(space, [(1, 2, 0)])
    f_perms = [(0, 1, 2), (1, 2, 0)]
    assert Fraction(0.3) < Fraction(3, 10)
    assert restricted_space(action, f_perms, Fraction(3, 10), r=1, n=2) == frozenset()
    assert restricted_space(action, f_perms, Fraction(0.3), r=1, n=2) == {0, 1, 2}
    assert naive_sep(space, [0, 1], Fraction(3, 10)) == 1


@pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 2)])
def test_restricted_space_refuses_a_nonpositive_eps_before_any_point(eps):
    space = circle_space(12)
    action = GroupAction.from_generators(space, [rotation_perm(12, 4)])
    # every F-orbit is a full orbit, so no point would ever ask for a separation
    f_perms = [rotation_perm(12, k) for k in (0, 4, 8)]
    with pytest.raises(InputError, match="eps must be positive"):
        restricted_space(action, f_perms, eps, r=1, n=1)
