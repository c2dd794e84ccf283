import math
import random
from fractions import Fraction

import pytest
from helpers import (
    naive_assign_values,
    naive_modulus,
    naive_sup_distance,
    random_euclidean_space,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from menger.errors import BudgetError, InputError, InternalCheckError
from menger.fixtures import circle_space, path_space
from menger.perturb import (
    Observable,
    ValueAssignment,
    assign_values,
    modulus,
    perturb,
    sample_observable,
    sup_distance,
)


def test_observable_create_validates():
    space = path_space(3)
    with pytest.raises(InputError):
        Observable.create(space, [[0.5], [0.5]])            # row count
    with pytest.raises(InputError):
        Observable.create(space, [[0.5], [0.5, 0.5], [0.5]])  # ragged
    with pytest.raises(InputError):
        Observable.create(space, [[0.5], [1.5], [0.5]])     # out of range
    obs = Observable.create(space, [["1/3"], [0.25], [1]])
    assert obs.values[0][0] == Fraction(1, 3)
    assert obs.values[1][0] == Fraction(1, 4)


def test_sample_observable_is_seeded_and_dyadic():
    space = circle_space(7)
    a = sample_observable(space, 3, seed=42)
    b = sample_observable(space, 3, seed=42)
    c = sample_observable(space, 3, seed=43)
    assert a.values == b.values
    assert a.values != c.values
    assert len(a.values) == 7 and a.r == 3
    for row in a.values:
        for v in row:
            assert 0 <= v <= 1
            assert (1 << 30) % v.denominator == 0
    with pytest.raises(InputError):
        sample_observable(space, 0, seed=1)


def test_sup_distance_exact():
    space = path_space(2)
    f = Observable.create(space, [[Fraction(1, 3), 0], [1, Fraction(1, 2)]])
    g = Observable.create(space, [[Fraction(1, 2), 0], [1, Fraction(1, 4)]])
    assert sup_distance(f, g) == Fraction(1, 4)
    assert sup_distance(f, f) == 0
    h = Observable.create(circle_space(3), [[0], [0], [0]])
    with pytest.raises(InputError):
        sup_distance(f, h)


def test_modulus_guarantee_and_sharpness():
    # behavioral contract: below the modulus all gaps stay within eps, and a
    # finite modulus is witnessed by an actual pair exceeding eps there
    rng = random.Random(2024)
    for n in (5, 6, 8):
        space = circle_space(n)
        f = sample_observable(space, 2, seed=rng.randint(0, 10**6))
        for ell in range(2):
            for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(2)):
                bound = modulus(f, ell, eps)
                witnessed = False
                for y1 in range(n):
                    for y2 in range(y1 + 1, n):
                        gap = abs(f.values[y1][ell] - f.values[y2][ell])
                        d = space.distance(y1, y2)
                        if d < bound:
                            assert gap <= eps
                        if d == bound and gap > eps:
                            witnessed = True
                if bound is not math.inf:
                    assert witnessed
                else:
                    assert eps == Fraction(2)   # gaps in [0,1] never exceed 2


def test_modulus_constant_coordinate_is_infinite():
    space = path_space(4)
    f = Observable.create(space, [[Fraction(1, 2)]] * 4)
    assert modulus(f, 0, Fraction(1, 100)) is math.inf
    with pytest.raises(InputError):
        modulus(f, 1, Fraction(1, 2))


def _spread_families(rng, n, r, eps):
    """Random disjoint families whose subsets have value spread under eps/4."""
    fams = []
    values = [[None] * r for _ in range(n)]
    for ell in range(r):
        pts = list(range(n))
        rng.shuffle(pts)
        fam = []
        while pts and len(fam) < 3:
            size = rng.randint(1, min(3, len(pts)))
            sub = frozenset(pts[:size])
            pts = pts[size:]
            base = Fraction(rng.randint(0, 16), 16)
            for y in sub:
                jitter = eps * Fraction(rng.randint(-10, 10), 81)
                values[y][ell] = min(Fraction(1), max(Fraction(0), base + jitter))
            fam.append(sub)
        for y in pts:
            values[y][ell] = Fraction(rng.randint(0, 2**20), 2**20)
        fams.append(tuple(fam))
    return tuple(fams), values


def test_assign_values_respects_windows_and_separation():
    rng = random.Random(99)
    for trial in range(15):
        n = rng.randint(4, 9)
        r = rng.randint(1, 3)
        eps = Fraction(rng.randint(1, 4), 8)
        space = circle_space(n)
        fams, raw = _spread_families(rng, n, r, eps)
        f = Observable.create(space, raw)
        assignment = assign_values(fams, f, eps)
        all_assigned = []
        for ell, fam in enumerate(fams):
            seen = set()
            for sub in fam:
                v = assignment.value_for(ell, sub)
                assert 0 <= v <= 1
                for y in sub:
                    assert abs(v - f.values[y][ell]) <= eps / 2
                assert v not in seen
                seen.add(v)
            all_assigned.append(seen)
        for e1 in range(r):
            for e2 in range(e1 + 1, r):
                assert not (all_assigned[e1] & all_assigned[e2])


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    r=st.integers(1, 3),
    eps=st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(10)]),
)
def test_assign_values_picks_the_values_of_the_fraction_search(data, r, eps):
    """Subsets of one or two points on a coarse value grid: windows often
    share a bottom or a top, so the service order decides who gets a value."""
    n = data.draw(st.integers(3, 9))
    grid = st.integers(0, 19).map(lambda k: Fraction(k, 20))
    values = [[Fraction(1, 2)] * r for _ in range(n)]
    fams = []
    for ell in range(r):
        pts = data.draw(st.permutations(range(n)))
        fam = []
        while pts and data.draw(st.booleans()):
            size = min(len(pts), data.draw(st.integers(1, 2)))
            base = data.draw(grid)
            for j, y in enumerate(pts[:size]):
                values[y][ell] = base + Fraction(j, 20)
            fam.append(frozenset(pts[:size]))
            pts = pts[size:]
        fams.append(tuple(fam))
    f = Observable.create(circle_space(n), values)
    fams = tuple(fams)
    assert assign_values(fams, f, eps).per_coordinate == naive_assign_values(fams, f, eps)


def test_assign_values_rejects_wide_subsets():
    space = path_space(3)
    f = Observable.create(space, [[0], [Fraction(1, 2)], [1]])
    with pytest.raises(BudgetError):
        assign_values(((frozenset({0, 2}),),), f, Fraction(1, 2))


def test_assign_values_edge_inputs():
    space = path_space(3)
    f = Observable.create(space, [[0], [0], [0]])
    empty = assign_values(((),), f, Fraction(1, 2))
    assert empty.per_coordinate == ((),)
    with pytest.raises(InputError):
        assign_values(((),), f, 0)
    with pytest.raises(InputError):
        assign_values(((frozenset(),),), f, Fraction(1, 2))
    with pytest.raises(InputError):
        assign_values((), f, Fraction(1, 2))


def test_assign_values_handles_budgets_beyond_value_range():
    # the lattice scale is capped so huge budgets still place values in [0,1]
    space = path_space(4)
    f = Observable.create(space, [[0], [Fraction(1, 3)], [Fraction(2, 3)], [1]])
    fams = ((frozenset({0, 1}), frozenset({2, 3})),)
    assignment = assign_values(fams, f, Fraction(10))
    v1 = assignment.value_for(0, frozenset({0, 1}))
    v2 = assignment.value_for(0, frozenset({2, 3}))
    assert v1 != v2 and 0 <= v1 <= 1 and 0 <= v2 <= 1


def test_perturb_freezes_subsets_and_keeps_the_rest():
    space = circle_space(6)
    f = sample_observable(space, 2, seed=7)
    fams = ((frozenset({0, 3}), frozenset({1})), (frozenset({2, 4}),))
    assignment = assign_values(fams, f, Fraction(3))
    g = perturb(f, assignment)
    assert g.values[0][0] == g.values[3][0] == assignment.value_for(0, frozenset({0, 3}))
    assert g.values[1][0] == assignment.value_for(0, frozenset({1}))
    assert g.values[2][1] == g.values[4][1] == assignment.value_for(1, frozenset({2, 4}))
    assert g.values[5] == f.values[5]
    assert g.values[0][1] == f.values[0][1]     # other coordinate untouched
    assert sup_distance(f, g) <= assignment.eps


def test_perturb_rejects_double_coverage():
    space = path_space(4)
    f = Observable.create(space, [[0], [0], [0], [0]])
    assignment = ValueAssignment(
        Fraction(1),
        (((frozenset({0, 1}), Fraction(1, 8)), (frozenset({1, 2}), Fraction(1, 4))),),
    )
    with pytest.raises(InputError, match="covered twice"):
        perturb(f, assignment)


def test_perturb_rejects_mismatched_assignment():
    space = path_space(2)
    f = Observable.create(space, [[0], [0]])
    with pytest.raises(InputError, match="expected 1 coordinates, got 2"):
        perturb(f, ValueAssignment(Fraction(1), ((), ())))


def test_perturb_rejects_a_value_shared_by_two_subsets():
    space = path_space(4)
    f = Observable.create(space, [[0], [0], [0], [0]])
    shared = ValueAssignment(
        Fraction(1),
        (
            (
                (frozenset({0, 1}), Fraction(1, 8)),
                (frozenset(), Fraction(1, 4)),
                (frozenset({3}), Fraction(1, 8)),
            ),
        ),
    )
    with pytest.raises(InternalCheckError, match="points 0, 3 in distinct subsets share value 1/8"):
        perturb(f, shared)
    # an empty subset covers no point, so its value may repeat another's
    distinct = ValueAssignment(
        Fraction(1),
        (
            (
                (frozenset({0, 1}), Fraction(1, 8)),
                (frozenset(), Fraction(1, 8)),
                (frozenset({3}), Fraction(1, 4)),
            ),
        ),
    )
    g = perturb(f, distinct)
    assert [row[0] for row in g.values] == [Fraction(1, 8), Fraction(1, 8), 0, Fraction(1, 4)]


def test_perturb_rejects_a_value_shared_across_coordinates():
    space = path_space(3)
    f = Observable.create(space, [[0, 0], [0, 0], [0, 0]])
    clash = ValueAssignment(
        Fraction(1),
        (((frozenset({0}), Fraction(1, 8)),), ((frozenset({2}), Fraction(1, 8)),)),
    )
    with pytest.raises(InternalCheckError, match="across coordinates 0, 1 at points 0, 2"):
        perturb(f, clash)


def test_perturb_rejects_assigned_values_outside_the_unit_interval():
    space = path_space(2)
    f = Observable.create(space, [[1], [1]])
    for v in (Fraction(-1, 8), Fraction(9, 8)):
        with pytest.raises(InputError, match="outside"):
            perturb(f, ValueAssignment(Fraction(1), (((frozenset({0}), v),),)))


def test_perturb_random_sweep_keeps_all_three_guarantees():
    rng = random.Random(5151)
    for trial in range(15):
        n = rng.randint(4, 9)
        r = rng.randint(1, 3)
        eps = Fraction(rng.randint(1, 4), 8)
        space = circle_space(n)
        fams, raw = _spread_families(rng, n, r, eps)
        f = Observable.create(space, raw)
        assignment = assign_values(fams, f, eps)
        g = perturb(f, assignment)
        # every value lies in its subset's window, within eps/2 of each point
        assert sup_distance(f, g) <= eps / 2
        for ell, fam in enumerate(fams):
            for sub in fam:
                frozen = {g.values[y][ell] for y in sub}
                assert len(frozen) == 1          # locally constant on the subset
        covered = [set().union(*fams[ell]) if fams[ell] else set() for ell in range(r)]
        for ell in range(r):
            for y in range(n):
                if y not in covered[ell]:
                    assert g.values[y][ell] == f.values[y][ell]


# few distinct values with mixed denominators: duplicates and exact ties
# between a gap and eps are common
_VALUES = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1)]
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_modulus_and_sup_distance_match_fraction_scans(data):
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    n = data.draw(st.integers(1, 8))
    r = data.draw(st.integers(1, 3))
    on_circle = n >= 3 and data.draw(st.booleans(), label="circle")
    space = circle_space(n) if on_circle else random_euclidean_space(rng, n)
    f = Observable.create(space, [[data.draw(_VALUES) for _ in range(r)] for _ in range(n)])
    g = Observable.create(space, [[data.draw(_VALUES) for _ in range(r)] for _ in range(n)])
    assert sup_distance(f, g) == naive_sup_distance(f, g)
    assert sup_distance(f, f) == 0
    for eps in (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0.25, Fraction(1)):
        for ell in range(r):
            assert modulus(f, ell, eps) == naive_modulus(f, ell, eps)
