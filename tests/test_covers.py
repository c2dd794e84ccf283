import random
from fractions import Fraction

import pytest
from helpers import (
    NON_METRIC_5,
    NON_METRIC_5_VIOLATION,
    naive_diameter_clusters,
    random_euclidean_space,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from menger import covers
from menger.covers import (
    BACKEND_BRICKS,
    BACKEND_CELLS,
    ColoredCover,
    Coords,
    build_cover,
    diameter_clusters,
    pull_cover,
    verify_cover,
)
from menger.errors import CoverInfeasibleError, HypothesisError, InputError, InternalCheckError
from menger.fixtures import (
    circle_coords,
    circle_space,
    grid_coords,
    grid_space,
    path_coords,
    path_space,
    rotation_perm,
)
from menger.io import verify_certificate, write_certificate
from menger.perturb import Observable
from menger.pipeline import embed_family
from menger.space import FiniteSpace, GroupAction, MapFamily, restricted_space, validate_space


def test_diameter_clusters_partition_with_small_diameter():
    space = circle_space(12)
    points = list(range(12))
    eps = Fraction(1, 2)
    clusters = diameter_clusters(space, points, eps)
    seen = sorted(p for sub in clusters for p in sub)
    assert seen == points
    for sub in clusters:
        assert Fraction(space.diameter(sub)) <= eps


def test_build_cover_cells_populates_first_mu_families():
    space = circle_space(9)
    cover = build_cover(space, range(9), m=5, mu=3, eps=Fraction(1, 2))
    assert len(cover.families) == 5
    assert all(cover.families[k] for k in range(3))
    assert all(not cover.families[k] for k in range(3, 5))
    assert verify_cover(cover, space).ok


def test_build_cover_empty_points():
    space = circle_space(5)
    cover = build_cover(space, [], m=3, mu=2, eps=Fraction(1))
    assert cover.ambient == ()
    assert verify_cover(cover, space).ok


def test_bricks_backend_builds_verified_covers():
    space = grid_space(4, 3)
    coords = grid_coords(4, 3)
    cover = build_cover(
        space, range(space.n_points), m=5, mu=3, eps=Fraction(3, 2),
        backend=BACKEND_BRICKS, coords=coords,
    )
    report = verify_cover(cover, space)
    assert report.ok, report.violations


def test_bricks_backend_refuses_impossible_multiplicity():
    space = grid_space(3, 3)
    coords = grid_coords(3, 3)
    # with m families in declared dimension 2, multiplicity can only reach
    # m - 2; asking for m - 1 must be refused, not fudged
    with pytest.raises(CoverInfeasibleError) as err:
        build_cover(space, range(9), m=3, mu=2, eps=Fraction(1),
                    backend=BACKEND_BRICKS, coords=coords)
    assert "m - mu + 1 > D" in str(err.value)


def test_bricks_backend_needs_coords():
    space = path_space(5)
    with pytest.raises(InputError):
        build_cover(space, range(5), 2, 1, Fraction(1), backend=BACKEND_BRICKS)


def test_bricks_rejects_coordinate_collisions():
    space = path_space(4)
    coords = Coords.create(1, [[0.0], [0.5], [0.5], [1.0]])
    with pytest.raises(InputError):
        build_cover(space, range(4), 2, 1, Fraction(1, 4),
                    backend=BACKEND_BRICKS, coords=coords)


def test_verify_cover_catches_violations_from_scratch():
    space = path_space(4)
    overlap = ColoredCover((0, 1, 2, 3), ((frozenset({0, 1}), frozenset({1, 2})),), 1.0, 1)
    report = verify_cover(overlap, space)
    assert any("disjoint" in v or "overlap" in v for v in report.violations)

    thin = ColoredCover((0, 1, 2, 3), ((frozenset({0}),),), 1.0, 1)
    report = verify_cover(thin, space)
    assert not report.ok            # points 1..3 are covered zero times

    wide = ColoredCover((0, 3), ((frozenset({0, 3}),),), 0.5, 1)
    report = verify_cover(wide, space)
    assert any("diameter" in v for v in report.violations)


def test_build_cover_checks_diameters_against_the_requested_bound(monkeypatch):
    """A backend that ignores the bound is caught: one 9-point cluster for
    eps = 1/10 has diameter about 1.97 and must not pass as a cover."""
    monkeypatch.setattr(covers, "diameter_clusters", lambda space, points, eps: (frozenset(points),))
    with pytest.raises(InternalCheckError, match=r"has diameter .* > 1/10"):
        build_cover(circle_space(9), range(9), 2, 1, Fraction(1, 10))


def test_pull_of_an_image_cover_is_the_cover():
    space = circle_space(8)
    cover = build_cover(space, range(8), m=4, mu=2, eps=Fraction(3, 4))
    g = rotation_perm(8, 3)
    image = ColoredCover(
        tuple(sorted(g[p] for p in cover.ambient)),
        tuple(tuple(frozenset(g[p] for p in sub) for sub in fam) for fam in cover.families),
        cover.eps,      # a rotation is an isometry, so every diameter is kept
        cover.mu,
    )
    assert verify_cover(image, space).ok
    back = pull_cover(image, {x: g[x] for x in range(8)})
    assert back == cover


def test_pull_requires_exact_bijection_onto_ambient():
    space = path_space(3)
    cover = build_cover(space, [0, 1], m=1, mu=1, eps=Fraction(2))
    with pytest.raises(InputError):
        pull_cover(cover, {0: 0, 1: 2})   # lands on {0,2}, not {0,1}


def test_seeded_sweep_cells_and_bricks():
    fixtures = [
        (circle_space(9), circle_coords(9)),
        (path_space(8), path_coords(8)),
        (grid_space(3, 3), grid_coords(3, 3)),
    ]
    rng = random.Random(5150)
    for trial in range(20):
        space, coords = fixtures[trial % len(fixtures)]
        n = space.n_points
        points = sorted(rng.sample(range(n), rng.randint(1, n)))
        m = rng.randint(1, 5)
        mu = rng.randint(1, m)
        eps = space.diameter(range(n)) * (0.3 + 0.5 * rng.random())
        cover = build_cover(space, points, m, mu, eps)
        assert verify_cover(cover, space).ok
        m_b = max(m, coords.dim + 1)
        mu_b = min(mu, m_b - coords.dim)
        cover_b = build_cover(space, points, m_b, mu_b, eps,
                              backend=BACKEND_BRICKS, coords=coords)
        assert verify_cover(cover_b, space).ok


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_diameter_clusters_match_the_recomputing_scan(data):
    """Running nearest-center distances give the clusters of the full rescan."""
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    n = data.draw(st.integers(2, 12))
    kind = data.draw(st.sampled_from(["circle", "path", "planar"]))
    if kind == "circle":
        space = circle_space(max(n, 3))
    elif kind == "path":
        space = path_space(n)
    else:
        space = random_euclidean_space(rng, n)
    points = data.draw(st.lists(st.integers(0, space.n_points - 1), max_size=12))
    dists = sorted({space.distance(a, b) for a in range(space.n_points) for b in range(a)})
    # eps at twice a distance puts points exactly at radius eps/2 of a center
    eps = data.draw(
        st.sampled_from(dists).map(lambda d: 2 * Fraction(d))
        | st.sampled_from(dists).map(Fraction)
        | st.fractions(Fraction(1, 50), Fraction(5))
    )
    assert diameter_clusters(space, points, eps) == naive_diameter_clusters(space, points, eps)


def _cover_of_two(space):
    return build_cover(space, [0, 1], m=2, mu=1, eps=Fraction(1, 2))


# Each entry point reads point indices by as_index: a float or a bool is
# refused, never truncated into another point (int(1.7) and int(True) are 1).
@pytest.mark.parametrize("bad", [1.7, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda space, bad: space.subspace([0, bad]),
        lambda space, bad: diameter_clusters(space, [0, bad], Fraction(1, 2)),
        lambda space, bad: build_cover(space, [0, bad], m=2, mu=1, eps=Fraction(1, 2)),
        lambda space, bad: pull_cover(_cover_of_two(space), {0: 0, 1: bad}),
        lambda space, bad: pull_cover(_cover_of_two(space), [0, bad]),
        lambda space, bad: restricted_space(
            GroupAction.from_generators(space, [rotation_perm(9, 3)]),
            [(0, bad, *range(2, 9))],
            Fraction(1, 2),
            r=1,
            n=1,
        ),
    ],
    ids=["subspace", "diameter_clusters", "build_cover", "pull_cover-dict", "pull_cover-list",
         "restricted_space"],
)
def test_index_entry_points_refuse_what_int_would_truncate(call, bad):
    with pytest.raises(InputError, match="expected an integer"):
        call(circle_space(9), bad)


def test_cells_cover_names_the_triangle_violation_of_a_non_metric_input():
    """A cluster too wide for its bound is bad input, named as validate_space names it."""
    space = FiniteSpace.create(NON_METRIC_5)
    fam = MapFamily.create(space, space, [[3, 0, 2, 1, 4]])
    f0 = Observable.create(space, [[Fraction(1, 2)]] * 5)
    violation = NON_METRIC_5_VIOLATION
    assert violation in validate_space(space).issues
    with pytest.raises(InputError) as exc:
        embed_family(fam, 1, Fraction(1, 10), f0=f0)
    assert str(exc.value) == f"invalid metric space: {violation}"
    with pytest.raises(InputError) as exc:
        diameter_clusters(space, [1, 2, 4], Fraction(1, 40))
    assert str(exc.value) == f"invalid metric space: {violation}"


@pytest.mark.parametrize("backend", [BACKEND_CELLS, BACKEND_BRICKS])
def test_non_metric_inputs_verify_or_are_refused_as_input(tmp_path, backend):
    """The loaders let a matrix that breaks the triangle inequality through to
    embed: each one either gives a certificate that verifies or is refused,
    never with an internal failure."""
    outcomes: dict[str, int] = {}
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.uniform(0.001, 0.05)
        space = FiniteSpace.create(m)
        if validate_space(space).ok:
            continue
        maps = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(n))
            rng.shuffle(perm)
            maps.append(perm)
        fam = MapFamily.create(space, space, maps)
        f0 = Observable.create(space, [[Fraction(1, 2)]] * n)
        coords = path_coords(n) if backend == BACKEND_BRICKS else None
        try:
            cert = embed_family(fam, 1, Fraction(1, 10), f0=f0, backend=backend, coords=coords)
        except (InputError, CoverInfeasibleError, HypothesisError) as exc:
            outcome = type(exc).__name__
        else:
            payload = write_certificate(str(tmp_path / "cert.json"), cert)
            assert verify_certificate(payload, space=space, family=fam) == []
            outcome = "verified"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert sum(outcomes.values()) >= 100
    assert outcomes["verified"] >= 20
    if backend == BACKEND_CELLS:
        assert outcomes["InputError"] >= 5
