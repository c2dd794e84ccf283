"""Colored covers: m families of disjoint small sets covering mu times over.

Two backends build them.  ``cells`` clusters the points greedily and copies
the resulting partition into mu of the m families, so on a metric input it
always succeeds at finite scale; an input that breaks the triangle
inequality can leave a cluster too wide, which is refused as input.
``bricks`` lays down m diagonally shifted half-open grids over declared
coordinates and drops the slab of width s/m nearest each cell's far face;
a point then misses exactly one family per axis, hence is covered by at
least m - D families.  Asking bricks for more multiplicity than m - D, that
is m - mu + 1 <= D, is refused: that inequality is the finite shadow of the
dimension obstruction, and the diagnostic says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CoverInfeasibleError, InputError, InternalCheckError
from .space import FiniteSpace, as_indices

BACKEND_CELLS = "cells"
BACKEND_BRICKS = "bricks"


@dataclass(frozen=True)
class Coords:
    """Declared coordinates for the bricks backend."""

    dim: int
    points: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def create(dim: int, points: Sequence[Sequence[float]]) -> "Coords":
        if dim < 1:
            raise InputError("coords dim must be at least 1")
        rows = []
        for k, raw in enumerate(points):
            row = tuple(Fraction(float(v)) for v in raw)
            if len(row) != dim:
                raise InputError(f"points[{k}]: expected {dim} coordinates, got {len(row)}")
            rows.append(row)
        return Coords(dim, tuple(rows))


@dataclass(frozen=True)
class ColoredCover:
    """Families of pairwise disjoint subsets with a promised diameter bound.

    ``eps`` is the bound the cover was built for, and ``verify_cover`` checks
    every subset against it; a pulled cover carries its source's bound.
    ``mu`` is the promised covering multiplicity, counted in families.
    """

    ambient: tuple[int, ...]
    families: tuple[tuple[frozenset[int], ...], ...]
    eps: Fraction
    mu: int


@dataclass(frozen=True)
class CoverReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_cover(cover: ColoredCover, space: FiniteSpace) -> CoverReport:
    """Re-check disjointness, diameters and multiplicity from scratch."""
    bad: list[str] = []
    for fi, fam in enumerate(cover.families):
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                if fam[a] & fam[b]:
                    bad.append(
                        f"family {fi}: subsets {sorted(fam[a])} and {sorted(fam[b])} overlap"
                    )
        for sub in fam:
            d = space.diameter(sub)
            if d > cover.eps:
                bad.append(
                    f"family {fi}: subset {sorted(sub)} has diameter {d} > {cover.eps}"
                )
    for x in cover.ambient:
        hits = sum(1 for fam in cover.families if any(x in sub for sub in fam))
        if hits < cover.mu:
            bad.append(f"point {x} covered by {hits} families, needs {cover.mu}")
    return CoverReport(tuple(bad))


def diameter_clusters(
    space: FiniteSpace, points: Sequence[int], eps: float | Fraction
) -> tuple[frozenset[int], ...]:
    """Partition ``points`` into clusters of metric diameter at most eps.

    Greedy farthest-point seeding: keep adding the point farthest from the
    chosen centers (lowest index on ties) until every point sits within
    eps/2 of a center, then assign points to their nearest center (earliest
    center on ties).  Radius eps/2 forces diameter at most eps through the
    triangle inequality, and every cluster's diameter is re-checked, since
    the loaders test only the O(n^2) axioms.  A cluster wider than eps is
    an ``InputError`` naming a triangle violation through its center in
    ``validate_space``'s wording; it is an ``InternalCheckError`` only when
    no such violation explains it.

    Each point's distance to its nearest center so far, and that center,
    are updated once per new center.  Distances are floats, so comparing
    them with each other is exact; comparisons with eps/2 and eps are exact
    against the Fraction.
    """
    pts = sorted(set(as_indices(points, "cluster points")))
    if not pts:
        return ()
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("cluster diameter bound must be positive")
    half = eps_f / 2
    rows = space.rows()
    centers = [pts[0]]
    first = rows[pts[0]]
    nearest = [first[p] for p in pts]
    owner = [pts[0]] * len(pts)
    while True:
        far_d = max(nearest)
        if far_d <= half:
            break
        c = pts[nearest.index(far_d)]
        centers.append(c)
        row = rows[c]
        for i, p in enumerate(pts):
            d = row[p]
            if d < nearest[i]:
                nearest[i] = d
                owner[i] = c
    groups: dict[int, list[int]] = {c: [] for c in centers}
    for p, c in zip(pts, owner):
        groups[c].append(p)
    for c, members in groups.items():
        if space.diameter(members) > eps_f:
            raise _wide_cluster(rows, c, members, eps)
    return tuple(frozenset(groups[c]) for c in centers if groups[c])


def _wide_cluster(
    rows: list[list[float]], c: int, members: list[int], eps: float | Fraction
) -> Exception:
    """The error for the cluster of center ``c``, ``members`` in increasing order.

    Each member lies within eps/2 of ``c``, so two members more than eps
    apart break the triangle inequality through ``c``, unless float
    rounding of the sum hides it.
    """
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if rows[a][b] > rows[a][c] + rows[c][b]:
                return InputError(
                    f"invalid metric space: metric[{a}][{b}]: triangle violation via {c} "
                    f"({rows[a][b]} > {rows[a][c]} + {rows[c][b]})"
                )
    return InternalCheckError(f"cluster {members} exceeds diameter bound {eps}")


def build_cover(
    space: FiniteSpace,
    points: Sequence[int],
    m: int,
    mu: int,
    eps: float | Fraction,
    backend: str = BACKEND_CELLS,
    coords: Coords | None = None,
) -> ColoredCover:
    """Build m families of disjoint eps-small sets covering each point mu times."""
    if m < 1 or mu < 1 or mu > m:
        raise InputError(f"need 1 <= mu <= m, got m={m}, mu={mu}")
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    pts = tuple(sorted(set(as_indices(points, "cover points"))))
    if not all(0 <= p < space.n_points for p in pts):
        raise InputError("cover point out of range")
    if not pts:
        return ColoredCover((), tuple(() for _ in range(m)), eps_f, mu)

    if backend == BACKEND_CELLS:
        clusters = diameter_clusters(space, pts, eps_f)
        families = tuple(clusters if fi < mu else () for fi in range(m))
    elif backend == BACKEND_BRICKS:
        if coords is None:
            raise InputError("bricks backend needs declared coordinates")
        families = _brick_families(space, pts, m, mu, eps_f, coords)
    else:
        raise InputError(f"unknown cover backend {backend!r}")

    cover = ColoredCover(pts, families, eps_f, mu)
    report = verify_cover(cover, space)
    if not report.ok:
        raise InternalCheckError("freshly built cover failed verification: " + report.violations[0])
    return cover


def _brick_families(
    space: FiniteSpace,
    pts: tuple[int, ...],
    m: int,
    mu: int,
    eps: Fraction,
    coords: Coords,
) -> tuple[tuple[frozenset[int], ...], ...]:
    d = coords.dim
    if m - mu + 1 <= d:
        raise CoverInfeasibleError(
            f"bricks backend cannot reach multiplicity {mu} with {m} families in "
            f"declared dimension {d}: a point can miss one family per axis, so at "
            f"most m - D = {m - d} is achievable; need m - mu + 1 > D"
        )
    for p in pts:
        if p >= len(coords.points):
            raise InputError(f"point {p} has no declared coordinates")
    seen_at: dict[tuple, int] = {}
    for p in pts:
        key = tuple(coords.points[p])
        if key in seen_at:
            raise InputError(
                f"declared coordinates do not separate points {seen_at[key]} and {p}"
            )
        seen_at[key] = p

    side = eps
    while True:
        families = []
        ok = True
        for q in range(m):
            shift = side * q / m
            cells: dict[tuple[int, ...], list[int]] = {}
            for p in pts:
                key = []
                in_gap = False
                for axis in range(d):
                    u = (coords.points[p][axis] - shift) % side
                    if u >= side - side / m:
                        in_gap = True
                        break
                    key.append(int((coords.points[p][axis] - shift) // side))
                if in_gap:
                    continue
                cells.setdefault(tuple(key), []).append(p)
            fam = tuple(frozenset(v) for _, v in sorted(cells.items()))
            for sub in fam:
                if Fraction(space.diameter(sub)) > eps:
                    ok = False
                    break
            if not ok:
                break
            families.append(fam)
        if ok:
            return tuple(families)
        side = side / 2


def _as_map(mapping) -> dict[int, int]:
    if isinstance(mapping, dict):
        keys = as_indices(mapping, "pull map")
        return dict(zip(keys, as_indices(mapping.values(), "pull map")))
    return dict(enumerate(as_indices(mapping, "pull map")))


def pull_cover(cover: ColoredCover, t) -> ColoredCover:
    """Preimage of a cover under a bijection onto its ambient set.

    The diameter bound is carried over unchanged; it holds for the preimage
    wherever the bijection is an isometry.
    """
    tm = _as_map(t)
    if len(set(tm.values())) != len(tm):
        raise InputError("pull map is not injective")
    if set(tm.values()) != set(cover.ambient):
        raise InputError("pull map does not land exactly on the cover's ambient set")
    inverse = {v: k for k, v in tm.items()}
    families = tuple(
        tuple(frozenset(inverse[p] for p in sub) for sub in fam) for fam in cover.families
    )
    ambient = tuple(sorted(inverse[p] for p in cover.ambient))
    return ColoredCover(ambient, families, cover.eps, cover.mu)
