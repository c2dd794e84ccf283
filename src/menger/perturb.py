"""Observables and locally constant perturbations with exact arithmetic.

Values live in [0, 1]^r as exact rationals.  Perturbing an observable means
freezing one rational value per covered subset and leaving every uncovered
point alone, so closeness to the original, injectivity across the subsets of
one coordinate, and disjointness of ranges across coordinates can all be
checked exhaustively with no tolerance at all.  The float tolerance below is
used only when summarizing for humans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetError, InputError, InternalCheckError
from .space import FiniteSpace

# Diagnostics only: collapse sub-1e-12 float artifacts when pretty printing.
DIAG_TOL = 1e-12

Families = tuple[tuple[frozenset[int], ...], ...]


@dataclass(frozen=True, eq=False)
class Observable:
    """A map from the points of a space into [0, 1]^r, held as Fractions."""

    space: FiniteSpace
    r: int
    values: tuple[tuple[Fraction, ...], ...]
    _numerators: tuple[int, tuple[tuple[int, ...], ...]] | None = field(
        default=None, init=False, repr=False
    )

    @staticmethod
    def create(space: FiniteSpace, values: Sequence[Sequence]) -> "Observable":
        if len(values) != space.n_points:
            raise InputError(
                f"observable has {len(values)} rows for {space.n_points} points"
            )
        if not values or not len(values[0]):
            raise InputError("observable needs at least one coordinate")
        r = len(values[0])
        rows = []
        for x, raw in enumerate(values):
            if len(raw) != r:
                raise InputError(f"values[{x}]: ragged row")
            row = []
            for ell, v in enumerate(raw):
                f = Fraction(v)
                if not 0 <= f <= 1:
                    raise InputError(f"values[{x}][{ell}]: {v} outside [0, 1]")
                row.append(f)
            rows.append(tuple(row))
        return Observable(space, r, tuple(rows))

    def numerators(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The values as integer numerators over one common denominator.

        Returns ``(den, rows)`` with ``rows[y][ell] / den == values[y][ell]``;
        computed on first use and kept, since the values never change.
        """
        if self._numerators is None:
            den = math.lcm(*(v.denominator for row in self.values for v in row))
            rows = tuple(
                tuple(v.numerator * (den // v.denominator) for v in row)
                for row in self.values
            )
            object.__setattr__(self, "_numerators", (den, rows))
        return self._numerators

    def replace_values(self, values: Sequence[Sequence[Fraction]]) -> "Observable":
        return Observable.create(self.space, values)


def sample_observable(space: FiniteSpace, r: int, seed: int) -> Observable:
    """Seeded uniform observable on the dyadic grid of step 2**-30."""
    import random

    if r < 1:
        raise InputError("r must be at least 1")
    rng = random.Random(seed)
    grid = 1 << 30
    values = [
        [Fraction(rng.getrandbits(30), grid) for _ in range(r)]
        for _ in range(space.n_points)
    ]
    return Observable.create(space, values)


def sup_distance(f: Observable, g: Observable) -> Fraction:
    """Largest gap between the two observables at one point and coordinate.

    Exact on integer numerators: with f = a / df and g = b / dg, the gap
    |a/df - b/dg| is |a*dg - b*df| over the common denominator df*dg.
    """
    if f.r != g.r or len(f.values) != len(g.values):
        raise InputError("observables have different shapes")
    df, rows_f = f.numerators()
    dg, rows_g = g.numerators()
    best = 0
    for row_f, row_g in zip(rows_f, rows_g):
        for a, b in zip(row_f, row_g):
            d = abs(a * dg - b * df)
            if d > best:
                best = d
    return Fraction(best, df * dg)


def modulus(f: Observable, ell: int, eps: Fraction | float) -> float:
    """Distance below which coordinate ell moves by at most eps.

    Scans every pair of points and returns the smallest distance among pairs
    whose value gap exceeds eps, or infinity when no pair does.  Consumers
    rely on the strict guard: d(y1, y2) < modulus implies |gap| <= eps.
    Gaps are compared exactly on integer numerators: with values a / den
    and eps = p / q, the gap exceeds eps when |a1 - a2| * q > p * den.
    """
    if not 0 <= ell < f.r:
        raise InputError(f"coordinate {ell} out of range")
    eps_f = Fraction(eps)
    den, rows = f.numerators()
    scale = eps_f.denominator
    bound = eps_f.numerator * den
    vals = [row[ell] for row in rows]
    dist = f.space.rows()
    best = math.inf
    for y1, a in enumerate(vals):
        drow = dist[y1]
        for y2 in range(y1 + 1, len(vals)):
            if abs(a - vals[y2]) * scale > bound:
                d = drow[y2]
                if d < best:
                    best = d
    return best


@dataclass(frozen=True)
class ValueAssignment:
    """One frozen rational per subset, organized per coordinate.

    ``per_coordinate[ell]`` is a tuple of (subset, value) pairs aligned with
    the family it was built from.  ``eps`` is the displacement budget the
    assignment was constructed for.
    """

    eps: Fraction
    per_coordinate: tuple[tuple[tuple[frozenset[int], Fraction], ...], ...]

    def value_for(self, ell: int, subset: frozenset[int]) -> Fraction:
        for sub, v in self.per_coordinate[ell]:
            if sub == subset:
                return v
        raise InputError(f"subset {sorted(subset)} not assigned in coordinate {ell}")


def assign_values(fams: Families, f: Observable, eps: Fraction | float) -> ValueAssignment:
    """Pick one grid value per subset satisfying the three value constraints.

    For each subset C of family ell the window [max f_ell(C) - eps/2,
    min f_ell(C) + eps/2] (clipped to [0, 1]) collects the values within
    eps/2 of every point of C; its width is at least eps/2 once the value
    spread of C is at most eps/2, which is the precondition checked here.
    Values come from an exact rational lattice of spacing min(eps, 2) / (4*S*r)
    where S counts all subsets; coordinate ell only uses lattice points whose
    index is ell modulo r.  That makes values inside one coordinate pairwise
    distinct by choice and ranges across coordinates disjoint by congruence.
    Subsets are served earliest deadline first, smallest unused grid point
    that fits; each window holds at least 2S candidates, so the greedy pass
    cannot run out.
    """
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    r = f.r
    if len(fams) != r:
        raise InputError(f"expected {r} families, got {len(fams)}")
    total = sum(len(fam) for fam in fams)
    if total == 0:
        return ValueAssignment(eps_f, tuple(() for _ in range(r)))
    # Values live in [0, 1], so a budget beyond 2 widens no window; capping
    # the lattice scale keeps at least 2S candidates inside every window.
    h = min(eps_f, Fraction(2)) / (4 * total * r)
    half = eps_f / 2
    # Values, windows and lattice points are integer numerators over one
    # denominator L: h = step / L and eps/2 = radius / L.
    den, rows = f.numerators()
    L = math.lcm(den, h.denominator, half.denominator)
    scale = L // den
    step = h.numerator * (L // h.denominator)
    radius = half.numerator * (L // half.denominator)

    queue = []
    # the points holding each subset's least and greatest value: every
    # value of the subset lies between them
    extremes: dict[tuple[int, int], tuple[int, int]] = {}
    for ell, fam in enumerate(fams):
        for k, sub in enumerate(fam):
            if not sub:
                raise InputError(f"family {ell} contains an empty subset")
            y_lo = min(sub, key=lambda y: rows[y][ell])
            y_hi = max(sub, key=lambda y: rows[y][ell])
            extremes[ell, k] = (y_lo, y_hi)
            lo, hi = rows[y_lo][ell] * scale, rows[y_hi][ell] * scale
            if hi - lo > radius:
                raise BudgetError(
                    f"subset {sorted(sub)} of coordinate {ell} has value spread "
                    f"{Fraction(hi - lo, L)} > eps/2 = {half}"
                )
            queue.append((min(L, lo + radius), max(0, hi - radius), ell, k, sub))
    queue.sort(key=lambda item: item[:4])

    used: dict[int, set[int]] = {ell: set() for ell in range(r)}
    chosen: dict[tuple[int, int], int] = {}
    for top, bottom, ell, k, sub in queue:
        # the least index with step * (ell + r * idx) >= bottom
        idx = max(0, -((ell * step - bottom) // (r * step)))
        while idx in used[ell]:
            idx += 1
        v = step * (ell + r * idx)
        if v > top:
            raise BudgetError(
                f"no free grid value inside window [{Fraction(bottom, L)}, {Fraction(top, L)}] "
                f"for subset {sorted(sub)} of coordinate {ell}"
            )
        used[ell].add(idx)
        chosen[ell, k] = v

    per_coord = []
    for ell, fam in enumerate(fams):
        entries = []
        for k, sub in enumerate(fam):
            v = chosen[ell, k]
            # |v - value| is largest at one of the two extremes
            for y in extremes[ell, k]:
                if abs(v - rows[y][ell] * scale) > radius:
                    raise InternalCheckError(
                        f"assigned value {Fraction(v, L)} drifts more than eps/2 from point {y}"
                    )
            entries.append((sub, Fraction(v, L)))
        per_coord.append(tuple(entries))

    # Cross-coordinate ranges must be disjoint; the congruence argument makes
    # this automatic, but it is cheap to confirm.
    for ell1 in range(r):
        vals1 = {chosen[ell1, k] for k in range(len(fams[ell1]))}
        for ell2 in range(ell1 + 1, r):
            clash = vals1 & {chosen[ell2, k] for k in range(len(fams[ell2]))}
            if clash:
                raise InternalCheckError(
                    f"coordinates {ell1} and {ell2} share assigned value "
                    f"{Fraction(clash.pop(), L)}"
                )
    return ValueAssignment(eps_f, tuple(per_coord))


def perturb(f: Observable, assignment: ValueAssignment, fams: Families) -> Observable:
    """Freeze assigned values on covered points, keep the rest of f.

    The replacement is locally constant on every subset and touches only the
    coordinate the subset's family belongs to.  Before returning, three
    properties are re-checked exhaustively with exact arithmetic: the result
    stays within the assignment budget of f in sup norm, distinct subsets of
    one family get distinct values at every covered point, and covered values
    of different coordinates never coincide.
    """
    if len(fams) != f.r:
        raise InputError(f"expected {f.r} families, got {len(fams)}")
    new_rows = [list(row) for row in f.values]
    covered: list[dict[int, int]] = [dict() for _ in range(f.r)]
    for ell, fam in enumerate(fams):
        if len(assignment.per_coordinate[ell]) != len(fam):
            raise InputError(f"assignment for coordinate {ell} does not match family")
        for k, sub in enumerate(fam):
            a_sub, v = assignment.per_coordinate[ell][k]
            if a_sub != sub:
                raise InputError(f"assignment order mismatch in coordinate {ell}")
            for y in sub:
                if y in covered[ell]:
                    raise InputError(
                        f"point {y} covered twice in coordinate {ell} "
                        f"(subsets {covered[ell][y]} and {k})"
                    )
                covered[ell][y] = k
                new_rows[y][ell] = v
    result = Observable.create(f.space, new_rows)

    drift = sup_distance(result, f)
    if drift > assignment.eps:
        raise InternalCheckError(f"perturbation moved f by {drift} > budget {assignment.eps}")
    for ell in range(f.r):
        per_point = covered[ell]
        pts = sorted(per_point)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                ya, yb = pts[a], pts[b]
                if per_point[ya] != per_point[yb]:
                    if result.values[ya][ell] == result.values[yb][ell]:
                        raise InternalCheckError(
                            f"coordinate {ell}: points {ya}, {yb} in distinct subsets "
                            f"share value {result.values[ya][ell]}"
                        )
    for ell1 in range(f.r):
        for ell2 in range(ell1 + 1, f.r):
            for y1 in covered[ell1]:
                for y2 in covered[ell2]:
                    if result.values[y1][ell1] == result.values[y2][ell2]:
                        raise InternalCheckError(
                            f"covered value clash across coordinates {ell1}, {ell2} "
                            f"at points {y1}, {y2}"
                        )
    return result
