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
    if f.r != g.r or len(f.values) != len(g.values):
        raise InputError("observables have different shapes")
    best = Fraction(0)
    for row_f, row_g in zip(f.values, g.values):
        for a, b in zip(row_f, row_g):
            d = abs(a - b)
            if d > best:
                best = d
    return best


def modulus(f: Observable, ell: int, eps: Fraction | float) -> float:
    """Distance below which coordinate ell moves by at most eps.

    Scans every pair of points and returns the smallest distance among pairs
    whose value gap exceeds eps, or infinity when no pair does.  Consumers
    rely on the strict guard: d(y1, y2) < modulus implies |gap| <= eps.
    """
    if not 0 <= ell < f.r:
        raise InputError(f"coordinate {ell} out of range")
    eps_f = Fraction(eps)
    n = f.space.n_points
    best = math.inf
    for y1 in range(n):
        for y2 in range(y1 + 1, n):
            if abs(f.values[y1][ell] - f.values[y2][ell]) > eps_f:
                d = f.space.distance(y1, y2)
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

    queue = []
    for ell, fam in enumerate(fams):
        for k, sub in enumerate(fam):
            if not sub:
                raise InputError(f"family {ell} contains an empty subset")
            vals = [f.values[y][ell] for y in sorted(sub)]
            lo, hi = min(vals), max(vals)
            if hi - lo > eps_f / 2:
                raise BudgetError(
                    f"subset {sorted(sub)} of coordinate {ell} has value spread "
                    f"{hi - lo} > eps/2 = {eps_f / 2}"
                )
            window = (max(Fraction(0), hi - eps_f / 2), min(Fraction(1), lo + eps_f / 2))
            queue.append((window[1], window[0], ell, k, sub))
    queue.sort(key=lambda item: (item[0], item[1], item[2], item[3]))

    used: dict[int, set[int]] = {ell: set() for ell in range(r)}
    chosen: dict[tuple[int, int], Fraction] = {}
    for hi, lo, ell, k, sub in queue:
        idx = math.ceil((lo / h - ell) / r)
        if idx < 0:
            idx = 0
        while idx in used[ell]:
            idx += 1
        v = h * (ell + r * idx)
        if v > hi:
            raise BudgetError(
                f"no free grid value inside window [{lo}, {hi}] for subset "
                f"{sorted(sub)} of coordinate {ell}"
            )
        used[ell].add(idx)
        chosen[(ell, k)] = v

    per_coord = []
    for ell, fam in enumerate(fams):
        entries = []
        for k, sub in enumerate(fam):
            v = chosen[(ell, k)]
            for y in sub:
                if abs(v - f.values[y][ell]) > eps_f / 2:
                    raise InternalCheckError(
                        f"assigned value {v} drifts more than eps/2 from point {y}"
                    )
            entries.append((sub, v))
        per_coord.append(tuple(entries))

    # Cross-coordinate ranges must be disjoint; the congruence argument makes
    # this automatic, but it is cheap to confirm.
    for ell1 in range(r):
        vals1 = {v for _, v in per_coord[ell1]}
        for ell2 in range(ell1 + 1, r):
            clash = vals1 & {v for _, v in per_coord[ell2]}
            if clash:
                raise InternalCheckError(
                    f"coordinates {ell1} and {ell2} share assigned value {clash.pop()}"
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
