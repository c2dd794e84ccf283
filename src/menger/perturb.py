"""Observables and locally constant perturbations with exact arithmetic.

An observable is one integer table: a common denominator and one row of
numerators per point, the value at point y and coordinate ell being
``rows[y][ell] / den`` in [0, 1].  The table is built once from the exact
ratios a file or a caller gives, and every later step, the modulus scan,
value assignment, perturbation, margins and the written certificate, reads
those integers.  Perturbing an observable means freezing one rational
value per covered subset and leaving every uncovered point alone, so
closeness to the original, injectivity across the subsets of one
coordinate, and disjointness of ranges across coordinates can all be
checked exhaustively with no tolerance at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import BudgetError, InputError, InternalCheckError
from .space import FiniteSpace

Families = Sequence[Sequence[frozenset[int]]]


@dataclass(frozen=True, eq=False)
class Observable:
    """A map from the points of a space into [0, 1]^r as one integer table.

    ``rows[y][ell] / den`` is the value at point y, coordinate ell, and
    ``den`` is the least common denominator of all values, so two
    observables with the same values have the same table.  ``values`` is a
    read-only view of the same values as Fractions.
    """

    space: FiniteSpace
    r: int
    den: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_ratios(
        space: FiniteSpace, ratios: Sequence[Sequence[tuple[int, int]]]
    ) -> "Observable":
        """The observable with value p/q at each (p, q) of ``ratios``.

        Denominators must be positive and need not be reduced; every value
        is checked to lie in [0, 1].
        """
        if len(ratios) != space.n_points:
            raise InputError(
                f"observable has {len(ratios)} rows for {space.n_points} points"
            )
        if not ratios or not len(ratios[0]):
            raise InputError("observable needs at least one coordinate")
        r = len(ratios[0])
        for x, row in enumerate(ratios):
            if len(row) != r:
                raise InputError(f"values[{x}]: ragged row")
            for ell, (p, q) in enumerate(row):
                if not 0 <= p <= q:
                    raise InputError(f"values[{x}][{ell}]: {Fraction(p, q)} outside [0, 1]")
        den = math.lcm(*(q for row in ratios for _, q in row))
        rows = [tuple(p * (den // q) for p, q in row) for row in ratios]
        return Observable.from_numerators(space, den, rows)

    @staticmethod
    def from_numerators(
        space: FiniteSpace, den: int, rows: Sequence[Sequence[int]]
    ) -> "Observable":
        """The observable with values ``rows[y][ell] / den``, already known to lie in [0, 1].

        One gcd reduces the table to the least common denominator.
        """
        g = math.gcd(den, *(a for row in rows for a in row))
        if g > 1:
            den //= g
            rows = [[a // g for a in row] for row in rows]
        return Observable(space, len(rows[0]), den, tuple(map(tuple, rows)))

    @staticmethod
    def create(space: FiniteSpace, values: Sequence[Sequence]) -> "Observable":
        """The observable with the given values, each read by ``Fraction``."""
        ratios = [[(f.numerator, f.denominator) for f in map(Fraction, row)] for row in values]
        return Observable.from_ratios(space, ratios)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The values as Fractions, built on first use."""
        den = self.den
        return tuple(tuple(Fraction(a, den) for a in row) for row in self.rows)


def sample_observable(space: FiniteSpace, r: int, seed: int) -> Observable:
    """Seeded uniform observable on the dyadic grid of step 2**-30."""
    import random

    if r < 1:
        raise InputError("r must be at least 1")
    rng = random.Random(seed)
    rows = [[rng.getrandbits(30) for _ in range(r)] for _ in range(space.n_points)]
    return Observable.from_numerators(space, 1 << 30, rows)


def sup_distance(f: Observable, g: Observable) -> Fraction:
    """Largest gap between the two observables at one point and coordinate.

    Exact on integer numerators: with f = a / df and g = b / dg, the gap
    |a/df - b/dg| is |a*dg - b*df| over the common denominator df*dg.
    """
    if f.r != g.r or len(f.rows) != len(g.rows):
        raise InputError("observables have different shapes")
    df, dg = f.den, g.den
    best = 0
    for row_f, row_g in zip(f.rows, g.rows):
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
    scale = eps_f.denominator
    bound = eps_f.numerator * f.den
    vals = [row[ell] for row in f.rows]
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

    ``per_coordinate[ell]`` is a tuple of (subset, value) pairs in the order
    of the family it was built from, and the one record of those subsets:
    ``perturb`` reads them from here.  ``eps`` is the displacement budget
    the assignment was constructed for.
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
    distinct by choice and ranges across coordinates disjoint by congruence;
    ``perturb`` checks both on the values it freezes.  A value inside its
    subset's window is within eps/2 of every point of the subset, so the
    drift needs no check here; ``perturb`` checks it against the budget.
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
    den, rows = f.den, f.rows
    L = math.lcm(den, h.denominator, half.denominator)
    scale = L // den
    step = h.numerator * (L // h.denominator)
    radius = half.numerator * (L // half.denominator)

    queue = []
    for ell, fam in enumerate(fams):
        for k, sub in enumerate(fam):
            if not sub:
                raise InputError(f"family {ell} contains an empty subset")
            lo = min(rows[y][ell] for y in sub) * scale
            hi = max(rows[y][ell] for y in sub) * scale
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

    per_coord = tuple(
        tuple((sub, Fraction(chosen[ell, k], L)) for k, sub in enumerate(fam))
        for ell, fam in enumerate(fams)
    )
    return ValueAssignment(eps_f, per_coord)


def perturb(f: Observable, assignment: ValueAssignment) -> Observable:
    """Freeze assigned values on covered points, keep the rest of f.

    ``assignment.per_coordinate[ell]`` lists coordinate ell's subsets with
    their values.  The replacement is locally constant on every subset and
    touches only that coordinate.  This is the one check of the sets and
    values it is given: no point is covered twice in one coordinate, and,
    exhaustively with exact arithmetic, the result stays within the
    assignment budget of f in sup norm, distinct subsets of one coordinate
    get distinct values at every covered point, and covered values of
    different coordinates never coincide.  Covered points carry their
    subset's value, so the last two compare one value per nonempty subset:
    a value-to-subset map per coordinate, then the intersections of the
    coordinates' value sets.  Untouched values of f are already valid; only
    the assigned ones are checked to lie in [0, 1].  The result is f's
    table over a denominator that also holds every assigned value.
    """
    entries = assignment.per_coordinate
    if len(entries) != f.r:
        raise InputError(f"expected {f.r} coordinates, got {len(entries)}")
    # per coordinate: covered point -> its subset, and each subset's value
    covered: list[dict[int, int]] = [dict() for _ in range(f.r)]
    assigned: list[list[Fraction]] = [[] for _ in range(f.r)]
    # per coordinate: assigned value -> the first nonempty subset holding it
    owner: list[dict[Fraction, int]] = [dict() for _ in range(f.r)]
    for ell, coord in enumerate(entries):
        for k, (sub, raw) in enumerate(coord):
            v = Fraction(raw)
            if not 0 <= v <= 1:
                raise InputError(f"coordinate {ell}: assigned value {raw} outside [0, 1]")
            assigned[ell].append(v)
            for y in sub:
                if y in covered[ell]:
                    raise InputError(
                        f"point {y} covered twice in coordinate {ell} "
                        f"(subsets {covered[ell][y]} and {k})"
                    )
                covered[ell][y] = k
            if not sub:
                continue
            first = owner[ell].setdefault(v, k)
            if first != k:
                raise InternalCheckError(
                    f"coordinate {ell}: points {min(coord[first][0])}, {min(sub)} in distinct "
                    f"subsets share value {v}"
                )
    den = math.lcm(f.den, *(v.denominator for values in assigned for v in values))
    scale = den // f.den
    new_rows = [[a * scale for a in row] for row in f.rows]
    for ell in range(f.r):
        nums = [v.numerator * (den // v.denominator) for v in assigned[ell]]
        for y, k in covered[ell].items():
            new_rows[y][ell] = nums[k]
    result = Observable.from_numerators(f.space, den, new_rows)

    drift = sup_distance(result, f)
    if drift > assignment.eps:
        raise InternalCheckError(f"perturbation moved f by {drift} > budget {assignment.eps}")
    for ell1 in range(f.r):
        for ell2 in range(ell1 + 1, f.r):
            clash = owner[ell1].keys() & owner[ell2].keys()
            if clash:
                v = min(clash)
                raise InternalCheckError(
                    f"covered value clash across coordinates {ell1}, {ell2} "
                    f"at points {min(entries[ell1][owner[ell1][v]][0])}, "
                    f"{min(entries[ell2][owner[ell2][v]][0])}"
                )
    return result
