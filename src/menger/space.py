"""Finite metric samples, declared dimension, map families, group actions.

A finite sample cannot remember the topological dimension of the space it
was drawn from, so dimension travels as declared metadata on the sample:
a simplicial complex over the points and explicit labeled subsets.  The
convention dim(empty) = -1 is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Any, Collection, Iterable, Sequence

import numpy as np

from .errors import GroupCapError, InputError

Perm = tuple[int, ...]

# Largest F-orbit whose separation is decided exactly; greedy above it.
EXACT_CAP = 24
DEFAULT_GROUP_CAP = 10_000


def as_index(value: Any, where: str) -> int:
    """``value`` as a point index or a count, refusing what ``int`` would truncate.

    Integers (numpy's included) pass unchanged; a float such as 1.7, a bool
    and a numeric string are refused, so no input value is rounded into a
    different one.
    """
    if value.__class__ is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise InputError(f"{where}: expected an integer, got {value!r}")


def as_indices(values: Iterable[Any], where: str) -> tuple[int, ...]:
    """Each entry of ``values`` read by ``as_index``, as a tuple.

    When every entry is a plain ``int``, one C-level pass over their types
    settles it; any other entry sends the list through ``as_index`` entry
    by entry, which refuses what it must.
    """
    t = tuple(values)
    if set(map(type, t)) <= {int}:
        return t
    return tuple(as_index(v, where) for v in t)


def as_perm(values: Iterable[Any], n: int, where: str) -> Perm:
    """``values`` read by ``as_indices``, refused unless a permutation of 0..n-1."""
    p = as_indices(values, where)
    if len(p) != n or sorted(p) != list(range(n)):
        raise InputError(f"{where}: not a permutation of 0..{n - 1}")
    return p


def within(indices: Collection[int], n: int) -> bool:
    """Whether every index lies in 0..n-1; true for no indices."""
    return not indices or (min(indices) >= 0 and max(indices) < n)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(outer: Perm, inner: Perm) -> Perm:
    """Permutation product acting left to right on points: x -> outer(inner(x))."""
    return tuple(outer[i] for i in inner)


def invert_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A finite metric space with declared dimension metadata.

    ``metric`` is a dense symmetric distance matrix.  ``simplices`` lists the
    maximal faces of a complex over the points; the dimension of a subset S is
    then the largest dimension of a face the complex induces inside S.
    ``dim_labels`` adds explicit lower bounds: a labeled subset L raises the
    dimension of every superset of L to at least its label.  Either way the
    dimension grows with the subset, by construction.
    """

    n_points: int
    metric: np.ndarray
    simplices: tuple[frozenset[int], ...] | None = None
    dim_labels: tuple[tuple[frozenset[int], int], ...] | None = None
    _rows: list[list[float]] | None = field(default=None, init=False, repr=False)
    _axioms: tuple[str, ...] | None = field(default=None, init=False, repr=False)

    @staticmethod
    def create(
        metric: Sequence[Sequence[float]] | np.ndarray,
        simplices: Iterable[Iterable[int]] | None = None,
        dim_labels: Iterable[tuple[Iterable[int], int]] | None = None,
    ) -> "FiniteSpace":
        """A space over ``metric``, read into a read-only float64 array.

        A float64 array over immutable bytes, as the loader packs it, cannot
        change and is kept as it is; anything else is copied.
        """
        over_bytes = isinstance(metric, np.ndarray) and isinstance(metric.base, bytes)
        if over_bytes and metric.dtype == float:
            arr = metric
        else:
            try:
                arr = np.array(metric, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InputError(f"metric must be a matrix of numbers: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError(f"metric must be a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        if n == 0:
            raise InputError("a space needs at least one point")
        arr.setflags(write=False)

        simp = None
        if simplices is not None:
            faces = [tuple(raw) for raw in simplices]
            vertices = [v for face in faces for v in face]
            # One pass over all vertices settles a valid complex; the loop
            # below finds the first bad simplex and names it.
            if all(faces) and set(map(type, vertices)) <= {int} and within(vertices, n):
                simp = tuple(map(frozenset, faces))
            else:
                simp = []
                for k, raw in enumerate(faces):
                    where = f"simplices[{k}]"
                    face = frozenset(as_indices(raw, where))
                    if not face:
                        raise InputError(f"simplices[{k}]: empty simplex")
                    if not within(face, n):
                        raise InputError(f"simplices[{k}]: vertex out of range")
                    simp.append(face)
                simp = tuple(simp)

        labels = None
        if dim_labels is not None:
            labels = []
            for k, (raw, d) in enumerate(dim_labels):
                where = f"dim_labels[{k}].subset"
                sub = frozenset(as_indices(raw, where))
                if not within(sub, n):
                    raise InputError(f"dim_labels[{k}].subset: index out of range")
                d = as_index(d, f"dim_labels[{k}].dim")
                if d < 0:
                    raise InputError(f"dim_labels[{k}].dim: must be nonnegative")
                labels.append((sub, d))
            labels = tuple(labels)

        return FiniteSpace(n, arr, simp, labels)

    def rows(self) -> list[list[float]]:
        """The metric as nested lists of Python floats, the same values as ``metric``.

        Computed on first use and kept, since the metric is read-only; reading
        a list entry is much cheaper than indexing the array.
        """
        if self._rows is None:
            object.__setattr__(self, "_rows", self.metric.tolist())
        return self._rows

    def axiom_issues(self) -> tuple[str, ...]:
        """``axiom_issues`` of the metric, computed on first use and kept like ``rows``."""
        if self._axioms is None:
            object.__setattr__(self, "_axioms", tuple(axiom_issues(self.metric)))
        return self._axioms

    def distance(self, i: int, j: int) -> float:
        return self.rows()[i][j]

    def diameter(self, subset: Iterable[int]) -> float:
        pts = sorted(subset)
        rows = self.rows()
        best = 0.0
        for a in range(len(pts)):
            row = rows[pts[a]]
            for b in range(a + 1, len(pts)):
                d = row[pts[b]]
                if d > best:
                    best = d
        return best

    def dim(self, subset: Iterable[int]) -> int:
        """Declared dimension of a subset; -1 for the empty set."""
        s = frozenset(subset)
        if not s:
            return -1
        best = 0
        if self.simplices:
            for face in self.simplices:
                k = len(face & s) - 1
                if k > best:
                    best = k
        if self.dim_labels:
            for sub, d in self.dim_labels:
                if sub <= s and d > best:
                    best = d
        return best

    def subspace(self, points: Iterable[int]) -> tuple["FiniteSpace", tuple[int, ...]]:
        """Restriction to ``points``: the metric, the faces and the labels.

        Returns the restricted space plus the sorted ambient index tuple; the
        restricted space numbers its points 0..k-1 in that order, and every
        point gives the space itself, uncopied.  Each face becomes its
        intersection with the points (empty ones are dropped; the rest need
        not be maximal, which changes no dimension), and a label is kept when
        its subset lies inside the points, so every local subset has the
        dimension of its image in this space.
        """
        pts = tuple(sorted(set(as_indices(points, "subspace points"))))
        if not pts:
            raise InputError("subspace needs at least one point")
        if not all(0 <= p < self.n_points for p in pts):
            raise InputError("subspace point out of range")
        if len(pts) == self.n_points:
            return self, pts
        sub = self.metric[np.ix_(pts, pts)].copy()
        sub.setflags(write=False)
        local = {p: u for u, p in enumerate(pts)}
        simp = labels = None
        if self.simplices is not None:
            faces = (frozenset(local[p] for p in face if p in local) for face in self.simplices)
            simp = tuple(face for face in faces if face)
        if self.dim_labels is not None:
            labels = tuple(
                (frozenset(local[p] for p in s), d)
                for s, d in self.dim_labels
                if s.issubset(local)
            )
        return FiniteSpace(len(pts), sub, simp, labels), pts


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def axiom_issues(m: np.ndarray) -> list[str]:
    """Violations of every metric axiom but the triangle inequality.

    The axioms are finite entries, symmetry, a zero diagonal and positive
    distances off it, each tested in O(n^2); every issue names its entries.
    A valid matrix passes one test over whole arrays: symmetric, finite,
    zero diagonal and exactly ``n`` entries at or below zero.  Only a matrix
    that fails it is walked entry by entry for the issue list.  Finiteness
    is tested on its own, since a symmetric ``inf`` equals its transpose.
    """
    n = m.shape[0]
    finite = np.isfinite(m)
    nonpositive = m <= 0.0
    if (
        np.array_equal(m, m.T)
        and finite.all()
        and not np.diagonal(m).any()
        and np.count_nonzero(nonpositive) == n
    ):
        return []
    issues = [f"metric[{i}][{j}]: not a finite number" for i, j in zip(*np.nonzero(~finite))]
    if issues:
        # The axioms compare entries, which means nothing for NaN or inf.
        return issues
    for i in np.flatnonzero(np.diagonal(m) != 0.0):
        issues.append(f"metric[{i}][{i}]: diagonal entry {m[i, i]} is not zero")
    asymmetric = m != m.T
    # np.nonzero walks the upper triangle row by row, the order of the report.
    for i, j in zip(*np.nonzero(np.triu(asymmetric | nonpositive, 1))):
        if asymmetric[i, j]:
            issues.append(f"metric[{i}][{j}]: asymmetric ({m[i, j]} vs {m[j, i]})")
        if nonpositive[i, j]:
            issues.append(f"metric[{i}][{j}]: distinct points at distance {m[i, j]}")
    return issues


def _metric_issues(m: np.ndarray, axioms: Sequence[str] | None = None) -> list[str]:
    """``axiom_issues`` (or ``axioms``, when already known) followed by every
    triangle violation.

    A matrix with a NaN or infinite entry reports only those.  A matrix
    that passes the axioms is symmetric, so the scan needs no test for it.
    """
    issues = list(axiom_issues(m) if axioms is None else axioms)
    if not issues:
        return _triangle_issues(m, symmetric=True)
    if not np.isfinite(m).all():
        return issues
    return issues + _triangle_issues(m)


# Largest temporary of the triangle scan, in elements.
_TILE = 1 << 16


def _triangle_issues(m: np.ndarray, symmetric: bool | None = None) -> list[str]:
    """Every triangle violation m[i, k] > m[i, j] + m[j, k], ordered by (i, j, k).

    Exhaustive over all triples.  Rows i are tested a block at a time
    against a band of middle points j, each comparison an array of at most
    about ``_TILE`` elements.  A symmetric matrix (``symmetric``, computed
    when not given) is scanned over ``k >= i`` only: a violation (i, j, k)
    with ``k > i`` stands for its mirror (k, j, i) as well, which holds
    exactly, since float addition commutes and each of the three entries
    equals its transpose.  A matrix with an asymmetric entry is scanned over
    all triples, the only scan that can list its issues.
    """
    n = m.shape[0]
    if symmetric is None:
        symmetric = np.array_equal(m, m.T)
    band = max(1, min(n, _TILE // n))
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    a = 0
    while a < n:
        lo = a if symmetric else 0      # the first column k scanned
        rows = max(1, _TILE // (band * (n - lo)))
        blk = m[a : a + rows]
        for b in range(0, n, band):
            # violated[r, j - b, k - lo] is m[a + r, k] > m[a + r, j] + m[j, k]
            violated = blk[:, None, lo:] > blk[:, b : b + band, None] + m[b : b + band, lo:]
            if violated.any():
                r, j, k = np.nonzero(violated)
                found.append((a + r, b + j, lo + k))
        a += rows
    if not found:
        return []
    i, j, k = (np.concatenate(c) for c in zip(*found))
    if symmetric:
        # A block also meets some k < i, each the mirror of a scanned hit; a
        # hit with k == i is its own mirror and is kept once.
        keep = k >= i
        i, j, k = i[keep], j[keep], k[keep]
        mirror = k > i
        i, j, k = (
            np.concatenate([i, k[mirror]]),
            np.concatenate([j, j[mirror]]),
            np.concatenate([k, i[mirror]]),
        )
    order = np.lexsort((k, j, i))
    return [
        f"metric[{i}][{k}]: triangle violation via {j} ({m[i, k]} > {m[i, j]} + {m[j, k]})"
        for i, j, k in zip(i[order].tolist(), j[order].tolist(), k[order].tolist())
    ]


def validate_space(space: FiniteSpace) -> ValidationReport:
    """Check the metric axioms exhaustively: the full report.

    Metric checks cover symmetry, zero diagonal, positivity off the diagonal
    and the triangle inequality over all triples; a matrix with NaN or
    infinite entries reports only those.  A symmetric matrix has its
    triangle violations found over ``k >= i`` and mirrored, in the same
    ``(i, j, k)`` order; one with an asymmetric entry is scanned in full.
    The scan is cubic, so the loaders check ``axiom_issues`` only, and of
    the commands ``menger check`` alone runs this.  The axioms are the
    space's own kept verdict (``FiniteSpace.axiom_issues``), so a loaded
    space is not tested for them twice.

    Dimension needs no check: declared simplices and labels define -1 on
    the empty set and ``max(0, max |face & S| - 1, max label with L <= S)``
    otherwise, which grows with S by construction.
    """
    return ValidationReport(tuple(_metric_issues(space.metric, space.axiom_issues())))


@dataclass(frozen=True, eq=False)
class MapFamily:
    """A finite family of injective maps between two finite spaces.

    Maps are stored as index arrays of length ``source.n_points`` with values
    in the target space.  Labels are display names, distinct by construction.
    """

    source: FiniteSpace
    target: FiniteSpace
    maps: tuple[Perm, ...]
    labels: tuple[str, ...]

    @staticmethod
    def create(
        source: FiniteSpace,
        target: FiniteSpace,
        maps: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "MapFamily":
        if len(maps) == 0:
            raise InputError("a map family needs at least one map")
        fixed = []
        for k, raw in enumerate(maps):
            where = f"maps[{k}]"
            g = as_indices(raw, where)
            if len(g) != source.n_points:
                raise InputError(f"maps[{k}]: length {len(g)} != {source.n_points} source points")
            if not within(g, target.n_points):
                raise InputError(f"maps[{k}]: value out of target range")
            if len(set(g)) != len(g):
                raise InputError(f"maps[{k}]: not injective")
            fixed.append(g)
        if labels is None:
            labels = tuple(f"g{k}" for k in range(len(fixed)))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(fixed):
                raise InputError("labels length does not match maps")
            if len(set(labels)) != len(labels):
                raise InputError("map labels must be distinct")
        return MapFamily(source, target, tuple(fixed), labels)

    @property
    def size(self) -> int:
        return len(self.maps)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A group acting on a finite space by permutations.

    ``elements`` holds the full closure of the generators under composition
    (identity first, then breadth-first products in a fixed order), or None
    when the closure was cut off at the cap; ``order`` and an unstaged run
    then raise GroupCapError.  Orbits never need the closure; they are
    reachability sets under the generators.
    """

    space: FiniteSpace
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...] | None

    @staticmethod
    def from_generators(
        space: FiniteSpace,
        generators: Sequence[Sequence[int]],
        cap: int = DEFAULT_GROUP_CAP,
    ) -> "GroupAction":
        n = space.n_points
        gens = tuple(as_perm(raw, n, f"generators[{k}]") for k, raw in enumerate(generators))

        elements: tuple[Perm, ...] | None
        try:
            elements = _close_generators(gens, n, cap)
        except GroupCapError:
            elements = None
        return GroupAction(space, gens, elements)

    @property
    def order(self) -> int:
        if self.elements is None:
            raise GroupCapError(
                "group closure was capped; pass a finite subset of elements explicitly"
            )
        return len(self.elements)


def _close_generators(gens: tuple[Perm, ...], n: int, cap: int) -> tuple[Perm, ...]:
    """Breadth-first closure under composition, identity first.

    Finite permutation sets close into a group under products alone (inverses
    are positive powers), so no explicit inversion step is needed.
    """
    ident = identity_perm(n)
    seen = {ident}
    order: list[Perm] = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = compose(g, e)
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    nxt.append(prod)
                    if len(order) > cap:
                        raise GroupCapError(
                            f"group closure exceeded the cap of {cap} elements; "
                            "pass a finite subset of elements explicitly"
                        )
        frontier = nxt
    return tuple(order)


def orbit(action: GroupAction, x: int) -> frozenset[int]:
    """Orbit of a point under the generated group (generator reachability)."""
    if not 0 <= x < action.space.n_points:
        raise InputError(f"point {x} out of range")
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for p in frontier:
            for g in action.generators:
                q = g[p]
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def orbits(action: GroupAction) -> list[frozenset[int]]:
    """Each point's orbit, one reachability search per orbit.

    Orbits of a permutation group partition the space, so every point of a
    found orbit gets that same set.
    """
    out: list[frozenset[int] | None] = [None] * action.space.n_points
    for x in range(action.space.n_points):
        if out[x] is None:
            orb = orbit(action, x)
            for y in orb:
                out[y] = orb
    return out


def periodic_set(action: GroupAction, n_max: int) -> frozenset[int]:
    """Points whose orbit has at most ``n_max`` elements."""
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    return frozenset(x for x, orb in enumerate(orbits(action)) if len(orb) <= n_max)


def least_float_at_least(x: Fraction) -> float:
    """The least float not below ``x``: a float d has d >= x exactly when d >= this."""
    try:
        reach = float(x)
    except OverflowError:
        return math.inf
    return math.nextafter(reach, math.inf) if reach < x else reach


def _spreads(rows: list[list[float]], pts: Sequence[int], reach: float, target: int) -> bool:
    """Whether at least ``target`` of the sorted ``pts`` lie pairwise ``reach`` apart.

    A greedy pass in point order answers yes as soon as it keeps ``target``
    points.  Otherwise, for at most ``EXACT_CAP`` points, a bitmask branch and
    bound decides exactly, stopping at the first set of ``target`` mutually
    far points; above the cap the greedy answer stands, which can only say
    no where an exact search would say yes.
    """
    kept: list[int] = []
    for p in pts:
        row = rows[p]
        if all(row[q] >= reach for q in kept):
            kept.append(p)
            if len(kept) >= target:
                return True
    k = len(pts)
    if k > EXACT_CAP:
        return False
    far = [0] * k
    for a in range(k):
        row = rows[pts[a]]
        for b in range(a + 1, k):
            if row[pts[b]] >= reach:
                far[a] |= 1 << b
                far[b] |= 1 << a

    def found(candidates: int, size: int) -> bool:
        while size + candidates.bit_count() >= target:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if size + 1 >= target or found(far[v] & candidates, size + 1):
                return True
        return False

    return found((1 << k) - 1, 0)


def restricted_space(
    action: GroupAction,
    subset_f: Sequence[Perm],
    eps: float | Fraction,
    r: int,
    n: int,
) -> frozenset[int]:
    """Points where the finite stage F already tells the whole story.

    A point x qualifies when the full orbit equals the F-orbit, or when the
    F-orbit contains at least r*n points pairwise eps-apart (``_spreads``).
    """
    if r < 1 or n < 1:
        raise InputError("r and n must be at least 1")
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    npts = action.space.n_points
    fams = [as_perm(p, npts, f"subset_f[{k}]") for k, p in enumerate(subset_f)]
    if not fams:
        raise InputError("subset_f: a stage needs at least one element")
    rows = action.space.rows()
    reach = least_float_at_least(eps_f)
    out = []
    for x, orb in enumerate(orbits(action)):
        f_orbit = {p[x] for p in fams}
        if orb == f_orbit or _spreads(rows, sorted(f_orbit), reach, r * n):
            out.append(x)
    return frozenset(out)
