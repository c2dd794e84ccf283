"""Finite metric samples, declared dimension, map families, group actions.

A finite sample cannot remember the topological dimension of the space it
was drawn from, so dimension travels as declared metadata on the sample:
either a simplicial complex over the points, explicit labeled subsets, or a
caller-supplied oracle.  The convention dim(empty) = -1 is used throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GroupCapError, InputError

Perm = tuple[int, ...]

DEFAULT_EXACT_CAP = 24
DEFAULT_GROUP_CAP = 10_000


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
    dimension of every superset of L to at least its label.  ``dim_fn``, when
    given, overrides both.
    """

    n_points: int
    metric: np.ndarray
    simplices: tuple[frozenset[int], ...] | None = None
    dim_labels: tuple[tuple[frozenset[int], int], ...] | None = None
    dim_fn: Callable[[frozenset[int]], int] | None = None
    _rows: list[list[float]] | None = field(default=None, init=False, repr=False)

    @staticmethod
    def create(
        metric: Sequence[Sequence[float]] | np.ndarray,
        simplices: Iterable[Iterable[int]] | None = None,
        dim_labels: Iterable[tuple[Iterable[int], int]] | None = None,
        dim_fn: Callable[[frozenset[int]], int] | None = None,
    ) -> "FiniteSpace":
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
            simp = []
            for k, raw in enumerate(simplices):
                face = frozenset(int(v) for v in raw)
                if not face:
                    raise InputError(f"simplices[{k}]: empty simplex")
                if not all(0 <= v < n for v in face):
                    raise InputError(f"simplices[{k}]: vertex out of range")
                simp.append(face)
            simp = tuple(simp)

        labels = None
        if dim_labels is not None:
            labels = []
            for k, (raw, d) in enumerate(dim_labels):
                sub = frozenset(int(v) for v in raw)
                if not all(0 <= v < n for v in sub):
                    raise InputError(f"dim_labels[{k}].subset: index out of range")
                if int(d) < 0:
                    raise InputError(f"dim_labels[{k}].dim: must be nonnegative")
                labels.append((sub, int(d)))
            labels = tuple(labels)

        return FiniteSpace(n, arr, simp, labels, dim_fn)

    def rows(self) -> list[list[float]]:
        """The metric as nested lists of Python floats, the same values as ``metric``.

        Computed on first use and kept, since the metric is read-only; reading
        a list entry is much cheaper than indexing the array.
        """
        if self._rows is None:
            object.__setattr__(self, "_rows", self.metric.tolist())
        return self._rows

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
        if self.dim_fn is not None:
            return self.dim_fn(s)
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
        """Metric restriction to ``points``.

        Returns the restricted space plus the sorted ambient index tuple; the
        restricted space numbers its points 0..k-1 in that order, and its
        dimension oracle delegates to the parent through the translation.
        """
        pts = tuple(sorted(set(int(p) for p in points)))
        if not pts:
            raise InputError("subspace needs at least one point")
        if not all(0 <= p < self.n_points for p in pts):
            raise InputError("subspace point out of range")
        sub = self.metric[np.ix_(pts, pts)].copy()
        sub.setflags(write=False)

        def translated_dim(local: frozenset[int]) -> int:
            return self.dim(frozenset(pts[u] for u in local))

        return FiniteSpace(len(pts), sub, None, None, translated_dim), pts


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _metric_issues(m: np.ndarray) -> list[str]:
    """Axiom violations of a distance matrix, each naming its entries."""
    issues = [
        f"metric[{i}][{j}]: not a finite number" for i, j in zip(*np.nonzero(~np.isfinite(m)))
    ]
    if issues:
        # The axioms compare entries, which means nothing for NaN or inf.
        return issues
    n = m.shape[0]
    for i in np.flatnonzero(np.diagonal(m) != 0.0):
        issues.append(f"metric[{i}][{i}]: diagonal entry {m[i, i]} is not zero")
    asymmetric = m != m.T
    nonpositive = m <= 0.0
    # np.nonzero walks the upper triangle row by row, the order of the report.
    for i, j in zip(*np.nonzero(np.triu(asymmetric | nonpositive, 1))):
        if asymmetric[i, j]:
            issues.append(f"metric[{i}][{j}]: asymmetric ({m[i, j]} vs {m[j, i]})")
        if nonpositive[i, j]:
            issues.append(f"metric[{i}][{j}]: distinct points at distance {m[i, j]}")
    for i in range(n):
        # violated[j, k] is m[i, k] > m[i, j] + m[j, k]: one row at a time
        # keeps the temporaries n x n.
        violated = m[i][None, :] > m[i][:, None] + m
        for j, k in zip(*np.nonzero(violated)):
            issues.append(
                f"metric[{i}][{k}]: triangle violation via {j} "
                f"({m[i, k]} > {m[i, j]} + {m[j, k]})"
            )
    return issues


def validate_space(space: FiniteSpace, monotone_samples: int = 200) -> ValidationReport:
    """Check the metric axioms exhaustively and a supplied dimension oracle by sampling.

    Metric checks cover symmetry, zero diagonal, positivity off the diagonal
    and the triangle inequality over all triples; a matrix with NaN or
    infinite entries reports only those.

    Only a caller-supplied ``dim_fn`` (which includes the translated oracle
    that ``FiniteSpace.subspace`` creates) is probed: ``dim(empty)`` must be
    -1, and monotonicity is checked on systematic small chains plus seeded
    random nested pairs; each issue names the offending entries.  Declared
    simplices and labels need no probe, because the dimension they define,
    -1 on the empty set and ``max(0, max |face & S| - 1, max label with
    L <= S)`` otherwise, grows with S by construction.
    """
    issues = _metric_issues(space.metric)
    if space.dim_fn is None:
        return ValidationReport(tuple(issues))
    n = space.n_points

    if space.dim(frozenset()) != -1:
        issues.append("dim_oracle: dim(empty) must be -1")
    # Monotonicity cannot be proved from the outside, so probe nested pairs.
    chains: list[tuple[frozenset[int], frozenset[int]]] = []
    full = frozenset(range(n))
    for i in range(n):
        chains.append((frozenset([i]), full))
        if i + 1 < n:
            chains.append((frozenset([i]), frozenset([i, i + 1])))
    rng = random.Random(0x5EED ^ n)
    for _ in range(monotone_samples):
        big = frozenset(p for p in range(n) if rng.random() < 0.5)
        small = frozenset(p for p in big if rng.random() < 0.5)
        chains.append((small, big))
    for small, big in chains:
        if space.dim(small) > space.dim(big):
            issues.append(
                f"dim_oracle: not monotone on {sorted(small)} <= {sorted(big)} "
                f"({space.dim(small)} > {space.dim(big)})"
            )
    return ValidationReport(tuple(issues))


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
            g = tuple(int(v) for v in raw)
            if len(g) != source.n_points:
                raise InputError(f"maps[{k}]: length {len(g)} != {source.n_points} source points")
            if not all(0 <= v < target.n_points for v in g):
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
    when the closure was cut off at the cap and the caller opted in to the
    partial state.  Orbits never need the closure; they are reachability sets
    under the generators.
    """

    space: FiniteSpace
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...] | None
    isometry_flag: bool

    @staticmethod
    def from_generators(
        space: FiniteSpace,
        generators: Sequence[Sequence[int]],
        cap: int = DEFAULT_GROUP_CAP,
        require_closure: bool = True,
    ) -> "GroupAction":
        n = space.n_points
        gens = []
        for k, raw in enumerate(generators):
            p = tuple(int(v) for v in raw)
            if len(p) != n or sorted(p) != list(range(n)):
                raise InputError(f"generators[{k}]: not a permutation of 0..{n - 1}")
            gens.append(p)
        gens = tuple(gens)

        elements: tuple[Perm, ...] | None
        try:
            elements = _close_generators(gens, n, cap)
        except GroupCapError:
            if require_closure:
                raise
            elements = None

        iso = True
        m = space.metric
        for p in gens:
            perm = np.array(p)
            if not np.array_equal(m[np.ix_(perm, perm)], m):
                iso = False
                break
        return GroupAction(space, gens, elements, iso)

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


def periodic_set(action: GroupAction, n_max: int) -> frozenset[int]:
    """Points whose orbit has at most ``n_max`` elements."""
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    return frozenset(
        x for x in range(action.space.n_points) if len(orbit(action, x)) <= n_max
    )


class SepResult(NamedTuple):
    size: int
    exact: bool


def sep(
    space: FiniteSpace,
    points: Iterable[int],
    eps: float | Fraction,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> SepResult:
    """Size of a largest eps-separated subset of ``points``.

    Exact branch and bound for at most ``exact_cap`` points; above the cap a
    greedy maximal separated set gives a certified lower bound, flagged as
    inexact in the result.
    """
    pts = sorted(set(int(p) for p in points))
    if not pts:
        raise InputError("sep needs a nonempty point set")
    if not all(0 <= p < space.n_points for p in pts):
        raise InputError("sep point out of range")
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    k = len(pts)
    far = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            if Fraction(space.distance(pts[a], pts[b])) >= eps_f:
                far[a] |= 1 << b
                far[b] |= 1 << a

    if k > exact_cap:
        kept: list[int] = []
        for a in range(k):
            if all(far[a] >> b & 1 for b in kept):
                kept.append(a)
        return SepResult(len(kept), False)

    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if size + 1 > best:
                best = size + 1
            expand(far[v] & candidates, size + 1)

    expand((1 << k) - 1, 0)
    return SepResult(best, True)


def restricted_space(
    action: GroupAction,
    subset_f: Sequence[Perm],
    eps: float | Fraction,
    r: int,
    n: int,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> frozenset[int]:
    """Points where the finite stage F already tells the whole story.

    A point x qualifies when the full orbit equals the F-orbit, or when the
    F-orbit contains at least r*n points pairwise eps-apart.  A flagged
    inexact separation count is used as is, which can only shrink the result.
    """
    if r < 1 or n < 1:
        raise InputError("r and n must be at least 1")
    fams = [tuple(int(v) for v in p) for p in subset_f]
    npts = action.space.n_points
    for k, p in enumerate(fams):
        if len(p) != npts or sorted(p) != list(range(npts)):
            raise InputError(f"subset_f[{k}]: not a permutation")
    out = []
    for x in range(npts):
        f_orbit = frozenset(p[x] for p in fams)
        if orbit(action, x) == f_orbit:
            out.append(x)
            continue
        if sep(action.space, f_orbit, eps, exact_cap).size >= r * n:
            out.append(x)
    return frozenset(out)
