"""Shared generators and naive oracles used across the test modules.

The naive oracles here re-derive results straight from definitions with
independent code paths, so agreement with the package is evidence rather
than tautology.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from menger import pipeline
from menger.errors import InputError, VerificationError
from menger.gate import HypothesisCheck, HypothesisReport, Stage
from menger.partitions import (
    CoherentBlock,
    DoubledFamily,
    Partition,
    compatible_subset,
    doubled_induced_partition,
    induced_partition,
)
from menger.perturb import Observable
from menger.pipeline import (
    _BaireState,
    margin,
    separate_on_block,
)
from menger.space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    orbit,
    periodic_set,
)


# Five points that break the triangle inequality: 2 and 4 lie 0.01 from 1
# but 0.05 apart.  With the family [[3, 0, 2, 1, 4]], r = 1, eps = 1/10 and
# a constant start, the cells cover at bound 1/40 puts them in the cluster
# of center 1.
NON_METRIC_5 = [
    [0.0, 0.09, 0.09, 0.03, 0.08],
    [0.09, 0.0, 0.01, 0.03, 0.01],
    [0.09, 0.01, 0.0, 0.02, 0.05],
    [0.03, 0.03, 0.02, 0.0, 0.04],
    [0.08, 0.01, 0.05, 0.04, 0.0],
]
NON_METRIC_5_VIOLATION = "metric[2][4]: triangle violation via 1 (0.05 > 0.01 + 0.01)"


def euclidean_space(points: list[tuple[float, float]]) -> FiniteSpace:
    """A metric space from planar points; the triangle inequality is free."""
    n = len(points)
    metric = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            d = math.dist(points[a], points[b])
            metric[a][b] = d
            metric[b][a] = d
    return FiniteSpace.create(metric)


def random_euclidean_space(rng: random.Random, n: int) -> FiniteSpace:
    pts = []
    taken = set()
    while len(pts) < n:
        p = (rng.randint(0, 60) / 10.0, rng.randint(0, 60) / 10.0)
        if p not in taken:
            taken.add(p)
            pts.append(p)
    return euclidean_space(pts)


def random_endo_family(rng: random.Random, space: FiniteSpace, n_maps: int) -> MapFamily:
    n = space.n_points
    maps = []
    for _ in range(n_maps):
        perm = list(range(n))
        rng.shuffle(perm)
        maps.append(tuple(perm))
    return MapFamily.create(space, space, maps)


def naive_sep(space: FiniteSpace, points: list[int], eps: Fraction) -> int:
    """Largest eps-separated subset by checking every subset."""
    best = 0
    for k in range(len(points), 0, -1):
        for subset in itertools.combinations(points, k):
            if all(
                Fraction(space.distance(a, b)) >= eps
                for a, b in itertools.combinations(subset, 2)
            ):
                return k
    return best


def greedy_sep(space: FiniteSpace, points: list[int], eps: Fraction) -> int:
    """Size of the eps-separated set one greedy pass keeps, in sorted point order."""
    kept: list[int] = []
    for p in sorted(points):
        if all(Fraction(space.distance(p, q)) >= eps for q in kept):
            kept.append(p)
    return len(kept)


def naive_induced_blocks(fam: MapFamily, x: int) -> set[frozenset[int]]:
    """Equality classes of map values at x, grouped directly."""
    groups: dict[int, set[int]] = {}
    for i in range(fam.size):
        groups.setdefault(fam.maps[i][x], set()).add(i)
    return {frozenset(g) for g in groups.values()}


def naive_compatible(fam: MapFamily, w, blocks: set[frozenset[int]]) -> set[int]:
    """Points of w whose value-equality classes are exactly ``blocks``."""
    return {x for x in w if naive_induced_blocks(fam, x) == blocks}


def naive_doubled_blocks(fam: MapFamily, pair: tuple[int, int]) -> set[frozenset]:
    """Doubled-label equality classes evaluated straight from the maps."""
    x1, x2 = pair
    groups: dict[int, set] = {}
    for i in range(fam.size):
        groups.setdefault(fam.maps[i][x1], set()).add((i, 1))
        groups.setdefault(fam.maps[i][x2], set()).add((i, 2))
    return {frozenset(g) for g in groups.values()}


def class_pairs(df: DoubledFamily, p_hat: Partition) -> list[tuple[int, int]]:
    """Ordered pairs inducing ``p_hat``, in (x1, x2) order."""
    n = df.base.source.n_points
    return [
        (x1, x2)
        for x1 in range(n)
        for x2 in range(n)
        if x1 != x2 and doubled_induced_partition(df, (x1, x2)) == p_hat
    ]


def naive_coherent_blocks(
    df: DoubledFamily, p_hat: Partition, pairs=None
) -> list[list[tuple[int, int]]]:
    """First-fit packing of the class of ``p_hat`` by merging image sets.

    Each pair joins the first block whose merged per-label-block images stay
    pairwise disjoint, or opens a new block.  ``pairs`` gives the members
    and their order; by default the whole class in (x1, x2) order.
    """
    lookup = {s: k for k, blk in enumerate(p_hat.blocks) for s in blk}
    blocks: list[list[tuple[int, int]]] = []
    images: list[list[set[int]]] = []
    for pair in class_pairs(df, p_hat) if pairs is None else pairs:
        contrib: list[set[int]] = [set() for _ in p_hat.blocks]
        for s in p_hat.ground:
            contrib[lookup[s]].add(df.value(s, pair))
        for b in range(len(blocks)):
            merged = [images[b][k] | contrib[k] for k in range(len(contrib))]
            if all(
                not merged[a] & merged[c]
                for a in range(len(merged))
                for c in range(a + 1, len(merged))
            ):
                blocks[b].append(pair)
                images[b] = merged
                break
        else:
            blocks.append([pair])
            images.append(contrib)
    return blocks


def orbit_row(f: Observable, fam: MapFamily, x: int) -> tuple[tuple[Fraction, ...], ...]:
    """The orbit tuple (f(g(x)))_g of one source point, as exact values."""
    return tuple(f.values[g[x]] for g in fam.maps)


def naive_margin(f: Observable, fam: MapFamily, pairs) -> Fraction | float:
    """Least sup-distance of orbit tuples, compared as Fractions."""
    best: Fraction | float = math.inf
    for x1, x2 in pairs:
        worst = max(
            abs(a - b)
            for g in fam.maps
            for a, b in zip(f.values[g[x1]], f.values[g[x2]])
        )
        best = min(best, worst)
    return best


def orbit_margin(f: Observable, fam: MapFamily) -> Fraction | float:
    """Least sup-distance between the orbit tuples of distinct source points.

    One closest-pair sweep over every orbit tuple, colliding ones included,
    so it is 0 when two points share a tuple; infinity when the source has
    fewer than two points.  The ledger keeps the gap between distinct tuples
    only; the two agree once the orbit map is injective.
    """
    best = pipeline._closest_gap(pipeline._orbit_tuples(f, fam))
    return math.inf if best is None else Fraction(best, f.den)


def naive_closest_gap(points) -> int | None:
    """Least L-infinity distance over every pair of the tuples; None for fewer than two."""
    gaps = [
        max((abs(a - b) for a, b in zip(p, q)), default=0)
        for p, q in itertools.combinations(points, 2)
    ]
    return min(gaps, default=None)


def naive_distinct_gap(points) -> int | None:
    """Least L-infinity distance over the pairs of distinct tuples; None when
    fewer than two tuples are distinct."""
    gaps = [
        max(abs(a - b) for a, b in zip(p, q))
        for p, q in itertools.combinations(points, 2)
        if p != q
    ]
    return min(gaps, default=None)


def naive_stage_margin(values, maps, n_points: int) -> Fraction | float:
    """A certificate stage's margin: every unordered pair of stage points,
    every map and coordinate, compared as Fractions.

    ``values`` are the observable's rows and ``maps[k][u]`` the row that map
    k sends stage point u to; a stage without maps puts all its points at
    distance 0.
    """
    best: Fraction | float = math.inf
    for u1, u2 in itertools.combinations(range(n_points), 2):
        gap = max(
            (
                abs(a - b)
                for m in maps
                for a, b in zip(values[m[u1]], values[m[u2]])
            ),
            default=Fraction(0),
        )
        best = min(best, gap)
    return best


def naive_triangle_issues(space: FiniteSpace) -> list[str]:
    """Triangle violations over all triples (i, j, k), in loop order."""
    m = space.metric
    n = space.n_points
    return [
        f"metric[{i}][{k}]: triangle violation via {j} "
        f"({m[i, k]} > {m[i, j]} + {m[j, k]})"
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if m[i, k] > m[i, j] + m[j, k]
    ]


def reference_metric_issues(space: FiniteSpace) -> list[str]:
    """Metric axiom violations entry by entry: non-finite entries alone, else
    the diagonal, then the upper triangle row by row (asymmetry before
    positivity for each entry), then every triangle violation."""
    m = space.metric
    n = space.n_points
    cells = [(i, j) for i in range(n) for j in range(n)]
    non_finite = [(i, j) for i, j in cells if not math.isfinite(m[i, j])]
    if non_finite:
        return [f"metric[{i}][{j}]: not a finite number" for i, j in non_finite]
    issues = [
        f"metric[{i}][{i}]: diagonal entry {m[i, i]} is not zero"
        for i in range(n)
        if m[i, i] != 0.0
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                issues.append(f"metric[{i}][{j}]: asymmetric ({m[i, j]} vs {m[j, i]})")
            if m[i, j] <= 0.0:
                issues.append(f"metric[{i}][{j}]: distinct points at distance {m[i, j]}")
    return issues + naive_triangle_issues(space)


def per_row_triangle_issues(m: np.ndarray) -> list[str]:
    """Triangle violations with one numpy pass per row:
    violated[j, k] = m[i, k] > m[i, j] + m[j, k] for each row i."""
    issues = []
    for i in range(m.shape[0]):
        violated = m[i][None, :] > m[i][:, None] + m
        for j, k in zip(*np.nonzero(violated)):
            issues.append(
                f"metric[{i}][{k}]: triangle violation via {j} "
                f"({m[i, k]} > {m[i, j]} + {m[j, k]})"
            )
    return issues


# Seeded random nested pairs on which reference_validate_space probes dim.
MONOTONE_SAMPLES = 200


def reference_validate_space(space: FiniteSpace) -> list[str]:
    """The metric axioms plus a dimension probe, run on every space.

    The declared dimension is probed as well: ``dim(empty)`` and
    monotonicity on systematic chains and seeded random nested pairs, which
    a declared space, a subspace's included, passes by construction.
    """
    issues = reference_metric_issues(space)
    n = space.n_points
    if space.dim(frozenset()) != -1:
        issues.append("dim_oracle: dim(empty) must be -1")
    chains: list[tuple[frozenset[int], frozenset[int]]] = []
    full = frozenset(range(n))
    for i in range(n):
        chains.append((frozenset([i]), full))
        if i + 1 < n:
            chains.append((frozenset([i]), frozenset([i, i + 1])))
    rng = random.Random(0x5EED ^ n)
    for _ in range(MONOTONE_SAMPLES):
        big = frozenset(p for p in range(n) if rng.random() < 0.5)
        small = frozenset(p for p in big if rng.random() < 0.5)
        chains.append((small, big))
    for small, big in chains:
        if space.dim(small) > space.dim(big):
            issues.append(
                f"dim_oracle: not monotone on {sorted(small)} <= {sorted(big)} "
                f"({space.dim(small)} > {space.dim(big)})"
            )
    return issues


def reference_family_report(fam: MapFamily, r: int) -> HypothesisReport:
    """The family gate with one ``compatible_subset`` scan per realized partition."""
    everything = range(fam.source.n_points)
    candidates = {induced_partition(fam, x) for x in everything}
    checks = []
    for p in sorted(candidates, key=lambda q: (len(q.blocks), q.blocks)):
        xp = compatible_subset(fam, everything, p)
        d = fam.source.dim(xp)
        bound_num = r * p.block_count()
        checks.append(
            HypothesisCheck(
                "partition", str(p.serialize()), len(xp), d, bound_num, 2 * d < bound_num
            )
        )
    return HypothesisReport(r, tuple(checks), all(c.passed for c in checks))


def growth_strings(n: int):
    """Restricted growth strings of length n: one per set partition of range(n)."""
    if n == 0:
        yield ()
        return
    for head in growth_strings(n - 1):
        for label in range(max(head, default=-1) + 2):
            yield head + (label,)


def bell_family_verdict(fam: MapFamily, r: int) -> bool:
    """The family gate over all Bell(|F|) partitions of the map indices, realized or not.

    A point realizes the growth string that numbers its maps' values in order
    of first appearance, so each class is a lookup by growth string.
    """
    members: dict[tuple[int, ...], set[int]] = {}
    for x in range(fam.source.n_points):
        first: dict[int, int] = {}
        key = tuple(first.setdefault(g[x], len(first)) for g in fam.maps)
        members.setdefault(key, set()).add(x)
    for labels in growth_strings(fam.size):
        xp = frozenset(members.get(labels, ()))
        if not 2 * fam.source.dim(xp) < r * len(set(labels)):
            return False
    return True


def reference_action_report(action: GroupAction, r: int, plan: list[Stage]) -> HypothesisReport:
    """The action gate with one ``periodic_set`` scan per period, then the
    stage families of ``plan`` through ``reference_family_report``, except a
    stage that lists every group element, in any order, at every point."""
    n_max = max(len(orbit(action, x)) for x in range(action.space.n_points))
    checks = []
    for n in range(1, n_max + 1):
        pn = periodic_set(action, n)
        d = action.space.dim(pn)
        checks.append(
            HypothesisCheck("periodic", f"N={n}", len(pn), d, r * n, 2 * d < r * n)
        )
    for k, stage in enumerate(plan):
        pts, maps = stage.points, stage.maps
        whole = len(pts) == action.space.n_points and sorted(set(maps)) == sorted(action.elements or ())
        if pts and not whole:
            fam = MapFamily.create(action.space.subspace(pts)[0], action.space, maps)
            for c in reference_family_report(fam, r).checks:
                checks.append(replace(c, label=f"{c.label} (stage {k})"))
    return HypothesisReport(r, tuple(checks), all(c.passed for c in checks))


def naive_sup_distance(f: Observable, g: Observable) -> Fraction:
    """Largest gap between two observables, compared as Fractions."""
    return max(
        (abs(a - b) for row_f, row_g in zip(f.values, g.values) for a, b in zip(row_f, row_g)),
        default=Fraction(0),
    )


def naive_modulus(f: Observable, ell: int, eps) -> float:
    """Least distance of a pair whose coordinate-ell gap exceeds eps, as Fractions."""
    eps_f = Fraction(eps)
    n = f.space.n_points
    dists = [
        f.space.distance(y1, y2)
        for y1 in range(n)
        for y2 in range(y1 + 1, n)
        if abs(f.values[y1][ell] - f.values[y2][ell]) > eps_f
    ]
    return min(dists, default=math.inf)


def naive_diameter_clusters(space: FiniteSpace, points, eps) -> tuple[frozenset[int], ...]:
    """Farthest-point clustering that recomputes every distance to every center."""
    pts = sorted(set(points))
    if not pts:
        return ()
    half = Fraction(eps) / 2
    centers = [pts[0]]
    while True:
        far = [min(Fraction(space.distance(p, c)) for c in centers) for p in pts]
        far_d = max(far)
        if far_d <= half:
            break
        centers.append(pts[far.index(far_d)])
    groups: dict[int, list[int]] = {c: [] for c in centers}
    for p in pts:
        dists = [Fraction(space.distance(p, c)) for c in centers]
        groups[centers[dists.index(min(dists))]].append(p)
    return tuple(frozenset(groups[c]) for c in centers if groups[c])


def naive_assign_values(fams, f: Observable, eps: Fraction):
    """The per-coordinate (subset, value) entries of ``assign_values``, as Fractions.

    Subsets are served by (window top, window bottom, coordinate, index);
    each takes the first unused lattice point h * (ell + r * idx), counting
    idx up from 0, that lies inside its window.
    """
    r = f.r
    total = sum(len(fam) for fam in fams)
    if total == 0:
        return tuple(() for _ in fams)
    h = min(eps, Fraction(2)) / (4 * total * r)
    half = eps / 2
    queue = []
    for ell, fam in enumerate(fams):
        for k, sub in enumerate(fam):
            vals = [f.values[y][ell] for y in sub]
            top = min(Fraction(1), min(vals) + half)
            queue.append((top, max(Fraction(0), max(vals) - half), ell, k))
    used: set[tuple[int, int]] = set()
    chosen = {}
    for top, bottom, ell, k in sorted(queue):
        idx = 0
        while (ell, idx) in used or h * (ell + r * idx) < bottom:
            idx += 1
        assert h * (ell + r * idx) <= top
        used.add((ell, idx))
        chosen[ell, k] = h * (ell + r * idx)
    return tuple(
        tuple((sub, chosen[ell, k]) for k, sub in enumerate(fam)) for ell, fam in enumerate(fams)
    )


def naive_certify_eta(fam: MapFamily, eta: Fraction, delta) -> bool:
    """Every source pair closer than eta stays closer than delta under every map."""
    n = fam.source.n_points
    return all(
        Fraction(fam.target.distance(g[x1], g[x2])) < delta
        for x1 in range(n)
        for x2 in range(x1 + 1, n)
        if Fraction(fam.source.distance(x1, x2)) < eta
        for g in fam.maps
    )


def naive_orbit_labels(f: Observable, fam: MapFamily) -> list[int]:
    """One label per source point, the index of its orbit row's first holder."""
    rows = [orbit_row(f, fam, x) for x in range(fam.source.n_points)]
    return [rows.index(row) for row in rows]


def reference_block_loop(fams, f0: Observable, eps: Fraction) -> _BaireState:
    """The block loop of ``embed_family`` (one family) or of
    ``embed_equivariant`` (one family per stage) with every class packed whole.

    Each class's colliding pairs are packed into all their first-fit blocks
    at once (``naive_coherent_blocks``), and a block is skipped when ``margin``
    finds its pairs already separated; only perturbed blocks are logged.  The
    ledger is an explicit list of the ordered pairs whose current orbit
    tuples differ, in every family run so far, and its margin is a Fraction
    loop over that list.  Returns the final state: observable and logs.
    """
    state = _BaireState(f0, eps)
    started: list[MapFamily] = []

    def ledger_margin():
        best = math.inf
        for fam in started:
            rows = [orbit_row(state.f, fam, x) for x in range(fam.source.n_points)]
            ledger = [
                (x1, x2)
                for x1 in range(len(rows))
                for x2 in range(len(rows))
                if rows[x1] != rows[x2]
            ]
            best = min(best, naive_margin(state.f, fam, ledger))
        return best

    for fam in fams:
        started.append(fam)
        df = DoubledFamily(fam)
        n = fam.source.n_points
        labels = naive_orbit_labels(state.f, fam)
        classes: dict[Partition, list[tuple[int, int]]] = {}
        for x1 in range(n):
            for x2 in range(n):
                if x1 != x2 and labels[x1] == labels[x2]:
                    p_hat = doubled_induced_partition(df, (x1, x2))
                    classes.setdefault(p_hat, []).append((x1, x2))
        for p_hat in sorted(classes, key=lambda p: (-len(p.blocks), p.blocks)):
            labels = naive_orbit_labels(state.f, fam)
            live = [(x1, x2) for x1, x2 in classes[p_hat] if labels[x1] == labels[x2]]
            for pairs in naive_coherent_blocks(df, p_hat, live):
                blk = CoherentBlock.build(df, p_hat, pairs)
                if margin(state.f, fam, blk.pairs) > 0:
                    continue
                cap = ledger_margin()
                budget = state.geom if cap == math.inf else min(state.geom, cap / 4)
                state.f, log = separate_on_block(df, blk, state.f, budget)
                state.geom /= 2
                state.logs.append(replace(log, margin_after=ledger_margin()))
    return state


def reference_parse_fraction(value, where: str = "value") -> Fraction:
    """The exact-value rule read with ``Fraction`` alone: strings by
    ``Fraction(str)``, integers exactly, floats through their shortest
    decimal, bools and everything else refused with one InputError text."""
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, bool):
            raise ValueError("boolean is not a number")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse {value!r} as a rational") from exc
    raise InputError(f"{where}: cannot parse {value!r} as a rational")


def _reference_value_rows(doc, n: int, r: int, where: str) -> list[list[Fraction]]:
    if not isinstance(doc, list) or len(doc) != n:
        raise VerificationError(f"{where}: expected {n} value rows")
    rows = []
    for y, row in enumerate(doc):
        if not isinstance(row, list):
            raise VerificationError(f"{where}: row {y} is not a list of values")
        if len(row) != r:
            raise VerificationError(f"{where}: row {y} has {len(row)} values, expected {r}")
        rows.append([reference_parse_fraction(v, f"{where}[{y}]") for v in row])
    return rows


def _margin_text(x) -> str:
    return "inf" if x == math.inf else str(x)


def reference_value_issues(cert) -> list[str]:
    """The issues ``verify_certificate`` reports, without inputs, on a
    certificate whose stages are well formed, computed in Fractions.

    Values are read by ``reference_parse_fraction``; the range check, the
    displacement and each margin (``naive_stage_margin``) are Fraction
    arithmetic, in the verifier's issue order.
    """
    try:
        r = int(cert["r"])
        eps = reference_parse_fraction(cert["eps"], "eps")
        n = len(cert["observable_values"])
        f0_rows = _reference_value_rows(cert["f0_values"], n, r, "f0_values")
        new_rows = _reference_value_rows(cert["observable_values"], n, r, "observable_values")
    except InputError as exc:
        return [str(exc)]
    issues = []
    for name, rows in (("f0", f0_rows), ("observable", new_rows)):
        for y, row in enumerate(rows):
            for v in row:
                if not 0 <= v <= 1:
                    issues.append(f"{name} value out of [0, 1] at point {y}")
    displacement = Fraction(0)
    for row0, row1 in zip(f0_rows, new_rows):
        for a, b in zip(row0, row1):
            displacement = max(displacement, abs(a - b))
    if str(displacement) != cert["displacement"]:
        issues.append(
            f"displacement mismatch: recomputed {displacement}, stored {cert['displacement']}"
        )
    if displacement > eps:
        issues.append(f"displacement {displacement} exceeds eps {eps}")
    margins = []
    for s_idx, st in enumerate(cert["stages"]):
        margins.append(naive_stage_margin(new_rows, st["maps"], len(st["points"])))
        if _margin_text(margins[-1]) != st["margin"]:
            issues.append(
                f"stage {s_idx}: margin mismatch: recomputed {_margin_text(margins[-1])}, "
                f"stored {st['margin']}"
            )
        if margins[-1] == 0:
            issues.append(f"stage {s_idx}: margin is 0: two stage points share an orbit tuple")
    total = min(margins, default=math.inf)
    if _margin_text(total) != cert["margin"]:
        issues.append(
            f"margin mismatch: recomputed {_margin_text(total)}, stored {cert['margin']}"
        )
    return issues
