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
    HypothesisCheck,
    HypothesisReport,
    _BaireState,
    _orbit_labels,
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


def naive_closest_gap(points) -> int | None:
    """Least L-infinity distance over every pair of the tuples; None for fewer than two."""
    gaps = [
        max((abs(a - b) for a, b in zip(p, q)), default=0)
        for p, q in itertools.combinations(points, 2)
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


def reference_validate_space(space: FiniteSpace, monotone_samples: int = 200) -> list[str]:
    """The metric axioms plus the dimension probe, run on every space.

    Declared dimension is probed as well: ``dim(empty)`` and monotonicity on
    the systematic chains and the seeded random nested pairs.
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


def reference_action_report(action: GroupAction, r: int, n_max: int | None = None) -> HypothesisReport:
    """The action gate with one ``periodic_set`` scan per period."""
    if n_max is None:
        n_max = max(len(orbit(action, x)) for x in range(action.space.n_points))
    checks = []
    for n in range(1, n_max + 1):
        pn = periodic_set(action, n)
        d = action.space.dim(pn)
        checks.append(
            HypothesisCheck("periodic", f"N={n}", len(pn), d, r * n, 2 * d < r * n)
        )
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


def reference_block_loop(fam: MapFamily, f0: Observable, eps: Fraction) -> _BaireState:
    """The block loop of ``embed_family`` with every class packed whole.

    Each class's colliding pairs are packed into all their first-fit blocks
    at once (``naive_coherent_blocks``), and a block is skipped when ``margin``
    finds its pairs already separated; only perturbed blocks are logged.
    Returns the final state: observable, logs and ledger.
    """
    state = _BaireState(f0, eps)
    df = DoubledFamily(fam)
    n = fam.source.n_points
    ledger: list[tuple[int, int]] = []
    state.groups.append((fam, ledger))
    labels = _orbit_labels(state.f, fam)
    classes: dict[Partition, list[tuple[int, int]]] = {}
    for x1 in range(n):
        for x2 in range(n):
            if x1 == x2:
                continue
            if labels[x1] != labels[x2]:
                ledger.append((x1, x2))
            else:
                p_hat = doubled_induced_partition(df, (x1, x2))
                classes.setdefault(p_hat, []).append((x1, x2))
    for p_hat in sorted(classes, key=lambda p: (-len(p.blocks), p.blocks)):
        labels = _orbit_labels(state.f, fam)
        live = []
        for x1, x2 in classes[p_hat]:
            (ledger if labels[x1] != labels[x2] else live).append((x1, x2))
        for pairs in naive_coherent_blocks(df, p_hat, live):
            blk = CoherentBlock.build(df, p_hat, pairs)
            if margin(state.f, fam, blk.pairs) > 0:
                ledger.extend(blk.pairs)
                continue
            cap = state.ledger_margin()
            budget = state.geom if cap == math.inf else min(state.geom, cap / 4)
            state.f, log = separate_on_block(df, blk, state.f, budget)
            state.geom /= 2
            ledger.extend(blk.pairs)
            state.logs.append(replace(log, margin_after=state.ledger_margin()))
    return state
