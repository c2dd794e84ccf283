"""Certified construction of injective orbit maps on finite samples.

Given a family F of injective maps and an observable f into [0, 1]^r, the
orbit map sends x to the tuple (f(g(x)) for g in F).  When the declared
dimension of every compatibility class stays strictly below r/2 times its
block count, a small perturbation of f makes the orbit map injective.  The
construction here follows the density argument step by step at finite scale:
pairs of points are grouped by their doubled partition, each class is carved
into coherent blocks, and every block is separated by one locally constant
perturbation whose size is controlled by a geometrically shrinking budget.
Progress is certified, never assumed: each block run re-verifies separation
pair by pair through an explicit witness.  The certificate states the claim
itself, the final observable with each stage's points and maps, so a
verifier re-checks injectivity and displacement without replaying the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import sub
from typing import Iterable, Sequence

from .covers import (
    BACKEND_CELLS,
    Coords,
    build_cover,
    diameter_clusters,
    pull_cover,
)
from .errors import (
    GroupCapError,
    HypothesisError,
    InputError,
    InternalCheckError,
)
from .partitions import (
    INTERSECTIVE,
    NON_INTERSECTIVE,
    CoherentBlock,
    DoubledFamily,
    Partition,
    classify,
    coherent_decomposition,  # noqa: F401  bench/spans.py patches this name here
    column_partition,
    compatible_subset,  # noqa: F401  bench/spans.py patches this name here
    doubled_induced_partition,
    first_fit_block,
    induced_partition,
    intersective_transport,
    mirror_block,
    reduced_maps,
)
from .perturb import Observable, ValueAssignment, assign_values, modulus, perturb, sample_observable, sup_distance
from .space import (
    DEFAULT_EXACT_CAP,
    FiniteSpace,
    GroupAction,
    MapFamily,
    Perm,
    orbit,
    periodic_set,  # noqa: F401  bench/spans.py patches this name here
    restricted_space,
)
from .witness import BipartiteInstance, check_separation

Pair = tuple[int, int]

BRANCH_EMPTY = "empty"
# Only perturbed blocks are logged, so no log carries this branch any more;
# bench/spans.py still counts it.
BRANCH_SKIPPED = "already_separated"


@dataclass(frozen=True)
class HypothesisCheck:
    kind: str              # "partition" or "periodic"
    label: str
    subset_size: int
    dim: int
    bound_num: int         # the strict bound is dim < bound_num / 2
    passed: bool

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"{self.kind} {self.label}: dim {self.dim} < {self.bound_num}/2 "
            f"[{verdict}]"
        )


@dataclass(frozen=True)
class HypothesisReport:
    r: int
    checks: tuple[HypothesisCheck, ...]
    passed: bool

    def failures(self) -> tuple[HypothesisCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_hypotheses_family(fam: MapFamily, r: int) -> HypothesisReport:
    """Check dim(X_P) < (r/2)|P| for every partition P some point realizes.

    The points are grouped by their induced partition in one pass, so each
    class X_P is a lookup, and one check is reported per realized class.
    A partition no point realizes has the empty class, and dim of the empty
    set is -1: declared spaces give it by construction and
    ``validate_space`` checks it for every ``dim_fn``.  Its check,
    -2 < r|P|, holds for every r >= 1, so it is left out.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    classes: dict[Partition, list[int]] = {}
    for x in range(fam.source.n_points):
        classes.setdefault(induced_partition(fam, x), []).append(x)
    checks = []
    for p in sorted(classes, key=lambda q: (len(q.blocks), q.blocks)):
        xp = frozenset(classes[p])
        d = fam.source.dim(xp)
        bound_num = r * p.block_count()
        checks.append(
            HypothesisCheck(
                "partition", str(p.serialize()), len(xp), d, bound_num, 2 * d < bound_num
            )
        )
    return HypothesisReport(r, tuple(checks), all(c.passed for c in checks))


def _orbit_sizes(action: GroupAction) -> list[int]:
    """Orbit size of every point, one reachability search per orbit.

    Orbits of a permutation group partition the space, so every point of a
    found orbit shares its size.
    """
    sizes = [0] * action.space.n_points
    for x in range(action.space.n_points):
        if not sizes[x]:
            orb = orbit(action, x)
            for y in orb:
                sizes[y] = len(orb)
    return sizes


def check_hypotheses_action(
    action: GroupAction, r: int, n_max: int | None = None
) -> HypothesisReport:
    """Check dim of the n-periodic set against (r/2) n for n up to n_max.

    The default n_max is the largest orbit size; beyond it the periodic sets
    stop growing while the bound keeps increasing.  An n_max below 1 would
    check nothing, so it is an input error.  Orbit sizes are found once,
    and the n-periodic set is read off them as the points whose orbit has
    at most n elements.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    if n_max is not None and n_max < 1:
        raise InputError(f"n_max must be at least 1, got {n_max}")
    sizes = _orbit_sizes(action)
    if n_max is None:
        n_max = max(sizes)
    checks = []
    for n in range(1, n_max + 1):
        pn = frozenset(x for x, size in enumerate(sizes) if size <= n)
        d = action.space.dim(pn)
        checks.append(
            HypothesisCheck("periodic", f"N={n}", len(pn), d, r * n, 2 * d < r * n)
        )
    return HypothesisReport(r, tuple(checks), all(c.passed for c in checks))


def margin(f: Observable, fam: MapFamily, pairs: Iterable[Pair]) -> Fraction | float:
    """Least sup-distance between orbit tuples over the given pairs.

    Exact: the observable's values are compared as integer numerators over
    one common denominator, so no rounding enters and zero is returned
    exactly when some pair's tuples coincide.  An empty pair collection
    yields infinity.
    """
    den, rows = f.numerators()
    maps = fam.maps
    best: int | None = None
    for x1, x2 in pairs:
        worst = 0
        for g in maps:
            for a, b in zip(rows[g[x1]], rows[g[x2]]):
                d = abs(a - b)
                if d > worst:
                    worst = d
        if best is None or worst < best:
            best = worst
    return math.inf if best is None else Fraction(best, den)


def _closest_gap(points: list[tuple[int, ...]]) -> int | None:
    """Least L-infinity distance between two of the points; None for fewer than two.

    Sort, then sweep (Hinrichs, Nievergelt and Schorn 1988): each point is
    compared with its predecessors, nearest first, until their first
    coordinates differ by at least the best distance so far; every earlier
    point is at least that far away in that coordinate alone.
    """
    pts = sorted(points)
    if len(pts) < 2:
        return None
    best = max(map(abs, map(sub, pts[0], pts[1])))
    for j in range(2, len(pts)):
        q = pts[j]
        head = q[0]
        for i in range(j - 1, -1, -1):
            p = pts[i]
            if head - p[0] >= best:
                break
            d = max(map(abs, map(sub, p, q)))
            if d < best:
                best = d
    return best


def orbit_margin(f: Observable, fam: MapFamily) -> Fraction | float:
    """Least sup-distance between the orbit tuples of distinct source points.

    Equal to ``margin`` over all unordered pairs, found as one closest pair
    of the flattened orbit tuples on integer numerators; infinity when the
    source has fewer than two points.
    """
    den, _ = f.numerators()
    best = _closest_gap(_orbit_tuples(f, fam))
    return math.inf if best is None else Fraction(best, den)


@dataclass(frozen=True, eq=False)
class BlockLog:
    """Audit record of one block: what ran, with what data, and how it went."""

    partition: Partition
    pairs: tuple[Pair, ...]
    branch: str
    budget: Fraction | None = None
    eta: Fraction | None = None
    m1: int | None = None
    m2: int | None = None
    transport: tuple[tuple[int, int], ...] | None = None
    zeta: tuple[tuple[int, int], ...] | None = None
    merged: tuple[tuple[frozenset[int], ...], ...] | None = None
    assignment: ValueAssignment | None = None
    witness_kinds: tuple[str, ...] | None = None
    margin_after: Fraction | float | None = None
    displacement: Fraction | None = None


def _eta_threshold(fam: MapFamily, delta: Fraction | float) -> float:
    """Least source distance of a pair that some map sends at least delta apart.

    The exhaustive guard "source pairs closer than eta map within delta
    under every map" holds exactly when eta is at most this threshold;
    infinity when no pair reaches delta.  A float distance is at least
    delta exactly when it is at least ``reach``, the least float not below
    delta, so the scan compares floats only.
    """
    if delta == math.inf:
        return math.inf
    reach = float(delta)
    if reach < delta:
        reach = math.nextafter(reach, math.inf)
    src = fam.source.rows()
    tgt = fam.target.rows()
    maps = fam.maps
    best = math.inf
    for x1, row in enumerate(src):
        for x2 in range(x1 + 1, len(row)):
            d = row[x2]
            if d < best and any(tgt[g[x1]][g[x2]] >= reach for g in maps):
                best = d
    return best


def separate_on_block(
    df: DoubledFamily,
    block: CoherentBlock,
    f: Observable,
    eps: Fraction | float,
    backend: str = BACKEND_CELLS,
    coords: Coords | None = None,
) -> tuple[Observable, BlockLog]:
    """Separate every pair of one coherent block by a perturbation within eps.

    The construction: work with the column whose reduced family is larger as
    column 1 (mirroring the block if needed).  Compute the modulus floor
    delta over all coordinates at gap eps/2, then the largest eta on the
    halving grid below eps such that eta-close source points stay delta-close
    under every map.  Cover the column-2 projection with r*M2 families of
    eta/2-small sets at multiplicity floor(r*M2/2)+1.  In the intersective
    case the block is the graph of a transport bijection T; covers for the
    matched column-1 classes are pulled through T so that their pushed images
    coincide with the column-2 ones, and the remaining column-1 classes get a
    fresh small partition so their multiplicity stays a majority.  All pushed
    sets merge per coordinate, get exact rational values, and the perturbed
    observable is checked pair by pair through an explicit witness.
    """
    fam = df.base
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    r = f.r
    if not block.pairs:
        return f, BlockLog(block.partition, (), BRANCH_EMPTY)

    work = block
    if (
        column_partition(block.partition, 1).block_count()
        < column_partition(block.partition, 2).block_count()
    ):
        work = mirror_block(df, block)

    red1 = reduced_maps(df, work, 1)
    red2 = reduced_maps(df, work, 2)
    m1 = red1.partition.block_count()
    m2 = red2.partition.block_count()

    mods = [modulus(f, ell, eps_f / 2) for ell in range(r)]
    finite = [Fraction(v) for v in mods if v != math.inf]
    delta: Fraction | float = (min(finite) / 2) if finite else math.inf

    eta = eps_f
    threshold = _eta_threshold(fam, delta)
    while eta > threshold:
        eta = eta / 2
    bound = eta / 2

    mu2 = (r * m2) // 2 + 1
    cover2 = build_cover(fam.source, red2.points, r * m2, mu2, bound, backend, coords)
    fams2: list[tuple[frozenset[int], ...]] = list(cover2.families)

    branch = classify(work.partition)
    transport_log = None
    zeta_log = None
    if branch == NON_INTERSECTIVE:
        mu1 = (r * m1) // 2 + 1
        cover1 = build_cover(fam.source, red1.points, r * m1, mu1, bound, backend, coords)
        fams1: list[tuple[frozenset[int], ...]] = list(cover1.families)
    else:
        tr = intersective_transport(df, work)
        transport_log = tuple(sorted(tr.transport.items()))
        zeta_log = tuple(sorted(tr.zeta.items()))
        pulled = pull_cover(cover2, tr.transport, fam.source)
        fresh = diameter_clusters(fam.source, red1.points, bound)
        fams1 = [fresh for _ in range(m1 * r)]
        for t2 in sorted(tr.intersecting):
            for ell in range(r):
                fams1[tr.zeta[t2] * r + ell] = pulled.families[t2 * r + ell]

    merged: list[list[frozenset[int]]] = [[] for _ in range(r)]
    seen: list[set[frozenset[int]]] = [set() for _ in range(r)]

    def absorb(rep: dict[int, int], fams: Sequence[Sequence[frozenset[int]]], t: int) -> None:
        for ell in range(r):
            for sub in fams[t * r + ell]:
                img = frozenset(rep[x] for x in sub)
                if img not in seen[ell]:
                    seen[ell].add(img)
                    merged[ell].append(img)

    for t1 in range(m1):
        absorb(red1.reps[t1], fams1, t1)
    for t2 in range(m2):
        absorb(red2.reps[t2], fams2, t2)
    for ell in range(r):
        for a in range(len(merged[ell])):
            for b in range(a + 1, len(merged[ell])):
                if merged[ell][a] & merged[ell][b]:
                    raise InternalCheckError(
                        f"merged family {ell}: pushed sets {sorted(merged[ell][a])} and "
                        f"{sorted(merged[ell][b])} overlap; coherence was violated"
                    )
    merged_t = tuple(tuple(fam_l) for fam_l in merged)

    assignment = assign_values(merged_t, f, eps_f)
    f_new = perturb(f, assignment, merged_t)

    union1 = [frozenset().union(*fams1[k]) if fams1[k] else frozenset() for k in range(m1 * r)]
    union2 = [frozenset().union(*fams2[k]) if fams2[k] else frozenset() for k in range(m2 * r)]
    bidx1 = {i: red1.partition.block_index(i) for i in range(fam.size)}
    bidx2 = {i: red2.partition.block_index(i) for i in range(fam.size)}
    w_labels = tuple((i, ell) for i in range(fam.size) for ell in range(r))
    v1_labels = tuple((t, ell) for t in range(m1) for ell in range(r))
    v2_labels = tuple((t, ell) for t in range(m2) for ell in range(r))
    f1_map = {(i, ell): (bidx1[i], ell) for (i, ell) in w_labels}
    f2_map = {(i, ell): (bidx2[i], ell) for (i, ell) in w_labels}

    kinds = []
    for x1, x2 in work.pairs:
        v1_star = frozenset(
            (t, ell) for (t, ell) in v1_labels if x1 in union1[t * r + ell]
        )
        v2_star = frozenset(
            (t, ell) for (t, ell) in v2_labels if x2 in union2[t * r + ell]
        )
        phi1 = {(t, ell): f_new.values[red1.reps[t][x1]][ell] for (t, ell) in v1_labels}
        phi2 = {(t, ell): f_new.values[red2.reps[t][x2]][ell] for (t, ell) in v2_labels}
        try:
            inst = BipartiteInstance.create(
                w_labels, v1_labels, v2_labels, f1_map, f2_map, v1_star, v2_star
            )
            proof = check_separation(inst, phi1, phi2)
        except InputError as exc:
            raise InternalCheckError(
                f"separation self-check failed for pair ({x1}, {x2}): {exc}"
            ) from exc
        i, ell = proof.w
        if f_new.values[fam.maps[i][x1]][ell] == f_new.values[fam.maps[i][x2]][ell]:
            raise InternalCheckError(
                f"witness map {i}, coordinate {ell} does not separate pair ({x1}, {x2})"
            )
        kinds.append(proof.witness.kind)

    blk_margin = margin(f_new, fam, work.pairs)
    if not blk_margin > 0:
        raise InternalCheckError("block margin is zero after perturbation")
    moved = sup_distance(f_new, f)

    log = BlockLog(
        partition=block.partition,
        pairs=block.pairs,
        branch=branch,
        budget=eps_f,
        eta=eta,
        m1=m1,
        m2=m2,
        transport=transport_log,
        zeta=zeta_log,
        merged=merged_t,
        assignment=assignment,
        witness_kinds=tuple(kinds),
        margin_after=blk_margin,
        displacement=moved,
    )
    return f_new, log


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One processed family: its ambient points, maps and orbit margin."""

    points: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    f_perms: tuple[Perm, ...] | None
    eps_sep: Fraction | None
    margin: Fraction | float


@dataclass(frozen=True, eq=False)
class EmbeddingCertificate:
    kind: str                       # "family" or "action"
    r: int
    eps: Fraction
    seed: int | None
    backend: str
    hypothesis: HypothesisReport
    f0: Observable
    observable: Observable
    blocks: tuple[BlockLog, ...]
    stages: tuple[StageRecord, ...]
    margin: Fraction | float
    displacement: Fraction


class _BaireState:
    """Shared budget schedule and separation ledger across blocks and stages."""

    def __init__(self, f: Observable, eps: Fraction):
        self.f = f
        self.eps = eps
        self.geom = eps / 2
        self.groups: list[tuple[MapFamily, list[Pair]]] = []
        self.logs: list[BlockLog] = []

    def ledger_margin(self) -> Fraction | float:
        vals = [margin(self.f, fam, pairs) for fam, pairs in self.groups if pairs]
        return min(vals) if vals else math.inf


def _orbit_tuples(f: Observable, fam: MapFamily) -> list[tuple[int, ...]]:
    """Each source point's orbit tuple (f(g(x)))_g, flattened over the maps.

    Entries are integer numerators over the observable's common denominator.
    """
    _, rows = f.numerators()
    maps = fam.maps
    return [
        tuple(v for g in maps for v in rows[g[x]]) for x in range(fam.source.n_points)
    ]


def _orbit_labels(f: Observable, fam: MapFamily) -> list[int]:
    """One label per source point; two points collide iff their labels agree."""
    seen: dict[tuple, int] = {}
    return [seen.setdefault(t, len(seen)) for t in _orbit_tuples(f, fam)]


def _run_family_blocks(
    state: _BaireState,
    fam: MapFamily,
    backend: str,
    coords: Coords | None,
) -> None:
    """Separate every pair of one family that still collides, block by block.

    One pass over the ordered pairs compares orbit tuples under the current
    observable: a pair already separated goes straight into the ledger and
    is never classified; only colliding pairs are grouped by their doubled
    partition.  Classes are taken with more label blocks first, and each
    class is filtered again against the current observable, since earlier
    perturbations separate most of its pairs: those join the ledger.  The
    rest are packed lazily, one first-fit block at a time: a block whose
    pairs are all separated joins the ledger, any other block is perturbed,
    and once no leftover pair of the class collides, the leftovers join the
    ledger unpacked.  Peeling reproduces the whole-class first-fit packing,
    so the perturbed blocks are the same as when every block is packed.
    Budgets shrink geometrically from eps/2 and are additionally capped by
    a quarter of the running ledger margin; a perturbation within half the
    margin keeps every ledger pair separated, the pairs separated at the
    start included, and staying strictly inside that radius keeps the
    inequality strict.  Monotone progress is asserted after every perturbed
    block, and only perturbed blocks are logged.
    """
    df = DoubledFamily(fam)
    n = fam.source.n_points
    group_pairs: list[Pair] = []
    state.groups.append((fam, group_pairs))

    labels = _orbit_labels(state.f, fam)
    classes: dict[Partition, list[Pair]] = {}
    for x1 in range(n):
        l1 = labels[x1]
        for x2 in range(n):
            if x1 == x2:
                continue
            if labels[x2] != l1:
                group_pairs.append((x1, x2))
            else:
                p_hat = doubled_induced_partition(df, (x1, x2))
                classes.setdefault(p_hat, []).append((x1, x2))
    ordered = sorted(classes, key=lambda p: (-len(p.blocks), p.blocks))

    # labels always describe the current observable: they are recomputed
    # after every perturbation
    for p_hat in ordered:
        live: list[Pair] = []
        for pair in classes[p_hat]:
            if labels[pair[0]] != labels[pair[1]]:
                group_pairs.append(pair)
            else:
                live.append(pair)
        while live:
            blk, live = first_fit_block(df, p_hat, live)
            if all(labels[x1] != labels[x2] for x1, x2 in blk.pairs):
                group_pairs.extend(blk.pairs)
                continue
            cap = state.ledger_margin()
            budget = state.geom
            if cap != math.inf and cap / 4 < budget:
                budget = cap / 4
            f_new, blog = separate_on_block(df, blk, state.f, budget, backend, coords)
            state.f = f_new
            state.geom = state.geom / 2
            group_pairs.extend(blk.pairs)
            after = state.ledger_margin()
            if not after > 0:
                raise InternalCheckError(
                    "monotone progress violated: a previously separated pair collided"
                )
            state.logs.append(replace(blog, margin_after=after))
            labels = _orbit_labels(state.f, fam)
            if all(labels[x1] != labels[x2] for x1, x2 in live):
                group_pairs.extend(live)
                break


def embed_family(
    fam: MapFamily,
    r: int,
    eps: Fraction | float,
    f0: Observable | None = None,
    seed: int | None = None,
    backend: str = BACKEND_CELLS,
    coords: Coords | None = None,
) -> EmbeddingCertificate:
    """Perturb an observable until the orbit map of the family is injective.

    Raises HypothesisError when some partition class has declared dimension
    at least (r/2) times its block count; otherwise returns a certificate
    whose margin is strictly positive and whose displacement stays within
    eps, both exact.
    """
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    used_seed = None
    if f0 is None:
        used_seed = 0 if seed is None else seed
        f0 = sample_observable(fam.target, r, used_seed)
    if f0.r != r:
        raise InputError(f"observable has r={f0.r}, requested r={r}")
    if f0.space.n_points != fam.target.n_points:
        raise InputError("observable lives on the wrong space")

    report = check_hypotheses_family(fam, r)
    if not report.passed:
        first = report.failures()[0]
        raise HypothesisError(
            f"dimension hypothesis fails: {first.describe()}", report
        )

    state = _BaireState(f0, eps_f)
    _run_family_blocks(state, fam, backend, coords)

    n = fam.source.n_points
    final_margin = orbit_margin(state.f, fam)
    if not final_margin > 0:
        raise InternalCheckError("final margin is zero; some pair was never separated")
    displacement = sup_distance(state.f, f0)
    if displacement > eps_f:
        raise InternalCheckError(
            f"total displacement {displacement} exceeds eps {eps_f}"
        )

    stage = StageRecord(
        points=tuple(range(n)),
        maps=fam.maps,
        labels=fam.labels,
        f_perms=None,
        eps_sep=None,
        margin=final_margin,
    )
    return EmbeddingCertificate(
        kind="family",
        r=r,
        eps=eps_f,
        seed=used_seed,
        backend=backend,
        hypothesis=report,
        f0=f0,
        observable=state.f,
        blocks=tuple(state.logs),
        stages=(stage,),
        margin=final_margin,
        displacement=displacement,
    )


def default_stage_n(space: FiniteSpace, r: int) -> int:
    """Smallest n with 2 dim(X) < r n, used for the separation threshold."""
    d = space.dim(range(space.n_points))
    return (2 * d) // r + 1


def stage_specs(
    action: GroupAction,
    stages: Sequence[tuple[Sequence[Perm], Fraction | float | None]] | None = None,
) -> list[tuple[tuple[Perm, ...], Fraction | None]]:
    """Each stage of an action as (element permutations, eps_sep or None).

    Without explicit stages the whole enumerated group is the one stage; a
    group whose closure was capped needs them.  An empty stage list would
    certify nothing, so it is an input error.
    """
    if stages is not None and not stages:
        raise InputError("stages: the list is empty; pass None to use the whole group")
    if stages is None:
        if action.elements is None:
            raise GroupCapError(
                "group closure was capped; pass finite stages (F, eps_sep) explicitly"
            )
        return [(action.elements, None)]
    return [
        (
            tuple(tuple(int(v) for v in p) for p in f_perms),
            None if eps_sep is None else Fraction(eps_sep),
        )
        for f_perms, eps_sep in stages
    ]


def stage_points(
    action: GroupAction,
    specs: Sequence[tuple[Sequence[Perm], Fraction | None]],
    r: int,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> list[tuple[int, ...]]:
    """The sorted ambient points each stage is embedded on.

    A stage without eps_sep covers the whole space; one with eps_sep covers
    the points whose F-orbit equals the full orbit or spreads into at least
    r*n points pairwise eps_sep-apart, n being ``default_stage_n``, which
    asks the dimension oracle only when some stage has an eps_sep.
    """
    n = default_stage_n(action.space, r) if any(e is not None for _, e in specs) else 0
    return [
        tuple(range(action.space.n_points))
        if eps_sep is None
        else tuple(sorted(restricted_space(action, f_perms, eps_sep, r, n, exact_cap)))
        for f_perms, eps_sep in specs
    ]


def embed_equivariant(
    action: GroupAction,
    r: int,
    eps: Fraction | float,
    f0: Observable | None = None,
    seed: int | None = None,
    stages: Sequence[tuple[Sequence[Perm], Fraction | float | None]] | None = None,
    backend: str = BACKEND_CELLS,
    coords: Coords | None = None,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> EmbeddingCertificate:
    """Make one observable's orbit map injective for a group action.

    With the group fully enumerated the whole element list forms a single
    stage over the full space.  When the closure was capped the caller must
    pass finite stages explicitly: each stage is a pair (F, eps_sep) of
    element permutations and a separation scale, and is embedded on the
    subspace of points whose F-orbit either equals the full orbit or spreads
    into at least r*n points pairwise eps_sep-apart.
    """
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    specs = stage_specs(action, stages)

    used_seed = None
    if f0 is None:
        used_seed = 0 if seed is None else seed
        f0 = sample_observable(action.space, r, used_seed)
    if f0.r != r:
        raise InputError(f"observable has r={f0.r}, requested r={r}")
    if f0.space.n_points != action.space.n_points:
        raise InputError("observable lives on the wrong space")

    report = check_hypotheses_action(action, r)
    if not report.passed:
        first = report.failures()[0]
        raise HypothesisError(
            f"dimension hypothesis fails: {first.describe()}", report
        )

    state = _BaireState(f0, eps_f)
    stage_fams: list[tuple[MapFamily, tuple[int, ...], tuple[Perm, ...], Fraction | None]] = []
    for (f_perms, eps_sep), pts in zip(specs, stage_points(action, specs, r, exact_cap)):
        if not pts:
            stage_fams.append((None, (), f_perms, eps_sep))
            continue
        sub, pts = action.space.subspace(pts)
        local_maps = [tuple(p[x] for x in pts) for p in f_perms]
        fam = MapFamily.create(
            sub, action.space, local_maps, labels=[f"e{k}" for k in range(len(f_perms))]
        )
        fam_report = check_hypotheses_family(fam, r)
        if not fam_report.passed:
            first = fam_report.failures()[0]
            raise HypothesisError(
                f"stage hypothesis fails: {first.describe()}", fam_report
            )
        _run_family_blocks(state, fam, backend, coords)
        stage_fams.append((fam, pts, f_perms, eps_sep))

    records = []
    margins: list[Fraction | float] = []
    for fam, pts, f_perms, eps_sep in stage_fams:
        if fam is None:
            # a stage without points still has one (empty) map per element
            labels = tuple(f"e{k}" for k in range(len(f_perms)))
            records.append(
                StageRecord((), ((),) * len(f_perms), labels, f_perms, eps_sep, math.inf)
            )
            continue
        stage_margin = orbit_margin(state.f, fam)
        if not stage_margin > 0:
            raise InternalCheckError("stage margin is zero after all blocks")
        margins.append(stage_margin)
        records.append(
            StageRecord(
                points=pts,
                maps=fam.maps,
                labels=fam.labels,
                f_perms=f_perms,
                eps_sep=eps_sep,
                margin=stage_margin,
            )
        )

    displacement = sup_distance(state.f, f0)
    if displacement > eps_f:
        raise InternalCheckError(
            f"total displacement {displacement} exceeds eps {eps_f}"
        )
    total_margin = min(margins) if margins else math.inf
    return EmbeddingCertificate(
        kind="action",
        r=r,
        eps=eps_f,
        seed=used_seed,
        backend=backend,
        hypothesis=report,
        f0=f0,
        observable=state.f,
        blocks=tuple(state.logs),
        stages=tuple(records),
        margin=total_margin,
        displacement=displacement,
    )
