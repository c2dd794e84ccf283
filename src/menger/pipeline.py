"""Certified construction of injective orbit maps on finite samples.

Given a family F of injective maps and an observable f into [0, 1]^r, the
orbit map sends x to the tuple (f(g(x)) for g in F).  When the declared
dimension of every compatibility class stays strictly below r/2 times its
block count, a small perturbation of f makes the orbit map injective.  The
construction here follows the density argument step by step at finite scale:
pairs of points are grouped by their doubled partition, each class is carved
into coherent blocks, and every block is separated by one locally constant
perturbation whose size is controlled by a geometrically shrinking budget.
The budget also stays below a quarter of the least gap between distinct
orbit tuples, so every pair the observable already separates, in every
family run so far, stays separated.  Progress is certified, never assumed,
and each property of a perturbed block has one check site: ``perturb``
checks that the merged sets of one coordinate are disjoint, that they get
distinct values, that coordinates share no covered value and that the
drift stays within the budget; ``check_separation`` proves each pair of
the block separated through an explicit A- or B-witness; and after every
block the run checks that the orbit labels refine the old ones and that no
pair of the block still shares a label.  The certificate states the claim
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
    BACKEND_BRICKS,
    BACKEND_CELLS,
    Coords,
    build_cover,
    diameter_clusters,
    pull_cover,
)
from .errors import HypothesisError, InputError, InternalCheckError
from .gate import (
    HypothesisReport,
    Stage,
    action_stages,
    check_hypotheses_action,
    check_hypotheses_family,
    family_stage,
)
from .partitions import (
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
    intersective_transport,
    mirror_block,
    occurrence_keys,
    reduced_maps,
)
from .perturb import Observable, ValueAssignment, assign_values, modulus, perturb, sample_observable, sup_distance
from .space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    Perm,
    least_float_at_least,
    orbit,  # noqa: F401  bench/spans.py patches this name here
    periodic_set,  # noqa: F401  bench/spans.py patches this name here
)
from .witness import BipartiteInstance, check_separation

Pair = tuple[int, int]

BRANCH_EMPTY = "empty"
# Only perturbed blocks are logged, so no log carries this branch any more;
# bench/spans.py still counts it.
BRANCH_SKIPPED = "already_separated"


def margin(f: Observable, fam: MapFamily, pairs: Iterable[Pair]) -> Fraction | float:
    """Least sup-distance between orbit tuples over the given pairs.

    Exact: the observable's values are compared as integer numerators over
    one common denominator, so no rounding enters and zero is returned
    exactly when some pair's tuples coincide.  An empty pair collection
    yields infinity.
    """
    rows = f.rows
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
    return math.inf if best is None else Fraction(best, f.den)


def _closest_gap(points: Iterable[tuple[int, ...]]) -> int | None:
    """Least L-infinity distance between two of the points; None for fewer than two.

    Sort, then sweep (Hinrichs, Nievergelt and Schorn 1988): each point is
    compared with its predecessors, nearest first, until their first
    coordinates differ by at least the best distance so far; every earlier
    point is at least that far away in that coordinate alone.  Inside that
    window a predecessor whose second or third coordinate already differs by
    the best distance cannot lower it, so its full distance is never taken.
    """
    pts = sorted(points)
    if len(pts) < 2:
        return None
    last = len(pts[0]) - 1
    a, b = min(1, last), min(2, last)   # narrower tuples repeat a coordinate
    best = math.inf
    for j in range(1, len(pts)):
        q = pts[j]
        head, qa, qb = q[0], q[a], q[b]
        for i in range(j - 1, -1, -1):
            p = pts[i]
            if head - p[0] >= best:
                break
            if abs(qa - p[a]) >= best or abs(qb - p[b]) >= best:
                continue
            d = max(map(abs, map(sub, p, q)))
            if d < best:
                best = d
    return None if best == math.inf else best


def _gap(f: Observable, points: Iterable[tuple[int, ...]]) -> Fraction | float:
    """``_closest_gap`` of numerator tuples as a value; infinity for fewer than two."""
    best = _closest_gap(points)
    return math.inf if best is None else Fraction(best, f.den)


@dataclass(frozen=True, eq=False)
class BlockLog:
    """Audit record of one block: what ran, with what data, and how it went."""

    partition: Partition
    pairs: tuple[Pair, ...]
    branch: str
    budget: Fraction | None = None
    eta: Fraction | None = None
    assignment: ValueAssignment | None = None      # the merged sets, each with its value
    margin_after: Fraction | float | None = None   # the ledger margin, set by the run
    displacement: Fraction | None = None


def _eta_threshold(fam: MapFamily, delta: Fraction | float) -> float:
    """Least source distance of a pair that some map sends at least delta apart.

    The exhaustive guard "source pairs closer than eta map within delta
    under every map" holds exactly when eta is at most this threshold;
    infinity when no pair reaches delta.  The scan compares floats only,
    against the least float not below delta.
    """
    if delta == math.inf:
        return math.inf
    reach = least_float_at_least(delta)
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
    sets merge per coordinate and get exact rational values.  ``perturb``
    checks the merged sets and their values; a point covered twice in one
    coordinate means coherence was violated, an InternalCheckError here.
    Each pair of the block is then proved separated through an explicit
    witness (``check_separation``).  The log's ``margin_after`` is left to
    the caller, whose ledger margin spans every family run so far.
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
        work = mirror_block(block)

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
    if branch == NON_INTERSECTIVE:
        mu1 = (r * m1) // 2 + 1
        cover1 = build_cover(fam.source, red1.points, r * m1, mu1, bound, backend, coords)
        fams1: list[tuple[frozenset[int], ...]] = list(cover1.families)
    else:
        tr = intersective_transport(df, work)
        pulled = pull_cover(cover2, tr.transport)
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

    assignment = assign_values(merged, f, eps_f)
    # coherence makes the pushed sets of one coordinate disjoint, so a point
    # perturb finds covered twice is an internal fault, not bad input
    try:
        f_new = perturb(f, assignment)
    except InputError as exc:
        raise InternalCheckError(f"merged families: {exc}; coherence was violated") from exc

    union1 = [frozenset().union(*fams1[k]) if fams1[k] else frozenset() for k in range(m1 * r)]
    union2 = [frozenset().union(*fams2[k]) if fams2[k] else frozenset() for k in range(m2 * r)]
    bidx1 = {i: red1.partition.block_index(i) for i in range(fam.size)}
    bidx2 = {i: red2.partition.block_index(i) for i in range(fam.size)}
    w_labels = tuple((i, ell) for i in range(fam.size) for ell in range(r))
    v1_labels = tuple((t, ell) for t in range(m1) for ell in range(r))
    v2_labels = tuple((t, ell) for t in range(m2) for ell in range(r))
    f1_map = {(i, ell): (bidx1[i], ell) for (i, ell) in w_labels}
    f2_map = {(i, ell): (bidx2[i], ell) for (i, ell) in w_labels}

    # Witness valuations are numerators over one denominator, equal exactly
    # when the values are.
    new_rows = f_new.rows
    for x1, x2 in work.pairs:
        v1_star = frozenset(
            (t, ell) for (t, ell) in v1_labels if x1 in union1[t * r + ell]
        )
        v2_star = frozenset(
            (t, ell) for (t, ell) in v2_labels if x2 in union2[t * r + ell]
        )
        phi1 = {(t, ell): new_rows[red1.reps[t][x1]][ell] for (t, ell) in v1_labels}
        phi2 = {(t, ell): new_rows[red2.reps[t][x2]][ell] for (t, ell) in v2_labels}
        try:
            inst = BipartiteInstance.create(
                w_labels, v1_labels, v2_labels, f1_map, f2_map, v1_star, v2_star
            )
            check_separation(inst, phi1, phi2)
        except InputError as exc:
            raise InternalCheckError(
                f"separation self-check failed for pair ({x1}, {x2}): {exc}"
            ) from exc

    log = BlockLog(
        partition=block.partition,
        pairs=block.pairs,
        branch=branch,
        budget=eps_f,
        eta=eta,
        assignment=assignment,
        displacement=sup_distance(f_new, f),
    )
    return f_new, log


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One processed stage and its orbit margin under the final observable."""

    stage: Stage
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


@dataclass(eq=False)
class _Entry:
    """A stage in the ledger: its family's current orbit labels and the least
    gap between distinct orbit tuples (none and infinite without a family)."""

    stage: Stage
    labels: list[int]
    gap: Fraction | float = math.inf


class _BaireState:
    """Shared budget schedule and separation ledger across blocks and stages.

    The ledger is every pair whose orbit tuples currently differ, in every
    family run so far; ``stages`` lists the run's stages in order, each
    with its family's current orbit labels and gap.  ``margin`` is the
    least of those gaps: ``start`` folds in the new stage's, and
    ``relabel`` recomputes every stage's after a perturbation, so each
    entry always describes the current ``f``.
    """

    def __init__(self, f: Observable, eps: Fraction):
        self.f = f
        self.geom = eps / 2
        self.stages: list[_Entry] = []
        self.margin: Fraction | float = math.inf
        self.logs: list[BlockLog] = []

    def start(self, stage: Stage) -> list[int]:
        """Add a stage to the ledger; return its orbit labels (none without a family)."""
        self.stages.append(_Entry(stage, [0] * len(stage.points)))
        return self._label(self.stages[-1])

    def relabel(self) -> list[int]:
        """Recompute every stage's labels and the margin; return the last stage's."""
        self.margin = math.inf
        for entry in self.stages:
            self._label(entry)
        return self.stages[-1].labels

    def _label(self, entry: _Entry) -> list[int]:
        """Relabel a stage under ``f``, fold its gap into the margin, return its labels.

        Monotone progress: the new labels must refine the old ones, so each
        new label meets exactly one old one; a stage joins with one label.
        """
        if entry.stage.family is not None:
            new, distinct = _labelled(self.f, entry.stage.family)
            if len(set(zip(new, entry.labels))) != len(set(new)):
                raise InternalCheckError(
                    "monotone progress violated: a previously separated pair collided"
                )
            entry.labels = new
            entry.gap = _gap(self.f, distinct)
            self.margin = min(self.margin, entry.gap)
        return entry.labels


def _orbit_tuples(f: Observable, fam: MapFamily) -> list[tuple[int, ...]]:
    """Each source point's orbit tuple (f(g(x)))_g, flattened over the maps.

    Entries are integer numerators over the observable's common denominator.
    Each coordinate's column is read at every map's values in C, and the
    columns zip into tuples in map order, then coordinate order.
    """
    if not fam.maps:
        return [()] * fam.source.n_points
    cols = list(zip(*f.rows))
    return list(zip(*[map(col.__getitem__, g) for g in fam.maps for col in cols]))


def _labelled(f: Observable, fam: MapFamily) -> tuple[list[int], dict[tuple[int, ...], int]]:
    """One label per source point, and the distinct orbit tuples with their labels.

    Two points collide iff their labels agree.  A closest-pair sweep over
    the distinct tuples costs one entry per group of colliding points.
    """
    seen: dict[tuple[int, ...], int] = {}
    return [seen.setdefault(t, len(seen)) for t in _orbit_tuples(f, fam)], seen


def colliding_pair_classes(df: DoubledFamily, labels: Sequence[int]) -> dict[Partition, list[Pair]]:
    """The ordered pairs of distinct points with one label, grouped by doubled partition.

    Pairs are listed in row-major order, and each class keeps that order.
    A pair (x1, x2) is keyed by flat integers: the ``occurrence_keys`` ids
    of x1 and x2, which fix the blocks inside each column, and for each
    map g the least map index taking g(x1) at x2 (-1 for none), which fixes
    the blocks that meet across the columns.  Two pairs therefore share a
    key exactly when they share a doubled partition, so
    ``doubled_induced_partition`` runs once per class, on its first pair.
    """
    members: dict[int, list[int]] = {}
    for x, label in enumerate(labels):
        members.setdefault(label, []).append(x)
    if len(members) == len(labels):
        return {}
    ids, firsts = occurrence_keys(df.base)
    values = list(zip(*df.base.maps))
    misses = (-1,) * df.base.size
    keyed: dict[tuple, list[Pair]] = {}
    for x1, label in enumerate(labels):
        head = ids[x1]
        v1 = values[x1]
        for x2 in members[label]:
            if x2 != x1:
                key = (head, ids[x2], tuple(map(firsts[x2].get, v1, misses)))
                keyed.setdefault(key, []).append((x1, x2))
    return {doubled_induced_partition(df, pairs[0]): pairs for pairs in keyed.values()}


def _run_stage(
    state: _BaireState,
    stage: Stage,
    backend: str,
    coords: Coords | None,
) -> None:
    """Start a stage and separate every pair of its family that still collides.

    A stage without a family only joins the ledger.  The orbit labels
    under the current observable say which pairs collide: a pair whose
    labels differ is already separated, so it is neither listed nor
    classified.  Points are grouped by label, and only the
    colliding pairs inside a group are enumerated (in row-major order) and
    grouped by their doubled partition (``colliding_pair_classes``), so the
    work grows with n plus the colliding pairs, and one ``Partition`` is
    built per class.  Classes are taken with more label blocks first, and
    each class keeps only the pairs that still collide, since earlier
    perturbations separate most of them.  The rest are packed lazily, one
    first-fit block at a time: a block whose pairs are all separated is
    skipped, any other block is perturbed, and the class ends once no
    leftover pair collides.  Peeling reproduces the whole-class first-fit
    packing, so the perturbed blocks are the same as when every block is
    packed.  Budgets shrink geometrically from eps/2 and are additionally
    capped by a quarter of the ledger margin, the least gap between
    distinct orbit tuples of every family run so far; a perturbation within
    half that gap keeps every separated pair separated, and staying
    strictly inside it keeps the inequality strict.  After every perturbed
    block the labels of every family must refine their old labels
    (monotone progress), and no pair of the block may still share a label.
    Only perturbed blocks are logged, each with the ledger margin after it.
    """
    labels = state.start(stage)
    if stage.family is None:
        return
    df = DoubledFamily(stage.family)

    classes = colliding_pair_classes(df, labels)
    ordered = sorted(classes, key=lambda p: (-len(p.blocks), p.blocks))

    for p_hat in ordered:
        live = [(x1, x2) for x1, x2 in classes[p_hat] if labels[x1] == labels[x2]]
        while live:
            blk, live = first_fit_block(df, p_hat, live)
            if all(labels[x1] != labels[x2] for x1, x2 in blk.pairs):
                continue
            budget = min(state.geom, state.margin / 4)
            f_new, blog = separate_on_block(df, blk, state.f, budget, backend, coords)
            state.f = f_new
            state.geom = state.geom / 2
            labels = state.relabel()
            for x1, x2 in blk.pairs:
                if labels[x1] == labels[x2]:
                    raise InternalCheckError(
                        f"pair ({x1}, {x2}) still collides after its block was perturbed"
                    )
            state.logs.append(replace(blog, margin_after=state.margin))
            if all(labels[x1] != labels[x2] for x1, x2 in live):
                break


def _start(
    target: FiniteSpace,
    r: int,
    eps: Fraction | float,
    f0: Observable | None,
    seed: int | None,
    backend: str,
    coords: Coords | None,
) -> tuple[Fraction, Observable, int | None]:
    """The checked budget, the start observable on ``target`` and the seed used.

    Without ``f0`` the start is sampled with ``seed`` (0 by default), and
    that seed is returned; a given ``f0`` returns None.  The cover backend
    is checked here too, before any gate runs: an unknown name and
    ``bricks`` without coordinates are refused whatever the start, even one
    that would need no cover.
    """
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise InputError("eps must be positive")
    if backend not in (BACKEND_CELLS, BACKEND_BRICKS):
        raise InputError(f"unknown cover backend {backend!r}")
    if backend == BACKEND_BRICKS and coords is None:
        raise InputError("bricks backend needs declared coordinates")
    used_seed = None
    if f0 is None:
        used_seed = 0 if seed is None else seed
        f0 = sample_observable(target, r, used_seed)
    if f0.r != r:
        raise InputError(f"observable has r={f0.r}, requested r={r}")
    if f0.space.n_points != target.n_points:
        raise InputError("observable lives on the wrong space")
    return eps_f, f0, used_seed


def _run(
    kind: str,
    r: int,
    start: tuple[Fraction, Observable, int | None],
    plan: Sequence[Stage],
    report: HypothesisReport,
    backend: str,
    coords: Coords | None,
) -> EmbeddingCertificate:
    """The run both entry points end in, from ``start`` (what ``_start``
    returns): a failed ``report`` raises HypothesisError naming its first
    failure; otherwise every stage of ``plan`` runs on one ledger.  Each
    stage margin is its ledger gap under the final observable, its orbit
    margin once every stage point has its own label, which is checked here,
    as is the total displacement staying within eps.
    """
    if not report.passed:
        raise HypothesisError(
            f"dimension hypothesis fails: {report.failures()[0].describe()}", report
        )
    eps, f0, seed = start
    state = _BaireState(f0, eps)
    for stage in plan:
        _run_stage(state, stage, backend, coords)
    if any(len(set(entry.labels)) < len(entry.labels) for entry in state.stages):
        raise InternalCheckError("stage margin is zero; some pair was never separated")
    displacement = sup_distance(state.f, f0)
    if displacement > eps:
        raise InternalCheckError(f"total displacement {displacement} exceeds eps {eps}")
    return EmbeddingCertificate(
        kind=kind,
        r=r,
        eps=eps,
        seed=seed,
        backend=backend,
        hypothesis=report,
        f0=f0,
        observable=state.f,
        blocks=tuple(state.logs),
        stages=tuple(StageRecord(entry.stage, entry.gap) for entry in state.stages),
        margin=state.margin,
        displacement=displacement,
    )


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
    eps, both exact.  The family is the one stage, over every source point.
    """
    start = _start(fam.target, r, eps, f0, seed, backend, coords)
    report = check_hypotheses_family(fam, r)
    return _run("family", r, start, [family_stage(fam)], report, backend, coords)


def embed_equivariant(
    action: GroupAction,
    r: int,
    eps: Fraction | float,
    f0: Observable | None = None,
    seed: int | None = None,
    stages: Sequence[tuple[Sequence[Perm], Fraction | float | None]] | None = None,
    backend: str = BACKEND_CELLS,
    coords: Coords | None = None,
) -> EmbeddingCertificate:
    """Make one observable's orbit map injective for a group action.

    With the group fully enumerated the whole element list forms a single
    stage over the full space.  When the closure was capped the caller must
    pass finite stages explicitly: each stage is a pair (F, eps_sep) of
    element permutations and a separation scale, and is embedded on the
    subspace of points whose F-orbit either equals the full orbit or spreads
    into at least r*n points pairwise eps_sep-apart (``action_stages``).
    Raises HypothesisError unless ``check_hypotheses_action`` passes on that
    plan; the certificate records its report.
    """
    start = _start(action.space, r, eps, f0, seed, backend, coords)
    plan = action_stages(action, stages, r)
    report = check_hypotheses_action(action, r, plan)
    return _run("action", r, start, plan, report, backend, coords)
