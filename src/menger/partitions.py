"""Partitions induced by map families, doubled families, coherent blocks.

A point x induces a partition of the family indices: two maps fall in the
same block exactly when they agree at x.  Running the same construction on
ordered pairs (x1, x2) off the diagonal, with every map doubled into a
column-1 and a column-2 copy, classifies how the two orbit tuples can
collide.  Coherent blocks then carve each compatibility class into pieces on
which images of distinct blocks stay disjoint, which is what the downstream
cover construction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .errors import InputError, InternalCheckError
from .space import MapFamily

Label = Hashable
Pair = tuple[int, int]

INTERSECTIVE = "intersective"
NON_INTERSECTIVE = "non_intersective"


@dataclass(frozen=True)
class Partition:
    """A partition of an ordered ground tuple, held in canonical form.

    Blocks are sorted tuples, ordered among themselves by their least label
    (least in ground order).  Equality and hashing are therefore structural.
    """

    ground: tuple[Label, ...]
    blocks: tuple[tuple[Label, ...], ...]

    @staticmethod
    def of(ground: Sequence[Label], blocks: Iterable[Iterable[Label]]) -> "Partition":
        ground_t = tuple(ground)
        pos = {s: i for i, s in enumerate(ground_t)}
        if len(pos) != len(ground_t):
            raise InputError("partition ground has repeated labels")
        seen: set[Label] = set()
        canon = []
        for raw in blocks:
            blk = tuple(sorted(raw, key=pos.__getitem__))
            if not blk:
                raise InputError("partition block is empty")
            for s in blk:
                if s not in pos:
                    raise InputError(f"label {s!r} not in ground")
                if s in seen:
                    raise InputError(f"label {s!r} appears in two blocks")
                seen.add(s)
            canon.append(blk)
        if len(seen) != len(ground_t):
            missing = [s for s in ground_t if s not in seen]
            raise InputError(f"labels not covered by any block: {missing}")
        canon.sort(key=lambda blk: pos[blk[0]])
        return Partition(ground_t, tuple(canon))

    @staticmethod
    def from_key(ground: Sequence[Label], key: Callable[[Label], Hashable]) -> "Partition":
        """Group ``ground`` by ``key``.

        Scanning the ground in order fills every group in ground order and
        opens the groups in order of their least label, which is already the
        canonical form ``of`` would produce.
        """
        ground_t = tuple(ground)
        if len(set(ground_t)) != len(ground_t):
            raise InputError("partition ground has repeated labels")
        groups: dict[Hashable, list[Label]] = {}
        for s in ground_t:
            groups.setdefault(key(s), []).append(s)
        return Partition(ground_t, tuple(tuple(g) for g in groups.values()))

    def block_index(self, label: Label) -> int:
        for i, blk in enumerate(self.blocks):
            if label in blk:
                return i
        raise InputError(f"label {label!r} not in ground")

    def block_of(self, label: Label) -> tuple[Label, ...]:
        return self.blocks[self.block_index(label)]

    def block_count(self) -> int:
        return len(self.blocks)

    def serialize(self) -> list[list[Label]]:
        return [list(blk) for blk in self.blocks]


def refines(fine: Partition, coarse: Partition) -> bool:
    """True when every block of ``fine`` sits inside a block of ``coarse``."""
    if set(fine.ground) != set(coarse.ground):
        raise InputError("refines: partitions have different grounds")
    lookup = {s: i for i, blk in enumerate(coarse.blocks) for s in blk}
    for blk in fine.blocks:
        target = lookup[blk[0]]
        if any(lookup[s] != target for s in blk):
            return False
    return True


def induced_partition(fam: MapFamily, x: int) -> Partition:
    """Partition of map indices by equality of values at x."""
    if not 0 <= x < fam.source.n_points:
        raise InputError(f"point {x} out of range")
    return Partition.from_key(range(fam.size), key=lambda i: fam.maps[i][x])


def occurrence_keys(fam: MapFamily) -> tuple[list[int], list[dict[int, int]]]:
    """Flat integer keys for the partitions the source points induce.

    For each point x, ``firsts[x]`` maps each value g(x) to the least index
    of a map taking it, and ``ids[x]`` numbers the tuple of those indices
    over the maps, in order of first appearance.  The tuple names the least
    map of each map's block, so two points share an id exactly when they
    induce one partition.
    """
    seen: dict[tuple[int, ...], int] = {}
    ids: list[int] = []
    firsts: list[dict[int, int]] = []
    backwards = range(fam.size - 1, -1, -1)
    for values in zip(*fam.maps):
        # written last, the least index of each value is the one kept
        first = dict(zip(reversed(values), backwards))
        ids.append(seen.setdefault(tuple(map(first.__getitem__, values)), len(seen)))
        firsts.append(first)
    return ids, firsts


def induced_classes(fam: MapFamily) -> dict[Partition, list[int]]:
    """The source points grouped by induced partition, each class in point order.

    Points are grouped by ``occurrence_keys`` ids, so ``induced_partition``
    runs once per class, on its least point.
    """
    groups: dict[int, list[int]] = {}
    for x, i in enumerate(occurrence_keys(fam)[0]):
        groups.setdefault(i, []).append(x)
    return {induced_partition(fam, xs[0]): xs for xs in groups.values()}


def compatible_subset(fam: MapFamily, w: Iterable[int], p: Partition) -> frozenset[int]:
    """Points of ``w`` whose induced partition is exactly ``p``."""
    return frozenset(x for x in w if induced_partition(fam, x) == p)


@dataclass(frozen=True, eq=False)
class DoubledFamily:
    """Two interleaved copies of a family, acting on ordered pairs.

    Label (i, 1) evaluates map i at the first pair coordinate, (i, 2) at the
    second.  The ground order is (0,1), (0,2), (1,1), (1,2), ...
    """

    base: MapFamily
    labels: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = tuple((i, j) for i in range(self.base.size) for j in (1, 2))
        object.__setattr__(self, "labels", labels)

    def value(self, label: tuple[int, int], pair: Pair) -> int:
        i, j = label
        return self.base.maps[i][pair[j - 1]]


def doubled_induced_partition(df: DoubledFamily, pair: Pair) -> Partition:
    """Partition of the doubled labels induced by an off-diagonal pair."""
    x1, x2 = pair
    n = df.base.source.n_points
    if not (0 <= x1 < n and 0 <= x2 < n):
        raise InputError(f"pair {pair} out of range")
    if x1 == x2:
        raise InputError("pair must be off the diagonal")
    # Labels are scanned in ground order, so the groups come out canonical,
    # as in ``Partition.from_key``; the labels are distinct by construction.
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, g in enumerate(df.base.maps):
        groups.setdefault(g[x1], []).append((i, 1))
        groups.setdefault(g[x2], []).append((i, 2))
    return Partition(df.labels, tuple(map(tuple, groups.values())))


def classify(p_hat: Partition) -> str:
    """INTERSECTIVE when some block mixes column-1 and column-2 labels."""
    for blk in p_hat.blocks:
        cols = {j for (_, j) in blk}
        if len(cols) == 2:
            return INTERSECTIVE
    return NON_INTERSECTIVE


def column_partition(p_hat: Partition, j: int) -> Partition:
    """Partition of the map indices seen by column j alone."""
    if j not in (1, 2):
        raise InputError("column must be 1 or 2")
    n = len(p_hat.ground) // 2
    lookup = {s: k for k, blk in enumerate(p_hat.blocks) for s in blk}
    return Partition.from_key(range(n), key=lambda i: lookup[(i, j)])


def mirror_partition(p_hat: Partition) -> Partition:
    """Swap the two columns of a doubled partition."""
    swap = {1: 2, 2: 1}
    blocks = [[(i, swap[j]) for (i, j) in blk] for blk in p_hat.blocks]
    return Partition.of(p_hat.ground, blocks)


def _pair_image_sets(
    df: DoubledFamily, p_hat: Partition, pairs: Iterable[Pair]
) -> tuple[frozenset[int], ...]:
    images: list[set[int]] = [set() for _ in p_hat.blocks]
    lookup = {s: k for k, blk in enumerate(p_hat.blocks) for s in blk}
    for pair in pairs:
        for s in p_hat.ground:
            images[lookup[s]].add(df.value(s, pair))
    return tuple(frozenset(v) for v in images)


def _images_disjoint(images: Sequence[frozenset[int]]) -> bool:
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] & images[b]:
                return False
    return True


@dataclass(frozen=True)
class CoherentBlock:
    """Pairs sharing a doubled partition, with block images pairwise disjoint.

    The image set of label block k collects every target point realized by
    a label of block k on some pair.  The defining invariant is that image
    sets of distinct blocks never meet: ``build`` checks it, and
    ``first_fit_block`` and ``mirror_block`` establish it by construction.
    """

    partition: Partition
    pairs: tuple[Pair, ...]

    @staticmethod
    def build(df: DoubledFamily, p_hat: Partition, pairs: Iterable[Pair]) -> "CoherentBlock":
        pairs_t = tuple(sorted(set(pairs)))
        for pair in pairs_t:
            if doubled_induced_partition(df, pair) != p_hat:
                raise InputError(f"pair {pair} does not induce the block partition")
        if not _images_disjoint(_pair_image_sets(df, p_hat, pairs_t)):
            raise InputError("image sets of distinct blocks intersect")
        return CoherentBlock(p_hat, pairs_t)


def first_fit_block(
    df: DoubledFamily, p_hat: Partition, pairs: Iterable[Pair]
) -> tuple[CoherentBlock, list[Pair]]:
    """The first block of the first-fit packing of ``pairs``, and the pairs left over.

    One greedy pass: a pair joins the block when each of its values is new
    to the block or already held through the same label block of ``p_hat``;
    otherwise it is left over, in order.  First-fit over ``pairs`` is this
    block followed by first-fit over the leftover pairs, so peeling one block
    at a time reproduces ``coherent_decomposition``.

    Every pair must induce ``p_hat`` (the caller's class grouping establishes
    this): all labels of one label block then take one value, so the first
    label stands for its block, a pair alone never holds one value through
    two label blocks, and the first pair always fits.  The block is built
    without ``CoherentBlock.build``'s re-check: the fit test keeps the image
    sets of distinct label blocks disjoint, and ``owner`` is the only record
    of them.
    """
    maps = df.base.maps
    leads = [(k, maps[blk[0][0]], blk[0][1] - 1) for k, blk in enumerate(p_hat.blocks)]
    owner: dict[int, int] = {}     # target point -> the label block holding it
    taken: list[Pair] = []
    rest: list[Pair] = []
    for pair in pairs:
        for k, g, j in leads:
            if owner.get(g[pair[j]], k) != k:
                rest.append(pair)
                break
        else:
            for k, g, j in leads:
                owner[g[pair[j]]] = k
            taken.append(pair)
    return CoherentBlock(p_hat, tuple(sorted(set(taken)))), rest


def coherent_decomposition(
    df: DoubledFamily, p_hat: Partition, pairs: Iterable[Pair]
) -> tuple[CoherentBlock, ...]:
    """Split the compatibility class of ``p_hat`` into coherent blocks.

    ``pairs`` are the members of the class, in the order they are packed.
    Each pair goes to the first existing block that stays coherent with it;
    a pair no block can absorb starts a new one.  A single pair is always
    coherent (its label values already separate blocks), so the fallback
    never fails.  This first-fit order fixes which pairs share a block, and
    so the blocks a run perturbs: any other order produces a different,
    equally valid decomposition and a different certificate.

    The blocks are peeled one at a time by ``first_fit_block``, under its
    precondition: every pair in ``pairs`` induces ``p_hat``.
    """
    blocks = []
    rest = list(pairs)
    while rest:
        block, rest = first_fit_block(df, p_hat, rest)
        blocks.append(block)
    return tuple(blocks)


def mirror_block(block: CoherentBlock) -> CoherentBlock:
    """The same pairs written in the opposite order, columns swapped.

    Swapping the columns turns each pair's doubled partition into its
    mirror and leaves every label block's image set as it was, so the
    mirrored block is coherent because ``block`` is, with no re-check.
    """
    return CoherentBlock(
        mirror_partition(block.partition),
        tuple(sorted((x2, x1) for x1, x2 in block.pairs)),
    )


class TransportResult(NamedTuple):
    transport: dict[int, int]
    zeta: dict[int, int]
    intersecting: frozenset[int]


def intersective_transport(df: DoubledFamily, block: CoherentBlock) -> TransportResult:
    """Transport map and index matching of an intersective block.

    For a label block mixing the columns, every pair (x1, x2) of the block
    satisfies g_{i1}(x1) = g_{i2}(x2); the pair set is then the graph of a
    bijection T from the first projection onto the second, and T satisfies
    g_{i1}(x) = g_{i2}(T(x)) simultaneously for every mixed label pair.  The
    column-2 classes whose block contains a column-1 label inject into the
    column-1 classes; ``zeta`` extends that injection to every column-2 class
    deterministically, smallest unused index first.  Everything is verified
    exhaustively on the block before returning.
    """
    p_hat = block.partition
    if classify(p_hat) != INTERSECTIVE:
        raise InputError("block partition is not intersective")
    if not block.pairs:
        raise InputError("block has no pairs")

    transport: dict[int, int] = {}
    for x1, x2 in block.pairs:
        if x1 in transport and transport[x1] != x2:
            raise InternalCheckError(
                f"intersective block pairs are not a graph: {x1} -> {transport[x1]} and {x2}"
            )
        transport[x1] = x2
    z2 = set(transport.values())
    if len(z2) != len(transport):
        raise InternalCheckError("intersective transport is not injective")
    if z2 != {x2 for _, x2 in block.pairs}:
        raise InternalCheckError("intersective transport misses part of the projection")

    cross = [
        (i1, i2)
        for blk in p_hat.blocks
        for (i1, j1) in blk
        if j1 == 1
        for (i2, j2) in blk
        if j2 == 2
    ]
    if not cross:
        raise InternalCheckError("intersective block has no mixed label pair")
    for i1, i2 in cross:
        for x1, x2 in transport.items():
            if df.base.maps[i1][x1] != df.base.maps[i2][x2]:
                raise InternalCheckError(
                    f"transport property fails for maps ({i1},{i2}) at {x1}"
                )

    p1 = column_partition(p_hat, 1)
    p2 = column_partition(p_hat, 2)
    lookup = {s: k for k, blk in enumerate(p_hat.blocks) for s in blk}
    zeta: dict[int, int] = {}
    intersecting: set[int] = set()
    for t2, blk2 in enumerate(p2.blocks):
        hat_block = p_hat.blocks[lookup[(blk2[0], 2)]]
        partners = [i for (i, j) in hat_block if j == 1]
        if partners:
            intersecting.add(t2)
            zeta[t2] = p1.block_index(partners[0])
    if len(set(zeta.values())) != len(zeta):
        raise InternalCheckError("zeta is not injective on the intersecting classes")
    used = set(zeta.values())
    free = [t1 for t1 in range(p1.block_count()) if t1 not in used]
    for t2 in range(p2.block_count()):
        if t2 not in zeta:
            zeta[t2] = free.pop(0)

    return TransportResult(transport, zeta, frozenset(intersecting))


class ReducedMaps(NamedTuple):
    partition: Partition
    reps: tuple[dict[int, int], ...]
    points: tuple[int, ...]


def reduced_maps(df: DoubledFamily, block: CoherentBlock, j: int) -> ReducedMaps:
    """One representative map per column class, restricted to the projection.

    Maps in the same column-j class agree pointwise on the projection of the
    block's pairs; this is re-verified member by member rather than assumed.
    """
    if j not in (1, 2):
        raise InputError("column must be 1 or 2")
    pts = tuple(sorted({pair[j - 1] for pair in block.pairs}))
    pj = column_partition(block.partition, j)
    reps = []
    for blk in pj.blocks:
        lead = blk[0]
        rep = {x: df.base.maps[lead][x] for x in pts}
        for i in blk[1:]:
            for x in pts:
                if df.base.maps[i][x] != rep[x]:
                    raise InternalCheckError(
                        f"maps {lead} and {i} disagree at {x} inside one column-{j} class"
                    )
        reps.append(rep)
    return ReducedMaps(pj, tuple(reps), pts)
