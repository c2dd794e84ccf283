"""Finite witness combinatorics used to certify pairwise separation.

The shape of the problem: a set W maps onto two index sets V1 and V2, each
carrying a marked majority subset.  Then either some w in W hits both
majorities (an A-witness), or two elements of a section of the first map
share their second image while their first images differ (a B-witness).
Feeding injective valuations through either witness produces one explicit
coordinate where two orbit tuples differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InputError, InternalCheckError

Label = Hashable


@dataclass(frozen=True, eq=False)
class BipartiteInstance:
    """Surjections F1: W -> V1 and F2: W -> V2 with marked majorities.

    Invariants checked at construction: |V1| >= |V2|, both maps are total and
    surjective, and each marked set is strictly larger than half its side.
    """

    w_labels: tuple[Label, ...]
    v1_labels: tuple[Label, ...]
    v2_labels: tuple[Label, ...]
    f1: dict[Label, Label]
    f2: dict[Label, Label]
    v1_star: frozenset[Label]
    v2_star: frozenset[Label]

    @staticmethod
    def create(
        w_labels: Sequence[Label],
        v1_labels: Sequence[Label],
        v2_labels: Sequence[Label],
        f1: Mapping[Label, Label],
        f2: Mapping[Label, Label],
        v1_star: Iterable[Label],
        v2_star: Iterable[Label],
    ) -> "BipartiteInstance":
        w = tuple(w_labels)
        v1 = tuple(v1_labels)
        v2 = tuple(v2_labels)
        if not w or not v1 or not v2:
            raise InputError("W, V1, V2 must be nonempty")
        if len(set(w)) != len(w) or len(set(v1)) != len(v1) or len(set(v2)) != len(v2):
            raise InputError("label sets contain duplicates")
        if len(v1) < len(v2):
            raise InputError(f"|V1| = {len(v1)} < |V2| = {len(v2)}")
        for name, fmap, side in (("F1", f1, v1), ("F2", f2, v2)):
            side_set = set(side)
            for s in w:
                if s not in fmap:
                    raise InputError(f"{name} undefined on {s!r}")
                if fmap[s] not in side_set:
                    raise InputError(f"{name}({s!r}) = {fmap[s]!r} lands outside its side")
            if {fmap[s] for s in w} != side_set:
                raise InputError(f"{name} is not surjective")
        star1 = frozenset(v1_star)
        star2 = frozenset(v2_star)
        if not star1 <= set(v1) or not star2 <= set(v2):
            raise InputError("marked sets must sit inside their sides")
        if 2 * len(star1) <= len(v1):
            raise InputError(f"|V1*| = {len(star1)} is not a majority of {len(v1)}")
        if 2 * len(star2) <= len(v2):
            raise InputError(f"|V2*| = {len(star2)} is not a majority of {len(v2)}")
        return BipartiteInstance(w, v1, v2, dict(f1), dict(f2), star1, star2)


class Witness(NamedTuple):
    kind: str                 # "A" or "B"
    w: Label
    w_other: Label | None     # second element of a B-witness


def _verify_witness(inst: BipartiteInstance, wit: Witness) -> None:
    if wit.kind == "A":
        if inst.f1[wit.w] not in inst.v1_star or inst.f2[wit.w] not in inst.v2_star:
            raise InternalCheckError(f"A-witness {wit.w!r} fails re-verification")
    elif wit.kind == "B":
        w, w2 = wit.w, wit.w_other
        ok = (
            w != w2
            and inst.f2[w] == inst.f2[w2]
            and inst.f1[w] != inst.f1[w2]
            and inst.f1[w] in inst.v1_star
            and inst.f1[w2] in inst.v1_star
        )
        if not ok:
            raise InternalCheckError(f"B-witness ({w!r}, {w2!r}) fails re-verification")
    else:
        raise InternalCheckError(f"unknown witness kind {wit.kind!r}")


def find_witness(inst: BipartiteInstance) -> Witness:
    """Produce an A- or B-witness; one always exists.

    The search mirrors the counting argument that proves existence.  Take the
    section of F1 sending each v1 to its least preimage in W order, restrict
    it to the marked side to get W*, and scan W* in W order.  If some member
    lands in V2* that is an A-witness (preferred).  Otherwise W* has more
    elements than V2 minus its marked part can absorb, so two members share
    an F2 value while their F1 values differ: a B-witness.
    """
    w_pos = {s: i for i, s in enumerate(inst.w_labels)}
    section: dict[Label, Label] = {}
    for s in inst.w_labels:
        v = inst.f1[s]
        if v not in section:
            section[v] = s
    w_star = sorted((section[v] for v in inst.v1_star), key=w_pos.__getitem__)

    for s in w_star:
        if inst.f2[s] in inst.v2_star:
            wit = Witness("A", s, None)
            _verify_witness(inst, wit)
            return wit

    seen: dict[Label, Label] = {}
    for s in w_star:
        key = inst.f2[s]
        if key in seen:
            wit = Witness("B", seen[key], s)
            _verify_witness(inst, wit)
            return wit
        seen[key] = s
    raise InternalCheckError("no witness found; the majority conditions cannot both hold")


class SeparationProof(NamedTuple):
    w: Label
    left: Hashable
    right: Hashable
    witness: Witness


def check_separation(
    inst: BipartiteInstance,
    phi1: Mapping[Label, Hashable],
    phi2: Mapping[Label, Hashable],
) -> SeparationProof:
    """Turn injective valuations into one explicit separating element of W.

    Preconditions, each reported with its offending element when violated:
    phi1 is injective on V1*, phi2 on V2*, and no w mapping into both marked
    sets composes to equal values.  The returned element w satisfies
    phi1(F1(w)) != phi2(F2(w)) and is re-verified before returning.
    """
    for name, phi, star in (("phi1", phi1, inst.v1_star), ("phi2", phi2, inst.v2_star)):
        by_value: dict[Hashable, Label] = {}
        for v in sorted(star, key=repr):
            if v not in phi:
                raise InputError(f"{name} undefined on marked label {v!r}")
            val = phi[v]
            if val in by_value:
                raise InputError(
                    f"{name} not injective on the marked set: {by_value[val]!r} and "
                    f"{v!r} both map to {val!r}"
                )
            by_value[val] = v
    for s in inst.w_labels:
        if inst.f1[s] in inst.v1_star and inst.f2[s] in inst.v2_star:
            if phi1[inst.f1[s]] == phi2[inst.f2[s]]:
                raise InputError(
                    f"composed valuations agree at {s!r}; the cross condition fails"
                )

    wit = find_witness(inst)
    if wit.kind == "A":
        w = wit.w
    else:
        # At least one end of a B-witness separates: if both composed values
        # agreed, phi1 would glue two distinct marked F1 values through the
        # shared phi2(F2) value.
        first, second = wit.w, wit.w_other
        if phi1[inst.f1[first]] != phi2[inst.f2[first]]:
            w = first
        else:
            w = second
    left = phi1[inst.f1[w]]
    right = phi2[inst.f2[w]]
    if left == right:
        raise InternalCheckError(f"separating element {w!r} fails re-verification")
    return SeparationProof(w, left, right, wit)


def _surjections(n_from: int, n_to: int) -> Iterator[tuple[int, ...]]:
    for fmap in itertools.product(range(n_to), repeat=n_from):
        if len(set(fmap)) == n_to:
            yield fmap


def enumerate_instances(
    max_w: int, max_v1: int, max_v2: int
) -> Iterator[BipartiteInstance]:
    """Every instance with |W| <= max_w, |V1| <= max_v1, |V2| <= max_v2."""
    for nw in range(1, max_w + 1):
        w = tuple(range(nw))
        for nv1 in range(1, min(max_v1, nw) + 1):
            v1 = tuple(range(nv1))
            for nv2 in range(1, min(max_v2, nv1, nw) + 1):
                v2 = tuple(range(nv2))
                stars1 = [
                    frozenset(c)
                    for size in range(nv1 // 2 + 1, nv1 + 1)
                    for c in itertools.combinations(v1, size)
                ]
                stars2 = [
                    frozenset(c)
                    for size in range(nv2 // 2 + 1, nv2 + 1)
                    for c in itertools.combinations(v2, size)
                ]
                for f1 in _surjections(nw, nv1):
                    f1_map = {s: f1[s] for s in w}
                    for f2 in _surjections(nw, nv2):
                        f2_map = {s: f2[s] for s in w}
                        for s1 in stars1:
                            for s2 in stars2:
                                yield BipartiteInstance.create(
                                    w, v1, v2, f1_map, f2_map, s1, s2
                                )


class OracleSummary(NamedTuple):
    instances: int
    a_witnesses: int
    b_witnesses: int
    failures: tuple[str, ...]


def run_witness_oracle(max_w: int = 4, max_v1: int = 3, max_v2: int = 3) -> OracleSummary:
    """Exhaustively exercise find_witness over the bounded instance space."""
    count = 0
    a_count = 0
    b_count = 0
    failures: list[str] = []
    for inst in enumerate_instances(max_w, max_v1, max_v2):
        count += 1
        try:
            wit = find_witness(inst)
            _verify_witness(inst, wit)
            if wit.kind == "A":
                a_count += 1
            else:
                b_count += 1
        except Exception as exc:  # collect, do not stop the sweep
            failures.append(f"instance {count}: {exc}")
    return OracleSummary(count, a_count, b_count, tuple(failures))
