"""Finite witness combinatorics used to certify pairwise separation.

The shape of the problem: a set W maps onto two index sets V1 and V2, each
carrying a marked majority subset.  Then either some w in W hits both
majorities (an A-witness), or two elements of a section of the first map
share their second image while their first images differ (a B-witness).
Feeding injective valuations through either witness produces one explicit
coordinate where two orbit tuples differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

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

