"""The dimension hypothesis and the stage plan of an action.

The paper's hypothesis is one bound: the points whose orbit has at most N
elements have dimension below (r/2) N, and for a map family every realized
partition class has dimension below (r/2) times its block count.  One
``HypothesisReport`` states it; ``menger check`` prints it, the embedders
refuse a run when it fails and record it in the certificate, and the
verifier recomputes it from the same inputs and the same stage plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import GroupCapError, InputError
from .partitions import induced_classes
from .space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    Perm,
    as_perm,
    orbits,
    restricted_space,
)


@dataclass(frozen=True, eq=False)
class Stage:
    """One stage of a run, built once and read by the gate, the run and the verifier.

    ``points`` are sorted ambient indices, each of ``maps`` is read at those
    points and named by ``labels``, and ``eps_sep`` is the separation scale
    of a restricted stage (None otherwise).  ``family`` is the maps as a
    family from the subspace of the points; a stage without points has none.
    """

    points: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    eps_sep: Fraction | None
    family: MapFamily | None


def family_stage(fam: MapFamily) -> Stage:
    """A family's one stage: every source point, the family's maps and labels."""
    return Stage(tuple(range(fam.source.n_points)), fam.maps, fam.labels, None, fam)


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

    The points are grouped by their induced partition in one pass
    (``induced_classes``), so each class X_P is a lookup, and one check is
    reported per realized class.
    A partition no point realizes has the empty class, and dim of the empty
    set is -1 by construction of the declared dimension (a subspace's
    included).  Its check, -2 < r|P|, holds for every r >= 1, so it is left
    out.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    classes = induced_classes(fam)
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


def check_hypotheses_action(
    action: GroupAction, r: int, plan: Sequence[Stage]
) -> HypothesisReport:
    """Check dim of the n-periodic set against (r/2) n, then each stage of ``plan``.

    n runs up to the largest orbit size; beyond it the periodic sets stop
    growing while the bound keeps increasing.  Orbit sizes are found once,
    and the n-periodic set is read off them as the points whose orbit has
    at most n elements.  Each stage of ``plan`` (``action_stages``) with
    points is then checked through its family, and its checks are labelled
    with the stage index.  A stage of every group element at every point,
    such as the plan of an action without explicit stages, adds no checks:
    a point whose partition has k blocks has an orbit of k elements, so
    each of its classes lies in the k-periodic set, whose dimension, no
    smaller, is already bounded by (r/2) k.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    sizes = [len(orb) for orb in orbits(action)]
    checks = []
    for n in range(1, max(sizes) + 1):
        pn = frozenset(x for x, size in enumerate(sizes) if size <= n)
        d = action.space.dim(pn)
        checks.append(HypothesisCheck("periodic", f"N={n}", len(pn), d, r * n, 2 * d < r * n))
    for k, stage in enumerate(plan):
        # maps equal to the group's elements are read at every point
        if stage.family is not None and set(stage.maps) != set(action.elements or ()):
            report = check_hypotheses_family(stage.family, r)
            checks.extend(replace(c, label=f"{c.label} (stage {k})") for c in report.checks)
    return HypothesisReport(r, tuple(checks), all(c.passed for c in checks))


def default_stage_n(space: FiniteSpace, r: int) -> int:
    """Smallest n with 2 dim(X) < r n, used for the separation threshold."""
    if r < 1:
        raise InputError("r must be at least 1")
    d = space.dim(range(space.n_points))
    return (2 * d) // r + 1


def action_stages(
    action: GroupAction,
    stages: Sequence[tuple[Sequence[Perm], Fraction | float | None]] | None,
    r: int,
) -> list[Stage]:
    """Each stage of an action as a ``Stage``, its family built here once.

    Without explicit stages the whole enumerated group is the one stage; a
    group whose closure was capped needs them.  Every element the caller
    gives must be a permutation of the space's points, and every stage needs
    one; an empty stage list would certify nothing, so it is an input error
    too.  A stage without eps_sep covers the whole space, whose subspace
    copies no metric; one with eps_sep covers the points whose F-orbit
    equals the full orbit or spreads into at least r*n points pairwise
    eps_sep-apart, n being ``default_stage_n``, asked for only when some
    stage has an eps_sep.  A stage's maps are its elements read at its
    points, labelled e0, e1, ...; a stage without points keeps one empty
    map per element and has no family.
    """
    if stages is not None and not stages:
        raise InputError("stages: the list is empty; pass None to use the whole group")
    if stages is None and action.elements is None:
        raise GroupCapError("group closure was capped; pass finite stages (F, eps_sep) explicitly")
    space = action.space
    everything = tuple(range(space.n_points))
    n = default_stage_n(space, r) if any(e is not None for _, e in stages or ()) else 0
    plan = []
    for k, (given, eps_sep) in enumerate(stages or [(action.elements, None)]):
        # the enumerated group's elements are permutations already
        elements = given if stages is None else [
            as_perm(p, space.n_points, f"stage {k} element {e}") for e, p in enumerate(given)
        ]
        if not elements:
            raise InputError(f"stage {k} elements: the list is empty")
        # read at every point, each element is its own map
        pts, maps = everything, tuple(elements)
        if eps_sep is not None:
            eps_sep = Fraction(eps_sep)
            pts = tuple(sorted(restricted_space(action, elements, eps_sep, r, n)))
            maps = tuple(tuple(p[x] for x in pts) for p in elements)
        labels = tuple(f"e{e}" for e in range(len(maps)))
        family = MapFamily.create(space.subspace(pts)[0], space, maps, labels) if pts else None
        plan.append(Stage(pts, maps, labels, eps_sep, family))
    return plan
