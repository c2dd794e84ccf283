"""File formats, certificate serialization, and bit-exact re-verification.

All exact values travel as strings: a Fraction serializes to "p/q" (or "p"
when the denominator is 1) and parses back unchanged, so certificates round
trip without loss.  Infinite margins serialize as "inf".  JSON documents
are written with sorted keys and a fixed separator convention, which makes
output bytes a pure function of the input data.

Input file formats (one JSON object per file):

  space:      {"metric": [[float]], "simplices": [[int]]?, "dim_labels": [[[int], int]]?}
  family:     {"maps": [[int]], "labels": [str]?, "source": <space object>?}
  action:     {"generators": [[int]], "stages": [{"elements": [[int]], "eps_sep": str|null}]?}
  coords:     {"dim": int, "points": [[float]]}
  observable: {"r": int, "values": [[str|int|float]]}

A certificate file is a single JSON object carrying the claim and what it
is checked from: the run configuration, the hypothesis report, the initial
and final observables, one record per stage (its points, maps and margin),
and a content hash ("cert_sha256") over everything else.  How the run got
there, its block logs, stays in memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from fractions import Fraction
from operator import sub
from typing import Any, Iterator, Sequence

from .covers import Coords
from .errors import InputError, VerificationError
from .perturb import Observable
from .pipeline import (
    EmbeddingCertificate,
    HypothesisCheck,
    HypothesisReport,
    StageRecord,
    check_hypotheses_action,
    check_hypotheses_family,
    stage_points,
    stage_specs,
)
from .space import (
    DEFAULT_EXACT_CAP,
    FiniteSpace,
    GroupAction,
    MapFamily,
    Perm,
    validate_space,
)

CERT_FORMAT = "menger-certificate"


def fr_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_fraction(value: Any, where: str = "value") -> Fraction:
    """Exact rational from a JSON scalar.

    Strings are parsed directly ("3/7", "0.05"); integers exactly; floats go
    through their shortest decimal form, so 0.05 in a file means 1/20.
    """
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


def _margin_str(x: Fraction | float) -> str:
    return "inf" if x == math.inf else fr_str(x)


def _parse_margin(s: Any, where: str) -> Fraction | float:
    if s == "inf":
        return math.inf
    return parse_fraction(s, where)


def _read_json(path: str) -> Any:
    if not os.path.exists(path):
        raise InputError(f"{path}: no such file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _require(obj: Any, key: str, where: str = "") -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where}missing required key {key!r}")
    return obj[key]


def _list(value: Any, where: str) -> list:
    """``value`` itself when it is a JSON list.

    A string is iterable too, so without this check ``"labels": "ab"`` would
    read as two labels; any other value is refused here as well.
    """
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list, got {type(value).__name__}")
    return value


@contextmanager
def _reading(path: str) -> Iterator[None]:
    """Turn any failure to read the document at ``path`` into one input error.

    Input errors get the path in front; a value of the wrong type or form
    (a number where a list belongs, a word where a number belongs) surfaces
    from the conversions as TypeError, ValueError or OverflowError.
    """
    try:
        yield
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed document: {exc}") from exc


def _space_from_doc(doc: Any) -> FiniteSpace:
    """A validated space from its JSON object (a space file or a family's source)."""
    metric = _require(doc, "metric")
    simplices = doc.get("simplices")
    dim_labels = doc.get("dim_labels")
    try:
        if simplices is not None:
            simplices = [
                frozenset(int(v) for v in _list(s, "simplices"))
                for s in _list(simplices, "simplices")
            ]
    except (TypeError, ValueError, InputError) as exc:
        raise InputError("simplices must be a list of lists of point indices") from exc
    try:
        if dim_labels is not None:
            dim_labels = [
                (frozenset(int(v) for v in _list(s, "dim_labels")), int(d))
                for s, d in _list(dim_labels, "dim_labels")
            ]
    except (TypeError, ValueError, InputError) as exc:
        raise InputError("dim_labels must be a list of [points, dim] entries") from exc
    space = FiniteSpace.create(metric, simplices=simplices, dim_labels=dim_labels)
    report = validate_space(space)
    if not report.ok:
        raise InputError(f"invalid metric space: {report.issues[0]}")
    return space


def load_space(path: str) -> FiniteSpace:
    doc = _read_json(path)
    with _reading(path):
        return _space_from_doc(doc)


def save_space(space: FiniteSpace, path: str) -> None:
    doc: dict[str, Any] = {"metric": [[float(v) for v in row] for row in space.metric]}
    if space.simplices is not None:
        doc["simplices"] = [sorted(s) for s in space.simplices]
    if space.dim_labels is not None:
        doc["dim_labels"] = [[sorted(s), d] for s, d in space.dim_labels]
    _write_json(path, doc)


def load_coords(path: str) -> Coords:
    doc = _read_json(path)
    with _reading(path):
        points = [
            _list(p, f"points[{k}]") for k, p in enumerate(_list(_require(doc, "points"), "points"))
        ]
        return Coords.create(int(_require(doc, "dim")), points)


def save_coords(coords: Coords, path: str) -> None:
    _write_json(
        path,
        {"dim": coords.dim, "points": [[float(v) for v in p] for p in coords.points]},
    )


def load_family(path: str, space: FiniteSpace) -> MapFamily:
    doc = _read_json(path)
    with _reading(path):
        maps = [_list(m, f"maps[{k}]") for k, m in enumerate(_list(_require(doc, "maps"), "maps"))]
        labels = doc.get("labels")
        if labels is not None:
            _list(labels, "labels")
        source = _space_from_doc(doc["source"]) if "source" in doc else space
        return MapFamily.create(source, space, maps, labels=labels)


def save_family(fam: MapFamily, path: str) -> None:
    _write_json(path, {"maps": [list(m) for m in fam.maps], "labels": list(fam.labels)})


def load_action(
    path: str, space: FiniteSpace, group_cap: int
) -> tuple[GroupAction, list[tuple[tuple[Perm, ...], Fraction | None]] | None]:
    doc = _read_json(path)
    with _reading(path):
        generators = [
            _list(g, f"generators[{k}]")
            for k, g in enumerate(_list(_require(doc, "generators"), "generators"))
        ]
        action = GroupAction.from_generators(
            space, generators, cap=group_cap, require_closure=False
        )
        if "stages" not in doc:
            return action, None
        if not _list(doc["stages"], "stages"):
            raise InputError("stages: the list is empty; leave it out to use the whole group")
        stages = []
        for k, st in enumerate(doc["stages"]):
            elements = _list(_require(st, "elements", f"stage {k}: "), f"stage {k} elements")
            perms = tuple(
                tuple(int(v) for v in _list(p, f"stage {k} element {e}"))
                for e, p in enumerate(elements)
            )
            for p in perms:
                if sorted(p) != list(range(space.n_points)):
                    raise InputError(f"stage {k} element is not a permutation")
            eps_sep = st.get("eps_sep")
            stages.append(
                (perms, None if eps_sep is None else parse_fraction(eps_sep, f"stage {k} eps_sep"))
            )
    return action, stages


def save_action(generators: Sequence[Perm], path: str) -> None:
    _write_json(path, {"generators": [list(g) for g in generators]})


def load_observable(path: str, space: FiniteSpace) -> Observable:
    doc = _read_json(path)
    with _reading(path):
        r = int(_require(doc, "r"))
        rows = [
            [
                parse_fraction(v, f"values[{y}][{ell}]")
                for ell, v in enumerate(_list(row, f"values[{y}]"))
            ]
            for y, row in enumerate(_list(_require(doc, "values"), "values"))
        ]
        obs = Observable.create(space, rows)
        if obs.r != r:
            raise InputError(f"declared r={r} but rows have {obs.r} values")
    return obs


def save_observable(obs: Observable, path: str) -> None:
    _write_json(
        path,
        {"r": obs.r, "values": [[fr_str(v) for v in row] for row in obs.values]},
    )


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def hash_file(path: str) -> str:
    if not os.path.exists(path):
        raise InputError(f"{path}: no such file")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_json(doc: Any) -> str:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def _values_doc(obs: Observable) -> list[list[str]]:
    return [[fr_str(v) for v in row] for row in obs.values]


def hypothesis_doc(report: HypothesisReport) -> dict[str, Any]:
    return {
        "r": report.r,
        "passed": report.passed,
        "checks": [
            {
                "kind": c.kind,
                "label": c.label,
                "subset_size": c.subset_size,
                "dim": c.dim,
                "bound_num": c.bound_num,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }


def _stage_doc(stage: StageRecord) -> dict[str, Any]:
    return {
        "points": list(stage.points),
        "maps": [list(m) for m in stage.maps],
        "labels": list(stage.labels),
        "f_perms": None if stage.f_perms is None else [list(p) for p in stage.f_perms],
        "eps_sep": None if stage.eps_sep is None else fr_str(stage.eps_sep),
        "margin": _margin_str(stage.margin),
    }


def certificate_payload(
    cert: EmbeddingCertificate,
    config: dict[str, Any] | None = None,
    input_hashes: dict[str, str] | None = None,
) -> dict[str, Any]:
    """The serializable body of a certificate, without its content hash."""
    from . import __version__

    return {
        "format": CERT_FORMAT,
        "version": __version__,
        "kind": cert.kind,
        "r": cert.r,
        "eps": fr_str(cert.eps),
        "seed": cert.seed,
        "backend": cert.backend,
        "config": dict(config or {}),
        "inputs": dict(input_hashes or {}),
        "hypothesis": hypothesis_doc(cert.hypothesis),
        "f0_values": _values_doc(cert.f0),
        "observable_values": _values_doc(cert.observable),
        "stages": [_stage_doc(s) for s in cert.stages],
        "margin": _margin_str(cert.margin),
        "displacement": fr_str(cert.displacement),
    }


def write_certificate(
    path: str,
    cert: EmbeddingCertificate,
    config: dict[str, Any] | None = None,
    input_hashes: dict[str, str] | None = None,
) -> dict[str, Any]:
    payload = certificate_payload(cert, config, input_hashes)
    payload["cert_sha256"] = hashlib.sha256(
        canonical_json(payload).encode("ascii")
    ).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    return payload


def load_certificate(path: str) -> dict[str, Any]:
    doc = _read_json(path)
    # A document that carries a content hash is left to the verifier, so an
    # altered format tag fails verification instead of reading as another file.
    if not isinstance(doc, dict) or (
        doc.get("format") != CERT_FORMAT and "cert_sha256" not in doc
    ):
        raise InputError(f"{path}: not a certificate file")
    return doc


def _parse_values(doc: Any, n: int, r: int, where: str) -> list[list[Fraction]]:
    if not isinstance(doc, list) or len(doc) != n:
        raise VerificationError(f"{where}: expected {n} value rows")
    rows = []
    for y, row in enumerate(doc):
        if len(row) != r:
            raise VerificationError(f"{where}: row {y} has {len(row)} values, expected {r}")
        rows.append([parse_fraction(v, f"{where}[{y}]") for v in row])
    return rows


def _closest_gap(points: list[tuple[int, ...]]) -> int | None:
    """Least L-infinity distance between two of the points; None for fewer than two.

    The verifier's own copy of the margin sweep, so that a certificate is
    never checked by the code that made it.  Sorted, each point is compared
    with its predecessors, nearest first, until their first coordinates
    differ by at least the best distance so far: every earlier point is at
    least that far away in that coordinate alone.  Empty tuples (a stage
    without maps) all coincide.
    """
    pts = sorted(points)
    if len(pts) < 2:
        return None
    best = max(map(abs, map(sub, pts[0], pts[1])), default=0)
    if best == 0:
        return 0
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


def _stage_shape_issues(
    pts: list[int], maps: list[list[int]], f_perms: Any, n: int
) -> list[str]:
    """Reasons a stage's indices cannot be followed into the observable.

    Map values index the n observable rows; element permutations act on the
    whole space of n points and are read at the stage's points.
    """
    issues = []
    for k, m in enumerate(maps):
        if len(m) != len(pts):
            issues.append(f"map {k} has {len(m)} values for {len(pts)} points")
        if not all(0 <= v < n for v in m):
            issues.append(f"map {k} has a value outside 0..{n - 1}")
    if f_perms is not None:
        if not isinstance(f_perms, list) or len(f_perms) != len(maps):
            issues.append("f_perms does not hold one element per map")
        elif not all(isinstance(perm, list) and len(perm) == n for perm in f_perms):
            issues.append(f"f_perms holds an element that is not a list of {n} points")
        if not all(0 <= p < n for p in pts):
            issues.append(f"a point lies outside 0..{n - 1}")
    return issues


def verify_certificate(
    cert: dict[str, Any],
    space: FiniteSpace | None = None,
    action: GroupAction | None = None,
    family: MapFamily | None = None,
    input_hashes: dict[str, str] | None = None,
    stages: list[tuple[tuple[Perm, ...], Fraction | None]] | None = None,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> list[str]:
    """Re-derive everything checkable from a certificate document.

    Returns the list of mismatches (empty means the certificate is sound).
    The content hash is checked first; then every recomputed quantity, the
    margins and the displacement, must match the stored strings exactly.
    When the original input objects are supplied, the hypothesis report,
    the recorded input hashes and each stage's points and maps are
    recomputed too: an action's stages come from ``stages`` (as
    ``load_action`` returns them) with ``exact_cap``, as ``embed`` made them.
    """
    issues: list[str] = []

    stored_hash = cert.get("cert_sha256")
    body = {k: v for k, v in cert.items() if k != "cert_sha256"}
    actual = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
    if stored_hash != actual:
        issues.append("cert_sha256 mismatch: certificate content was altered")
        return issues
    if cert.get("format") != CERT_FORMAT:
        return [f"format: expected {CERT_FORMAT!r}, got {cert.get('format')!r}"]

    try:
        r = int(cert["r"])
        eps = parse_fraction(cert["eps"], "eps")
        n = len(cert["observable_values"])
        f0_rows = _parse_values(cert["f0_values"], n, r, "f0_values")
        new_rows = _parse_values(cert["observable_values"], n, r, "observable_values")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return [f"certificate is missing required data: {exc}"]
    except InputError as exc:
        return [str(exc)]

    # One common denominator turns the margins into integer comparisons.
    den = math.lcm(*(v.denominator for row in new_rows for v in row))
    num_rows = [tuple(v.numerator * (den // v.denominator) for v in row) for row in new_rows]

    for name, rows in (("f0", f0_rows), ("observable", new_rows)):
        for y, row in enumerate(rows):
            for v in row:
                if not 0 <= v <= 1:
                    issues.append(f"{name} value out of [0, 1] at point {y}")

    displacement = Fraction(0)
    for row0, row1 in zip(f0_rows, new_rows):
        for a, b in zip(row0, row1):
            if abs(a - b) > displacement:
                displacement = abs(a - b)
    if fr_str(displacement) != cert.get("displacement"):
        issues.append(
            f"displacement mismatch: recomputed {fr_str(displacement)}, "
            f"stored {cert.get('displacement')}"
        )
    if displacement > eps:
        issues.append(f"displacement {fr_str(displacement)} exceeds eps {fr_str(eps)}")

    # the total margin is recomputed only when every stage could be read
    complete = True
    stages_doc = cert.get("stages", [])
    if not isinstance(stages_doc, list):
        issues.append("stages: expected a list of stage records")
        stages_doc = []
        complete = False
    elif not stages_doc:
        issues.append("stages: the certificate holds no stage record, so it claims nothing")
    stage_margins: list[Fraction | float] = []
    for s_idx, st in enumerate(stages_doc):
        where = f"stage {s_idx}"
        try:
            pts = [int(p) for p in st["points"]]
            maps = [[int(v) for v in m] for m in st["maps"]]
            f_perms = st.get("f_perms")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            issues.append(f"{where} is missing required data: {exc}")
            complete = False
            continue
        shape = _stage_shape_issues(pts, maps, f_perms, n)
        if shape:
            issues.extend(f"{where}: {msg}" for msg in shape)
            complete = False
            continue
        if f_perms is not None:
            for k, perm in enumerate(f_perms):
                derived = [perm[p] for p in pts]
                if derived != maps[k]:
                    issues.append(f"{where}: map {k} disagrees with its element")
        best = _closest_gap(
            [tuple(v for m in maps for v in num_rows[m[u]]) for u in range(len(pts))]
        )
        stage_margin = math.inf if best is None else Fraction(best, den)
        stage_margins.append(stage_margin)
        if _margin_str(stage_margin) != st.get("margin"):
            issues.append(
                f"{where}: margin mismatch: recomputed {_margin_str(stage_margin)}, "
                f"stored {st.get('margin')}"
            )
    total = min(stage_margins) if stage_margins else math.inf
    if complete and _margin_str(total) != cert.get("margin"):
        issues.append(
            f"margin mismatch: recomputed {_margin_str(total)}, stored {cert.get('margin')}"
        )

    if input_hashes:
        recorded = cert.get("inputs", {})
        if not isinstance(recorded, dict):
            issues.append("inputs: expected an object of input hashes")
        else:
            for key, value in input_hashes.items():
                if key not in recorded:
                    issues.append(f"inputs: certificate records no hash for {key!r}")
                elif recorded[key] != value:
                    issues.append(f"input hash mismatch for {key!r}")

    if space is not None and (action is not None or family is not None):
        stored = cert.get("hypothesis", {})
        report = expected = None
        try:
            if cert.get("kind") == "action" and action is not None:
                # embed_equivariant always checks up to the largest orbit
                report = check_hypotheses_action(action, r)
                specs = stage_specs(action, stages)
                expected = [
                    {
                        "points": list(pts),
                        "f_perms": [list(p) for p in f_perms],
                        "eps_sep": None if eps_sep is None else fr_str(eps_sep),
                    }
                    for (f_perms, eps_sep), pts in zip(
                        specs, stage_points(action, specs, r, exact_cap)
                    )
                ]
            elif family is not None:
                report = check_hypotheses_family(family, r)
                expected = [
                    {
                        "points": list(range(family.source.n_points)),
                        "maps": [list(m) for m in family.maps],
                    }
                ]
        except InputError as exc:
            issues.append(f"recomputation from the inputs failed: {exc}")
        if report is not None and hypothesis_doc(report) != stored:
            issues.append("hypothesis report does not match the provided inputs")
        if expected is not None:
            issues.extend(_stage_input_issues(stages_doc, expected))

    return issues


def _stage_input_issues(stored: list[Any], expected: list[dict[str, Any]]) -> list[str]:
    """Where the stored stage records differ from the ones the inputs give."""
    issues = []
    if len(stored) != len(expected):
        issues.append(
            f"stages: the certificate holds {len(stored)} stage records, "
            f"the inputs give {len(expected)}"
        )
    for s_idx, (st, want) in enumerate(zip(stored, expected)):
        for key, value in want.items():
            if not isinstance(st, dict) or st.get(key) != value:
                issues.append(f"stage {s_idx}: {key!r} does not match the provided inputs")
    return issues


def write_orbit_csv(path: str, payload: dict[str, Any]) -> list[str]:
    """Orbit map tables of a certificate payload as CSV, one file per stage.

    Columns: the point index, then for every map of the stage (enumeration
    order) its r observable coordinates, exact "p/q" strings read from
    ``observable_values`` at the map's value.  Returns the list of files
    written; stages beyond the first get a numbered suffix.
    """
    values = payload["observable_values"]
    r = int(payload["r"])
    written = []
    root, ext = os.path.splitext(path)
    if ext.lower() != ".csv":
        root, ext = path, ".csv"
    for s_idx, st in enumerate(payload["stages"]):
        target = f"{root}{ext}" if s_idx == 0 else f"{root}.stage{s_idx}{ext}"
        header = ["point"]
        for label in st["labels"]:
            for ell in range(r):
                header.append(f"{label}[{ell}]")
        with open(target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for u, point in enumerate(st["points"]):
                row: list[Any] = [point]
                for m in st["maps"]:
                    row.extend(values[m[u]])
                writer.writerow(row)
        written.append(target)
    return written
