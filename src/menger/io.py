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

orjson decodes the space, family and coords files, json the rest, whose
exact integers orjson could turn into floats (see ``_read_json``).

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
import struct
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, starmap
from operator import getitem, sub
from typing import TYPE_CHECKING, Any, Iterator, Sequence, TextIO

import numpy as np
import orjson

from .covers import Coords
from .errors import InputError, VerificationError
from .gate import (
    HypothesisReport,
    Stage,
    action_stages,
    check_hypotheses_action,
    check_hypotheses_family,
    family_stage,
)
from .perturb import Observable
from .space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    Perm,
    as_index,
    as_indices,
    as_perm,
    validate_space,
    within,
)

if TYPE_CHECKING:
    from .pipeline import EmbeddingCertificate

CERT_FORMAT = "menger-certificate"


def fr_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_ratio(value: Any, where: str = "value") -> tuple[int, int]:
    """Exact rational from a JSON scalar, as (numerator, positive denominator).

    The one rule for exact values.  A string in the spelling ``fr_str``
    writes, ASCII ``-?[0-9]+`` with an optional ``/[0-9]+``, is split straight
    into its two integers, unreduced ("2/4" gives (2, 4)).  Any other string
    is read by ``Fraction`` ("0.05", " 1/3"); integers are exact; floats go
    through their shortest decimal form, so 0.05 in a file means 1/20; bools
    and everything else are refused.
    """
    if isinstance(value, str) and value.isascii():
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den or 1)
            except ValueError:
                pass  # more digits than int converts: refused below, as Fraction does
            else:
                if q:
                    return p, q
    try:
        if isinstance(value, str):
            x = Fraction(value)
        elif isinstance(value, bool):
            raise ValueError("boolean is not a number")
        elif isinstance(value, int):
            return value, 1
        elif isinstance(value, float):
            x = Fraction(str(value))
        else:
            raise ValueError("not a number")
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse {value!r} as a rational") from exc
    return x.numerator, x.denominator


def parse_fraction(value: Any, where: str = "value") -> Fraction:
    """``parse_ratio``'s value as a Fraction."""
    return Fraction(*parse_ratio(value, where))


def _margin_str(x: Fraction | float) -> str:
    return "inf" if x == math.inf else fr_str(x)


def _read_bytes(path: str) -> bytes:
    """The whole file at ``path``; a failure to read it is one input error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None


# orjson decodes with one native stack frame per nesting level (about 64
# bytes each in orjson 3.8) and no depth limit of its own, so a deep enough
# document crashes the interpreter.  Nesting depth is at most the number of
# opening brackets; 10 000 levels need well under 1 MiB of stack, and a
# document with more brackets goes to json, whose recursion limit refuses
# deep nesting in one line.
_ORJSON_MAX_OPENERS = 10_000


# Bytes compared at a time by ``_openers``, the size of its largest temporary.
_OPENER_SLICE = 1 << 20


def _openers(data: bytes) -> int:
    """The number of ``[`` and ``{`` bytes in ``data``, strings included."""
    b = np.frombuffer(data, np.uint8)
    return int(sum(
        np.count_nonzero(s == ord("[")) + np.count_nonzero(s == ord("{"))
        for s in (b[k:k + _OPENER_SLICE] for k in range(0, len(b), _OPENER_SLICE))
    ))


def _read_json(
    path: str, record: dict[str, str] | None = None, role: str = "", fast: bool = False
) -> Any:
    """The JSON document at ``path``, read once.

    With ``record``, the SHA-256 of exactly the bytes parsed is stored
    there under ``role``.  With ``fast``, orjson decodes the bytes first.
    It gives json's value, type for type, for every document it accepts,
    except that an integer literal outside [-2**63, 2**64) comes back as a
    float.  So only files of floats and indices (space, family and coords)
    set it, never a file whose exact integers must survive (f0, action and
    certificate).  A document orjson refuses (NaN, 1e400, invalid UTF-8, a
    lone surrogate, ...), or one with more opening brackets than
    ``_ORJSON_MAX_OPENERS``, is read by json as without ``fast``; a document
    no longer than that many bytes is not counted.
    """
    data = _read_bytes(path)
    if record is not None:
        record[role] = hashlib.sha256(data).hexdigest()
    # a document of at most _ORJSON_MAX_OPENERS bytes holds no more openers
    if fast and (
        len(data) <= _ORJSON_MAX_OPENERS or _openers(data) <= _ORJSON_MAX_OPENERS
    ):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass    # json reads it, or refuses it with its own message
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:   # bad JSON or UTF-8, or an integer past int's digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:      # json.loads recurses once per nesting level
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None


@contextmanager
def _output(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened for writing text; a failure to open or write it is one input error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from None


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
    except RecursionError:  # repr or str of a value nested past the recursion limit
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None


def _numbers(rows: Any, name: str) -> None:
    """Refuse an entry of a list of lists that is not a JSON int or float.

    ``float`` and numpy would read the strings "1.0" and " 1e0 " and the
    bool true as 1.0.  One C-level pass over the entry types of all rows
    settles a clean matrix; only a matrix that fails it is walked row by row
    to name its first bad entry, in row-major order.  Rows that are not
    lists are left to the caller's shape checks.
    """
    if not isinstance(rows, list):
        return
    try:
        if set(map(type, chain.from_iterable(rows))) <= {int, float}:
            return
    except TypeError:   # a row that is not iterable, skipped below
        pass
    for i, row in enumerate(rows):
        if isinstance(row, list) and not set(map(type, row)) <= {int, float}:
            j, v = next((j, v) for j, v in enumerate(row) if type(v) not in (int, float))
            raise InputError(f"{name} must be a matrix of numbers: {name}[{i}][{j}] is {v!r}")


def _packed(metric: Any) -> np.ndarray | None:
    """``metric`` as a read-only n x n float64 array, packed row by row in C.

    Only a list of n rows, each a list of n entries, is packed.  ``struct``
    refuses a string, null, list or object, and an int past float range;
    such a matrix, or any other shape, gives None.  It reads an int as
    ``float`` does, which is what ``np.array`` gives, and keeps the bits of
    -0.0 and NaN; but it also reads false as 0.0 and true as 1.0, which
    ``_hides_bool`` looks for.
    """
    if not isinstance(metric, list) or not metric:
        return None
    n = len(metric)
    try:
        buf = b"".join(starmap(struct.Struct(f"{n}d").pack, metric))
    except (struct.error, TypeError, OverflowError):
        return None
    return np.ndarray((n, n), float, buf)


def _hides_bool(metric: list[list[Any]], m: np.ndarray) -> bool:
    """Whether a bool sits in ``metric``, packed as ``m``, which passes the axioms.

    A bool packs to 0.0 or 1.0.  Under the axioms 0.0 sits on the diagonal
    only, so the diagonal's types and those of the entries equal to 1.0
    settle it, in place of every entry's.
    """
    n = len(metric)
    if bool in map(type, map(getitem, metric, range(n))):
        return True
    ones = m == 1.0
    if not np.count_nonzero(ones):
        return False
    return any(type(metric[k // n][k % n]) is bool for k in np.flatnonzero(ones).tolist())


def _dimension_data(doc: dict[str, Any]) -> tuple[list | None, list | None]:
    """A space object's ``simplices`` and ``dim_labels``, checked to be lists of lists.

    ``FiniteSpace.create`` reads the point indices and dimensions themselves.
    """
    simplices = doc.get("simplices")
    dim_labels = doc.get("dim_labels")
    try:
        if simplices is not None:
            simplices = [_list(s, "simplices") for s in _list(simplices, "simplices")]
    except InputError as exc:
        raise InputError("simplices must be a list of lists of point indices") from exc
    try:
        if dim_labels is not None:
            dim_labels = [(_list(s, "dim_labels"), d) for s, d in _list(dim_labels, "dim_labels")]
    except (TypeError, ValueError, InputError) as exc:
        raise InputError("dim_labels must be a list of [points, dim] entries") from exc
    return simplices, dim_labels


def _space_from_doc(doc: Any) -> FiniteSpace:
    """A space from its JSON object (a space file or a family's source).

    The matrix must pass ``axiom_issues``, the O(n^2) axioms.  The cubic
    triangle scan is left to ``require_metric``: the certified claim, an
    injective orbit map within eps of f0, reads no distance.

    A clean matrix is packed in one pass (``_packed``) and its entries'
    types are read only where a bool can hide.  Any other matrix takes the
    walk of ``_numbers`` first, which names its first bad entry, and then
    the checks in the same order as for a clean one.
    """
    metric = _require(doc, "metric")
    packed = _packed(metric)
    space = None
    if packed is not None:
        try:
            space = FiniteSpace.create(packed, *_dimension_data(doc))
        except (InputError, RecursionError):    # raised again below, after the walk
            pass
        else:
            if not space.axiom_issues() and not _hides_bool(metric, packed):
                return space
    _numbers(metric, "metric")
    if space is None:
        space = FiniteSpace.create(metric, *_dimension_data(doc))
    issues = space.axiom_issues()
    if issues:
        raise InputError(f"invalid metric space: {issues[0]}")
    return space


def require_metric(space: FiniteSpace, path: str) -> None:
    """Refuse ``space``, loaded from ``path``, unless ``validate_space`` passes it.

    The exhaustive triangle scan, which ``menger check`` runs as the front
    door; its first issue is the one input error.
    """
    report = validate_space(space)
    if not report.ok:
        raise InputError(f"{path}: invalid metric space: {report.issues[0]}")


def load_space(path: str, record: dict[str, str] | None = None) -> FiniteSpace:
    """The space at ``path``, its axioms checked; ``record`` receives its hash as ``"space"``."""
    doc = _read_json(path, record, "space", fast=True)
    with _reading(path):
        return _space_from_doc(doc)


def save_space(space: FiniteSpace, path: str) -> None:
    doc: dict[str, Any] = {"metric": [[float(v) for v in row] for row in space.metric]}
    if space.simplices is not None:
        doc["simplices"] = [sorted(s) for s in space.simplices]
    if space.dim_labels is not None:
        doc["dim_labels"] = [[sorted(s), d] for s, d in space.dim_labels]
    write_json(path, doc)


def load_coords(path: str, record: dict[str, str] | None = None) -> Coords:
    """The declared coordinates at ``path``; ``record`` receives their hash as ``"coords"``."""
    doc = _read_json(path, record, "coords", fast=True)
    with _reading(path):
        points = [
            _list(p, f"points[{k}]") for k, p in enumerate(_list(_require(doc, "points"), "points"))
        ]
        _numbers(points, "points")
        return Coords.create(as_index(_require(doc, "dim"), "dim"), points)


def load_family(
    path: str, space: FiniteSpace, record: dict[str, str] | None = None
) -> MapFamily:
    """The map family at ``path`` into ``space``; ``record`` receives its hash as ``"family"``."""
    doc = _read_json(path, record, "family", fast=True)
    with _reading(path):
        maps = [_list(m, f"maps[{k}]") for k, m in enumerate(_list(_require(doc, "maps"), "maps"))]
        labels = doc.get("labels")
        if labels is not None:
            _list(labels, "labels")
        source = _space_from_doc(doc["source"]) if "source" in doc else space
        return MapFamily.create(source, space, maps, labels=labels)


def save_family(fam: MapFamily, path: str) -> None:
    write_json(path, {"maps": [list(m) for m in fam.maps], "labels": list(fam.labels)})


def load_action(
    path: str, space: FiniteSpace, group_cap: int, record: dict[str, str] | None = None
) -> tuple[GroupAction, list[tuple[tuple[Perm, ...], Fraction | None]] | None]:
    """The action at ``path`` and its stages (None without a ``stages`` key);
    ``record`` receives the file's hash as ``"action"``."""
    doc = _read_json(path, record, "action")
    with _reading(path):
        generators = [
            _list(g, f"generators[{k}]")
            for k, g in enumerate(_list(_require(doc, "generators"), "generators"))
        ]
        action = GroupAction.from_generators(space, generators, cap=group_cap)
        if "stages" not in doc:
            return action, None
        if not _list(doc["stages"], "stages"):
            raise InputError("stages: the list is empty; leave it out to use the whole group")
        stages = []
        for k, st in enumerate(doc["stages"]):
            elements = _list(_require(st, "elements", f"stage {k}: "), f"stage {k} elements")
            if not elements:
                raise InputError(f"stage {k} elements: the list is empty")
            perms = []
            for e, raw in enumerate(elements):
                where = f"stage {k} element {e}"
                perms.append(as_perm(_list(raw, where), space.n_points, where))
            eps_sep = st.get("eps_sep")
            if eps_sep is not None:
                eps_sep = parse_fraction(eps_sep, f"stage {k} eps_sep")
                if eps_sep <= 0:
                    raise InputError(f"stage {k} eps_sep: must be positive, got {fr_str(eps_sep)}")
            stages.append((tuple(perms), eps_sep))
    return action, stages


def save_action(generators: Sequence[Perm], path: str) -> None:
    write_json(path, {"generators": [list(g) for g in generators]})


def load_observable(
    path: str, space: FiniteSpace, record: dict[str, str] | None = None
) -> Observable:
    """The observable at ``path``; ``record`` receives its hash as ``"f0"``.

    The values go from ``parse_ratio`` straight into the observable's
    integer table, with no Fraction in between.
    """
    doc = _read_json(path, record, "f0")
    with _reading(path):
        r = as_index(_require(doc, "r"), "r")
        rows = [
            [
                parse_ratio(v, f"values[{y}][{ell}]")
                for ell, v in enumerate(_list(row, f"values[{y}]"))
            ]
            for y, row in enumerate(_list(_require(doc, "values"), "values"))
        ]
        obs = Observable.from_ratios(space, rows)
        if obs.r != r:
            raise InputError(f"declared r={r} but rows have {obs.r} values")
    return obs


def save_observable(obs: Observable, path: str) -> None:
    write_json(path, {"r": obs.r, "values": _values_doc(obs)})


def write_json(path: str, doc: Any) -> None:
    """``doc`` as indented JSON with sorted keys, and a final newline."""
    with _output(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
        fh.write("\n")


def hash_file(path: str) -> str:
    """SHA-256 of the file at ``path``, for an input that is not loaded."""
    return hashlib.sha256(_read_bytes(path)).hexdigest()


def canonical_json(doc: Any) -> str:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def _values_doc(obs: Observable) -> list[list[str]]:
    """Each value of the observable in ``fr_str``'s spelling, reduced by one gcd."""
    den = obs.den
    out = []
    for row in obs.rows:
        cells = []
        for a in row:
            g = math.gcd(a, den)
            q = den // g
            cells.append(str(a // g) if q == 1 else f"{a // g}/{q}")
        out.append(cells)
    return out


def hypothesis_doc(report: HypothesisReport) -> dict[str, Any]:
    """The report as its record spells it: each check with its fields by name."""
    checks = [dict(vars(c)) for c in report.checks]
    return {"r": report.r, "passed": report.passed, "checks": checks}


def _stage_doc(stage: Stage) -> dict[str, Any]:
    """A stage's points, maps and eps_sep as its record spells them."""
    return {
        "points": list(stage.points),
        "maps": [list(m) for m in stage.maps],
        "eps_sep": None if stage.eps_sep is None else fr_str(stage.eps_sep),
    }


def certificate_payload(
    cert: EmbeddingCertificate,
    config: dict[str, Any] | None = None,
    input_hashes: dict[str, str] | None = None,
) -> dict[str, Any]:
    """The serializable body of a certificate, without its content hash."""
    from . import __version__

    f0_values = _values_doc(cert.f0)
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
        "f0_values": f0_values,
        # an observable no block perturbed is f0 itself, spelled once
        "observable_values": (
            f0_values if cert.observable is cert.f0 else _values_doc(cert.observable)
        ),
        "stages": [
            {
                **_stage_doc(s.stage),
                "labels": list(s.stage.labels),
                "margin": _margin_str(s.margin),
            }
            for s in cert.stages
        ],
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
    body = canonical_json(payload)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    payload["cert_sha256"] = digest
    # "cert_sha256" sorts between "backend", whose value is a string, and
    # "config", so splicing it in gives canonical_json of the whole payload.
    at = body.index(',"config":')
    with _output(path) as fh:
        fh.write(f'{body[:at]},"cert_sha256":"{digest}"{body[at:]}\n')
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


def _ratio_rows(doc: Any, n: int, r: int, where: str) -> list[list[tuple[int, int]]]:
    if not isinstance(doc, list) or len(doc) != n:
        raise VerificationError(f"{where}: expected {n} value rows")
    rows = []
    for y, row in enumerate(doc):
        if not isinstance(row, list):
            raise VerificationError(f"{where}: row {y} is not a list of values")
        if len(row) != r:
            raise VerificationError(f"{where}: row {y} has {len(row)} values, expected {r}")
        at = f"{where}[{y}]"
        rows.append([parse_ratio(v, at) for v in row])
    return rows


def _same_table(a: Any, b: Any) -> bool:
    """Whether two value tables are equal entry for entry and type for type.

    ``==`` alone would match ``true``, which ``parse_ratio`` refuses, with
    ``1``; and an integer with the float of its value, which it reads
    through the float's shortest decimal (1e23 as 10**23).
    """
    return a == b and list(map(type, chain.from_iterable(a))) == list(
        map(type, chain.from_iterable(b))
    )


def _stage_tuples(
    cols: list[list[int]], maps: list[tuple[int, ...]], count: int
) -> list[tuple[int, ...]]:
    """The orbit tuple of each of a stage's ``count`` points.

    ``cols`` holds one column of numerators per coordinate; each is read at
    every map's values in C, and the columns zip into tuples in map order,
    then coordinate order.  Without maps or coordinates every tuple is empty.
    """
    if not (maps and cols):
        return [()] * count
    return list(zip(*[map(col.__getitem__, m) for m in maps for col in cols]))


def _closest_gap(points: list[tuple[int, ...]]) -> int | None:
    """Least L-infinity distance between two of the points; None for fewer than two.

    The verifier's own copy of the margin sweep, so that a certificate is
    never checked by the code that made it.  Sorted, each point is compared
    with its predecessors, nearest first, until their first coordinates
    differ by at least the best distance so far: every earlier point is at
    least that far away in that coordinate alone.  A predecessor whose
    second or third coordinate differs by the best distance is passed over
    without its full distance, which could not be smaller.  Empty tuples (a
    stage without maps) all coincide.
    """
    pts = sorted(points)
    if len(pts) < 2:
        return None
    best = max(map(abs, map(sub, pts[0], pts[1])), default=0)
    if best == 0:
        return 0
    width = len(pts[0])
    second, third = min(1, width - 1), min(2, width - 1)
    for j in range(2, len(pts)):
        q = pts[j]
        head, q2, q3 = q[0], q[second], q[third]
        for i in range(j - 1, -1, -1):
            p = pts[i]
            if head - p[0] >= best:
                break
            if abs(q2 - p[second]) >= best or abs(q3 - p[third]) >= best:
                continue
            d = max(map(abs, map(sub, p, q)))
            if d < best:
                best = d
    return best


def _stage_shape_issues(pts: tuple[int, ...], maps: list[tuple[int, ...]], n: int) -> list[str]:
    """Reasons a stage's indices cannot be followed into the observable.

    Map values index the n observable rows, one value per point.  The
    points are strictly increasing within 0..n-1, the form embed writes.
    """
    issues = []
    if not within(pts, n):
        issues.append(f"a point lies outside 0..{n - 1}")
    elif any(a >= b for a, b in zip(pts, pts[1:])):
        issues.append("points are not strictly increasing")
    for k, m in enumerate(maps):
        if len(m) != len(pts):
            issues.append(f"map {k} has {len(m)} values for {len(pts)} points")
        if not within(m, n):
            issues.append(f"map {k} has a value outside 0..{n - 1}")
    return issues


def verify_certificate(
    cert: dict[str, Any],
    space: FiniteSpace | None = None,
    action: GroupAction | None = None,
    family: MapFamily | None = None,
    input_hashes: dict[str, str] | None = None,
    stages: list[tuple[tuple[Perm, ...], Fraction | None]] | None = None,
) -> list[str]:
    """Re-derive everything checkable from a certificate document.

    Returns the list of mismatches (empty means the certificate is sound);
    a malformed document gives issues too, never an exception.  The
    content hash is checked first; then every recomputed quantity, the
    margins and the displacement, must match the stored strings exactly,
    every stage margin must be positive, ``eps`` must be positive and
    ``kind`` must be "family" or "action".  With ``space`` each value
    table holds one row per point.  When the original input objects are
    supplied, the hypothesis report, the recorded input hashes and each
    stage's points, maps and eps_sep are recomputed too, and ``kind`` must
    name the input given; each input rebuilds its own plan, whatever
    ``kind`` says: a family's one stage (``family_stage``), or an action's
    stages from ``stages`` (as ``load_action`` returns them) by the
    embedder's own plan, ``action_stages``, on which the action's report
    is recomputed (``check_hypotheses_action``).  A stage key the format no
    longer writes, such as 0.6.0's element permutations, is covered by the
    hash and otherwise ignored.
    """
    issues: list[str] = []

    stored_hash = cert.get("cert_sha256")
    body = {k: v for k, v in cert.items() if k != "cert_sha256"}
    try:
        actual = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
    except ValueError:      # NaN or infinity, which no certificate is written with
        actual = None
    if actual is None or stored_hash != actual:
        issues.append("cert_sha256 mismatch: certificate content was altered")
        return issues
    if cert.get("format") != CERT_FORMAT:
        return [f"format: expected {CERT_FORMAT!r}, got {cert.get('format')!r}"]

    try:
        r = as_index(cert["r"], "r")
    except (KeyError, InputError) as exc:
        return [f"certificate is missing required data: {exc}"]
    try:
        eps = parse_fraction(cert["eps"], "eps")
        f0_doc, new_doc = cert["f0_values"], cert["observable_values"]
        if space is not None:
            n = space.n_points
        elif isinstance(new_doc, list):
            n = len(new_doc)
        else:
            raise VerificationError("observable_values: expected a list of value rows")
        f0_rows = _ratio_rows(f0_doc, n, r, "f0_values")
        # an unperturbed observable is parsed once
        new_rows = (
            f0_rows if _same_table(f0_doc, new_doc)
            else _ratio_rows(new_doc, n, r, "observable_values")
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return [f"certificate is missing required data: {exc}"]
    except (InputError, VerificationError) as exc:
        return [str(exc)]
    kind = cert.get("kind")
    if kind not in ("family", "action"):
        issues.append(f"kind: expected 'family' or 'action', got {kind!r}")
    if eps <= 0:
        issues.append(f"eps {fr_str(eps)} is not positive")

    for name, rows in (("f0", f0_rows), ("observable", new_rows)):
        for y, row in enumerate(rows):
            for p, q in row:
                if not 0 <= p <= q:
                    issues.append(f"{name} value out of [0, 1] at point {y}")

    # One common denominator turns the displacement and the margins into
    # integer comparisons, made on one numerator column per coordinate.
    den = math.lcm(*(q for rows in (f0_rows, new_rows) for row in rows for _, q in row))
    cols = [[p * (den // q) for p, q in col] for col in zip(*new_rows)]
    f0_cols = (
        cols if new_rows is f0_rows else [[p * (den // q) for p, q in col] for col in zip(*f0_rows)]
    )
    gap = max((max(map(abs, map(sub, c0, c1))) for c0, c1 in zip(f0_cols, cols)), default=0)
    displacement = Fraction(gap, den)
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
            pts = as_indices(st["points"], "points")
            maps = [as_indices(m, f"map {k}") for k, m in enumerate(st["maps"])]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            issues.append(f"{where} is missing required data: {exc}")
            complete = False
            continue
        except InputError as exc:
            issues.append(f"{where}: {exc}")
            complete = False
            continue
        shape = _stage_shape_issues(pts, maps, n)
        if shape:
            issues.extend(f"{where}: {msg}" for msg in shape)
            complete = False
            continue
        best = _closest_gap(_stage_tuples(cols, maps, len(pts)))
        stage_margin = math.inf if best is None else Fraction(best, den)
        stage_margins.append(stage_margin)
        if _margin_str(stage_margin) != st.get("margin"):
            issues.append(
                f"{where}: margin mismatch: recomputed {_margin_str(stage_margin)}, "
                f"stored {st.get('margin')}"
            )
        if stage_margin == 0:
            issues.append(f"{where}: margin is 0: two stage points share an orbit tuple")
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

    # each input given rebuilds its own plan, whatever the certificate's kind says
    for name, given in (("action", action), ("family", family)):
        if space is None or given is None:
            continue
        if kind != name:
            issues.append(f"kind: {kind!r} does not match the {name} given")
        try:
            if isinstance(given, GroupAction):
                plan = action_stages(given, stages, r)
                report = check_hypotheses_action(given, r, plan)
            else:
                plan = [family_stage(given)]
                report = check_hypotheses_family(given, r)
        except InputError as exc:
            issues.append(f"recomputation from the inputs failed: {exc}")
            continue
        # compared as text, since == takes true for 1 and 9.0 for 9
        if canonical_json(hypothesis_doc(report)) != canonical_json(cert.get("hypothesis", {})):
            issues.append("hypothesis report does not match the provided inputs")
        issues.extend(_stage_input_issues(stages_doc, [_stage_doc(s) for s in plan]))

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
    written; stages beyond the first get a numbered suffix.  The header,
    which holds the map labels, goes through ``csv.writer``; a body field is
    a point index or an ``fr_str`` spelling, neither of which ever needs
    quoting, so each body row is joined as the writer would spell it.
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
        lines = []
        for u, point in enumerate(st["points"]):
            row = [str(point)]
            for m in st["maps"]:
                row.extend(values[m[u]])
            lines.append(",".join(row) + "\r\n")
        with _output(target, newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.write("".join(lines))
        written.append(target)
    return written
