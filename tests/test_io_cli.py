import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    NON_METRIC_5,
    NON_METRIC_5_VIOLATION,
    naive_stage_margin,
    reference_parse_fraction,
    reference_value_issues,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from menger import cli as cli_module
from menger import io as io_module
from menger import space as space_module
from menger.cli import main
from menger.errors import InputError
from menger.gate import action_stages, check_hypotheses_action, check_hypotheses_family
from menger.fixtures import antipodal_perm, circle_space, path_space, rotation_perm
from menger.io import (
    CERT_FORMAT,
    canonical_json,
    certificate_payload,
    fr_str,
    hash_file,
    hypothesis_doc,
    load_action,
    load_certificate,
    load_family,
    load_observable,
    load_space,
    parse_fraction,
    parse_ratio,
    save_action,
    save_family,
    save_observable,
    save_space,
    verify_certificate,
    write_certificate,
    write_orbit_csv,
)
from menger.perturb import Observable
from menger.pipeline import embed_equivariant, embed_family
from menger.space import FiniteSpace, GroupAction, MapFamily, identity_perm


# Every name ``menger`` exported, by its module, when the package imported them eagerly.
_PACKAGE_EXPORTS = {
    "covers": "BACKEND_BRICKS BACKEND_CELLS ColoredCover Coords build_cover diameter_clusters "
              "pull_cover verify_cover",
    "errors": "BudgetError ConstructionError CoverInfeasibleError GroupCapError HypothesisError "
              "InputError InternalCheckError MengerError VerificationError",
    "gate": "HypothesisCheck HypothesisReport check_hypotheses_action check_hypotheses_family",
    "partitions": "CoherentBlock DoubledFamily Partition classify coherent_decomposition "
                  "compatible_subset doubled_induced_partition induced_partition "
                  "intersective_transport refines",
    "perturb": "Observable ValueAssignment assign_values modulus perturb sample_observable "
               "sup_distance",
    "pipeline": "BlockLog EmbeddingCertificate StageRecord embed_equivariant embed_family margin "
                "separate_on_block",
    "space": "FiniteSpace GroupAction MapFamily orbit periodic_set restricted_space validate_space",
    "witness": "BipartiteInstance SeparationProof Witness check_separation find_witness "
               "run_witness_oracle",
}


def _fresh_python(code):
    """Standard output of ``code`` run in a new interpreter that imports this ``menger``."""
    src = os.path.dirname(os.path.dirname(io_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_verifier_loads_no_construction_module():
    # the submodule menger.perturb is loaded, and the package's name still
    # means the function, as it did when the package imported it eagerly
    out = _fresh_python(
        "import sys, menger.io; from menger import perturb; assert callable(perturb); "
        "print(sorted(m for m in sys.modules if m.startswith('menger')))"
    )
    loaded = set(ast.literal_eval(out))
    assert "menger.io" in loaded
    assert not loaded & {"menger.pipeline", "menger.witness", "menger.fixtures", "menger.cli"}


def test_every_package_export_resolves_to_its_module():
    names = [(module, name) for module, line in _PACKAGE_EXPORTS.items() for name in line.split()]
    code = "; ".join(
        [f"from menger import {name} as x{k}" for k, (_, name) in enumerate(names)]
        + ["import importlib, menger"]
        + [
            f"assert x{k} is importlib.import_module('menger.{module}').{name}"
            for k, (module, name) in enumerate(names)
        ]
        + ["from menger import *", "print(menger.__version__, sorted(menger.__all__))"]
    )
    version, exported = _fresh_python(code).split(" ", 1)
    assert version == __import__("menger").__version__
    assert set(ast.literal_eval(exported)) == {"__version__", *(name for _, name in names)}
    with pytest.raises(ImportError):
        exec("from menger import no_such_name", {})


def test_parse_fraction_semantics():
    assert parse_fraction("0.05") == Fraction(1, 20)
    assert parse_fraction(0.05) == Fraction(1, 20)      # via shortest decimal
    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction(7) == Fraction(7)
    assert fr_str(Fraction(3, 7)) == "3/7"
    assert fr_str(Fraction(4, 2)) == "2"
    for bad in (True, "abc", None, "1/0", [1]):
        with pytest.raises(InputError):
            parse_fraction(bad, "field")


def test_parse_ratio_reads_the_canonical_spelling_straight():
    assert parse_ratio("3/7") == (3, 7)
    assert parse_ratio("2/4") == (2, 4)             # split, not reduced
    assert parse_ratio("-0") == (0, 1)
    assert parse_ratio("12") == (12, 1)
    # every other spelling follows the Fraction rule
    assert parse_ratio("0.50") == (1, 2)
    assert parse_ratio(" 1/3") == (1, 3)
    assert parse_ratio("\uff11/\uff12") == (1, 2)      # full-width digits
    assert parse_ratio(0.05) == (1, 20)
    assert parse_ratio(7) == (7, 1)
    for bad in ("1/0", "7" * 5000, True, None):
        with pytest.raises(InputError) as got:
            parse_ratio(bad, "field")
        assert str(got.value) == f"field: cannot parse {bad!r} as a rational"


def test_space_round_trip(tmp_path):
    space = circle_space(6)
    path = str(tmp_path / "space.json")
    save_space(space, path)
    loaded = load_space(path)
    assert loaded.n_points == 6
    assert loaded.simplices == space.simplices
    for a in range(6):
        for b in range(6):
            assert loaded.distance(a, b) == space.distance(a, b)
    assert loaded.dim(range(6)) == 1


def test_space_loader_reports_problems(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(InputError, match="no such file"):
        load_space(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        load_space(str(garbled))
    no_key = tmp_path / "nokey.json"
    no_key.write_text('{"points": 3}')
    with pytest.raises(InputError, match="missing required key 'metric'"):
        load_space(str(no_key))
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({"metric": [[0.0, 1.0], [2.0, 0.0]]}))
    with pytest.raises(InputError, match="invalid metric space"):
        load_space(str(asym))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"metric": [[0.0, "far"], ["far", 0.0]]}, "metric must be a matrix of numbers"),
        # float() and numpy would read these as 1.0
        ({"metric": [[0, "1.0"], [" 1e0 ", 0]]},
         "metric must be a matrix of numbers: metric[0][1] is '1.0'"),
        ({"metric": [[0, 1], [True, 0]]}, "metric must be a matrix of numbers: metric[1][0] is True"),
        ({"metric": [[0.0, float("nan")], [float("nan"), 0.0]]},
         "metric[0][1]: not a finite number"),
        ({"metric": [[0.0, float("inf")], [1.0, 0.0]]}, "metric[0][1]: not a finite number"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "simplices": 5}, "simplices must be a list"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "dim_labels": 3}, "dim_labels must be a list"),
        # an index or a dimension is refused, not truncated, when it is not an integer
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "simplices": [[0, 1.5]]},
         "simplices[0]: expected an integer, got 1.5"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "simplices": [[0, True]]},
         "simplices[0]: expected an integer, got True"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "dim_labels": [[[0, 1], 1.7]]},
         "dim_labels[0].dim: expected an integer, got 1.7"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "dim_labels": [[[0, 1], True]]},
         "dim_labels[0].dim: expected an integer, got True"),
    ],
    ids=[
        "non-numeric", "numeric-string", "bool", "nan", "inf", "simplices-int", "dim-labels-int",
        "simplex-vertex-float", "simplex-vertex-bool", "dim-label-float", "dim-label-bool",
    ],
)
def test_cli_malformed_space_exits_one_with_one_line(tmp_path, capsys, doc, message):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(doc))
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), fam_path)
    code = main(["check", "--space", str(space_path), "--family", fam_path, "--r", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {space_path}: ")
    assert message in err


def test_family_round_trip_and_embedded_source(tmp_path):
    space = circle_space(9)
    fam = MapFamily.create(
        space, space, [rotation_perm(9, 3), rotation_perm(9, 6)], labels=["a", "b"]
    )
    path = str(tmp_path / "family.json")
    save_family(fam, path)
    loaded = load_family(path, space)
    assert loaded.maps == fam.maps
    assert loaded.labels == ("a", "b")

    src = path_space(2)
    doc = {
        "maps": [[0, 3], [1, 4]],
        "source": {"metric": [[float(src.distance(a, b)) for b in range(2)] for a in range(2)]},
    }
    emb = tmp_path / "partial.json"
    emb.write_text(json.dumps(doc))
    partial = load_family(str(emb), space)
    assert partial.source.n_points == 2
    assert partial.target.n_points == 9
    assert partial.maps == ((0, 3), (1, 4))


def test_action_round_trip_and_stages(tmp_path):
    space = circle_space(9)
    path = str(tmp_path / "action.json")
    save_action([rotation_perm(9, 3)], path)
    action, stages = load_action(path, space, group_cap=100)
    assert stages is None
    assert action.order == 3

    staged = tmp_path / "staged.json"
    staged.write_text(
        json.dumps(
            {
                "generators": [list(rotation_perm(9, 1))],
                "stages": [
                    {"elements": [list(identity_perm(9)), list(rotation_perm(9, 3))],
                     "eps_sep": "1/2"},
                    {"elements": [list(rotation_perm(9, 1))], "eps_sep": None},
                ],
            }
        )
    )
    action, stages = load_action(str(staged), space, group_cap=100)
    assert len(stages) == 2
    assert stages[0][1] == Fraction(1, 2)
    assert stages[1][1] is None
    assert stages[0][0][1] == rotation_perm(9, 3)

    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps({"generators": [list(identity_perm(9))],
                    "stages": [{"elements": [[0] * 9]}]})
    )
    with pytest.raises(InputError, match="not a permutation"):
        load_action(str(broken), space, group_cap=100)


def test_observable_round_trip_is_exact(tmp_path):
    space = path_space(3)
    obs = Observable.create(space, [[Fraction(1, 3), 0], [1, Fraction(7, 11)], [0, 1]])
    path = str(tmp_path / "obs.json")
    save_observable(obs, path)
    again = load_observable(path, space)
    assert again.values == obs.values

    bad = tmp_path / "bad_r.json"
    bad.write_text(json.dumps({"r": 3, "values": [["0"], ["0"], ["0"]]}))
    with pytest.raises(InputError, match="declared r=3"):
        load_observable(str(bad), space)


def _small_family_cert():
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    f0 = Observable.create(space, [[Fraction(1, 2)]] * 9)
    return space, fam, embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)


def test_certificate_write_verify_and_determinism(tmp_path):
    space, fam, cert = _small_family_cert()
    p1 = str(tmp_path / "c1.json")
    p2 = str(tmp_path / "c2.json")
    fam_path = str(tmp_path / "family.json")
    save_family(fam, fam_path)
    payload = write_certificate(p1, cert, config={"group_cap": 64},
                                input_hashes={"family": hash_file(fam_path)})
    write_certificate(p2, cert, config={"group_cap": 64},
                      input_hashes={"family": hash_file(fam_path)})
    assert open(p1, "rb").read() == open(p2, "rb").read()

    doc = load_certificate(p1)
    assert doc == payload
    assert verify_certificate(doc) == []
    assert verify_certificate(doc, space=space, family=fam,
                              input_hashes={"family": hash_file(fam_path)}) == []

    other = MapFamily.create(space, space, [identity_perm(9)])
    issues = verify_certificate(doc, space=space, family=other)
    assert issues and "hypothesis report does not match" in issues[0]

    issues = verify_certificate(doc, input_hashes={"family": "0" * 64})
    assert issues == ["input hash mismatch for 'family'"]


def test_certificate_tampering_is_detected(tmp_path):
    _, _, cert = _small_family_cert()
    path = str(tmp_path / "cert.json")
    payload = write_certificate(path, cert)

    naive = dict(payload)
    naive["r"] = payload["r"] + 1
    issues = verify_certificate(naive)
    assert issues == ["cert_sha256 mismatch: certificate content was altered"]

    # a forger who recomputes the hash still trips the exact value re-checks
    forged = {k: v for k, v in payload.items() if k != "cert_sha256"}
    forged["observable_values"] = [list(row) for row in forged["observable_values"]]
    forged["observable_values"][0][0] = "1/7"
    forged["cert_sha256"] = hashlib.sha256(
        canonical_json(forged).encode("ascii")
    ).hexdigest()
    issues = verify_certificate(forged)
    assert issues
    assert any("displacement" in msg for msg in issues)


def _write_rehashed(path, payload, edit):
    """Apply ``edit`` to a copy of the certificate and store it re-hashed."""
    forged = json.loads(canonical_json({k: v for k, v in payload.items() if k != "cert_sha256"}))
    edit(forged)
    forged["cert_sha256"] = hashlib.sha256(canonical_json(forged).encode("ascii")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(forged))


def _small_action_cert():
    space = circle_space(9)
    action = GroupAction.from_generators(space, [rotation_perm(9, 3)])
    f0 = Observable.create(space, [[Fraction(1, 2)]] * 9)
    return embed_equivariant(action, r=1, eps=Fraction(1, 10), f0=f0)


def _set(*path_and_value):
    """An edit that replaces the entry at a key path; a callable maps the old entry."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value(doc[key]) if callable(value) else value

    return edit


def test_cli_verify_rehashed_certificate_missing_stage_points(tmp_path, capsys):
    _, _, cert = _small_family_cert()
    path = str(tmp_path / "cert.json")

    def edit(doc):
        del doc["stages"][0]["points"]

    _write_rehashed(path, write_certificate(path, cert), edit)
    code = main(["verify", "--cert", path])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: stage 0 is missing required data: 'points'\n"


# A re-hashed certificate passes the content hash, so each forged shape reaches
# the re-checks and must come out as exactly one issue, never a traceback.
@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("family", _set("stages", 0, "maps", 1, 0, 9), "stage 0: map 1 has a value outside 0..8"),
        ("family", _set("stages", 0, "maps", 2, 4, -1), "stage 0: map 2 has a value outside 0..8"),
        ("family", _set("stages", 5), "stages: expected a list of stage records"),
        (
            "action",
            _set("stages", 0, "points", 0, 9),
            "stage 0: a point lies outside 0..8",
        ),
        ("family", _set("r", "three"), "certificate is missing required data: "),
        (
            "family",
            _set("observable_values", 0, 0, "abc"),
            "observable_values[0]: cannot parse 'abc' as a rational",
        ),
        ("family", _set("format", "other"), "format: expected 'menger-certificate', got 'other'"),
        ("family", _set("stages", 0, "maps", 1, 0, 1.5), "stage 0: map 1: expected an integer, got 1.5"),
        ("action", _set("stages", 0, "points", 1, True), "stage 0: points: expected an integer, got True"),
        # int(...) would read these as r = 1, which the rest of the certificate fits
        ("action", _set("r", 1.5), "certificate is missing required data: r: expected an integer, got 1.5"),
        ("action", _set("r", True), "certificate is missing required data: r: expected an integer, got True"),
        # a family stage carries no elements, and its points are still checked:
        # strictly increasing within 0..n-1, the form embed writes
        ("family", _set("stages", 0, "points", 0, -1), "stage 0: a point lies outside 0..8"),
        ("family", _set("stages", 0, "points", 1, 0), "stage 0: points are not strictly increasing"),
        ("family", _set("stages", 0, "points", 8, 2**64), "stage 0: a point lies outside 0..8"),
        ("family", _set("stages", 0, "points", lambda pts: pts[::-1]), "stage 0: points are not strictly increasing"),
    ],
    ids=[
        "map-past-end", "map-negative", "stages-not-list", "point-past-end", "r-not-int",
        "value-not-rational", "format-changed", "map-value-float", "point-bool", "r-float", "r-bool",
        "family-point-negative", "family-point-repeated", "family-point-past-uint64", "family-points-descending",
    ],
)
def test_cli_verify_rehashed_malformed_certificate_exits_four(tmp_path, capsys, kind, edit, message):
    cert = _small_family_cert()[2] if kind == "family" else _small_action_cert()
    path = str(tmp_path / "cert.json")
    _write_rehashed(path, write_certificate(path, cert), edit)
    code = main(["verify", "--cert", path])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_verify_rehashed_inputs_and_hypothesis_of_the_wrong_type(tmp_path):
    space = circle_space(9)
    action = GroupAction.from_generators(space, [rotation_perm(9, 3)])
    path = str(tmp_path / "cert.json")
    payload = write_certificate(path, _small_action_cert(), input_hashes={"action": "0" * 64})
    _write_rehashed(path, payload, _set("inputs", 5))
    issues = verify_certificate(load_certificate(path), input_hashes={"action": "0" * 64})
    assert issues == ["inputs: expected an object of input hashes"]
    _write_rehashed(path, payload, _set("hypothesis", 5))
    issues = verify_certificate(load_certificate(path), space=space, action=action)
    assert issues == ["hypothesis report does not match the provided inputs"]
    # equal under ==, yet another value: true is refused where 1 is read, and back
    for edit in (_set("hypothesis", "passed", 1), _set("hypothesis", "checks", 0, "dim", float)):
        _write_rehashed(path, payload, edit)
        issues = verify_certificate(load_certificate(path), space=space, action=action)
        assert issues == ["hypothesis report does not match the provided inputs"]


@pytest.mark.parametrize("kind", ["family", "action"])
def test_cli_verify_rehashed_certificate_without_inputs(tmp_path, capsys, kind):
    path = str(tmp_path / "cert.json")
    other = str(tmp_path / f"{kind}.json")
    if kind == "family":
        _, _, cert = _small_family_cert()
        save_family(MapFamily.create(circle_space(9), circle_space(9), [identity_perm(9)]), other)
    else:
        cert = _small_action_cert()
        save_action([rotation_perm(9, 1)], other)
    _write_rehashed(path, write_certificate(path, cert), lambda doc: doc.pop("inputs"))
    code = main(["verify", "--cert", path, f"--{kind}", other])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: inputs: certificate records no hash for '{kind}'\n"


def _small_family_files(tmp_path):
    """The space and family files of ``_small_family_cert``, the certificate
    written from it, and the payload written."""
    space, fam, cert = _small_family_cert()
    space_path, fam_path = str(tmp_path / "space.json"), str(tmp_path / "family.json")
    save_space(space, space_path)
    save_family(fam, fam_path)
    path = str(tmp_path / "cert.json")
    return ["--space", space_path, "--family", fam_path], path, write_certificate(path, cert)


def test_verify_refuses_a_value_row_that_is_not_a_list(tmp_path, capsys):
    """A row written as an object would be read through its keys, which here
    spell the row's own values, so the claim would check."""

    def edit(doc):
        for key in ("f0_values", "observable_values"):
            doc[key] = [{row[0]: 7} for row in doc[key]]

    inputs, path, payload = _small_family_files(tmp_path)
    _write_rehashed(path, payload, edit)
    _, fam, _ = _small_family_cert()
    issues = verify_certificate(load_certificate(path), space=fam.source, family=fam)
    assert issues == ["f0_values: row 0 is not a list of values"]
    code, lines = _verify_lines(capsys, path, inputs)
    assert (code, lines) == (4, ["error: f0_values: row 0 is not a list of values"])


def test_verify_refuses_value_tables_longer_than_the_space(tmp_path, capsys):
    """One in-range row more in both tables: the stages never read it, so
    only the space given can tell that the tables do not fit it."""

    def edit(doc):
        for key in ("f0_values", "observable_values"):
            doc[key].append(["1/2"])

    inputs, path, payload = _small_family_files(tmp_path)
    _write_rehashed(path, payload, edit)
    doc = load_certificate(path)
    assert verify_certificate(doc) == []
    assert verify_certificate(doc, space=circle_space(9)) == ["f0_values: expected 9 value rows"]
    code, lines = _verify_lines(capsys, path, inputs)
    assert (code, lines) == (4, ["error: f0_values: expected 9 value rows"])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("r", 0), "f0_values: row 0 has 1 values, expected 0"),
        (_set("f0_values", 3, lambda row: row * 2), "f0_values: row 3 has 2 values, expected 1"),
        (_set("f0_values", 5), "f0_values: expected 9 value rows"),
    ],
    ids=["r-zero", "row-too-wide", "table-not-a-list"],
)
def test_verify_returns_a_malformed_value_table_as_an_issue(tmp_path, capsys, edit, message):
    """``verify_certificate`` returns every issue, never raises; the command
    prints the same line and exits 4."""
    _, path, payload = _small_family_files(tmp_path)
    _write_rehashed(path, payload, edit)
    assert verify_certificate(load_certificate(path)) == [message]
    assert _verify_lines(capsys, path) == (4, [f"error: {message}"])


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of ``FiniteSpace.subspace`` and ``MapFamily.create``, and the
    subspaces that copied a metric, counted from here on."""
    counts = {"subspace": 0, "copies": 0, "create": 0}
    subspace, create = FiniteSpace.subspace, MapFamily.create

    def counted_subspace(self, points):
        counts["subspace"] += 1
        sub, pts = subspace(self, points)
        counts["copies"] += sub is not self
        return sub, pts

    def counted_create(*args, **kwargs):
        counts["create"] += 1
        return create(*args, **kwargs)

    monkeypatch.setattr(FiniteSpace, "subspace", counted_subspace)
    monkeypatch.setattr(MapFamily, "create", staticmethod(counted_create))
    return counts


def _staged_circle48(tmp_path):
    """Inputs of a 48-point circle whose rotation group is capped at 5
    elements, in two stages over every point: four rotations without an
    eps_sep and three with eps_sep 1/20."""
    space_path, action_path = str(tmp_path / "space48.json"), str(tmp_path / "staged48.json")
    save_space(circle_space(48), space_path)
    rotations = {s: list(rotation_perm(48, s)) for s in range(48)}
    doc = {
        "generators": [rotations[1]],
        "stages": [
            {"elements": [rotations[s] for s in steps], "eps_sep": eps_sep}
            for steps, eps_sep in (((0, 12, 24, 36), None), ((0, 16, 32), "1/20"))
        ],
    }
    Path(action_path).write_text(json.dumps(doc))
    return ["--space", space_path, "--action", action_path, "--group-cap", "5"]


def test_each_command_builds_each_stage_family_once(tmp_path, capsys, build_counts):
    """check, embed and verify each build one subspace and one family per
    stage with points, and a stage over every point copies no metric."""
    inputs = _staged_circle48(tmp_path)
    cert_path = str(tmp_path / "cert48.json")
    commands = {
        "check": ["check", *inputs, "--r", "1"],
        "embed": ["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", cert_path],
        "verify": ["verify", "--cert", cert_path, *inputs[:4]],
    }
    for name, argv in commands.items():
        build_counts.update(subspace=0, copies=0, create=0)
        assert main(argv) == 0, (name, capsys.readouterr().err)
        assert build_counts == {"subspace": 2, "copies": 0, "create": 2}, name


def test_unstaged_action_embed_copies_no_metric(build_counts):
    space = circle_space(9)
    action = GroupAction.from_generators(space, [rotation_perm(9, 3)])
    cert = embed_equivariant(action, r=1, eps=Fraction(1, 20), seed=7)
    assert build_counts == {"subspace": 1, "copies": 0, "create": 1}
    (record,) = cert.stages
    assert record.stage.family.source is space


def _write_staged_action(path, stages):
    """An action file for rotations of the 9-point circle with explicit stages."""
    elements = {s: list(rotation_perm(9, s)) for s in range(9)}
    doc = {
        "generators": [elements[1]],
        "stages": [
            {"elements": [elements[s] for s in steps], "eps_sep": eps_sep}
            for steps, eps_sep in stages
        ],
    }
    Path(path).write_text(json.dumps(doc))


def _embedded(tmp_path, kind):
    """The verify inputs and certificate path of a 9-point circle embed: a
    family of three rotations, an action of rotations by 3, or the rotations
    by 1 in two explicit stages."""
    space_path, maps_path = _write_inputs(tmp_path)
    if kind == "family":
        maps_path = str(tmp_path / "family.json")
        space = circle_space(9)
        save_family(
            MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]), maps_path
        )
    elif kind == "staged":
        _write_staged_action(maps_path, [((0, 3, 6), None), ((0, 1), "1/3")])
    inputs = ["--space", space_path, "--family" if kind == "family" else "--action", maps_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0
    return inputs, cert_path


def _verify_lines(capsys, cert_path, inputs=()):
    capsys.readouterr()
    code = main(["verify", "--cert", cert_path, *inputs])
    return code, capsys.readouterr().err.splitlines()


def _drop_last_point(doc):
    """Cut the only stage to all but its last point, keeping the margins consistent."""
    values = [[Fraction(v) for v in row] for row in doc["observable_values"]]
    (stage,) = doc["stages"]
    stage["points"].pop()
    for m in stage["maps"]:
        m.pop()
    stage["margin"] = _text(naive_stage_margin(values, stage["maps"], len(stage["points"])))
    doc["margin"] = stage["margin"]


def _move_one_map_value(doc):
    """Send stage 0's map 1 elsewhere at its first point, keeping the margins consistent."""
    values = [[Fraction(v) for v in row] for row in doc["observable_values"]]
    stage = doc["stages"][0]
    stage["maps"][1][0] = (stage["maps"][1][0] + 1) % len(values)
    stage["margin"] = _text(naive_stage_margin(values, stage["maps"], len(stage["points"])))
    doc["margin"] = _text(
        min(math.inf if s["margin"] == "inf" else Fraction(s["margin"]) for s in doc["stages"])
    )


@pytest.mark.parametrize(
    "kind, edit, expected",
    [
        ("action", _drop_last_point,
         ["stage 0: 'points' does not match the provided inputs",
          "stage 0: 'maps' does not match the provided inputs"]),
        ("family", _drop_last_point,
         ["stage 0: 'points' does not match the provided inputs",
          "stage 0: 'maps' does not match the provided inputs"]),
        ("staged", _set("stages", 0, "eps_sep", "1/2"),
         ["stage 0: 'eps_sep' does not match the provided inputs"]),
        ("staged", _set("stages", lambda stages: stages[:1]),
         ["stages: the certificate holds 1 stage records, the inputs give 2"]),
        # the maps are the stage's elements read at its points
        ("staged", _move_one_map_value,
         ["stage 0: 'maps' does not match the provided inputs"]),
        # a family's one stage has no eps_sep, compared as an action stage's is
        ("family", _set("stages", 0, "eps_sep", "1/2"),
         ["stage 0: 'eps_sep' does not match the provided inputs"]),
    ],
    ids=[
        "action-point-dropped", "family-point-dropped", "stage-eps-changed", "stage-dropped",
        "staged-map-moved", "family-eps-sep-set",
    ],
)
def test_cli_verify_rebuilds_the_stages_from_the_inputs(tmp_path, capsys, kind, edit, expected):
    """A stage that covers other points than the inputs give fails with its inputs.

    Each forged certificate is consistent in itself (its margins are
    recomputed for the cut stage), so only the inputs can expose it.
    """
    inputs, cert_path = _embedded(tmp_path, kind)
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    forged = str(tmp_path / "forged.json")
    _write_rehashed(forged, load_certificate(cert_path), edit)
    capsys.readouterr()
    assert main(["verify", "--cert", forged]) == 0
    capsys.readouterr()
    code = main(["verify", "--cert", forged, *inputs])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [f"error: {line}" for line in expected]


@pytest.mark.parametrize("kind", ["x", "family"])
def test_cli_verify_rebuilds_the_action_plan_whatever_the_kind(tmp_path, capsys, kind):
    """A staged certificate re-hashed with another kind and one stage dropped
    is consistent in itself; the action input still rebuilds both stages."""
    inputs, cert_path = _embedded(tmp_path, "staged")

    def edit(doc):
        doc["kind"] = kind
        doc["stages"] = doc["stages"][:1]
        doc["margin"] = doc["stages"][0]["margin"]

    _write_rehashed(cert_path, load_certificate(cert_path), edit)
    assert _verify_lines(capsys, cert_path)[0] == (0 if kind == "family" else 4)
    expected = [
        f"kind: {kind!r} does not match the action given",
        "stages: the certificate holds 1 stage records, the inputs give 2",
    ]
    if kind == "x":
        expected.insert(0, "kind: expected 'family' or 'action', got 'x'")
    assert _verify_lines(capsys, cert_path, inputs) == (4, [f"error: {e}" for e in expected])


@pytest.mark.parametrize("kind", ["x", "action"])
def test_cli_verify_rebuilds_the_family_plan_whatever_the_kind(tmp_path, capsys, kind):
    inputs, cert_path = _embedded(tmp_path, "family")

    def edit(doc):
        doc["kind"] = kind
        _drop_last_point(doc)

    _write_rehashed(cert_path, load_certificate(cert_path), edit)
    expected = [
        f"kind: {kind!r} does not match the family given",
        "stage 0: 'points' does not match the provided inputs",
        "stage 0: 'maps' does not match the provided inputs",
    ]
    if kind == "x":
        expected.insert(0, "kind: expected 'family' or 'action', got 'x'")
    assert _verify_lines(capsys, cert_path, inputs) == (4, [f"error: {e}" for e in expected])


@pytest.mark.parametrize("kind", ["x", None, 5, "Family"])
def test_cli_verify_refuses_an_unknown_kind_without_inputs(tmp_path, capsys, kind):
    _, cert_path = _embedded(tmp_path, "family")
    _write_rehashed(cert_path, load_certificate(cert_path), _set("kind", kind))
    assert _verify_lines(capsys, cert_path) == (
        4, [f"error: kind: expected 'family' or 'action', got {kind!r}"]
    )


@pytest.mark.parametrize("made, kind", [("action", "family"), ("family", "action")])
def test_cli_verify_kind_must_match_the_input_given(tmp_path, capsys, made, kind):
    """Apart from its kind the certificate matches its inputs: that one field is the issue."""
    inputs, cert_path = _embedded(tmp_path, made)
    assert _verify_lines(capsys, cert_path, inputs) == (0, [])
    _write_rehashed(cert_path, load_certificate(cert_path), _set("kind", kind))
    assert _verify_lines(capsys, cert_path) == (0, [])
    assert _verify_lines(capsys, cert_path, inputs) == (
        4, [f"error: kind: {kind!r} does not match the {made} given"]
    )


@pytest.mark.parametrize(
    "eps, expected",
    [
        ("0", ["eps 0 is not positive"]),
        ("-1/20", ["eps -1/20 is not positive", "displacement 0 exceeds eps -1/20"]),
    ],
)
def test_cli_verify_refuses_an_eps_that_is_not_positive(tmp_path, capsys, eps, expected):
    """A seeded start that no block perturbs has displacement 0, within any eps >= 0."""
    inputs, cert_path = _embedded(tmp_path, "family")
    assert load_certificate(cert_path)["displacement"] == "0"
    _write_rehashed(cert_path, load_certificate(cert_path), _set("eps", eps))
    for given in ((), inputs):
        assert _verify_lines(capsys, cert_path, given) == (4, [f"error: {e}" for e in expected])


@pytest.mark.parametrize("kind", ["family", "staged"])
def test_cli_verify_reads_past_the_element_permutations_of_0_6_0(tmp_path, capsys, kind):
    """A 0.6.0 certificate also holds each stage's elements as ``f_perms``
    (null for a family).  The hash covers the key, and the verifier ignores
    it, with the inputs and without."""
    space_path, maps_path = _write_inputs(tmp_path)
    steps = [(0, 3, 6), (0, 1)]
    if kind == "family":
        maps_path = str(tmp_path / "family.json")
        space = circle_space(9)
        save_family(
            MapFamily.create(space, space, [rotation_perm(9, s) for s in steps[0]]), maps_path
        )
    else:
        _write_staged_action(maps_path, [(steps[0], None), (steps[1], "1/3")])
    inputs = ["--space", space_path, "--family" if kind == "family" else "--action", maps_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0

    def as_0_6_0(doc):
        doc["version"] = "0.6.0"
        for k, stage in enumerate(doc["stages"]):
            assert "f_perms" not in stage
            stage["f_perms"] = (
                None if kind == "family" else [list(rotation_perm(9, s)) for s in steps[k]]
            )

    _write_rehashed(cert_path, load_certificate(cert_path), as_0_6_0)
    capsys.readouterr()
    assert main(["verify", "--cert", cert_path]) == 0
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    assert capsys.readouterr().err == ""


def test_cli_stage_without_points_embeds_and_verifies(tmp_path, capsys):
    """A stage whose restricted space is empty records one empty map per element."""
    space_path, action_path = _write_inputs(tmp_path)
    _write_staged_action(action_path, [((0, 3, 6), None), ((0, 1), "100")])
    inputs = ["--space", space_path, "--action", action_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0
    empty = load_certificate(cert_path)["stages"][1]
    assert (empty["points"], empty["maps"], empty["margin"]) == ([], [[], []], "inf")
    assert _read_csv(str(tmp_path / "cert.stage1.csv")) == [
        ["point", "e0[0]", "e1[0]"]
    ]
    capsys.readouterr()
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    assert capsys.readouterr().out.startswith("certificate OK")


def test_cli_empty_stage_list_exits_one(tmp_path, capsys):
    """An empty stage list would certify nothing: embed and verify refuse it."""
    space_path, action_path = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0
    empty_path = str(tmp_path / "empty.json")
    _write_staged_action(empty_path, [])
    inputs = ["--space", space_path, "--action", empty_path]
    capsys.readouterr()
    for argv in (
        ["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", str(tmp_path / "never.json")],
        ["verify", "--cert", cert_path, *inputs],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: {empty_path}: stages: the list is empty; leave it out to use the whole group\n"
        )
    assert not (tmp_path / "never.json").exists()
    action = GroupAction.from_generators(circle_space(9), [rotation_perm(9, 3)])
    with pytest.raises(InputError, match="the list is empty"):
        embed_equivariant(action, r=1, eps=Fraction(1, 20), stages=[])


def test_cli_verify_rejects_a_certificate_without_stages(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0

    def edit(doc):
        doc["stages"] = []
        doc["margin"] = "inf"

    _write_rehashed(cert_path, load_certificate(cert_path), edit)
    capsys.readouterr()
    code = main(["verify", "--cert", cert_path])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: stages: the certificate holds no stage record, so it claims nothing\n"


def _collapse_values(doc):
    """Every value 1/2, so every orbit tuple is equal, with stored margins to match."""
    for key in ("f0_values", "observable_values"):
        doc[key] = [["1/2"] * len(row) for row in doc[key]]
    doc["displacement"] = "0"
    for st in doc["stages"]:
        st["margin"] = "0"
    doc["margin"] = "0"


def test_cli_verify_refuses_a_zero_margin_certificate(tmp_path, capsys):
    """Stored margins that match a recomputed 0 still claim nothing: the orbit
    map is not injective, so verify exits 4 with one line naming the stage."""
    space_path = str(tmp_path / "space.json")
    family_path = str(tmp_path / "family.json")
    space = circle_space(9)
    save_space(space, space_path)
    save_family(MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]), family_path)
    inputs = ["--space", space_path, "--family", family_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/10", "--out", cert_path]) == 0
    _write_rehashed(cert_path, load_certificate(cert_path), _collapse_values)
    capsys.readouterr()
    code = main(["verify", "--cert", cert_path, *inputs])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "error: stage 0: margin is 0: two stage points share an orbit tuple\n"
    assert "certificate OK" not in captured.out


def test_cli_verify_reports_every_issue(tmp_path, capsys):
    _, _, cert = _small_family_cert()
    path = str(tmp_path / "cert.json")
    payload = write_certificate(path, cert)

    def edit(doc):
        doc["margin"] = "1/1000"
        doc["displacement"] = "1/1000"

    _write_rehashed(path, payload, edit)
    code = main(["verify", "--cert", path])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [
        f"error: displacement mismatch: recomputed {payload['displacement']}, stored 1/1000",
        f"error: margin mismatch: recomputed {payload['margin']}, stored 1/1000",
    ]


def _text(x):
    return "inf" if x == math.inf else str(x)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), r=st.integers(1, 3))
def test_verify_recomputes_stage_margins_like_a_pair_loop(data, r):
    """Stored margins from a Fraction pair loop pass the verifier's sweep.

    Values repeat often and carry mixed denominators; stages have 0, 1 or
    more points and 0 to 3 maps, which need not be injective.  The points
    are strictly increasing within 0..n-1, the only form the verifier takes.
    A stage whose margin is 0 matches its stored margin but is not
    injective, so it is the one issue left.
    """
    n = data.draw(st.integers(1, 8))
    tied = st.sampled_from(["0", "1/3", "1/2", "2/3", "5/7", "1"])
    strs = [[data.draw(tied) for _ in range(r)] for _ in range(n)]
    values = [[Fraction(v) for v in row] for row in strs]
    stages, margins = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        pts = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        maps = [
            data.draw(st.lists(st.integers(0, n - 1), min_size=len(pts), max_size=len(pts)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        margins.append(naive_stage_margin(values, maps, len(pts)))
        stages.append(
            {
                "points": pts,
                "maps": maps,
                "margin": _text(margins[-1]),
            }
        )
    doc = {
        "format": CERT_FORMAT,
        "kind": "family",
        "r": r,
        "eps": "1",
        "f0_values": strs,
        "observable_values": strs,
        "displacement": "0",
        "stages": stages,
        "margin": _text(min(margins)),
    }
    doc["cert_sha256"] = hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()
    assert verify_certificate(doc) == [
        f"stage {s_idx}: margin is 0: two stage points share an orbit tuple"
        for s_idx, m in enumerate(margins)
        if m == 0
    ]


def _zero_and_half_cert():
    """A family certificate whose f0 is 0 at point 0 and 1/2 elsewhere."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    f0 = Observable.create(space, [[Fraction(0)]] + [[Fraction(1, 2)]] * 8)
    return embed_family(fam, r=1, eps=Fraction(1, 10), f0=f0)


@pytest.mark.parametrize(
    "y, value", [(1, "2/4"), (1, "0.50"), (1, 0.5), (0, 0)], ids=["non-reduced", "decimal", "float", "int"]
)
def test_cli_verify_accepts_a_value_respelled_without_change(tmp_path, capsys, y, value):
    path = str(tmp_path / "cert.json")
    payload = write_certificate(path, _zero_and_half_cert())
    assert payload["f0_values"][0][0] == "0" and payload["f0_values"][1][0] == "1/2"
    _write_rehashed(path, payload, _set("f0_values", y, 0, value))
    code = main(["verify", "--cert", path])
    assert code == 0
    assert capsys.readouterr().out.startswith("certificate OK")


@pytest.mark.parametrize("value", ["3/2", "1/0", True], ids=["above-one", "zero-denominator", "bool"])
def test_cli_verify_refuses_a_changed_or_unreadable_value(tmp_path, capsys, value):
    path = str(tmp_path / "cert.json")
    payload = write_certificate(path, _zero_and_half_cert())
    _write_rehashed(path, payload, _set("f0_values", 1, 0, value))
    code = main(["verify", "--cert", path])
    err = capsys.readouterr().err
    if value == "3/2":
        # 3/2 lies farther from any value in [0, 1] than eps = 1/10 allows elsewhere
        d = Fraction(3, 2) - Fraction(payload["observable_values"][1][0])
        expected = [
            "f0 value out of [0, 1] at point 1",
            f"displacement mismatch: recomputed {d}, stored {payload['displacement']}",
            f"displacement {d} exceeds eps 1/10",
        ]
    else:
        expected = [f"f0_values[1]: cannot parse {value!r} as a rational"]
    assert code == 4
    assert err.splitlines() == [f"error: {line}" for line in expected]


def test_verify_an_observable_without_coordinates_separates_nothing():
    """At r = 0 every orbit tuple is empty, so two stage points always share one."""
    doc = {
        "format": CERT_FORMAT, "kind": "family", "r": 0, "eps": "1",
        "f0_values": [[], []], "observable_values": [[], []], "displacement": "0",
        "stages": [{"points": [0, 1], "maps": [[0, 1]], "margin": "inf"}], "margin": "inf",
    }
    doc["cert_sha256"] = hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()
    assert verify_certificate(doc) == [
        "stage 0: margin mismatch: recomputed 0, stored inf",
        "stage 0: margin is 0: two stage points share an orbit tuple",
        "margin mismatch: recomputed 0, stored inf",
    ]


def _unperturbed_payload():
    """The payload of a seeded three-rotation embed that perturbs no block."""
    space = circle_space(9)
    fam = MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)])
    cert = embed_family(fam, r=1, eps=Fraction(1, 20), seed=0)
    assert not cert.blocks
    return certificate_payload(cert)


def test_certificate_spells_an_unperturbed_observable_once():
    payload = _unperturbed_payload()
    assert payload["observable_values"] is payload["f0_values"]
    perturbed = certificate_payload(_small_family_cert()[2])
    assert perturbed["observable_values"] != perturbed["f0_values"]


def test_verify_parses_an_observable_true_beside_an_f0_one(tmp_path):
    """True == 1, so the two tables compare equal; the observable's true is
    still refused, as it is on its own."""
    path = str(tmp_path / "cert.json")

    def edit(doc):
        doc["f0_values"][0][0] = 1
        doc["observable_values"][0][0] = True

    _write_rehashed(path, _unperturbed_payload(), edit)
    doc = load_certificate(path)
    assert doc["f0_values"] == doc["observable_values"]
    assert verify_certificate(doc) == ["observable_values[0]: cannot parse True as a rational"]


@pytest.mark.parametrize(
    "f0_value, value",
    [("3/2", "3/2"), (99999999999999991611392, 1e23)],
    ids=["same-string", "int-equal-to-float"],
)
def test_verify_reads_equal_tables_like_the_fraction_reference(tmp_path, f0_value, value):
    """A value out of [0, 1] in both tables is reported for both.  An integer
    equals the float 1e23, yet the float reads as its shortest decimal 10**23,
    so the tables differ by 8388608 at that point."""
    path = str(tmp_path / "cert.json")

    def edit(doc):
        doc["f0_values"][1][0] = f0_value
        doc["observable_values"][1][0] = value

    _write_rehashed(path, _unperturbed_payload(), edit)
    doc = load_certificate(path)
    assert doc["f0_values"] == doc["observable_values"]
    issues = verify_certificate(doc)
    assert issues[:2] == [
        "f0 value out of [0, 1] at point 1", "observable value out of [0, 1] at point 1"
    ]
    assert issues == reference_value_issues(doc)


def test_cli_verify_certificate_holding_nan_exits_four(tmp_path, capsys):
    """NaN is no JSON value a certificate is written with, so its hash cannot match."""
    path = tmp_path / "cert.json"
    payload = write_certificate(str(path), _small_action_cert())
    path.write_text(json.dumps(dict(payload, version=float("nan"))))
    code = main(["verify", "--cert", str(path)])
    assert code == 4
    assert capsys.readouterr().err == "error: cert_sha256 mismatch: certificate content was altered\n"


def test_cli_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    space_path = tmp_path / "space.json"
    space_path.write_text('{"metric": [[0, 1], [1, 0]], "note": ' + "7" * 5000 + "}")
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), fam_path)
    code = main(["check", "--space", str(space_path), "--family", fam_path, "--r", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {space_path}: invalid JSON: ")


@pytest.mark.parametrize("command", ["check", "verify"])
def test_cli_deeply_nested_json_exits_one(tmp_path, capsys, command):
    """A nesting deeper than the parser's recursion limit is one input error."""
    deep = "[" * 100000 + "]" * 100000
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), fam_path)
    if command == "check":
        path = tmp_path / "space.json"
        path.write_text('{"metric": ' + deep + "}")
        args = ["check", "--space", str(path), "--family", fam_path, "--r", "1"]
    else:
        path = tmp_path / "cert.json"
        path.write_text(deep)
        args = ["verify", "--cert", str(path)]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("depth", [5_000, 100_000])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_cli_deeply_nested_family_maps_exit_one(tmp_path, capsys, command, depth):
    """Maps nested past the recursion limit are one input error, whether orjson
    decodes the family (5 000 brackets) or json does (100 000, past the
    bracket bound): the loader's repr of the deep map is the recursion."""
    space_path = str(tmp_path / "space.json")
    ok_path = str(tmp_path / "identity.json")
    save_space(path_space(2), space_path)
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), ok_path)
    path = tmp_path / "family.json"
    path.write_text('{"maps": [' + "[" * depth + "]" * depth + "]}")
    if command == "check":
        args = ["check", "--space", space_path, "--family", str(path), "--r", "1"]
    else:
        cert_path = str(tmp_path / "cert.json")
        embed = ["embed", "--space", space_path, "--family", ok_path, "--r", "3",
                 "--eps", "1/20", "--seed", "1", "--out", cert_path]
        assert main(embed) == 0
        capsys.readouterr()
        args = ["verify", "--cert", cert_path, "--space", space_path, "--family", str(path)]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


def _note_space(tmp_path, note: str) -> tuple[str, str]:
    """A 2-point space file with ``note`` as an unread key, and a family on it."""
    space_path = tmp_path / "space.json"
    space_path.write_text('{"metric": [[0, 1], [1, 0]], "note": ' + note + "}")
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), fam_path)
    return str(space_path), fam_path


def test_cli_unread_key_nested_past_the_recursion_limit_loads(tmp_path, capsys):
    """A deliberate change: orjson has no recursion limit, so a space whose
    unread key nests 5 000 deep loads, where json refused the whole file."""
    space_path, fam_path = _note_space(tmp_path, "[" * 5000 + "]" * 5000)
    assert main(["check", "--space", space_path, "--family", fam_path, "--r", "1"]) == 0
    assert load_space(space_path).n_points == 2
    capsys.readouterr()


def test_cli_dim_label_past_64_bits_is_refused_as_not_an_integer(tmp_path, capsys):
    """A deliberate change: orjson reads 2**70 as a float, so a dimension that
    large is one input error (exit 1) where json's integer failed the gate (exit 2)."""
    space_path = tmp_path / "space.json"
    space_path.write_text('{"metric": [[0, 1], [1, 0]], "dim_labels": [[[0, 1], 1180591620717411303424]]}')
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(path_space(2), path_space(2), [[0, 1]]), fam_path)
    code = main(["check", "--space", str(space_path), "--family", fam_path, "--r", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {space_path}: dim_labels[0].dim: expected an integer, got 1.1805916207174113e+21\n"
    )


def test_cli_nesting_past_the_bracket_bound_is_one_line_not_a_crash(tmp_path):
    """orjson recurses on the native stack, so a million brackets would crash
    the interpreter; past the bracket bound json reads the file and refuses
    it in one line.  A subprocess keeps a crash from taking the suite down."""
    space_path, fam_path = _note_space(tmp_path, "[" * 10**6 + "]" * 10**6)
    src = os.path.dirname(os.path.dirname(io_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "menger.cli", "check", "--space", space_path,
         "--family", fam_path, "--r", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {space_path}: invalid JSON: nested too deeply\n"


_FULL_WIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))
_ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x0660 + d) for d in range(10)))


def _respellings(v: str):
    """Values to put in place of the certificate value ``v``: the same value
    or another, spelled canonically or not, and values that are refused."""
    x = Fraction(v)
    p, q = x.numerator, x.denominator
    return st.one_of(
        st.fractions(0, 1, max_denominator=10**6).map(str),               # canonical
        st.integers(2, 9).map(lambda k: f"{p * k}/{q * k}"),             # not reduced
        st.integers(0, 10**6).map(lambda k: f"0.{k:06d}"),               # decimal
        st.sampled_from(["0.50", "1.0", ".5", "1e-3", "5E-1", "0.1"]),
        st.integers(-2, 3),                                               # JSON integer
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 0.5, 1.0, 0.1, 5e-324]),
        st.booleans(),
        st.sampled_from([f"-{v}", "-0", "-1/3", "--1"]),                  # negative
        st.sampled_from([f"{p + q}/{q}", "3/2", "2"]),                    # above 1
        st.sampled_from([f"{p}/0", "0/0", "1/-2"]),                       # zero or negative denominator
        st.sampled_from([f" {v}", f"{v} ", f"{v}\n", f"{p} / {q}", f"\t{v}"]),
        st.just(f"+{v}"),
        st.sampled_from([f"{p}_0/{q}_0", f"1_{v}", f"{v}_", "1__0"]),       # underscores
        st.sampled_from([v.translate(_FULL_WIDTH), v.translate(_ARABIC_INDIC)]),
        st.sampled_from(["7" * 5000, "1" + "0" * 4999 + f"/{q}", "0" * 4999 + "1"]),
        st.sampled_from([None, [v], {"v": v}, [], "", "/", "1/", "/2", "abc", "inf", "nan"]),
    )


@pytest.fixture(scope="module")
def small_payloads():
    """Certificate bodies (no content hash) from small family and action embeds."""
    action8 = GroupAction.from_generators(circle_space(8), [antipodal_perm(8)])
    certs = [
        _small_family_cert()[2],
        _small_action_cert(),
        _zero_and_half_cert(),
        embed_equivariant(action8, r=2, eps=Fraction(1, 20), seed=3),
    ]
    return [json.loads(canonical_json(certificate_payload(c))) for c in certs]


def _draw_respelled(data, payload):
    """A copy of ``payload`` with one to three value entries respelled."""
    doc = json.loads(canonical_json(payload))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        key = data.draw(st.sampled_from(["f0_values", "observable_values"]), label="key")
        y = data.draw(st.integers(0, len(doc[key]) - 1), label="row")
        ell = data.draw(st.integers(0, len(doc[key][y]) - 1), label="column")
        doc[key][y][ell] = data.draw(_respellings(payload[key][y][ell]), label="value")
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_reads_values_like_the_fraction_reference(small_payloads, data):
    """Re-hashed certificates with respelled values get the issue list that
    today's Fraction value checks give, text and order."""
    doc = _draw_respelled(data, data.draw(st.sampled_from(small_payloads), label="cert"))
    doc["cert_sha256"] = hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()
    assert verify_certificate(doc) == reference_value_issues(doc)


def _parsed(parse, value):
    try:
        return Fraction(parse(value, "v"))
    except InputError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_ratio_agrees_with_parse_fraction(small_payloads, data):
    payload = data.draw(st.sampled_from(small_payloads), label="cert")
    key = data.draw(st.sampled_from(["f0_values", "observable_values"]), label="key")
    row = data.draw(st.sampled_from(payload[key]), label="row")
    value = data.draw(_respellings(data.draw(st.sampled_from(row), label="entry")), label="value")
    expected = _parsed(reference_parse_fraction, value)
    assert _parsed(parse_fraction, value) == expected
    assert _parsed(lambda v, where: Fraction(*parse_ratio(v, where)), value) == expected
    if not isinstance(expected, str):
        assert parse_ratio(value)[1] > 0


@pytest.fixture(scope="module")
def antipodal_cli_run(tmp_path_factory):
    """Space, action and certificate paths of an 8-point antipodal embed at r = 2."""
    folder = tmp_path_factory.mktemp("antipodal")
    space_path = str(folder / "space.json")
    action_path = str(folder / "action.json")
    cert_path = str(folder / "cert.json")
    save_space(circle_space(8), space_path)
    save_action([antipodal_perm(8)], action_path)
    assert main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "2", "--eps", "1/20", "--seed", "3", "--out", cert_path]) == 0
    return space_path, action_path, cert_path


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("config", 5), "config: expected an object of settings"),
        (_set("config", "group_cap", "abc"), "config: group_cap must be an integer, got 'abc'"),
        # int(...) would truncate or replace these
        (_set("config", "group_cap", 10000.7), "config: group_cap must be an integer, got 10000.7"),
    ],
)
def test_cli_verify_rehashed_malformed_config_exits_four(
    antipodal_cli_run, tmp_path, capsys, edit, message
):
    space_path, action_path, cert_path = antipodal_cli_run
    forged = str(tmp_path / "cert.json")
    _write_rehashed(forged, load_certificate(cert_path), edit)
    capsys.readouterr()
    code = main(["verify", "--cert", forged, "--space", space_path, "--action", action_path])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"error: {message}\n"


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_verify_catches_any_single_byte_mutation(antipodal_cli_run, capsys, data):
    """A changed byte either breaks the JSON (exit 1) or changes the document (exit 4).

    Only a mutation that parses to the same document, such as one of the
    trailing newline, may pass; no mutation may raise.
    """
    space_path, action_path, cert_path = antipodal_cli_run
    raw = Path(cert_path).read_bytes()
    pos = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    mutated = raw[:pos] + bytes([byte]) + raw[pos + 1:]
    mutated_path = Path(cert_path).with_name("mutated.json")
    mutated_path.write_bytes(mutated)
    try:
        expected = 0 if json.loads(mutated.decode("utf-8")) == json.loads(raw) else 4
    except ValueError:
        expected = 1
    capsys.readouterr()
    code = main(["verify", "--cert", str(mutated_path), "--space", space_path, "--action", action_path])
    err = capsys.readouterr().err
    assert code == expected
    if expected == 1:
        assert err.count("\n") == 1 and err.startswith("error: ")
    elif expected == 4:
        assert err and all(line.startswith("error: ") for line in err.splitlines())


# Fields the certified claim does not read, so a mutation confined to them may
# still verify; README's "What `verify` trusts" lists the same.  Beside these,
# a stage's labels and an eps raised above the stored one are unread, and so
# is the recorded hash of an input not given (here f0).  Without inputs, the
# hypothesis report, the input hashes and each stage's eps_sep are unread too.
UNREAD = ("version", "seed", "backend", "config")
UNREAD_WITHOUT_INPUTS = UNREAD + ("hypothesis", "inputs")
_DELETED = object()
_JSON_TYPES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 2**65),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-1, 9) | st.text(max_size=3), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(-1, 9), max_size=2),
}


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """For a 3-rotation family and a two-stage capped action on the 9-point
    circle, each embedded from the constant 1/2: the verify arguments, the
    loaded inputs for ``verify_certificate``, and the certificate."""
    folder = tmp_path_factory.mktemp("fuzz")
    space = circle_space(9)
    paths = {name: str(folder / f"{name}.json") for name in ("space", "family", "action", "f0")}
    save_space(space, paths["space"])
    save_family(MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]),
                paths["family"])
    _write_staged_action(paths["action"], [((0, 3, 6), None), ((0, 2, 4, 6), "1/3")])
    save_observable(Observable.create(space, [[Fraction(1, 2)]] * 9), paths["f0"])
    runs = {}
    for kind in ("family", "action"):
        argv = ["--space", paths["space"], f"--{kind}", paths[kind]]
        cert_path = str(folder / f"{kind}.cert.json")
        assert main(["embed", *argv, "--r", "1", "--eps", "1/10", "--f0", paths["f0"],
                     "--group-cap", "5", "--out", cert_path]) == 0
        hashes: dict[str, str] = {}
        loaded = load_space(paths["space"], record=hashes)
        inputs = {"space": loaded, "input_hashes": hashes}
        if kind == "family":
            inputs["family"] = load_family(paths["family"], loaded, record=hashes)
        else:
            inputs["action"], inputs["stages"] = load_action(paths["action"], loaded, 5, record=hashes)
        runs[kind] = argv, inputs, load_certificate(cert_path)
    return runs


def _lookalike(old, kind):
    """``old`` converted to the type ``kind`` (``True`` to 1, 9 to 9.0, 5 to
    "5"), a value that ``==`` or a loose reader may take for it; null where
    no finite conversion exists."""
    try:
        value = kind(old)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json_paths(node, path=()):
    """The key path of every node below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _may_verify(doc, mutations, inputs):
    """Whether a certificate mutated as listed may still verify.

    Each mutation must be confined to a field the claim does not read, or
    lie in the value tables or, without inputs, in the stage records, and
    leave a certificate that the Fraction reference checks clean: it then
    states another claim, which holds.  A deleted eps_sep that was null
    reads as null.
    """
    unread = UNREAD if inputs else UNREAD_WITHOUT_INPUTS
    stage_unread = ("labels",) if inputs else ("labels", "eps_sep")
    recheck = False
    for path, old, new in mutations:
        head = path[0]
        if type(new) is type(old) and new == old:    # replaced twice, back to its value
            continue
        if head in unread or (head == "stages" and len(path) > 2 and path[2] in stage_unread):
            continue
        if head == "inputs" and len(path) > 1 and path[1] not in inputs["input_hashes"]:
            continue
        if path == ("eps",) and new is not _DELETED:
            try:
                if parse_fraction(new) >= parse_fraction(old):
                    continue
            except InputError:
                pass
            return False
        if new is _DELETED and path[-1] == "eps_sep" and old is None:
            continue
        if head in ("f0_values", "observable_values") or (head == "stages" and not inputs):
            recheck = True
            continue
        return False
    return not recheck or reference_value_issues(doc) == []


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_verify_survives_structural_mutations(fuzz_runs, tmp_path_factory, capsys, data):
    """One to three nodes of a valid certificate replaced by a value of
    another JSON type, or deleted, then re-hashed: ``verify_certificate``
    returns its issues as one-line strings and never raises, the command
    exits 0 or 4 with one ``error:`` line per issue, and exit 0 comes only
    where ``_may_verify`` allows it."""
    argv, inputs, cert = fuzz_runs[data.draw(st.sampled_from(["family", "action"]))]
    with_inputs = data.draw(st.booleans())
    doc = json.loads(canonical_json({k: v for k, v in cert.items() if k != "cert_sha256"}))
    mutations = []
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if data.draw(st.booleans()):
            new = _DELETED
            del parent[path[-1]]
        else:
            other = data.draw(st.sampled_from([t for t in _JSON_TYPES if t is not type(old)]))
            new = data.draw(st.one_of(st.just(_lookalike(old, other)), _JSON_TYPES[other]))
            parent[path[-1]] = new
        # a replaced node mutated again, or inside a node mutated later, is
        # one net change from its first value
        for earlier in [m for m in mutations if m[2] is not _DELETED and m[0][:len(path)] == path]:
            mutations.remove(earlier)
            old = earlier[1] if earlier[0] == path else old
        mutations.append((path, old, new))
    doc["cert_sha256"] = hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()
    doc = json.loads(canonical_json(doc))     # keys in the order the command reads them

    inputs = inputs if with_inputs else None
    issues = verify_certificate(doc, **(inputs or {}))
    assert isinstance(issues, list)
    assert all(isinstance(msg, str) and msg and "\n" not in msg for msg in issues)
    if not issues:
        assert _may_verify(doc, mutations, inputs), mutations

    cert_path = tmp_path_factory.getbasetemp() / "mutated.cert.json"
    cert_path.write_text(canonical_json(doc))
    capsys.readouterr()
    code = main(["verify", "--cert", str(cert_path), *(argv if with_inputs else ())])
    err = capsys.readouterr().err
    assert code in (0, 4), err
    if code == 0:
        assert err == ""
        assert _may_verify(doc, mutations, inputs), mutations
    else:
        assert err and all(line.startswith("error: ") for line in err.splitlines())
    # the command loads the action with the group cap the certificate records
    if not any(path[0] == "config" for path, _, _ in mutations):
        assert err == "".join(f"error: {msg}\n" for msg in issues)


def test_certificate_rejects_wrong_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(InputError, match="not a certificate"):
        load_certificate(str(path))


def _orbit_rows(cert, stage):
    """The CSV rows a stage should have: point, then every map's exact values."""
    values = cert.observable.values
    return [
        [str(p)] + [fr_str(v) for m in stage.maps for v in values[m[u]]]
        for u, p in enumerate(stage.points)
    ]


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_orbit_csv_layout(tmp_path):
    _, fam, cert = _small_family_cert()
    base = str(tmp_path / "orbits.csv")
    files = write_orbit_csv(base, certificate_payload(cert))
    assert files == [base]
    rows = _read_csv(base)
    assert rows[0] == ["point", "g0[0]", "g1[0]", "g2[0]"]
    assert rows[1:] == _orbit_rows(cert, cert.stages[0].stage)
    assert len(rows) == 10


def test_orbit_csv_multi_stage(tmp_path):
    space = circle_space(9)
    action = GroupAction.from_generators(space, [rotation_perm(9, 1)], cap=5)
    thirds = [rotation_perm(9, s) for s in (0, 3, 6)]
    cert = embed_equivariant(
        action, r=3, eps=Fraction(1, 10), seed=2,
        stages=[
            (thirds, None),
            (thirds, space.distance(0, 3)),     # orbits spread into 3 far points
        ],
    )
    assert cert.stages[1].stage.points == tuple(range(9))
    base = str(tmp_path / "orbits.csv")
    files = write_orbit_csv(base, certificate_payload(cert))
    assert files == [base, str(tmp_path / "orbits.stage1.csv")]
    expected = ["point"] + [f"e{k}[{ell}]" for k in range(3) for ell in range(3)]
    for name, record in zip(files, cert.stages):
        rows = _read_csv(name)
        assert rows[0] == expected
        assert rows[1:] == _orbit_rows(cert, record.stage)
        assert len(rows) == 10


def _write_inputs(tmp_path, n=9, step=3):
    space_path = str(tmp_path / "space.json")
    action_path = str(tmp_path / "action.json")
    save_space(circle_space(n), space_path)
    save_action([rotation_perm(n, step)], action_path)
    return space_path, action_path


def test_cli_check_pass_and_fail(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    out = str(tmp_path / "report.json")
    code = main(["check", "--space", space_path, "--action", action_path,
                 "--r", "1", "--out", out])
    text = capsys.readouterr().out
    assert code == 0
    assert "hypotheses: PASS (3 checks, r=1)" in text
    report = json.loads(open(out).read())
    assert report["passed"] is True

    space8 = str(tmp_path / "space8.json")
    act8 = str(tmp_path / "act8.json")
    save_space(circle_space(8), space8)
    save_action([rotation_perm(8, 4)], act8)
    code = main(["check", "--space", space8, "--action", act8, "--r", "1"])
    text = capsys.readouterr().out
    assert code == 2
    assert "periodic N=2: dim 1 < 2/2 [FAIL]" in text
    assert "hypotheses: FAIL" in text


def test_cli_embed_verify_round_trip(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    code = main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "0.05", "--seed", "7", "--out", cert_path])
    text = capsys.readouterr().out
    assert code == 0
    assert "certificate: " in text and "orbit table: " in text

    code = main(["verify", "--cert", cert_path,
                 "--space", space_path, "--action", action_path])
    text = capsys.readouterr().out
    assert code == 0
    assert text.startswith("certificate OK: margin ")

    # single-character corruption flips the content hash
    raw = open(cert_path).read()
    doc = json.loads(raw)
    target = doc["observable_values"][0][0]
    patched = raw.replace(f'"{target}"', '"1/9999"', 1)
    assert patched != raw
    open(cert_path, "w").write(patched)
    code = main(["verify", "--cert", cert_path])
    err = capsys.readouterr().err
    assert code == 4
    assert "cert_sha256 mismatch" in err


@pytest.mark.parametrize("name", ["same.csv", "SAME.CSV", "same.Csv"])
def test_cli_embed_refuses_a_csv_certificate_before_reading_inputs(tmp_path, capsys, name):
    """The orbit table takes the certificate's name with a .csv extension, so
    a .csv certificate would be overwritten by its table; the refusal comes
    before any input is read (the space here does not exist)."""
    out = tmp_path / name
    code = main(["embed", "--space", str(tmp_path / "missing.json"), "--family", "f.json",
                 "--r", "1", "--eps", "1/20", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {out}: the certificate cannot end in .csv, "
                   "the orbit table's extension\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_embed_refuses_bricks_without_coords_on_a_seeded_start(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    out = tmp_path / "cert.json"
    code = main(["embed", "--space", space_path, "--action", action_path, "--r", "1",
                 "--eps", "1/20", "--seed", "7", "--backend", "bricks", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: bricks backend needs declared coordinates\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["family", "action"])
def test_cli_embed_serializes_the_certificate_once(tmp_path, capsys, monkeypatch, kind):
    """The file is canonical_json of the returned payload, hash included, and
    that hash is of the payload without it; one embed serializes once."""
    space_path, action_path = _write_inputs(tmp_path)
    if kind == "family":
        space = circle_space(9)
        save_family(MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]),
                    str(tmp_path / "family.json"))
    calls = []

    def counting_canonical_json(doc):
        calls.append(doc)
        return canonical_json(doc)

    written = []

    def keeping_write_certificate(*args):
        written.append(write_certificate(*args))
        return written[-1]

    monkeypatch.setattr(io_module, "canonical_json", counting_canonical_json)
    monkeypatch.setattr(cli_module, "write_certificate", keeping_write_certificate)
    cert_path = tmp_path / "cert.json"
    code = main(["embed", "--space", space_path, f"--{kind}", str(tmp_path / f"{kind}.json"),
                 "--r", "1", "--eps", "1/20", "--seed", "7", "--out", str(cert_path)])
    assert code == 0, capsys.readouterr().err
    assert len(calls) == 1
    monkeypatch.undo()
    (payload,) = written
    assert cert_path.read_text() == canonical_json(payload) + "\n"
    body = {k: v for k, v in payload.items() if k != "cert_sha256"}
    assert payload["cert_sha256"] == hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
    assert main(["verify", "--cert", str(cert_path)]) == 0


def test_cli_verify_flags_swapped_inputs(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "0.05", "--seed", "7", "--out", cert_path]) == 0
    capsys.readouterr()
    other_action = str(tmp_path / "other.json")
    save_action([rotation_perm(9, 6)], other_action)
    code = main(["verify", "--cert", cert_path,
                 "--space", space_path, "--action", other_action])
    err = capsys.readouterr().err
    assert code == 4
    assert "input hash mismatch for 'action'" in err


def test_cli_embed_with_f0_and_fraction_eps(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path)
    f0_path = str(tmp_path / "f0.json")
    save_observable(
        Observable.create(circle_space(9), [[Fraction(1, 2)]] * 9), f0_path
    )
    cert_path = str(tmp_path / "cert.json")
    code = main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "1/20", "--f0", f0_path, "--out", cert_path])
    text = capsys.readouterr().out
    assert code == 0
    assert "perturbations" in text
    doc = load_certificate(cert_path)
    assert doc["eps"] == "1/20"
    assert doc["inputs"].keys() >= {"space", "action", "f0"}


def test_cli_certificate_config_holds_only_the_caps(tmp_path, capsys, monkeypatch):
    space_path, action_path = _write_inputs(tmp_path)
    embed = ["embed", "--space", space_path, "--action", action_path, "--r", "1", "--eps", "0.05"]
    first = str(tmp_path / "first.json")
    assert main(embed + ["--out", first]) == 0
    assert load_certificate(first)["config"].keys() == {"group_cap"}

    # no environment variable reaches the run or the certificate
    monkeypatch.setenv("MENGER_THREADS", "zero")
    second = str(tmp_path / "second.json")
    assert main(embed + ["--out", second]) == 0
    capsys.readouterr()
    assert Path(first).read_bytes() == Path(second).read_bytes()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check", "--space", "s.json", "--action", "a.json"],
         "menger check: error: the following arguments are required: --r"),
        (["check", "--space", "s.json", "--action", "a.json", "--family", "f.json", "--r", "1"],
         "menger check: error: argument --family: not allowed with argument --action"),
        # the largest period is no option: check runs up to the largest orbit
        (["check", "--space", "s.json", "--action", "a.json", "--r", "1", "--nmax", "1"],
         "menger: error: unrecognized arguments: --nmax 1"),
        (["embed", "--space", "s.json", "--action", "a.json", "--r", "1", "--eps", "1/20",
          "--backend", "nope"],
         "menger embed: error: argument --backend: invalid choice: 'nope'"),
    ],
    ids=["missing-r", "action-and-family", "nmax", "unknown-backend"],
)
def test_cli_argument_error_is_one_line(capsys, argv, line):
    """An argument error is one stderr line, with no usage block, and exits 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    (got,) = captured.err.splitlines()
    assert got.startswith(line)


def test_cli_check_help_lists_no_nmax(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: menger check")
    assert "--nmax" not in out


def test_cli_check_and_embed_refuse_a_failing_stage_alike(tmp_path, capsys):
    """A rotation action whose one explicit stage is the identity: the
    periodic checks pass, the stage's one partition class fails, and check,
    like embed, exits 2 naming the stage."""
    space_path, action_path = _write_inputs(tmp_path, n=12, step=1)
    Path(action_path).write_text(json.dumps({
        "generators": [list(rotation_perm(12, 1))],
        "stages": [{"elements": [list(identity_perm(12))], "eps_sep": None}],
    }))
    inputs = ["--space", space_path, "--action", action_path, "--r", "1"]
    assert main(["check", *inputs]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "FAIL" in line and "stage" in line] == [
        "partition [[0]] (stage 0): dim 1 < 1/2 [FAIL]"
    ]
    assert out[-1] == "hypotheses: FAIL (13 checks, r=1)"
    assert main(["embed", *inputs, "--eps", "1/20", "--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == (
        "error: dimension hypothesis fails: partition [[0]] (stage 0): dim 1 < 1/2 [FAIL]\n"
    )


def test_cli_check_refuses_a_capped_group_without_stages_like_embed(tmp_path, capsys):
    space_path, action_path = _write_inputs(tmp_path, n=12, step=1)
    inputs = ["--space", space_path, "--action", action_path, "--r", "1", "--group-cap", "5"]
    assert main(["embed", *inputs, "--eps", "1/20", "--out", str(tmp_path / "c.json")]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith("error: group closure was capped")
    assert main(["check", *inputs]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", refused)


def _staged_run(tmp_path):
    """Inputs and certificate of a two-stage rotation action on the 9-point circle."""
    space_path, action_path = _write_inputs(tmp_path)
    _write_staged_action(action_path, [((0, 3, 6), None), ((0, 1), None)])
    inputs = ["--space", space_path, "--action", action_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "2", "--eps", "1/20", "--out", cert_path]) == 0
    return inputs, cert_path


def test_cli_staged_certificate_records_the_stage_checks(tmp_path, capsys):
    inputs, cert_path = _staged_run(tmp_path)
    labels = [c["label"] for c in load_certificate(cert_path)["hypothesis"]["checks"]]
    assert labels == [f"N={n}" for n in range(1, 10)] + [
        "[[0], [1], [2]] (stage 0)", "[[0], [1]] (stage 1)"
    ]
    capsys.readouterr()
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    assert capsys.readouterr().err == ""


def test_cli_verify_reports_the_stage_checks_a_0_7_0_certificate_lacks(tmp_path, capsys):
    """Version 0.7.0 recorded only the periodic checks of a staged action.
    Its content still verifies alone; with its inputs the report differs."""
    inputs, cert_path = _staged_run(tmp_path)

    def as_0_7_0(doc):
        doc["version"] = "0.7.0"
        hyp = doc["hypothesis"]
        hyp["checks"] = [c for c in hyp["checks"] if c["kind"] == "periodic"]

    _write_rehashed(cert_path, load_certificate(cert_path), as_0_7_0)
    capsys.readouterr()
    assert main(["verify", "--cert", cert_path]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", cert_path, *inputs]) == 4
    assert capsys.readouterr().err == (
        "error: hypothesis report does not match the provided inputs\n"
    )


@st.composite
def _declared_path_spaces(draw) -> FiniteSpace:
    """A path metric on 2 to 6 points with a few random faces and dimension labels."""
    n = draw(st.integers(2, 6))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    labels = draw(
        st.lists(st.tuples(st.sets(st.integers(0, n - 1)), st.integers(0, 3)), max_size=2)
    )
    metric = [[abs(a - b) for b in range(n)] for a in range(n)]
    return FiniteSpace.create(metric, simplices=faces, dim_labels=labels)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), r=st.integers(1, 3))
def test_cli_check_agrees_with_embed(tmp_path, capsys, data, r):
    """check exits 2 exactly when embed does, and refuses what embed refuses
    with embed's line; a passing embed verifies with its inputs, which
    recompute the stored report."""
    space = data.draw(_declared_path_spaces(), label="space")
    n = space.n_points
    perms = st.lists(st.permutations(range(n)).map(list), min_size=1, max_size=3)
    space_path = str(tmp_path / "space.json")
    maps_path = str(tmp_path / "maps.json")
    save_space(space, space_path)
    kind = data.draw(st.sampled_from(["family", "action"]), label="kind")
    options = []
    if kind == "family":
        doc = {"maps": data.draw(perms, label="maps")}
    else:
        doc = {"generators": data.draw(perms, label="generators")}
        cap = data.draw(st.sampled_from([3, 64]), label="cap")
        options = ["--group-cap", str(cap)]
        if data.draw(st.booleans(), label="staged"):
            eps_seps = st.none() | st.integers(1, n - 1).map(str)
            doc["stages"] = [
                {"elements": elements, "eps_sep": eps_sep}
                for elements, eps_sep in data.draw(
                    st.lists(st.tuples(perms, eps_seps), min_size=1, max_size=2), label="stages"
                )
            ]
    Path(maps_path).write_text(json.dumps(doc))
    inputs = ["--space", space_path, f"--{kind}", maps_path]
    cert_path = str(tmp_path / "cert.json")
    capsys.readouterr()
    checked = main(["check", *inputs, "--r", str(r), *options])
    check_err = capsys.readouterr().err
    embedded = main(["embed", *inputs, "--r", str(r), "--eps", "1/20", *options,
                     "--out", cert_path])
    embed_err = capsys.readouterr().err
    assert embedded in (0, 1, 2)
    assert (checked == 2) == (embedded == 2)
    if embedded == 1:
        assert (checked, check_err) == (1, embed_err)
        return
    assert checked == embedded
    if embedded == 0:
        assert main(["verify", "--cert", cert_path, *inputs]) == 0
        loaded = load_space(space_path)
        if kind == "family":
            report = check_hypotheses_family(load_family(maps_path, loaded), r)
        else:
            action, stages = load_action(maps_path, loaded, cap)
            report = check_hypotheses_action(action, r, action_stages(action, stages, r))
        assert load_certificate(cert_path)["hypothesis"] == hypothesis_doc(report)


def _runtime_imports(path: Path) -> list[str]:
    """The modules a ``menger`` source file imports outside ``if TYPE_CHECKING:``,
    relative imports resolved within the package."""
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"menger.{base}".rstrip(".")
            found.extend([base] if node.module else [f"{base}.{a.name}" for a in node.names])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


@pytest.mark.parametrize("name", ["io.py", "gate.py"])
def test_verifier_side_does_not_import_the_construction(name):
    """``io`` and ``gate``, which the verifier runs, import neither the
    construction nor the witness search outside ``if TYPE_CHECKING:``."""
    import menger

    imports = _runtime_imports(Path(menger.__file__).parent / name)
    assert "menger.space" in imports
    assert not {"menger.pipeline", "menger.witness"} & set(imports)


_EMPTY_COARSE_CHECK = {
    "kind": "partition", "label": "[[0, 1, 2]]", "subset_size": 0,
    "dim": -1, "bound_num": 1, "passed": True,
}


# A report cut short or padded with an unrealized class (the 0.2.0 shape)
# still claims a pass, but it is not the report of the inputs.
@pytest.mark.parametrize(
    "kind, edit",
    [
        ("action", _set("hypothesis", "checks", lambda checks: checks[:1])),
        ("family", _set("hypothesis", "checks", lambda checks: [_EMPTY_COARSE_CHECK] + checks)),
    ],
    ids=["action-cut-to-N1", "family-padded-empty-class"],
)
def test_cli_verify_rejects_a_reshaped_hypothesis_report(tmp_path, capsys, kind, edit):
    space_path, maps_path = _write_inputs(tmp_path)
    if kind == "family":
        maps_path = str(tmp_path / "family.json")
        space = circle_space(9)
        save_family(
            MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]), maps_path
        )
    inputs = ["--space", space_path, f"--{kind}", maps_path]
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--out", cert_path]) == 0
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    forged = str(tmp_path / "forged.json")
    _write_rehashed(forged, load_certificate(cert_path), edit)
    capsys.readouterr()
    code = main(["verify", "--cert", forged, *inputs])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "error: hypothesis report does not match the provided inputs\n"


def test_cli_argparse_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--space", "x.json", "--family", "y.json"])  # missing --r/--eps
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    # the exact separation solver has no knob any more
    space_path, action_path = _write_inputs(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--space", space_path, "--action", action_path,
              "--r", "1", "--eps", "1/20", "--exact-cap", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --exact-cap 5" in capsys.readouterr().err


def test_cli_repeated_calls_do_not_leak_defaults(tmp_path, capsys, monkeypatch):
    import menger.cli

    assert menger.cli._parser() is menger.cli._parser()
    monkeypatch.chdir(tmp_path)
    space_path, action_path = _write_inputs(tmp_path)
    embed = ["embed", "--space", space_path, "--action", action_path, "--r", "1", "--eps", "0.05"]
    check = ["check", "--space", space_path, "--action", action_path, "--r", "1"]
    for _ in range(2):
        assert main(embed + ["--seed", "7", "--out", "seeded.json"]) == 0
        assert main(embed) == 0
        assert main(check) == 0
        assert main(check + ["--group-cap", "2"]) == 1
        captured = capsys.readouterr()
        # the default cap enumerates the group of order 3; a cap of 2 left
        # from the call before would refuse it
        assert "hypotheses: PASS (3 checks, r=1)" in captured.out
        assert captured.err.startswith("error: group closure was capped")
        assert load_certificate("seeded.json")["seed"] == 7
        assert load_certificate("certificate.json")["seed"] == 0
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--space", space_path, "--action", action_path])
        assert exc.value.code == 1
        capsys.readouterr()


def test_pyproject_version_matches_package():
    import pathlib

    tomllib = pytest.importorskip("tomllib")
    import menger

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == menger.__version__


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    code = main(["check", "--space", str(tmp_path / "ghost.json"),
                 "--family", str(tmp_path / "fam.json"), "--r", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no such file" in err


def test_cli_oracle_covers(tmp_path, capsys):
    out = str(tmp_path / "oracle.json")
    code = main(["oracle", "--scope", "covers", "--out", out])
    text = capsys.readouterr().out
    assert code == 0
    assert "cover oracle: 0 violations / 100 builds" in text
    summary = json.loads(open(out).read())
    assert summary["covers"]["violations"] == 0


def _unusable_path_cases(tmp_path):
    """(command line, path the one error line names) for each command, with
    an input that is a directory or an output in a missing directory."""
    space_path, action_path = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", "--space", space_path, "--action", action_path,
                 "--r", "1", "--eps", "1/20", "--seed", "1", "--out", cert_path]) == 0
    folder = str(tmp_path / "folder")
    Path(folder).mkdir()
    missing = str(tmp_path / "missing" / "out.json")
    embed = ["embed", "--space", space_path, "--action", action_path, "--r", "1", "--eps", "1/20"]
    return {
        "check-input-dir": (
            ["check", "--space", folder, "--action", action_path, "--r", "1"], folder
        ),
        "check-out-missing-dir": (
            ["check", "--space", space_path, "--action", action_path, "--r", "1", "--out", missing],
            missing,
        ),
        "embed-input-dir": ([*embed, "--f0", folder], folder),
        "embed-out-missing-dir": ([*embed, "--out", missing], missing),
        "verify-cert-dir": (["verify", "--cert", folder], folder),
        "verify-input-dir": (["verify", "--cert", cert_path, "--space", space_path,
                              "--action", folder], folder),
    }


@pytest.mark.parametrize(
    "case",
    ["check-input-dir", "check-out-missing-dir", "embed-input-dir", "embed-out-missing-dir",
     "verify-cert-dir", "verify-input-dir"],
)
def test_cli_unusable_path_exits_one_with_one_line(tmp_path, capsys, case):
    argv, path = _unusable_path_cases(tmp_path)[case]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    verb = "write" if "missing" in path else "read"
    assert captured.err.startswith(f"error: {path}: cannot {verb}: ")
    assert captured.err.count("\n") == 1


_IN_RANGE = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@st.composite
def _spelling(draw):
    """A value as a file may spell it: every form ``parse_ratio`` accepts,
    mostly in [0, 1], sometimes above it."""
    v = draw(st.one_of(_IN_RANGE, _IN_RANGE.map(lambda x: x + 1 + Fraction(1, 7))))
    k = draw(st.integers(1, 5))
    form = draw(st.sampled_from(["canonical", "unreduced", "plus", "json-int", "float", "decimal"]))
    if form == "unreduced":
        return f"{v.numerator * k}/{v.denominator * k}"
    if form == "plus":
        return f"+{v.numerator}/{v.denominator}"
    if form == "json-int":
        return draw(st.integers(0, 2))
    if form == "float":
        return draw(st.floats(0, 1.5, allow_nan=False))
    if form == "decimal":
        return f"{draw(st.integers(0, 150))}.{draw(st.integers(0, 99)):02d}"
    return str(v)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(spellings=st.lists(_spelling(), min_size=3, max_size=3))
def test_value_spellings_are_written_back_canonically(tmp_path, spellings):
    """Every spelling the loader accepts is written back, by ``save_observable``
    and into the certificate's ``f0_values``, as ``str(Fraction(v))`` of the
    value the Fraction reference reads; a value above 1 is refused with its
    reduced value in the message."""
    space = FiniteSpace.create([[float(a != b) for b in range(3)] for a in range(3)])
    path = tmp_path / "f0.json"
    path.write_text(json.dumps({"r": 1, "values": [[v] for v in spellings]}))
    exact = [reference_parse_fraction(v) for v in spellings]
    above = [y for y, v in enumerate(exact) if v > 1]
    if above:
        with pytest.raises(InputError) as got:
            load_observable(str(path), space)
        y = above[0]
        assert str(got.value) == f"{path}: values[{y}][0]: {exact[y]} outside [0, 1]"
        return
    obs = load_observable(str(path), space)
    assert obs.den == math.lcm(*(v.denominator for v in exact))
    assert obs.values == tuple((v,) for v in exact)
    expected = [[str(v)] for v in exact]
    out = tmp_path / "again.json"
    save_observable(obs, str(out))
    assert json.loads(out.read_text())["values"] == expected
    fam = MapFamily.create(space, space, [identity_perm(3)])
    cert = embed_family(fam, r=1, eps=Fraction(1, 10), f0=obs)
    assert certificate_payload(cert)["f0_values"] == expected


def test_observable_range_error_names_the_reduced_value(tmp_path):
    path = tmp_path / "f0.json"
    path.write_text(json.dumps({"r": 1, "values": [["0"], ["6/4"], ["1"]]}))
    with pytest.raises(InputError) as got:
        load_observable(str(path), path_space(3))
    assert str(got.value) == f"{path}: values[1][0]: 3/2 outside [0, 1]"


@pytest.mark.parametrize("kind", ["family", "action"])
def test_cli_reads_each_input_once_and_records_its_bytes(tmp_path, capsys, monkeypatch, kind):
    """embed and verify open every input file once, and the recorded hash is
    the SHA-256 of that file's bytes."""
    space = circle_space(9)
    paths = {"space": str(tmp_path / "space.json"), "f0": str(tmp_path / "f0.json"),
             "coords": str(tmp_path / "coords.json"), kind: str(tmp_path / f"{kind}.json")}
    save_space(space, paths["space"])
    save_observable(Observable.create(space, [[Fraction(x, 9)] for x in range(9)]), paths["f0"])
    Path(paths["coords"]).write_text(json.dumps({"dim": 1, "points": [[x] for x in range(9)]}))
    steps = [0, 3, 6]
    if kind == "family":
        maps = [rotation_perm(9, s) for s in steps]
        save_family(MapFamily.create(space, space, maps), paths[kind])
    else:
        save_action([rotation_perm(9, 3)], paths[kind])
    cert_path = str(tmp_path / "cert.json")

    opened: dict[str, int] = {}
    real_open = open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, str):
            opened[file] = opened.get(file, 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code = main(["embed", "--space", paths["space"], f"--{kind}", paths[kind], "--r", "1",
                 "--eps", "1/20", "--f0", paths["f0"], "--coords", paths["coords"],
                 "--out", cert_path])
    assert code == 0
    assert {p: opened.get(p) for p in paths.values()} == {p: 1 for p in paths.values()}

    opened.clear()
    code = main(["verify", "--cert", cert_path, "--space", paths["space"],
                 f"--{kind}", paths[kind]])
    assert code == 0, capsys.readouterr().err
    assert opened[cert_path] == 1
    assert opened[paths["space"]] == opened[paths[kind]] == 1
    monkeypatch.undo()

    recorded = load_certificate(cert_path)["inputs"]
    assert recorded == {
        role: hashlib.sha256(Path(p).read_bytes()).hexdigest() for role, p in paths.items()
    }


def _scan_inputs(tmp_path, kind):
    """A 9-point circle and the second input of the given kind, with its flag."""
    space = circle_space(9)
    space_path = str(tmp_path / "space.json")
    save_space(space, space_path)
    path = str(tmp_path / f"{kind}.json")
    if kind == "family":
        save_family(MapFamily.create(space, space, [rotation_perm(9, s) for s in (0, 3, 6)]), path)
    elif kind == "action":
        save_action([rotation_perm(9, 3)], path)
    elif kind == "staged":
        _write_staged_action(path, [((0, 3, 6), None), ((0, 1), "1/100")])
    else:
        # three points of a path mapped into the circle, the source embedded
        src = path_space(3)
        Path(path).write_text(json.dumps({"maps": [[0, 3, 6], [1, 4, 7]],
                                          "source": {"metric": src.metric.tolist()}}))
    flag = "--family" if kind in ("family", "source") else "--action"
    return space_path, flag, path


@pytest.mark.parametrize("kind", ["family", "action", "staged", "source"])
def test_cli_triangle_scan_runs_only_in_check(tmp_path, capsys, monkeypatch, kind):
    """check scans each distinct space for the triangle inequality once;
    embed and verify, which load the same files, scan none."""
    space_path, flag, path = _scan_inputs(tmp_path, kind)
    scanned: list[int] = []
    scan = space_module._triangle_issues

    def counting_scan(m, symmetric=None):
        scanned.append(m.shape[0])
        return scan(m, symmetric)

    monkeypatch.setattr(space_module, "_triangle_issues", counting_scan)
    assert main(["check", "--space", space_path, flag, path, "--r", "1"]) == 0
    assert scanned == ([9, 3] if kind == "source" else [9])

    scanned.clear()
    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", "--space", space_path, flag, path, "--r", "1", "--eps", "1/20",
                 "--seed", "1", "--out", cert_path]) == 0
    assert main(["verify", "--cert", cert_path, "--space", space_path, flag, path]) == 0
    assert scanned == []
    assert capsys.readouterr().out.splitlines()[-1].startswith("certificate OK")


def test_cli_check_refuses_a_stretched_space_that_embed_and_verify_accept(tmp_path, capsys):
    """One distance of the circle stretched to 5.0 passes the axioms: check
    refuses it in one line naming the file it came from, and embed and
    verify, which read no triangle, certify it."""
    circle = circle_space(9)
    metric = circle.metric.tolist()
    metric[1][5] = metric[5][1] = 5.0
    violation = ("metric[1][5]: triangle violation via 0 "
                 "(5.0 > 0.6840402866513374 + 1.969615506024416)")
    stretched = str(tmp_path / "stretched.json")
    Path(stretched).write_text(json.dumps({"metric": metric}))
    fam_path = str(tmp_path / "family.json")
    save_family(MapFamily.create(circle, circle, [rotation_perm(9, s) for s in (0, 3, 6)]),
                fam_path)
    inputs = ["--space", stretched, "--family", fam_path]
    assert main(["check", *inputs, "--r", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {stretched}: invalid metric space: {violation}\n"
    assert captured.out == ""

    cert_path = str(tmp_path / "cert.json")
    assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--seed", "11",
                 "--out", cert_path]) == 0
    assert main(["verify", "--cert", cert_path, *inputs]) == 0
    assert capsys.readouterr().err == ""

    # the same matrix as a family's embedded source: the line names the family file
    space_path = str(tmp_path / "space.json")
    save_space(circle, space_path)
    Path(fam_path).write_text(json.dumps({"maps": [list(rotation_perm(9, s)) for s in (0, 3, 6)],
                                          "source": {"metric": metric}}))
    assert main(["check", "--space", space_path, "--family", fam_path, "--r", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {fam_path}: invalid metric space: {violation}\n"
    assert captured.out == ""


def test_cli_embed_refuses_a_non_metric_cover_in_one_line(tmp_path, capsys):
    """From a constant start the cells cover meets a cluster that only a
    triangle violation can make too wide: exit 1, one line naming it."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("space", "family", "f0")}
    Path(paths["space"]).write_text(json.dumps({"metric": NON_METRIC_5}))
    Path(paths["family"]).write_text(json.dumps({"maps": [[3, 0, 2, 1, 4]]}))
    Path(paths["f0"]).write_text(json.dumps({"r": 1, "values": [["1/2"]] * 5}))
    cert_path = tmp_path / "cert.json"
    code = main(["embed", "--space", paths["space"], "--family", paths["family"],
                 "--f0", paths["f0"], "--r", "1", "--eps", "1/10", "--out", str(cert_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid metric space: {NON_METRIC_5_VIOLATION}\n"
    assert not cert_path.exists()


def test_cli_seed_past_64_bits_round_trips(tmp_path, capsys):
    """The certificate records the seed as a JSON integer; read back as a float,
    as orjson reads an integer past 2**64, its re-hash would not match."""
    c = circle_space(9)
    space_path, fam_path = str(tmp_path / "space.json"), str(tmp_path / "family.json")
    cert_path = str(tmp_path / "cert.json")
    save_space(c, space_path)
    save_family(MapFamily.create(c, c, [rotation_perm(9, s) for s in (0, 3, 6)]), fam_path)
    embed = ["embed", "--space", space_path, "--family", fam_path, "--r", "1",
             "--eps", "1/20", "--seed", str(2**70), "--out", cert_path]
    assert main(embed) == 0
    assert load_certificate(cert_path)["seed"] == 2**70
    assert main(["verify", "--cert", cert_path]) == 0
    assert main(["verify", "--cert", cert_path, "--space", space_path, "--family", fam_path]) == 0
    capsys.readouterr()


def test_load_action_reads_an_integer_eps_sep_past_64_bits_exactly(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(
        '{"generators": [[1, 2, 0]], "stages": [{"elements": [[0, 1, 2]], '
        '"eps_sep": 1180591620717411303424}]}'
    )
    _, stages = load_action(str(path), path_space(3), group_cap=5)
    ((_, eps_sep),) = stages
    assert eps_sep == Fraction(2**70) and type(eps_sep) is Fraction


def test_observable_error_names_an_integer_past_64_bits_exactly(tmp_path):
    """Read as a float, as orjson reads it, 2**70 + 1 would be named 1180591620717411300000."""
    path = tmp_path / "f0.json"
    path.write_text('{"r": 1, "values": [[0], [1180591620717411303425], [1]]}')
    with pytest.raises(InputError) as got:
        load_observable(str(path), path_space(3))
    assert str(got.value) == f"{path}: values[1][0]: 1180591620717411303425 outside [0, 1]"
