import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import naive_stage_margin
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from menger.cli import main
from menger.errors import InputError
from menger.fixtures import antipodal_perm, circle_space, path_space, rotation_perm
from menger.io import (
    CERT_FORMAT,
    canonical_json,
    certificate_payload,
    fr_str,
    hash_file,
    load_action,
    load_certificate,
    load_family,
    load_observable,
    load_space,
    parse_fraction,
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
from menger.space import GroupAction, MapFamily, identity_perm


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
        ({"metric": [[0.0, float("nan")], [float("nan"), 0.0]]},
         "metric[0][1]: not a finite number"),
        ({"metric": [[0.0, float("inf")], [1.0, 0.0]]}, "metric[0][1]: not a finite number"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "simplices": 5}, "simplices must be a list"),
        ({"metric": [[0.0, 1.0], [1.0, 0.0]], "dim_labels": 3}, "dim_labels must be a list"),
    ],
    ids=["non-numeric", "nan", "inf", "simplices-int", "dim-labels-int"],
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
            _set("stages", 0, "f_perms", 1, lambda perm: perm[:2]),
            "stage 0: f_perms holds an element that is not a list of 9 points",
        ),
        (
            "action",
            _set("stages", 0, "f_perms", lambda perms: perms[:1]),
            "stage 0: f_perms does not hold one element per map",
        ),
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
    ],
    ids=[
        "map-past-end", "map-negative", "stages-not-list", "f-perm-short", "f-perms-short", "point-past-end", "r-not-int",
        "value-not-rational", "format-changed",
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


def _drop_last_point(doc):
    """Cut the only stage to all but its last point, keeping the margins consistent."""
    values = [[Fraction(v) for v in row] for row in doc["observable_values"]]
    (stage,) = doc["stages"]
    stage["points"].pop()
    for m in stage["maps"]:
        m.pop()
    stage["margin"] = _text(naive_stage_margin(values, stage["maps"], len(stage["points"])))
    doc["margin"] = stage["margin"]


@pytest.mark.parametrize(
    "kind, edit, expected",
    [
        ("action", _drop_last_point,
         ["stage 0: 'points' does not match the provided inputs"]),
        ("family", _drop_last_point,
         ["stage 0: 'points' does not match the provided inputs",
          "stage 0: 'maps' does not match the provided inputs"]),
        ("staged", _set("stages", 0, "eps_sep", "1/2"),
         ["stage 0: 'eps_sep' does not match the provided inputs"]),
        ("staged", _set("stages", lambda stages: stages[:1]),
         ["stages: the certificate holds 1 stage records, the inputs give 2"]),
    ],
    ids=["action-point-dropped", "family-point-dropped", "stage-eps-changed", "stage-dropped"],
)
def test_cli_verify_rebuilds_the_stages_from_the_inputs(tmp_path, capsys, kind, edit, expected):
    """A stage that covers other points than the inputs give fails with its inputs.

    Each forged certificate is consistent in itself (its margins are
    recomputed for the cut stage), so only the inputs can expose it.
    """
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
    more points and 0 to 3 maps, which need not be injective.
    """
    n = data.draw(st.integers(1, 8))
    tied = st.sampled_from(["0", "1/3", "1/2", "2/3", "5/7", "1"])
    strs = [[data.draw(tied) for _ in range(r)] for _ in range(n)]
    values = [[Fraction(v) for v in row] for row in strs]
    stages, margins = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        pts = data.draw(st.lists(st.integers(0, n - 1), max_size=10))
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
        "r": r,
        "eps": "1",
        "f0_values": strs,
        "observable_values": strs,
        "displacement": "0",
        "stages": stages,
        "margin": _text(min(margins)),
    }
    doc["cert_sha256"] = hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()
    assert verify_certificate(doc) == []


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
    assert rows[1:] == _orbit_rows(cert, cert.stages[0])
    assert len(rows) == 10


def test_orbit_csv_multi_stage(tmp_path):
    space = circle_space(9)
    action = GroupAction.from_generators(
        space, [rotation_perm(9, 1)], cap=5, require_closure=False
    )
    thirds = [rotation_perm(9, s) for s in (0, 3, 6)]
    cert = embed_equivariant(
        action, r=3, eps=Fraction(1, 10), seed=2,
        stages=[
            (thirds, None),
            (thirds, space.distance(0, 3)),     # orbits spread into 3 far points
        ],
    )
    assert cert.stages[1].points == tuple(range(9))
    base = str(tmp_path / "orbits.csv")
    files = write_orbit_csv(base, certificate_payload(cert))
    assert files == [base, str(tmp_path / "orbits.stage1.csv")]
    expected = ["point"] + [f"e{k}[{ell}]" for k in range(3) for ell in range(3)]
    for name, stage in zip(files, cert.stages):
        rows = _read_csv(name)
        assert rows[0] == expected
        assert rows[1:] == _orbit_rows(cert, stage)
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
    assert load_certificate(first)["config"].keys() == {"exact_cap", "group_cap"}

    # no environment variable reaches the run or the certificate
    monkeypatch.setenv("MENGER_THREADS", "zero")
    second = str(tmp_path / "second.json")
    assert main(embed + ["--out", second]) == 0
    capsys.readouterr()
    assert Path(first).read_bytes() == Path(second).read_bytes()


@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_cli_check_nmax_below_one_exits_one(tmp_path, capsys, nmax):
    space_path, action_path = _write_inputs(tmp_path)
    code = main(["check", "--space", space_path, "--action", action_path,
                 "--r", "1", "--nmax", nmax])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: n_max must be at least 1, got {nmax}\n"


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
    capsys.readouterr()


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
        assert main(check + ["--nmax", "1"]) == 0
        assert main(check) == 0
        out = capsys.readouterr().out
        # --nmax 1 checks one period, the default checks up to the orbit size 3
        assert "hypotheses: PASS (1 checks, r=1)" in out
        assert "hypotheses: PASS (3 checks, r=1)" in out
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
