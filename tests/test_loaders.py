"""Malformed input files: every loader failure is one input error, never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from menger.cli import main
from menger.fixtures import circle_space, rotation_perm
from menger.io import save_space

N = 6


def _rotation(step):
    return list(rotation_perm(N, step))


def _valid_docs(tmp_path):
    """Valid space, family, action, observable and coords documents on a 6-point circle."""
    save_space(circle_space(N), str(tmp_path / "space.json"))
    space = json.loads((tmp_path / "space.json").read_text())
    return {
        "space": space,
        "family": {
            "maps": [_rotation(s) for s in (0, 2, 4)],
            "labels": ["a", "b", "c"],
            "source": space,
        },
        "action": {
            "generators": [_rotation(2)],
            "stages": [
                {"elements": [_rotation(s) for s in (0, 2, 4)], "eps_sep": None},
                {"elements": [_rotation(0), _rotation(3)], "eps_sep": "1/2"},
            ],
        },
        "f0": {"r": 1, "values": [[f"{k}/7"] for k in range(1, N + 1)]},
        "coords": {"dim": 2, "points": [[k, k * k] for k in range(N)]},
    }


def _embed(tmp_path, docs, maps_kind):
    """Write the documents and run ``embed`` on them with every optional input."""
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return main([
        "embed", "--space", str(tmp_path / "space.json"),
        f"--{maps_kind}", str(tmp_path / f"{maps_kind}.json"),
        "--r", "1", "--eps", "1/20",
        "--f0", str(tmp_path / "f0.json"),
        "--backend", "bricks", "--coords", str(tmp_path / "coords.json"),
        "--out", str(tmp_path / "cert.json"),
    ])


def _maps_kind(kind):
    return "family" if kind == "family" else "action"


def test_valid_documents_embed(tmp_path, capsys):
    docs = _valid_docs(tmp_path)
    assert _embed(tmp_path, docs, "family") == 0
    assert _embed(tmp_path, docs, "action") == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("action", ("generators",), 5),
        ("action", ("stages",), 5),
        ("action", ("stages", 0, "elements"), 5),
        ("f0", ("r",), "abc"),
        ("f0", ("values",), 5),
        ("f0", ("values", 0), 5),
        ("family", ("labels",), 5),
        ("family", ("maps",), 5),
        ("coords", ("dim",), "x"),
        ("coords", ("points",), 5),
        # a string where a list belongs would be read character by character
        ("family", ("labels",), "abc"),
        ("family", ("maps",), "012345"),
        ("family", ("maps", 0), "012345"),
        ("coords", ("points",), "012345"),
        ("coords", ("points", 0), "01"),
        ("action", ("generators", 0), "234501"),
        ("action", ("stages", 0, "elements", 0), "012345"),
        ("f0", ("values", 0), "1"),
        ("space", ("simplices", 0), "01"),
        # an empty stage list would certify nothing
        ("action", ("stages",), []),
        # float() and numpy would read each of these as a number
        ("space", ("metric", 0, 1), "0.5"),
        ("space", ("metric", 1, 0), True),
        ("coords", ("points", 0, 0), "0"),
        ("coords", ("points", 1, 1), True),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_cli_value_of_the_wrong_type_exits_one(tmp_path, capsys, kind, path, value):
    docs = _valid_docs(tmp_path)
    target = docs[kind]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    code = _embed(tmp_path, docs, _maps_kind(kind))
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path / kind}.json: ")


# Each value here reads as a valid index or count under int(), which truncates
# 1.7 to 1 and True to 1; it is refused instead, in a line naming its field.
@pytest.mark.parametrize(
    "kind, path, value, field",
    [
        ("family", ("maps", 0, 1), 1.7, "maps[0]"),
        ("family", ("maps", 0, 1), True, "maps[0]"),
        ("f0", ("r",), 1.9, "r"),
        ("f0", ("r",), True, "r"),
        ("action", ("generators", 0, 0), 2.0, "generators[0]"),
        ("action", ("stages", 0, "elements", 0, 1), True, "stage 0 element 0"),
        ("coords", ("dim",), 2.0, "dim"),
        ("space", ("simplices", 0, 1), True, "simplices[0]"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_cli_index_that_is_not_an_integer_exits_one(tmp_path, capsys, kind, path, value, field):
    docs = _valid_docs(tmp_path)
    target = docs[kind]
    for step in path[:-1]:
        target = target[step]
    assert target[path[-1]] == int(value)       # what int() would have read it as
    target[path[-1]] = value
    code = _embed(tmp_path, docs, _maps_kind(kind))
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path / kind}.json: {field}")


@pytest.mark.parametrize("eps_sep", ["-1", "0"])
@pytest.mark.parametrize(
    "step, steps",
    [
        # every F-orbit is a full orbit, so no separation is ever asked for
        (4, (0, 4, 8)),
        # F-orbits of 5 points out of 12, so every point asks for one
        (1, (0, 1, 2, 3, 4)),
    ],
)
def test_cli_nonpositive_eps_sep_exits_one_naming_the_file(tmp_path, capsys, eps_sep, step, steps):
    space_path = tmp_path / "space.json"
    action_path = tmp_path / "action.json"
    save_space(circle_space(12), str(space_path))
    stage = {"elements": [list(rotation_perm(12, s)) for s in steps], "eps_sep": eps_sep}
    action_path.write_text(
        json.dumps({"generators": [list(rotation_perm(12, step))], "stages": [stage]})
    )
    code = main([
        "embed", "--space", str(space_path), "--action", str(action_path),
        "--group-cap", "5", "--r", "1", "--eps", "1/20",
        "--out", str(tmp_path / "cert.json"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {action_path}: stage 0 eps_sep: must be positive, got {eps_sep}\n"


@pytest.mark.parametrize("eps_sep", [None, "1/1000"])
@pytest.mark.parametrize("command", ["check", "embed", "verify"])
def test_cli_empty_stage_elements_exit_one_naming_the_file(tmp_path, capsys, eps_sep, command):
    """A stage without elements embeds nothing: every command refuses its file."""
    space_path = str(tmp_path / "space.json")
    save_space(circle_space(12), space_path)
    generators = [list(rotation_perm(12, 4))]
    whole_path = tmp_path / "whole.json"
    whole_path.write_text(json.dumps({"generators": generators}))
    action_path = tmp_path / "action.json"
    stage = {"elements": [], "eps_sep": eps_sep}
    action_path.write_text(json.dumps({"generators": generators, "stages": [stage]}))
    cert_path = str(tmp_path / "cert.json")
    embed = ["embed", "--space", space_path, "--r", "1", "--eps", "1/20"]
    assert main([*embed, "--action", str(whole_path), "--out", cert_path]) == 0
    argv = {
        "check": ["check", "--space", space_path, "--r", "1"],
        "embed": [*embed, "--out", str(tmp_path / "never.json")],
        "verify": ["verify", "--cert", cert_path, "--space", space_path],
    }[command]
    capsys.readouterr()
    code = main([*argv, "--action", str(action_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {action_path}: stage 0 elements: the list is empty\n"
    assert "PASS" not in captured.out
    assert not (tmp_path / "never.json").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _key_paths(doc, prefix=()):
    """The path to every value of a document, the document itself included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _key_paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), kind=st.sampled_from(["space", "family", "action", "f0", "coords"]))
def test_cli_embed_survives_any_value_swapped_into_an_input(tmp_path, capsys, data, kind):
    """Any JSON value at any key of one input file gives an exit code, never a traceback."""
    docs = _valid_docs(tmp_path)
    path = data.draw(st.sampled_from(list(_key_paths(docs[kind]))), label="path")
    docs[kind] = _replace(docs[kind], path, data.draw(_JSON, label="value"))
    code = _embed(tmp_path, docs, _maps_kind(kind))
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: ")
