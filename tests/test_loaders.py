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
