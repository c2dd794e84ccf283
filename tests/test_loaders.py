"""Malformed input files: every loader failure is one input error, never a traceback."""

import json
import math
from unittest.mock import patch

import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from menger import io as io_module
from menger.cli import main
from menger.errors import InputError
from menger.fixtures import circle_space, rotation_perm
from menger.io import load_coords, load_family, load_space, save_space
from menger.space import FiniteSpace, axiom_issues

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


# Decoder equivalence: space, family and coords files are decoded by orjson,
# everything else by json; both must give the same values.  Documents are
# drawn as JSON text, so that one value can be spelled several ways.

def _float_text(x: float, style: int) -> str:
    """``x`` in its shortest spelling, with 17 significant digits, or with 40."""
    return (repr(x), f"{x:.17g}", f"{x:.16e}", f"{x:.40e}")[style]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)     # subnormals and -0.0 included
_FLOAT_TEXT = st.builds(_float_text, _FINITE, st.integers(0, 3))
_INT_TEXT = st.one_of(
    st.integers(-(2**63), 2**64 - 1), st.integers(-(10**308), 10**308)
).map(str)
_STRING_TEXT = st.builds(
    lambda s, ascii_only: json.dumps(s, ensure_ascii=ascii_only),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),   # orjson refuses lone surrogates
    st.booleans(),
)
_VALUE_TEXT = st.recursive(
    _FLOAT_TEXT | _INT_TEXT | _STRING_TEXT,
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]")
    | st.lists(st.tuples(_STRING_TEXT, inner), max_size=3).map(
        lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"
    ),
    max_leaves=8,
)


def _same_value(fast, slow) -> bool:
    """Whether orjson's ``fast`` is json's ``slow``, type for type and bit for bit.

    The one allowed difference: an integer literal outside [-2**63, 2**64)
    comes back as ``float(int)``.
    """
    if type(slow) is int and not -(2**63) <= slow < 2**64:
        return type(fast) is float and fast == float(slow)
    if type(fast) is not type(slow):
        return False
    if isinstance(slow, float):
        return math.copysign(1.0, fast) == math.copysign(1.0, slow) and fast == slow
    if isinstance(slow, list):
        return len(fast) == len(slow) and all(map(_same_value, fast, slow))
    if isinstance(slow, dict):
        return list(fast) == list(slow) and all(_same_value(fast[k], slow[k]) for k in slow)
    return fast == slow


def _both_decoders(load, path):
    """``load(path)`` with orjson decoding the file, then with json."""
    fast = load(path)
    with patch.object(io_module, "_ORJSON_MAX_OPENERS", -1):
        return fast, load(path)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_VALUE_TEXT)
def test_fast_decoder_returns_json_values_type_for_type(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    orjson.loads(path.read_bytes())     # accepted: the fast path decodes it
    fast = io_module._read_json(str(path), fast=True)
    assert _same_value(fast, json.loads(text))


@pytest.mark.parametrize("literal", [
    "2.2250738585072011e-308",      # the largest subnormal, spelled past it
    "2.2250738585072014e-308",      # the smallest normal
    "2.4703282292062327e-324",      # just under half the smallest subnormal: 0.0
    "2.4703282292062328e-324",      # just over it: the smallest subnormal
    "1.00000000000000011102230246251565404236316680908203125",   # halfway: rounds to even
    "1.00000000000000011102230246251565404236316680908203126",   # just past halfway
    "9007199254740993",             # 2**53 + 1, an integer literal
    "9007199254740993.0",           # the same as a float: 2**53
    "1.7976931348623157e308",
    "-0.0",
    "-0",
    "0.1e-999",
])
def test_fast_decoder_reads_hard_literals_as_json_does(tmp_path, literal):
    path = tmp_path / "doc.json"
    path.write_text(f"[{literal}]")
    orjson.loads(path.read_bytes())     # accepted: the fast path decodes it
    fast = io_module._read_json(str(path), fast=True)
    assert _same_value(fast, json.loads(f"[{literal}]"))


def _spelled(x) -> st.SearchStrategy[str]:
    """Some JSON spelling of the number ``x``."""
    if isinstance(x, int):
        return st.sampled_from([str(x), f"{x}.0", f"{x}e0", f"{x}0e-1"])
    return st.integers(0, 3).map(lambda style: _float_text(x, style))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(2, 5))
def test_loaders_build_the_same_objects_from_both_decoders(tmp_path, data, n):
    """A symmetric metric whose two halves are spelled independently, a family
    with escaped labels and a coords file load to equal objects either way;
    the metric is bitwise equal."""
    positive = st.floats(5e-324, 1e308) | st.integers(1, 2**70)
    upper = {(i, j): data.draw(positive) for i in range(n) for j in range(i + 1, n)}
    rows = [
        [
            data.draw(st.sampled_from(["0", "0.0", "-0.0", "0e0"])) if i == j
            else data.draw(_spelled(upper[min(i, j), max(i, j)]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    note = data.draw(_VALUE_TEXT)
    metric = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    space_path = tmp_path / "space.json"
    space_path.write_text(f'{{"metric": {metric}, "simplices": [[0, 1]], "note": {note}}}')
    fast, slow = _both_decoders(load_space, str(space_path))
    assert fast.metric.tobytes() == slow.metric.tobytes()
    assert (fast.simplices, fast.dim_labels) == (slow.simplices, slow.dim_labels)

    maps = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3, unique_by=tuple))
    labels = [data.draw(_STRING_TEXT) for _ in maps]
    family_path = tmp_path / "family.json"
    family_path.write_text(
        f'{{"maps": {json.dumps(maps)}, "labels": [{", ".join(labels)}], '
        f'"source": {{"metric": {metric}}}, "note": {note}}}'
    )
    try:
        fast_fam, slow_fam = _both_decoders(lambda p: load_family(p, slow), str(family_path))
    except InputError as exc:     # labels that coincide: json refuses them too
        with patch.object(io_module, "_ORJSON_MAX_OPENERS", -1), pytest.raises(InputError) as ref:
            load_family(str(family_path), slow)
        assert str(ref.value) == str(exc)
    else:
        assert (fast_fam.maps, fast_fam.labels) == (slow_fam.maps, slow_fam.labels)
        assert fast_fam.source.metric.tobytes() == slow_fam.source.metric.tobytes()

    dim = data.draw(st.integers(1, 3))
    points = [[data.draw(_FLOAT_TEXT | _INT_TEXT) for _ in range(dim)] for _ in range(n)]
    coords_path = tmp_path / "coords.json"
    coords_path.write_text(
        f'{{"dim": {dim}, "points": [{", ".join("[" + ", ".join(p) + "]" for p in points)}], '
        f'"note": {note}}}'
    )
    fast_co, slow_co = _both_decoders(load_coords, str(coords_path))
    assert fast_co == slow_co


def _padded_space(path, size):
    """A valid 3-point space file of exactly ``size`` bytes, padded by an unread key."""
    doc = '{"metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "note": "%s"}'
    path.write_text(doc % ("x" * (size - len(doc % ""))))
    assert len(path.read_bytes()) == size


@pytest.mark.parametrize("size, counted", [(200, 0), (10_000, 0), (10_001, 1), (30_000, 1)])
def test_only_a_document_longer_than_the_opener_bound_is_counted(tmp_path, size, counted):
    """A document of at most _ORJSON_MAX_OPENERS bytes cannot hold more
    openers, so it goes to orjson uncounted; a longer one is counted once."""
    path = tmp_path / "space.json"
    _padded_space(path, size)
    calls = []
    openers = io_module._openers

    def counted_openers(data):
        calls.append(len(data))
        return openers(data)

    with patch.object(io_module, "_openers", counted_openers):
        space = load_space(str(path))
    assert space.n_points == 3
    assert len(calls) == counted


@pytest.mark.parametrize("size", [200, 10_000, 10_001])
def test_a_bound_of_minus_one_sends_every_document_to_json(tmp_path, size):
    path = tmp_path / "space.json"
    _padded_space(path, size)
    with patch.object(io_module, "_ORJSON_MAX_OPENERS", -1), \
            patch.object(io_module.orjson, "loads", side_effect=AssertionError("orjson used")):
        assert load_space(str(path)).n_points == 3


def _reference_numbers(rows, name):
    """The per-row scan: the first entry, row-major, that is not a JSON number."""
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        if isinstance(row, list):
            for j, v in enumerate(row):
                if type(v) not in (int, float):
                    raise InputError(f"{name} must be a matrix of numbers: {name}[{i}][{j}] is {v!r}")


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1, "1.0"]], "metric[1][1] is '1.0'"),
    ([[0, True], [None, 0]], "metric[0][1] is True"),
    ([[0, 1.5], [1, 0], [None, 0]], "metric[2][0] is None"),
    ([[0, 1], [[1], 0]], "metric[1][0] is [1]"),
    # rows that are not lists are the shape checks' to refuse, and skipped here
    ([[0, 1], "ab", [1, "x"]], "metric[2][1] is 'x'"),
    ([[0, 1], 5, [False, 0]], "metric[2][0] is False"),
    ([[0, 1], {"k": 1}, [1, 0, []]], "metric[2][2] is []"),
    ([[0, 1], None, [1, 0]], None),
    ([[0, 1], "", {}], None),
    ("not rows", None),
])
def test_numbers_names_the_first_bad_entry_in_row_major_order(rows, message):
    for check in (io_module._numbers, _reference_numbers):
        if message is None:
            check(rows, "metric")
        else:
            with pytest.raises(InputError) as exc:
                check(rows, "metric")
            assert str(exc.value) == f"metric must be a matrix of numbers: {message}"


_ENTRY = st.integers(-3, 3) | st.floats(allow_nan=False) | st.sampled_from(
    ["1.0", " 1e0 ", True, False, None, [], [1], {}]
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_ENTRY, max_size=4) | st.sampled_from([5, "ab", None, {}]), max_size=5))
def test_numbers_refuses_as_the_per_row_scan_does(rows):
    outcomes = []
    for check in (io_module._numbers, _reference_numbers):
        try:
            check(rows, "points")
        except InputError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


# A metric that packs is read without its per-entry walk.  The reference is
# the loader before packing: the walk over every entry, the faces, the rows
# through np.array, then the axioms.  Both must give the same matrix, bit for
# bit, or the same exception with the same text.

def _reference_space(doc):
    metric = io_module._require(doc, "metric")
    _reference_numbers(metric, "metric")
    space = FiniteSpace.create(metric, *io_module._dimension_data(doc))
    issues = axiom_issues(space.metric)
    if issues:
        raise InputError(f"invalid metric space: {issues[0]}")
    return space


def _outcome(load, *args):
    try:
        space = load(*args)
    except Exception as exc:    # InputError, or what _reading turns into one
        return type(exc), str(exc)
    if not isinstance(space, FiniteSpace):
        space = space.source
    assert not space.metric.flags.writeable
    return space.metric.tobytes(), space.metric.shape, space.simplices, space.dim_labels


# Entries a metric may hold after decoding: JSON numbers, including ints
# around 2**53 and in the uint64 range orjson returns as ints, and values of
# every other JSON type, bools first.
_ODD_ENTRY = st.sampled_from([
    True, False, None, "1.0", " 1e0 ", "", [], [1], [[0]], {}, {"a": 1},
    math.nan, math.inf, -math.inf, -0.0, 0, 0.0, 1, 1.0, -1, 5,
    2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**400, 1e308,
])
_DISTANCE = {
    "float": st.floats(1e-3, 10.0) | st.sampled_from([1.0, 2.0, 0.5]),
    "int": st.integers(1, 2**64 + 5) | st.sampled_from([1, 2**53 + 1, 2**63, 2**64 - 1]),
    "discrete": st.sampled_from([1, 1.0]),
}


@st.composite
def _space_docs(draw):
    """A space object: a metric, usually a valid one with a few entries swapped
    for odd values, at times misshapen, and at times simplices."""
    n = draw(st.integers(1, 5))
    distance = _DISTANCE[draw(st.sampled_from(sorted(_DISTANCE)))]
    upper = {(i, j): draw(distance) for i in range(n) for j in range(i + 1, n)}
    rows = [
        [draw(st.sampled_from([0, 0.0, -0.0])) if i == j else upper[min(i, j), max(i, j)]
         for j in range(n)]
        for i in range(n)
    ]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(index), draw(index)
        rows[i][j] = draw(_ODD_ENTRY | st.integers(-(2**65), 2**65) | st.floats())
        if draw(st.booleans()):
            rows[j][i] = rows[i][j]
    shape = draw(st.sampled_from(["square"] * 6 + ["ragged", "empty row", "extra row", "not a row"]))
    if shape == "ragged":
        rows[draw(index)].append(1.0)
    elif shape == "empty row":
        rows[draw(index)] = []
    elif shape == "extra row":
        rows.append([1.0] * n)
    elif shape == "not a row":
        rows[draw(index)] = draw(st.sampled_from([5, "ab", None, {}, True]))
    doc = {"metric": draw(st.sampled_from([rows] * 8 + [[], 5, "ab", None, {}, [[]], [[], []]]))}
    simplices = draw(st.sampled_from([None, None, [[0]], [[0, 9]], [[True]], "ab", [5]]))
    if simplices is not None:
        doc["simplices"] = simplices
    return doc


def _assert_loaders_match_the_reference(tmp_path, doc, text):
    assert _outcome(io_module._space_from_doc, doc) == _outcome(_reference_space, doc)
    space_path = tmp_path / "space.json"
    space_path.write_text(text)
    family_path = tmp_path / "family.json"
    metric = doc["metric"]
    k = len(metric) if isinstance(metric, list) and 0 < len(metric) <= 8 else 1
    family_path.write_text(f'{{"maps": [{list(range(k))}], "source": {text}}}')
    target = circle_space(8)
    fast = [_outcome(load_space, str(space_path)), _outcome(load_family, str(family_path), target)]
    with patch.object(io_module, "_space_from_doc", _reference_space):
        reference = [_outcome(load_space, str(space_path)),
                     _outcome(load_family, str(family_path), target)]
    assert fast == reference


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_space_docs())
def test_packed_metric_loads_as_the_walk_then_array_did(tmp_path, doc):
    """Each space object, read directly, from a space file and as a family's
    source, gives the same matrix bytes or the same exception and text as
    the walk-then-np.array reference.  NaN and the infinities are written
    as json spells them, so json reads those files after orjson refuses them."""
    _assert_loaders_match_the_reference(tmp_path, doc, json.dumps(doc))


_NOT_A_NUMBER = "metric must be a matrix of numbers: "


@pytest.mark.parametrize("metric, message", [
    # a false off the diagonal of a matrix whose diagonal is also bad
    ("[[5, 1, false], [1, 0, 1], [false, 1, 0]]", _NOT_A_NUMBER + "metric[0][2] is False"),
    ("[[0, 1, 1], [1, false, 1], [1, 1, 0]]", _NOT_A_NUMBER + "metric[1][1] is False"),
    ("[[0, 1, 1], [1, 0, true], [1, 1.0, 0]]", _NOT_A_NUMBER + "metric[1][2] is True"),
    ("[[0, 1.0, 1.0], [1.0, 0, 1.0], [true, 1.0, 0]]", _NOT_A_NUMBER + "metric[2][0] is True"),
    ("[[false, 2], [2, 0]]", _NOT_A_NUMBER + "metric[0][0] is False"),
    ("[[0, 2], [2, 0], [1, 1]]", "metric must be a square matrix, got shape (3, 2)"),
    ("[[0, 1e400], [1e400, 0]]", "invalid metric space: metric[0][1]: not a finite number"),
    ("[[0, NaN], [1, 0]]", "invalid metric space: metric[0][1]: not a finite number"),
    ("[[0, Infinity], [-Infinity, 0]]", "invalid metric space: metric[0][1]: not a finite number"),
    ("[[0, 1e400], [1e400, 0], true]", _NOT_A_NUMBER),
    ("[[0, %s], [1, 0]]" % ("9" * 4301), "invalid JSON: "),
    ("[[0, %s], [1, 0]]" % ("9" * 400), "malformed document: "),
    ("[[0, 9007199254740993], [9007199254740993, 0]]", None),
    ("[[0, 18446744073709551615], [18446744073709551615, 0]]", None),
    ("[[0, 18446744073709551616], [18446744073709551616, 0]]", None),
    ("[[-0.0, 1], [1, -0.0]]", None),
    ("[[0, 1, 1], [1, 0, 1], [1, 1, 0]]", None),
    ("[]", "metric must be a square matrix, got shape (0,)"),
])
def test_hard_metrics_load_as_the_walk_then_array_did(tmp_path, metric, message):
    """Literals that only json reads (NaN, Infinity, 1e400, past the int digit
    limit), ints at the edges of float and uint64, bools where the packed
    matrix reads 0.0 or 1.0: the same outcome as the reference, and the
    message expected (None: the space loads)."""
    text = f'{{"metric": {metric}}}'
    path = tmp_path / "space.json"
    path.write_text(text)
    outcome = _outcome(load_space, str(path))
    if message is None:
        assert isinstance(outcome[0], bytes)
    else:
        assert outcome[0] is InputError and message in outcome[1]
    try:
        doc = io_module._read_json(str(path), fast=True)
    except InputError:
        return      # refused before any loader sees it
    _assert_loaders_match_the_reference(tmp_path, doc, text)


def test_a_clean_matrix_is_never_walked(tmp_path, capsys):
    """check, embed and verify read a clean space file and a family's source
    without the per-entry walk, floats and int distances of 1 alike; a bool
    among the 1.0 distances is walked once and named."""
    walked = []
    numbers = io_module._numbers

    def counted(rows, name):
        walked.append(name)
        return numbers(rows, name)

    save_space(circle_space(N), str(tmp_path / "space.json"))
    source = json.loads((tmp_path / "space.json").read_text())
    family = {"maps": [_rotation(s) for s in (0, 2, 4)], "source": source}
    (tmp_path / "family.json").write_text(json.dumps(family))
    (tmp_path / "int3.json").write_text('{"metric": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}')
    (tmp_path / "identity3.json").write_text('{"maps": [[0, 1, 2]]}')
    runs = [("space.json", "family.json"), ("int3.json", "identity3.json")]
    with patch.object(io_module, "_numbers", counted):
        for space, family in runs:
            inputs = ["--space", str(tmp_path / space), "--family", str(tmp_path / family)]
            cert = str(tmp_path / f"{space}.cert.json")
            assert main(["check", *inputs, "--r", "1"]) == 0
            assert main(["embed", *inputs, "--r", "1", "--eps", "1/20", "--seed", "1", "--out", cert]) == 0
            assert main(["verify", "--cert", cert, *inputs]) == 0
        assert "metric" not in walked

        (tmp_path / "true3.json").write_text('{"metric": [[0, 1.0, 1.0], [1.0, 0, true], [1.0, 1.0, 0]]}')
        assert main(["check", "--space", str(tmp_path / "true3.json"),
                     "--family", str(tmp_path / "identity3.json"), "--r", "1"]) == 1
        assert walked.count("metric") == 1
    assert capsys.readouterr().err.endswith(_NOT_A_NUMBER + "metric[1][2] is True\n")


@pytest.mark.parametrize("at", [io_module._OPENER_SLICE - 1, io_module._OPENER_SLICE,
                                io_module._OPENER_SLICE + 1])
def test_openers_are_counted_across_slice_edges(at):
    data = bytearray(b" " * (2 * io_module._OPENER_SLICE + 3))
    for k, c in ((0, b"["), (at - 1, b"{"), (at, b"["), (at + 1, b"{"), (len(data) - 1, b"[")):
        data[k:k + 1] = c
    data = bytes(data)
    assert io_module._openers(data) == data.count(b"[") + data.count(b"{") == 5


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=64), size=st.integers(1, 9))
def test_openers_count_every_slice_as_the_whole(data, size):
    with patch.object(io_module, "_OPENER_SLICE", size):
        assert io_module._openers(data) == data.count(b"[") + data.count(b"{")


def test_a_bool_is_named_before_a_face_nested_too_deeply(tmp_path):
    """A face whose repr passes the recursion limit fails while the packed
    matrix is built into a space; the walk still names the bool first."""
    deep = "[" * 3000 + "]" * 3000
    text = f'{{"metric": [[0, true], [true, 0]], "simplices": [{deep}]}}'
    path = tmp_path / "space.json"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_space(str(path))
    assert str(exc.value).endswith(_NOT_A_NUMBER + "metric[0][1] is True")
    _assert_loaders_match_the_reference(tmp_path, io_module._read_json(str(path), fast=True), text)
