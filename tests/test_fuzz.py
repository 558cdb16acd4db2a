"""Fuzzing of the places outside input enters.

Whatever bytes arrive, parse_graph6 returns a Graph or raises a
Rep3Error, and so does from_edge_json on any text.  Whatever byte lines
arrive, read_graph6_records yields graph6 records (bytes that
parse_graph6 accepts) or raises a Rep3Error.  `rep3 solve --graph`
built from inline graph6 text or an edge-list JSON file exits 0, 1 or
2 without raising, and names non-ASCII inline text and a file that is
not UTF-8 with their typed errors.
"""

import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from rep3.cli import run
from rep3.errors import Rep3Error
from rep3.graphcore import Graph, from_edge_json, parse_graph6, read_graph6_records, write_graph6

# orders kept small so that solving a decoded graph stays quick
_small_order = st.integers(1, 9)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner, max_size=3),
    max_leaves=20,
)


@st.composite
def edge_docs(draw):
    """Edge-list JSON text: mostly near-valid documents, some arbitrary
    values, and some nested past the decoder's recursion limit."""
    kind = draw(st.sampled_from(["near", "any", "deep"]))
    if kind == "deep":
        depth = draw(st.integers(900, 5000))
        return '{"n": 4, "edges": ' + "[" * depth + "]" * depth + "}"
    if kind == "any":
        return json.dumps(draw(json_values))
    n = draw(st.one_of(_small_order, json_values))
    edges = draw(st.lists(st.one_of(
        st.lists(st.integers(-1, 10), min_size=2, max_size=2), json_values,
    ), max_size=12))
    return json.dumps({"n": n, "edges": edges})


@st.composite
def graph6_specs(draw):
    """graph6 text: the record of a small graph, possibly mutated, or
    arbitrary printable bytes."""
    if draw(st.booleans()):
        n = draw(_small_order)
        bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        rows = [0] * n
        for (u, v), bit in zip(pairs, bits):
            if bit:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        rec = bytearray(write_graph6(Graph(n, tuple(rows))))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(rec)))
            rec[i:i + draw(st.integers(0, 1))] = bytes([draw(st.integers(33, 126))])
        return rec.decode("ascii")
    return draw(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                        min_size=1, max_size=12))


@st.composite
def non_ascii_specs(draw):
    """graph6 text with a non-ASCII character inserted."""
    spec = draw(graph6_specs())
    i = draw(st.integers(0, len(spec)))
    return spec[:i] + draw(st.characters(min_codepoint=128)) + spec[i:]


@st.composite
def non_utf8_docs(draw):
    """Edge-list JSON bytes with one byte inserted that no UTF-8 text
    holds (0xc0, 0xc1, 0xf5..0xff)."""
    data = draw(edge_docs()).encode("utf-8")
    i = draw(st.integers(0, len(data)))
    bad = draw(st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)]))
    return data[:i] + bytes([bad]) + data[i:]


def _decided_error(spec, data):
    """The stderr `rep3 solve` must print for input the encoding alone
    rules out, or None."""
    if data is not None:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return "error: edge-list file is not UTF-8\n"
    elif not spec.isascii() and not spec.startswith("@"):
        return "error: non-ascii record\n"
    return None


def _returns_graph_or_typed_error(parse, arg):
    try:
        assert isinstance(parse(arg), Graph)
    except Rep3Error:
        pass


@given(st.binary(max_size=64))
@settings(max_examples=400, deadline=None)
def test_parse_graph6_arbitrary_bytes(data):
    _returns_graph_or_typed_error(parse_graph6, data)


@given(st.one_of(st.text(max_size=40), edge_docs()))
@settings(max_examples=400, deadline=None)
def test_from_edge_json_arbitrary_text(text):
    _returns_graph_or_typed_error(from_edge_json, text)


@given(st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40),
    st.lists(graph6_specs(), max_size=4).map("\n".join),
    st.lists(st.text(max_size=12), max_size=4),
))
@settings(max_examples=400, deadline=None)
def test_read_graph6_records_arbitrary_text(source):
    # a file's bytes, text written as UTF-8, or a list of encoded lines
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        lines = io.BytesIO(source)
    else:
        lines = [line.encode("utf-8", "surrogatepass") for line in source]
    try:
        records = list(read_graph6_records(lines))
    except Rep3Error:
        return
    for rec in records:
        assert isinstance(rec, bytes) and isinstance(parse_graph6(rec), Graph)


@given(st.one_of(
    st.one_of(graph6_specs(), non_ascii_specs()).map(lambda s: (s, None)),
    st.one_of(edge_docs().map(str.encode), non_utf8_docs(), st.binary(max_size=40))
    .map(lambda b: (None, b)),
))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_solve_exits_0_1_or_2(capsys, tmp_path, case):
    # inline text, or the raw bytes of an edge-list file
    spec, data = case
    err = _decided_error(spec, data)
    if data is not None:
        path = tmp_path / "graph.json"
        path.write_bytes(data)
        spec = "@" + str(path)
    assert run(["solve", "--graph", spec]) in (0, 1, 2)
    captured = capsys.readouterr()
    if err is not None:
        assert captured.err == err
