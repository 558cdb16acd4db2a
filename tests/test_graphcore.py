import json
import sys
import threading
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import errors, graphcore
from rep3.errors import MalformedRecord, OrderOutOfRange
from rep3.graphcore import (
    Graph,
    _check,
    _pack,
    complement,
    delete_vertices,
    from_edge_json,
    from_edge_list,
    parse_graph6,
    write_graph6,
)

import helpers
from helpers import catalogue_records


# hand-encoded graph6 records: bits are the upper triangle read column by
# column, packed into 6-bit groups, each group offset by 63
G6_CASES = [
    (b"@", 1, []),
    (b"A?", 2, []),
    (b"A_", 2, [(0, 1)]),
    (b"Bw", 3, [(0, 1), (0, 2), (1, 2)]),
    (b"Bg", 3, [(0, 1), (1, 2)]),
    (b"Ch", 4, [(0, 1), (1, 2), (2, 3)]),
    (b"C~", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    (b"D??", 5, []),
    (b"D~{", 5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
    (b"Dhc", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
]


def random_graph(n, data):
    """An order-n graph whose vertex pairs are drawn as one bit field."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    code = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edge_list(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def reference_parse(record):
    """Decode a header-free graph6 record one vertex pair at a time."""
    n = record[0] - 63
    bits = "".join(format(byte - 63, "06b") for byte in record[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edge_list(n, [p for p, bit in zip(pairs, bits) if bit == "1"])


def graph_of(n, code):
    """The order-n graph whose upper-triangle bits, column by column, are
    those of code, the first bit most significant."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    top = len(pairs) - 1
    return from_edge_list(n, [p for k, p in enumerate(pairs) if code >> (top - k) & 1])


def reference_unpack(record):
    """(n, code) of a header-free graph6 record, each data byte checked
    as it is decoded: the reference for _check, which decodes nothing."""
    if not record:
        raise MalformedRecord("empty record")
    if record[0] == 126:
        raise OrderOutOfRange("multi-byte order encoding not supported")
    n = record[0] - 63
    if n < 1 or n > 62:
        raise MalformedRecord(f"order byte decodes to {n}, outside [1, 62]")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(record) - 1 != need:
        raise MalformedRecord(
            f"expected {need} data bytes for order {n}, got {len(record) - 1}"
        )
    code = 0
    for byte in record[1:]:
        if not 63 <= byte <= 126:
            raise MalformedRecord(f"data byte {byte} outside [63, 126]")
        code = (code << 6) | (byte - 63)
    pad = 6 * need - nbits
    if code & ((1 << pad) - 1):
        raise MalformedRecord("nonzero padding bits")
    return n, code >> pad


def reference_column_parse(record):
    """The column-walk decoder parse_graph6 had before its byte table,
    checks and messages included: the reference for the table decode."""
    n, code = reference_unpack(record.removeprefix(b">>graph6<<"))
    rows = [0] * n
    bit = n * (n - 1) // 2
    for j in range(1, n):
        bit -= j
        col = (code >> bit) & ((1 << j) - 1)  # bit j-1-i: is i joined to j
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    return Graph(n, tuple(rows))


@st.composite
def near_records(draw):
    """An order byte and a data length that is right or one off, with
    data bytes in range but for up to two: records that get past the
    early checks."""
    head = draw(st.one_of(st.integers(60, 76), st.sampled_from([124, 125, 126, 127])))
    n = head - 63
    need = (n * (n - 1) // 2 + 5) // 6 if 1 <= n <= 62 else draw(st.integers(0, 4))
    size = max(0, need + draw(st.sampled_from([0, 0, 0, -1, 1])))
    data = bytearray(63 + b % 64 for b in draw(st.binary(min_size=size, max_size=size)))
    for i, byte in draw(st.lists(st.tuples(st.integers(0, 316), st.integers(0, 255)), max_size=2)):
        if size:
            data[i % size] = byte
    return bytes([head]) + bytes(data)


def edge_set(g):
    return {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.rows[u] >> v & 1}


class TestConstruction:
    def test_k3_degrees(self):
        g = helpers.k3()
        assert g.n == 3
        assert g.degrees == (2, 2, 2)

    def test_p4_degree_sequence(self):
        assert helpers.p4().degrees == (1, 2, 2, 1)

    def test_antiregular5_degree_sequence(self):
        assert helpers.antiregular5().degrees == (4, 3, 2, 2, 1)

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert edge_set(g) == {(0, 1)}
        assert g.degrees == (1, 1, 0)

    def test_symmetry_and_no_loops(self):
        g = helpers.paw()
        for u in range(g.n):
            assert not g.rows[u] >> u & 1
            for v in range(g.n):
                assert g.rows[u] >> v & 1 == g.rows[v] >> u & 1

    def test_order_bounds(self):
        with pytest.raises(errors.OrderOutOfRange):
            from_edge_list(0, [])
        with pytest.raises(errors.OrderOutOfRange):
            from_edge_list(65, [])
        assert from_edge_list(64, []).n == 64

    def test_loop_rejected(self):
        with pytest.raises(errors.LoopEdge):
            from_edge_list(3, [(1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(errors.VertexOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(errors.VertexOutOfRange):
            from_edge_list(3, [(-1, 2)])

    def test_degree_sum_even(self):
        g = helpers.antiregular5()
        assert sum(g.degrees) % 2 == 0


class TestDeletion:
    def test_p4_minus_end_is_p3(self):
        g, remap = delete_vertices(helpers.p4(), [3])
        assert g.n == 3
        assert g.degrees == (1, 2, 1)
        assert remap == {0: 0, 1: 1, 2: 2}

    def test_empty_deletion_is_identity(self):
        g0 = helpers.k3()
        g, remap = delete_vertices(g0, [])
        assert g.degrees == g0.degrees
        assert edge_set(g) == edge_set(g0)
        assert remap == {0: 0, 1: 1, 2: 2}
        # a Graph is immutable, so deleting nothing returns g itself
        assert delete_vertices(g0, ()) == (g0, {0: 0, 1: 1, 2: 2})
        assert delete_vertices(g0, ())[0] is g0

    def test_star_minus_center(self):
        g, _ = delete_vertices(helpers.star(3), [0])
        assert g.degrees == (0, 0, 0)

    def test_index_map_order_preserving(self):
        g, remap = delete_vertices(helpers.antiregular5(), [1, 3])
        assert remap == {0: 0, 2: 1, 4: 2}
        assert g.n == 3

    def test_degree_formula(self):
        g0 = helpers.antiregular5()
        dset = [0, 2]
        g, remap = delete_vertices(g0, dset)
        for old, new in remap.items():
            lost = sum(1 for d in dset if g0.rows[old] >> d & 1)
            assert g.degrees[new] == g0.degrees[old] - lost

    def test_delete_everything_rejected(self):
        with pytest.raises(errors.EmptyResult):
            delete_vertices(helpers.k3(), [0, 1, 2])

    def test_bad_vertex_rejected(self):
        with pytest.raises(errors.VertexOutOfRange):
            delete_vertices(helpers.k3(), [5])

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_edge_list_reference(self, n, data):
        # the reduced graph rebuilt from the surviving pairs, relabeled
        # in order; deletions may repeat and come in any order
        g = random_graph(n, data)
        size = data.draw(st.integers(0, n))
        d = data.draw(st.permutations(range(n)))[:size]
        d += data.draw(st.lists(st.sampled_from(d), max_size=2)) if d else []
        keep = [v for v in range(n) if v not in d]
        if not keep:
            with pytest.raises(errors.EmptyResult):
                delete_vertices(g, d)
            return
        new = {old: i for i, old in enumerate(keep)}
        expected = from_edge_list(
            len(keep), [(new[u], new[v]) for u, v in g.edges() if u in new and v in new]
        )
        assert delete_vertices(g, d) == (expected, new)


class TestComplement:
    def test_k3_complement_empty(self):
        assert edge_set(complement(helpers.k3())) == set()

    def test_involution(self):
        g = helpers.p4()
        assert edge_set(complement(complement(g))) == edge_set(g)

    def test_degree_identity(self):
        g = helpers.antiregular5()
        h = complement(g)
        assert h.degrees == tuple(g.n - 1 - d for d in g.degrees)

    def test_c5_self_complementary(self):
        # explicit relabeling 0->0, 1->2, 2->4, 3->1, 4->3 carries the
        # complement's edges onto the cycle's edges
        g = helpers.c5()
        h = complement(g)
        sigma = {0: 0, 1: 2, 2: 4, 3: 1, 4: 3}
        mapped = {tuple(sorted((sigma[u], sigma[v]))) for (u, v) in edge_set(h)}
        assert mapped == edge_set(g)


class TestGraph6:
    @pytest.mark.parametrize("record,n,edges", G6_CASES)
    def test_parse_known_records(self, record, n, edges):
        g = parse_graph6(record)
        assert g.n == n
        assert edge_set(g) == set(edges)

    @pytest.mark.parametrize("record,n,edges", G6_CASES)
    def test_write_known_records(self, record, n, edges):
        assert write_graph6(from_edge_list(n, edges)) == record

    def test_header_tolerated(self):
        assert parse_graph6(b">>graph6<<Bw").degrees == (2, 2, 2)

    def test_roundtrip_fixture_catalogue(self, catalogue_records):
        for rec in catalogue_records:
            assert write_graph6(parse_graph6(rec)) == rec

    @pytest.mark.parametrize("bad", [b"", b"B", b"Bww", b"C", b"Bw extra"])
    def test_malformed_length(self, bad):
        with pytest.raises(errors.MalformedRecord):
            parse_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # K5 needs 10 bits, so the last byte carries 2 padding bits; its
        # group value is 111100 = 60 and setting a padding bit gives 62
        parse_graph6(b"D~{")
        assert b"D~{"[2] == 63 + 60
        with pytest.raises(errors.MalformedRecord):
            parse_graph6(b"D~" + bytes([63 + 62]))

    def test_byte_below_offset_rejected(self):
        with pytest.raises(errors.MalformedRecord):
            parse_graph6(b"B\x1f")

    def test_order_zero_rejected(self):
        with pytest.raises(errors.MalformedRecord):
            parse_graph6(b"?")

    def test_multibyte_order_unsupported(self):
        with pytest.raises(errors.OrderOutOfRange):
            parse_graph6(b"~??" + b"?" * 100)

    @given(st.one_of(st.binary(max_size=24), near_records()))
    @settings(max_examples=500, deadline=None)
    def test_check_agrees_with_reference_decoder(self, record):
        # _check raises exactly when the decoding check does, with the
        # same type and message, and otherwise returns the same order
        try:
            expected = reference_unpack(record)
        except (MalformedRecord, OrderOutOfRange) as exc:
            with pytest.raises(type(exc)) as caught:
                _check(record)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
            return
        assert _check(record) == expected[0]
        assert parse_graph6(record) == graph_of(*expected)
        assert write_graph6(parse_graph6(record)) == _pack(*expected)

    @given(
        st.sampled_from([b"", b">>graph6<<"]),
        st.one_of(st.binary(max_size=24), near_records()),
    )
    @settings(max_examples=500, deadline=None)
    def test_parse_agrees_with_column_decoder(self, header, record):
        # the table decode raises exactly when the column walk did, with
        # the same type and message, and otherwise builds the same graph
        try:
            expected = reference_column_parse(header + record)
        except (MalformedRecord, OrderOutOfRange) as exc:
            with pytest.raises(type(exc)) as caught:
                parse_graph6(header + record)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
            return
        assert parse_graph6(header + record) == expected

    def test_write_order_cap(self):
        with pytest.raises(errors.OrderOutOfRange):
            write_graph6(from_edge_list(63, []))

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if data.draw(st.booleans())]
        g = from_edge_list(n, edges)
        assert edge_set(parse_graph6(write_graph6(g))) == set(edges)
        code = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        assert parse_graph6(_pack(n, code)) == graph_of(n, code)
        assert write_graph6(parse_graph6(_pack(n, code))) == _pack(n, code)

    @given(st.integers(1, 62), st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_matches_pair_reference(self, n, data):
        record = write_graph6(random_graph(n, data))
        assert parse_graph6(record) == reference_parse(record)
        assert write_graph6(parse_graph6(record)) == record

    @pytest.mark.parametrize("large_first", [True, False])
    def test_table_growth_order(self, monkeypatch, large_first):
        # every catalogue record of orders 1..8 and one order-62 record
        # decode as the per-pair reference does, whichever grows the table
        # first, through parse_graph6 one record at a time and through
        # _records one span per order; orders up to 9 need six
        # positions, order 62 all 316
        small = [rec for n in range(1, 9) for rec in catalogue_records(n)]
        small.append(write_graph6(helpers.seeded_graph(9, 9)))
        large = write_graph6(helpers.seeded_graph(62, 62))
        records = [large] + small if large_first else small
        expected = list(map(reference_parse, records))

        def through_spans(records):
            spans = [b"".join(run) for _, run in groupby(records, key=lambda rec: rec[0])]
            return [g for span in spans for _, g in graphcore._records(span)]

        for decode in (lambda records: list(map(parse_graph6, records)), through_spans):
            monkeypatch.setattr(graphcore, "_TABLE", [])
            assert decode(records) == expected
            assert len(graphcore._TABLE) == (316 if large_first else 6)
            assert decode([large]) == [reference_parse(large)]
            assert len(graphcore._TABLE) == 316

    def test_table_grown_by_many_threads(self, monkeypatch):
        # threads that grow the table at once append each position once
        records = [write_graph6(helpers.seeded_graph(n, n)) for n in (9, 30, 45, 62)]
        expected = [reference_parse(rec) for rec in records]
        failures = []

        def decode_all(shift):
            for k in range(len(records)):
                rec = records[(k + shift) % len(records)]
                if parse_graph6(rec) != reference_parse(rec):
                    failures.append(rec)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(graphcore, "_TABLE", [])
                threads = [
                    threading.Thread(target=decode_all, args=(t,)) for t in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(graphcore._TABLE) == 316
        finally:
            sys.setswitchinterval(switch)
        assert failures == []
        assert [parse_graph6(rec) for rec in records] == expected


SPAN_ORDERS = [*range(1, 13), 30, 62]


@st.composite
def near_spans(draw):
    """Valid records of one order joined, as a catalogue span, then one
    byte changed, the span cut short, or a record of another order
    appended; or left whole."""
    n = draw(st.sampled_from(SPAN_ORDERS))
    codes = st.integers(0, (1 << n * (n - 1) // 2) - 1)
    span = bytearray(b"".join(_pack(n, code) for code in draw(st.lists(codes, min_size=1, max_size=4))))
    change = draw(st.sampled_from(["whole", "byte", "cut", "append"]))
    if change == "byte":
        byte = draw(st.one_of(st.integers(63, 126), st.integers(0, 255)))
        span[draw(st.integers(0, len(span) - 1))] = byte
    elif change == "cut":
        del span[draw(st.integers(0, len(span) - 1)):]
    elif change == "append":
        m = draw(st.sampled_from([m for m in SPAN_ORDERS if m != n]))
        span += _pack(m, draw(st.integers(0, (1 << m * (m - 1) // 2) - 1)))
    return bytes(span)


class TestRecords:
    @given(near_spans())
    @settings(max_examples=400, deadline=None)
    def test_near_valid_spans(self, span):
        # _records checks the whole span when it is called and decodes
        # its records with no check of their own: it raises exactly when
        # some record, split at the first record's width, fails _check
        # or spells another order, and otherwise reads what parse_graph6
        # reads from each record
        try:
            records = helpers.split(span)
            whole = all(_check(rec) == span[0] - 63 for rec in records)
        except (IndexError, errors.Rep3Error):  # an empty span, or a bad record
            whole = False
        if whole:
            assert list(graphcore._records(span)) == [(rec, parse_graph6(rec)) for rec in records]
        else:
            with pytest.raises(errors.Rep3Error):
                graphcore._records(span)


class TestEdgeJson:
    def test_roundtrip(self):
        g = helpers.antiregular5()
        h = from_edge_json(json.dumps({"n": g.n, "edges": g.edges()}))
        assert h.n == g.n and edge_set(h) == edge_set(g)

    def test_parse_explicit(self):
        g = from_edge_json('{"n": 4, "edges": [[0,1],[1,2],[2,3]]}')
        assert g.degrees == (1, 2, 2, 1)

    @pytest.mark.parametrize(
        "text",
        ['{"edges": []}', '{"n": 3}', '{"n": 3, "edges": [[0]]}', "[]", "not json"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises((errors.Rep3Error, ValueError)):
            from_edge_json(text)


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = helpers.p4()
        b = from_edge_list(4, [(2, 3), (1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != helpers.c4()

    def test_not_equal_to_other_types(self):
        assert helpers.p4().__eq__("Ch") is NotImplemented and helpers.p4() != "Ch"

    def test_deletion_does_not_mutate(self):
        g = helpers.p4()
        before = edge_set(g)
        delete_vertices(g, [0, 1])
        assert edge_set(g) == before
