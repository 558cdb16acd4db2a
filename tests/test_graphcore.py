import json
import pytest
from hypothesis import given, settings, strategies as st

from rep3 import errors
from rep3.graphcore import (
    Graph,
    complement,
    delete_vertices,
    from_edge_json,
    from_edge_list,
    parse_graph6,
    to_edge_json,
    write_graph6,
)

import helpers


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


def edge_set(g):
    return {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)}


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
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

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
        with pytest.raises(errors.EndpointOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(errors.EndpointOutOfRange):
            from_edge_list(3, [(-1, 2)])

    def test_degree_sum_even(self):
        g = helpers.antiregular5()
        assert sum(g.degrees) % 2 == 0

    def test_neighbors(self):
        g = helpers.p4()
        assert g.neighbors(0) == (1,)
        assert g.neighbors(1) == (0, 2)
        assert g.neighbor_mask(2) == (1 << 1) | (1 << 3)


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
            lost = sum(1 for d in dset if g0.has_edge(old, d))
            assert g.degree(new) == g0.degree(old) - lost

    def test_delete_everything_rejected(self):
        with pytest.raises(errors.EmptyResult):
            delete_vertices(helpers.k3(), [0, 1, 2])

    def test_bad_vertex_rejected(self):
        with pytest.raises(errors.VertexOutOfRange):
            delete_vertices(helpers.k3(), [5])

    def test_mask_argument(self):
        # an int is read as a bit mask, not a single index
        g, remap = delete_vertices(helpers.p4(), 0b1000)
        assert g.n == 3 and remap == {0: 0, 1: 1, 2: 2}


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

    def test_str_input_accepted(self):
        assert parse_graph6("Bw").degrees == (2, 2, 2)

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
        with pytest.raises(errors.UnsupportedOrder):
            parse_graph6(b"~??" + b"?" * 100)

    def test_write_order_cap(self):
        with pytest.raises(errors.UnsupportedOrder):
            write_graph6(from_edge_list(63, []))

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if data.draw(st.booleans())]
        g = from_edge_list(n, edges)
        assert edge_set(parse_graph6(write_graph6(g))) == set(edges)


class TestEdgeJson:
    def test_roundtrip(self):
        g = helpers.antiregular5()
        h = from_edge_json(to_edge_json(g))
        assert h.n == g.n and edge_set(h) == edge_set(g)

    def test_shape(self):
        doc = json.loads(to_edge_json(helpers.k2()))
        assert doc == {"n": 2, "edges": [[0, 1]]}

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

    def test_deletion_does_not_mutate(self):
        g = helpers.p4()
        before = edge_set(g)
        delete_vertices(g, [0, 1])
        assert edge_set(g) == before
