import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import errors
from rep3.enumeration import (
    _canonical_search,
    canonical_form,
    catalogue_records,
    enumerate_graphs,
    read_graph6_records,
)
from rep3.graphcore import from_edge_list, parse_graph6, write_graph6

import helpers


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def isomorphic_naive(a, b):
    if a.n != b.n or sorted(a.degrees) != sorted(b.degrees):
        return False
    ea = set(map(frozenset, a.edges()))
    for perm in itertools.permutations(range(a.n)):
        if {frozenset((perm[u], perm[v])) for u, v in b.edges()} == ea:
            return True
    return False


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        for g in [helpers.p4(), helpers.c5(), helpers.paw(), helpers.antiregular5()]:
            base = canonical_form(g)
            for perm in itertools.permutations(range(g.n)):
                assert canonical_form(relabel(g, list(perm))) == base

    def test_distinguishes_p4_c4(self):
        assert canonical_form(helpers.p4()) != canonical_form(helpers.c4())

    def test_is_a_graph6_record_of_an_isomorph(self):
        for g in [helpers.paw(), helpers.antiregular5(), helpers.star(4)]:
            h = parse_graph6(canonical_form(g))
            assert isomorphic_naive(g, h)

    def test_regular_graphs(self):
        # highly symmetric inputs exercise the tie handling
        for g in [helpers.k5(), helpers.c5(), helpers.empty(5), helpers.c4()]:
            h = parse_graph6(canonical_form(g))
            assert sorted(h.degrees) == sorted(g.degrees)
            assert h.edge_count() == g.edge_count()

    def test_twin_heavy_graph(self):
        # complete bipartite K2,3 is full of interchangeable vertices
        g = from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        base = canonical_form(g)
        for perm in itertools.permutations(range(5)):
            assert canonical_form(relabel(g, list(perm))) == base

    def test_order_guard(self):
        assert canonical_form(from_edge_list(10, [(0, 9)]))
        with pytest.raises(errors.OrderTooLarge):
            canonical_form(from_edge_list(11, []))

    def test_k1(self):
        assert canonical_form(helpers.k1()) == b"@"

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_relabeling_agrees(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        perm = data.draw(st.permutations(range(n)))
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_distinct_forms_mean_nonisomorphic(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        h = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        assert (canonical_form(g) == canonical_form(h)) == isomorphic_naive(g, h)


def last_orbit_naive(g):
    """Vertices ending some lex-least degree-sorted ordering, by brute force."""
    best, last = None, set()
    for perm in itertools.permutations(range(g.n)):
        if any(g.degrees[a] > g.degrees[b] for a, b in zip(perm, perm[1:])):
            continue
        bits = tuple(
            g.has_edge(perm[i], perm[j]) for j in range(1, g.n) for i in range(j)
        )
        if best is None or bits < best:
            best, last = bits, set()
        if bits == best:
            last.add(perm[-1])
    return last


class TestLastOrbit:
    def test_twin_heavy_graphs(self):
        k23 = from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        for g in [k23, helpers.empty(5), helpers.star(4), helpers.c5(), helpers.paw()]:
            orbit = _canonical_search(g)[1]
            assert {v for v in range(g.n) if (orbit >> v) & 1} == last_orbit_naive(g)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        orbit = _canonical_search(g)[1]
        assert {v for v in range(n) if (orbit >> v) & 1} == last_orbit_naive(g)


class TestEnumerate:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]
    )
    def test_class_counts(self, n, count, graphs_by_n):
        assert len(graphs_by_n(n)) == count

    def test_no_duplicates(self, graphs_by_n):
        # every record is its own canonical form, so distinct records
        # are distinct classes
        for n in range(1, 8):
            records = [write_graph6(g) for g in graphs_by_n(n)]
            assert len(set(records)) == len(records)
            for rec in records:
                assert canonical_form(parse_graph6(rec)) == rec

    @pytest.mark.parametrize("n", [4, 5])
    def test_closure_small(self, n, graphs_by_n):
        # every labeled graph on n vertices maps onto an element
        stream_forms = {canonical_form(g) for g in graphs_by_n(n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (bits >> i) & 1]
            seen.add(canonical_form(from_edge_list(n, edges)))
        assert seen == stream_forms

    def test_deterministic_order(self):
        a = [write_graph6(g) for g in enumerate_graphs(5)]
        b = [write_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_stream_sorted_by_edge_count(self, graphs_by_n):
        keys = [(g.edge_count(), write_graph6(g)) for g in graphs_by_n(5)]
        assert keys == sorted(keys)

    def test_order_guard(self):
        with pytest.raises(errors.OrderTooLarge):
            list(enumerate_graphs(0))
        with pytest.raises(errors.OrderTooLarge):
            list(enumerate_graphs(10))
        for n in (0, 10):
            with pytest.raises(errors.OrderTooLarge):
                catalogue_records(n)

    def test_records_are_the_stream(self, graphs_by_n):
        for n in range(1, 8):
            assert list(catalogue_records(n)) == [write_graph6(g) for g in graphs_by_n(n)]

    def test_every_member_has_right_order(self, graphs_by_n):
        assert all(g.n == 5 for g in graphs_by_n(5))


class TestReadStream:
    def test_two_records(self):
        gs = [g for _, g in read_graph6_records(io.BytesIO(b"Bw\nCh\n"))]
        assert gs[0].degrees == (2, 2, 2)
        assert gs[1].degrees == (1, 2, 2, 1)

    def test_empty(self):
        assert list(read_graph6_records(io.BytesIO(b""))) == []

    def test_blank_lines_skipped(self):
        assert len(list(read_graph6_records(io.BytesIO(b"Bw\n\nCh\n")))) == 2

    def test_header_line(self):
        assert len(list(read_graph6_records(io.BytesIO(b">>graph6<<Bw\nCh\n")))) == 2

    def test_str_content(self):
        assert len(list(read_graph6_records("Bw\nCh\n"))) == 2

    def test_records_are_the_lines_own_bytes(self):
        text = b">>graph6<<Bw\n  Ch \r\n>>graph6<<>>graph6<<Bw\n"
        pairs = list(read_graph6_records(text))
        assert [rec for rec, _ in pairs] == [b"Bw", b"Ch", b"Bw"]
        assert all(rec == write_graph6(g) for rec, g in pairs)

    def test_malformed_line_number(self):
        with pytest.raises(errors.MalformedRecord) as exc:
            list(read_graph6_records(io.BytesIO(b"Bw\nB%w\nCh\n")))
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "source", ["Bw\n\u00e9\n", ["Bw\n", "Ch\u2028\n"], "Bw\n~\u00e9\n"]
    )
    def test_non_ascii_text_line_number(self, source):
        with pytest.raises(errors.MalformedRecord) as exc:
            list(read_graph6_records(source))
        assert exc.value.line == 2
        assert "non-ascii" in str(exc.value)

    def test_file_round_trip(self, tmp_path, graphs_by_n):
        path = tmp_path / "five.g6"
        with open(path, "wb") as fh:
            for g in graphs_by_n(5):
                fh.write(write_graph6(g) + b"\n")
        with open(path, "rb") as fh:
            back = [g for _, g in read_graph6_records(fh)]
        assert [write_graph6(g) for g in back] == [
            write_graph6(g) for g in graphs_by_n(5)
        ]
