import gc
import hashlib
import io
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import enumeration, errors, harness
from rep3.enumeration import (
    _canonical_search,
    catalogue_lines,
    enumerate_graphs,
)
from rep3.graphcore import (
    _pack,
    _width,
    complement,
    from_edge_list,
    parse_graph6,
    read_graph6_records,
    write_graph6,
)

import helpers
from helpers import catalogue_records


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
            base = _canonical_search(g)[0]
            for perm in itertools.permutations(range(g.n)):
                assert _canonical_search(relabel(g, list(perm)))[0] == base

    def test_distinguishes_p4_c4(self):
        assert _canonical_search(helpers.p4())[0] != _canonical_search(helpers.c4())[0]

    def test_is_a_graph6_record_of_an_isomorph(self):
        for g in [helpers.paw(), helpers.antiregular5(), helpers.star(4)]:
            h = parse_graph6(_canonical_search(g)[0])
            assert isomorphic_naive(g, h)

    def test_regular_graphs(self):
        # highly symmetric inputs exercise the tie handling
        for g in [helpers.k5(), helpers.c5(), helpers.empty(5), helpers.c4()]:
            h = parse_graph6(_canonical_search(g)[0])
            assert sorted(h.degrees) == sorted(g.degrees)
            assert h.edge_count() == g.edge_count()

    def test_twin_heavy_graph(self):
        # complete bipartite K2,3 is full of interchangeable vertices
        g = from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        base = _canonical_search(g)[0]
        for perm in itertools.permutations(range(5)):
            assert _canonical_search(relabel(g, list(perm)))[0] == base

    def test_k1(self):
        assert _canonical_search(helpers.k1())[0] == b"@"

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_relabeling_agrees(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        perm = data.draw(st.permutations(range(n)))
        assert _canonical_search(g)[0] == _canonical_search(relabel(g, perm))[0]

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_distinct_forms_mean_nonisomorphic(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        h = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        assert (_canonical_search(g)[0] == _canonical_search(h)[0]) == isomorphic_naive(g, h)


def last_orbit_naive(g, w=None):
    """(least code, vertices at the last W-position of an ordering that
    spells it) over the degree-sorted orderings, by brute force; W is
    the vertex set w, all vertices by default.  A code is the ordering's
    upper-triangle bits, column by column, the first bit most significant."""
    w = set(range(g.n)) if w is None else w
    best, last = None, set()
    for perm in itertools.permutations(range(g.n)):
        if any(g.degrees[a] > g.degrees[b] for a, b in zip(perm, perm[1:])):
            continue
        code = 0
        for j in range(1, g.n):
            for i in range(j):
                code = (code << 1) | (g.rows[perm[i]] >> perm[j] & 1)
        if best is None or code < best:
            best, last = code, set()
        if code == best:
            last.add([v for v in perm if v in w][-1])
    return best, last


def heaviest(g):
    """The vertices of maximum degree whose neighbour-degree sum is
    largest, the W that generation passes to the search."""
    top = max(g.degrees)
    sums = {
        v: sum(g.degrees[u] for u in range(g.n) if g.rows[u] >> v & 1)
        for v in range(g.n)
        if g.degrees[v] == top
    }
    return {v for v, s in sums.items() if s == max(sums.values())}


def assert_search_matches_brute_force(g, w=None):
    mask = None if w is None else sum(1 << v for v in w)
    form, orbit = _canonical_search(g, mask)
    code, last = last_orbit_naive(g, w)
    assert form == _pack(g.n, code)
    assert {v for v in range(g.n) if (orbit >> v) & 1} == last


def cycle(n):
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def twin_heavy_graphs():
    k23 = from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    # regular graphs of orders 7 and 8: every one of the n! orderings
    # is degree-sorted, so the refinement, the twin cut and the prune
    # meet the most ties; the parts of K4,4 and 2K4 interleave labels
    cube = from_edge_list(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    k44 = from_edge_list(8, [(u, v) for u in range(0, 8, 2) for v in range(1, 8, 2)])
    two_k4 = from_edge_list(8, [(u, v) for u in range(8) for v in range(u + 2, 8, 2)])
    # a triangle and a star joined by an edge: of its two vertices of
    # degree 3, only the triangle's is in W
    tied = from_edge_list(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (1, 2)])
    return [k23, helpers.empty(5), helpers.star(4), helpers.c5(), helpers.paw(),
            cycle(7), cycle(8), cube, k44, two_k4, tied]


class TestLastOrbit:
    def test_twin_heavy_graphs(self):
        for g in twin_heavy_graphs():
            assert_search_matches_brute_force(g)

    def test_twin_heavy_graphs_last_w_orbit(self):
        for g in twin_heavy_graphs():
            assert_search_matches_brute_force(g, heaviest(g))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        assert_search_matches_brute_force(g)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_last_w_orbit_matches_brute_force(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        assert_search_matches_brute_force(g, heaviest(g))


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
                assert _canonical_search(parse_graph6(rec))[0] == rec

    @pytest.mark.parametrize("n", [4, 5])
    def test_closure_small(self, n, graphs_by_n):
        # every labeled graph on n vertices maps onto an element
        stream_forms = {_canonical_search(g)[0] for g in graphs_by_n(n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (bits >> i) & 1]
            seen.add(_canonical_search(from_edge_list(n, edges))[0])
        assert seen == stream_forms

    def test_deterministic_order(self):
        a = [write_graph6(g) for g in enumerate_graphs(5)]
        b = [write_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_stream_sorted_by_edge_count(self, graphs_by_n):
        keys = [(g.edge_count(), write_graph6(g)) for g in graphs_by_n(5)]
        assert keys == sorted(keys)

    def test_order_guard(self):
        with pytest.raises(errors.OrderOutOfRange):
            list(enumerate_graphs(0))
        with pytest.raises(errors.OrderOutOfRange):
            list(enumerate_graphs(10))
        for n in (0, 10):
            with pytest.raises(errors.OrderOutOfRange):
                catalogue_lines(n)

    def test_records_are_the_stream(self, graphs_by_n):
        for n in range(1, 8):
            assert list(catalogue_records(n)) == [write_graph6(g) for g in graphs_by_n(n)]

    def test_every_member_has_right_order(self, graphs_by_n):
        assert all(g.n == 5 for g in graphs_by_n(5))


def generated(monkeypatch, max_n, jobs):
    """The records of orders 1..max_n generated afresh, each order by one
    _map of jobs processes, split from their compact forms."""
    monkeypatch.setattr(enumeration, "_catalogue", {1: b"@"})
    compact = [enumeration._fill(n, jobs) for n in range(1, max_n + 1)]
    return [helpers.split(blob) for blob in compact]


def test_each_order_is_stored_as_one_bytes(monkeypatch):
    # a fill leaves each order as its records joined: one object, not one
    # per record, in catalogue order
    compact = generated(monkeypatch, 7, 2)
    for n, records in enumerate(compact, 1):
        stored = enumeration._catalogue[n]
        assert type(stored) is bytes
        assert len(stored) == enumeration.A000088[n] * _width(n)
        assert stored == b"".join(records)
        assert len(records) == enumeration.A000088[n]
        assert all(rec[0] == 63 + n for rec in records)


def test_lines_are_the_records():
    # the lines rep3 gen prints are the records of the enumeration stream
    for n in range(1, 9):
        stream = [write_graph6(g) for g in enumerate_graphs(n)]
        assert catalogue_lines(n) == b"".join(rec + b"\n" for rec in stream)


def sha256_lines(records):
    """SHA-256 of the records as rep3 gen prints them, one a line."""
    return hashlib.sha256(b"".join(rec + b"\n" for rec in records)).hexdigest()


def degrees_sorted(rec):
    """Whether the record's degrees do not fall as its labels rise, as
    the lemma scan, which reads records in their own labels, needs."""
    degs = parse_graph6(rec).degrees
    return list(degs) == sorted(degs)


def test_records_do_not_depend_on_jobs(monkeypatch):
    serial = generated(monkeypatch, 8, 1)
    assert generated(monkeypatch, 8, 2) == serial
    assert [len(r) for r in serial] == [1, 2, 4, 11, 34, 156, 1044, 12346]
    assert all(degrees_sorted(rec) for level in serial for rec in level)
    # the catalogue bytes themselves, pinned
    assert sha256_lines(rec for level in serial for rec in level) == (
        "479b003ab5b61e68593f53081253247b0913f90736b492d6ae1e527044e7d197"
    )


@pytest.mark.extended
def test_order_9_records_do_not_depend_on_jobs(monkeypatch):
    serial = generated(monkeypatch, 9, 1)[-1]
    assert generated(monkeypatch, 9, 2)[-1] == serial
    assert len(serial) == 274668
    assert all(map(degrees_sorted, serial))
    assert sha256_lines(serial) == (
        "47ac6131c6d03adcd6babbb21a5790596207baa263d8bc6378fbcfe5f6d01c2e"
    )


def assert_closed_under_complement(records):
    """The complement of every record, canonically searched, is one of
    the records."""
    known = set(records)
    for rec in records:
        assert _canonical_search(complement(parse_graph6(rec)))[0] in known


def test_catalogue_closed_under_complement():
    # half of each order is generated as complements; this checks the
    # middle edge count, generated directly, against that half too
    for n in range(1, 9):
        assert_closed_under_complement(catalogue_records(n))


@pytest.mark.extended
def test_order_9_closed_under_complement():
    assert_closed_under_complement(catalogue_records(9))


@pytest.fixture
def asked_chunks(monkeypatch):
    """The children forked and the chunk sizes cut for every map shared
    with children while the test runs, on a host taken to have two
    cores (helpers.ForkSpy)."""
    return helpers.ForkSpy(monkeypatch)


def compact(n, count):
    """A compact form of count distinct records of order n, each its
    order byte, then its index in data bytes that no map reads."""
    return b"".join(bytes([63 + n]) + i.to_bytes(_width(n) - 1, "big") for i in range(count))


def records_back(span):
    """A chunk worker: each record of its span itself, in order."""
    return helpers.split(span)


def test_ordered_chunks_are_bounded(asked_chunks):
    # an order-9 sweep maps 274,668 records; a child runs ahead of the
    # main process by at most its pipe's buffer and one chunk, so every
    # map is cut into 16 chunks per process, each worker call takes one
    # chunk, and each shared map forks one child at two jobs
    big = compact(9, 300_000)
    assert list(enumeration._map(records_back, [big], 2)) == helpers.split(big)
    for size in (31, 32, 1_000):
        blob = compact(5, size)
        assert list(enumeration._map(records_back, [blob], 2)) == helpers.split(blob)
    # two orders share the rule, counted over both, and each is cut
    # on its own: 1,500 records make chunks of 46
    nine, five = compact(9, 1_000), compact(5, 500)
    expected = helpers.split(nine) + helpers.split(five)
    assert list(enumeration._map(records_back, [nine, b"", five], 2)) == expected
    assert asked_chunks.chunks == [
        (1, [9_375] * 32),
        # 31 records, under 16 per worker, ran in this process
        (1, [1] * 32),
        (1, [31] * 32 + [8]),
        (1, [46] * 21 + [34] + [46] * 10 + [40]),
    ]


@pytest.mark.parametrize("jobs,sizes", [(1, [62] * 16 + [8]), (2, [1] * 31)])
def test_maps_in_this_process_cut_the_same_chunks(asked_chunks, jobs, sizes):
    # at one job, or with under 16 records per worker, the map runs here
    # with the chunk rule of a shared map, and forks nothing
    seen = []

    def records_here(span):
        seen.append(len(span) // _width(5))
        return records_back(span)

    blob = compact(5, sum(sizes))
    assert list(enumeration._map(records_here, [blob], jobs)) == helpers.split(blob)
    assert seen == sizes
    assert asked_chunks.chunks == []


def test_a_dropped_map_reaps_its_children_at_once(asked_chunks):
    # a shared map owns its children: dropped unfinished, it kills and
    # reaps them there and then, with no wait for the cycle collector
    blob = compact(9, 3_000)
    results = enumeration._map(records_back, [blob], 2)
    assert next(results) == blob[:_width(9)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del results
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        if enabled:
            gc.enable()
    assert asked_chunks.children == [1]


def test_fill_maps_parents_in_order(asked_chunks, monkeypatch):
    # a cold fill maps each order's parents through the same ordered map
    # the sweeps use; orders 6 and 7 extend 34 and 156 parents, each
    # order's map shared with one child
    warm = {n: catalogue_records(n) for n in range(1, 8)}
    asked_chunks.clear()
    monkeypatch.setattr(enumeration, "_catalogue", {n: b"".join(warm[n]) for n in range(1, 6)})
    assert catalogue_records(7) == warm[7]
    assert enumeration._catalogue[6] == b"".join(warm[6])
    assert asked_chunks.chunks == [(1, [1] * 34), (1, [4] * 39)]


def test_pooled_chunks_are_spans_of_one_order(asked_chunks, monkeypatch):
    # a cold fill of orders 6 and 7, then a sweep of orders 5..7, each
    # map shared with one child: each chunk is one slice of one order's
    # compact form (the spy checks it), and each worker call takes that
    # span itself
    catalogue_lines(5)
    warm = {n: enumeration._catalogue[n] for n in range(1, 6)}
    monkeypatch.setattr(enumeration, "_catalogue", warm)
    monkeypatch.setattr(enumeration, "_children", helpers.OneSpan("_children"))
    monkeypatch.setattr(harness, "_theorem_worker", helpers.OneSpan("_theorem_worker"))
    asked_chunks.clear()
    report = harness.verify_theorem(5, 7, jobs=2)
    assert report.verified and report.checked == 34 + 156 + 1044
    assert asked_chunks.chunks == [
        (1, [1] * 34),
        (1, [4] * 39),
        # 1,234 records make chunks of 38, and each order is cut on its own
        (1, [34] + [38] * 4 + [4] + [38] * 27 + [18]),
    ]


class TestLevelCounts:
    def test_orders_sum_to_a000088(self):
        for n, count in enumerate(enumeration.A000088):
            assert sum(enumeration._level_counts(n)) == count

    def test_rows_are_oeis_a008406(self):
        assert enumeration._level_counts(4) == [1, 1, 2, 3, 2, 1, 1]
        assert enumeration._level_counts(5) == [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]
        row9 = enumeration._level_counts(9)
        assert row9[:5] == [1, 1, 2, 5, 11] and row9[18] == 34040

    def test_rows_are_symmetric(self):
        for n in range(1, 10):
            row = enumeration._level_counts(n)
            assert row == row[::-1]

    def test_catalogue_levels(self):
        for n in range(1, 9):
            edges = [parse_graph6(rec).edge_count() for rec in catalogue_records(n)]
            row = enumeration._level_counts(n)
            assert [edges.count(e) for e in range(len(row))] == row


class TestReadStream:
    def test_two_records(self):
        gs = [parse_graph6(rec) for rec in read_graph6_records(io.BytesIO(b"Bw\nCh\n"))]
        assert gs[0].degrees == (2, 2, 2)
        assert gs[1].degrees == (1, 2, 2, 1)

    def test_empty(self):
        assert list(read_graph6_records(io.BytesIO(b""))) == []

    def test_blank_lines_skipped(self):
        assert len(list(read_graph6_records(io.BytesIO(b"Bw\n\nCh\n")))) == 2

    def test_header_line(self):
        assert len(list(read_graph6_records(io.BytesIO(b">>graph6<<Bw\nCh\n")))) == 2

    def test_records_are_the_lines_own_bytes(self):
        text = b">>graph6<<Bw\n  Ch \r\n>>graph6<<>>graph6<<Bw\n"
        records = list(read_graph6_records(io.BytesIO(text)))
        assert records == [b"Bw", b"Ch", b"Bw"]
        assert all(rec == write_graph6(parse_graph6(rec)) for rec in records)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(b"Bw\nB%w\nCh\n", id="bad_byte"),
            pytest.param(b"Bw\n~abc\n", id="multi_byte_order"),
        ],
    )
    def test_malformed_line_number(self, text):
        with pytest.raises(errors.MalformedRecord) as exc:
            list(read_graph6_records(io.BytesIO(text)))
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "source", ["Bw\n\u00e9\n", ["Bw\n", "Ch\u2028\n"], "Bw\n~\u00e9\n"]
    )
    def test_non_ascii_text_line_number(self, source):
        # text written to a file as UTF-8, read back as byte lines
        if isinstance(source, str):
            lines = io.BytesIO(source.encode("utf-8"))
        else:
            lines = [line.encode("utf-8") for line in source]
        with pytest.raises(errors.MalformedRecord) as exc:
            list(read_graph6_records(lines))
        assert exc.value.line == 2
        assert "non-ascii" in str(exc.value)

    @pytest.mark.parametrize(
        "text,expected",
        [
            pytest.param(b"Bw\rCh\n", 1, id="lone_cr"),
            pytest.param(b"Bw\r\nCh\r\n", [b"Bw", b"Ch"], id="crlf"),
            pytest.param(b"Bw\n\rCh", [b"Bw", b"Ch"], id="cr_leads_line"),
            pytest.param(b"Bw\n\nCh\rB%w\n", 3, id="cr_hides_bad_record"),
            pytest.param(b"Bw\x0bCh\n", 1, id="vertical_tab"),
        ],
    )
    def test_every_source_splits_at_newline_only(self, text, expected):
        # a binary file's lines end at b"\n" only
        try:
            outcome = list(read_graph6_records(io.BytesIO(text)))
        except errors.MalformedRecord as exc:
            outcome = exc.line
        assert outcome == expected

    def test_file_round_trip(self, tmp_path, graphs_by_n):
        path = tmp_path / "five.g6"
        with open(path, "wb") as fh:
            for g in graphs_by_n(5):
                fh.write(write_graph6(g) + b"\n")
        with open(path, "rb") as fh:
            back = [parse_graph6(rec) for rec in read_graph6_records(fh)]
        assert [write_graph6(g) for g in back] == [
            write_graph6(g) for g in graphs_by_n(5)
        ]
