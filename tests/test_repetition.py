from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rep3.errors import MalformedRecord, OrderOutOfRange
from rep3.graphcore import _check, _degree_counts, complement, from_edge_list, parse_graph6, write_graph6
from rep3.harness import _EXEMPT, _identity_worker
from rep3.solver import min_deletion_for_rep3

import helpers
from helpers import profile


def random_graph(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])


class TestRep:
    def test_c5_all_equal(self):
        assert profile(helpers.c5()).rep == 5

    def test_p4(self):
        assert profile(helpers.p4()).rep == 2

    def test_star(self):
        assert profile(helpers.star(3)).rep == 3

    def test_k1(self):
        assert profile(helpers.k1()).rep == 1

    def test_antiregular5(self):
        assert profile(helpers.antiregular5()).rep == 2

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_complement_invariant(self, n, data):
        g = random_graph(n, data)
        assert profile(g).rep == profile(complement(g)).rep


class TestProfile:
    def test_antiregular5(self):
        p = profile(helpers.antiregular5())
        assert p.rep == 2
        assert p.s_set == frozenset({2})
        assert p.t_set == frozenset()

    def test_c4(self):
        p = profile(helpers.c4())
        assert p.rep == 4
        assert p.s_set == frozenset()
        assert p.t_set == frozenset({1, 3})

    def test_k3(self):
        p = profile(helpers.k3())
        assert (p.rep, p.s_set, p.t_set) == (3, frozenset(), frozenset({1}))

    def test_k2(self):
        p = profile(helpers.k2())
        assert (p.rep, p.s_set, p.t_set) == (2, frozenset({1}), frozenset())

    def test_degree_zero_outside_both_sets(self):
        # degrees (0,0,0): the repeated degree 0 is below the tracked
        # range [1, n-1], so it lands in neither set
        p = profile(helpers.empty(3))
        assert p.rep == 3
        assert p.s_set == frozenset()
        assert p.t_set == frozenset({1, 2})

    def test_k1_ranges_empty(self):
        p = profile(helpers.k1())
        assert p.rep == 1
        assert p.s_set == frozenset() and p.t_set == frozenset()

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_multiplicities_sum_to_n(self, n, data):
        g = random_graph(n, data)
        p = profile(g)
        assert p.rep == max(Counter(g.degrees).values())
        assert not (p.s_set & p.t_set)
        assert all(1 <= d <= n - 1 for d in p.s_set | p.t_set)


class TestHasThreeEqual:
    # three equal degrees with nothing deleted: the solver's witness rule
    # is the first three vertices, by index, of the smallest degree held
    # by three or more

    @staticmethod
    def witness(g):
        c = min_deletion_for_rep3(g, 0)
        return None if c is None else c.witness

    def test_c5(self):
        assert self.witness(helpers.c5()) == (0, 1, 2)

    def test_p4_none(self):
        assert self.witness(helpers.p4()) is None

    def test_star_leaves(self):
        assert self.witness(helpers.star(3)) == (1, 2, 3)

    def test_smallest_degree_wins(self):
        # isolated triple (degree 0) beats the triangle (degree 2)
        g = from_edge_list(6, [(3, 4), (3, 5), (4, 5)])
        assert self.witness(g) == (0, 1, 2)

    def test_degree_order_not_index_order(self):
        # vertex 0 has the unique low degree; witness is the repeated one
        g = complement(helpers.star(3))
        assert g.degrees == (0, 2, 2, 2)
        assert self.witness(g) == (1, 2, 3)

    def test_index_tiebreak_within_degree(self):
        # four vertices of equal degree: lexicographically first triple
        assert self.witness(helpers.c4()) == (0, 1, 2)

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_witness_iff_rep3(self, n, data):
        g = random_graph(n, data)
        cert = min_deletion_for_rep3(g, 0)
        if profile(g).rep >= 3:
            a, b, c = cert.witness
            assert cert.deleted == ()
            assert len({a, b, c}) == 3
            assert g.degrees[a] == g.degrees[b] == g.degrees[c] == cert.witness_degree
        else:
            assert cert is None


def reference_code(rec):
    """The code byte _identity_worker gives rec, from the public profile."""
    g = parse_graph6(rec)
    p = profile(g)
    if p.rep > 2 or 0 in g.degrees:
        return _EXEMPT
    return 16 * len(p.s_set) + len(p.t_set)


def chunked_codes(records, size):
    """_identity_worker over records cut into spans of size records."""
    return b"".join(
        _identity_worker(b"".join(records[i:i + size])) for i in range(0, len(records), size)
    )


class TestIdentityCodes:
    @pytest.mark.parametrize("size", [1, 2, 7, None])
    def test_catalogue_through_order_8_matches_profile(self, size):
        for n in range(1, 9):
            records = helpers.catalogue_records(n)
            assert list(chunked_codes(records, size or len(records))) == [
                reference_code(rec) for rec in records
            ]

    @given(st.integers(1, 9), st.integers(1, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_labeled_records_match_profile(self, n, count, data):
        # labeled graphs in any vertex order, not only catalogue classes
        records = [write_graph6(random_graph(n, data)) for _ in range(count)]
        span = b"".join(records)
        assert list(_identity_worker(span)) == [reference_code(rec) for rec in records]
        order, lanes, counts = _degree_counts(span)
        assert order == n
        degrees = [parse_graph6(rec).degrees for rec in records]
        assert [tuple(lane) for lane in lanes] == [*zip(*degrees)]
        assert [tuple(lane) for lane in counts] == [
            tuple(degs.count(d) for degs in degrees) for d in range(n)
        ]

    @pytest.mark.extended
    def test_order_9_matches_profile(self):
        records = helpers.catalogue_records(9)
        assert len(records) == 274668
        assert list(_identity_worker(b"".join(records))) == [reference_code(rec) for rec in records]

    @pytest.mark.parametrize(
        "span,bad", [pytest.param(span, bad, id=name) for name, span, bad in helpers.BAD_SPANS]
    )
    def test_a_bad_record_inside_a_chunk_raises_as_check_does(self, span, bad):
        with pytest.raises(MalformedRecord) as alone:
            _check(bad)
        with pytest.raises(MalformedRecord) as caught:
            _identity_worker(span)
        assert str(caught.value) == str(alone.value)

    @pytest.mark.parametrize(
        "span,orders", [(b"BwC~", [3, 4]), (b"BwDQc", [3, 5])], ids=["one-width", "two-widths"]
    )
    def test_records_of_two_orders_raise(self, span, orders):
        # each record is well formed alone; read together as one order,
        # K4 would be counted as a graph of order 3
        with pytest.raises(MalformedRecord) as caught:
            _identity_worker(span)
        assert str(caught.value) == f"records of orders {orders} in one run"

    def test_orders_past_31_raise(self):
        assert _identity_worker(write_graph6(helpers.empty(31))) == bytes([_EXEMPT])
        with pytest.raises(OrderOutOfRange):
            _identity_worker(write_graph6(helpers.empty(32)))
