import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations

from rep3 import errors, solver
from rep3.graphcore import complement, delete_vertices, from_edge_list, parse_graph6
from rep3.solver import (
    DeletionCertificate,
    check_certificate,
    min_deletion_for_rep3,
    solve3,
)

import helpers
from helpers import catalogue_records, profile

# SHA-256 of json.dumps([solve3(g).to_dict() for g in every class of
# orders 5..8]), classes in catalogue_records order: every certificate
# solve3 returns there, byte for byte
CERTIFICATES_5_8_SHA256 = "92dca1b266d21e9eb9080fd7ea3aa99a6339c2f4d5b8c030a53bc91ed70fa36a"


def random_graph(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])


def reference_certificate(g, max_k):
    """The minimum-deletion certificate by building each reduced graph:
    sets by increasing size, then lexicographically; the witness is the
    first three vertices, by index, of the smallest reduced degree that
    three or more share."""
    for k in range(max_k + 1):
        for d in combinations(range(g.n), k):
            h, remap = delete_vertices(g, d)
            by_degree = {}
            for v in range(g.n):
                if v in remap:
                    by_degree.setdefault(h.degrees[remap[v]], []).append(v)
            shared = [deg for deg, vs in by_degree.items() if len(vs) >= 3]
            if shared:
                deg = min(shared)
                return DeletionCertificate(g.n, d, tuple(by_degree[deg][:3]), deg)
    return None


class TestOracle:
    def test_k3_zero_budget(self):
        c = min_deletion_for_rep3(helpers.k3(), 0)
        assert c.deleted == ()
        assert c.witness == (0, 1, 2)
        assert c.witness_degree == 2

    def test_p4_never(self):
        assert min_deletion_for_rep3(helpers.p4(), 0) is None
        assert min_deletion_for_rep3(helpers.p4(), 1) is None

    def test_antiregular5(self):
        c = min_deletion_for_rep3(helpers.antiregular5(), 2)
        assert c.deleted == (1,)
        assert c.witness == (2, 3, 4)
        assert c.witness_degree == 1
        assert c.original_order == 5

    def test_budget_above_cap_rejected(self):
        with pytest.raises(errors.BudgetExceedsOrder):
            min_deletion_for_rep3(helpers.c5(), 3)
        with pytest.raises(errors.BudgetExceedsOrder):
            min_deletion_for_rep3(helpers.k3(), -1)

    def test_miss_below_minimum(self):
        assert min_deletion_for_rep3(helpers.antiregular5(), 0) is None

    def test_minimality(self):
        # first hit is reported at the smallest size
        g = helpers.c5()
        assert min_deletion_for_rep3(g, 2).deleted == ()

    def test_builds_no_reduced_graph(self, graphs_by_n, monkeypatch):
        # the search reads its certificate off the accepted mask; only
        # check_certificate builds reduced graphs
        expected = {
            (g, k): reference_certificate(g, k)
            for n in (5, 6, 7)
            for g in graphs_by_n(n)
            for k in range(n - 2)
        }

        def refuse(g, d):
            raise AssertionError("the search built a reduced graph")

        monkeypatch.setattr(solver, "delete_vertices", refuse)
        for (g, k), cert in expected.items():
            assert min_deletion_for_rep3(g, k) == cert

    def test_matches_the_mask_search_at_every_budget(self, graphs_by_n):
        # the zero-deletion answer read off the sorted degrees, and the
        # set loop from size 1, give the plain search's certificate
        graphs = [parse_graph6(rec) for rec in helpers.labeled_records()]
        graphs += [g for n in range(3, 8) for g in graphs_by_n(n)]
        for g in graphs:
            for k in range(g.n - 2):
                assert min_deletion_for_rep3(g, k) == helpers.mask_search_certificate(g, k)

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_certificate_checks_out(self, n, data):
        g = random_graph(n, data)
        c = min_deletion_for_rep3(g, n - 3)
        assert c is not None  # guaranteed at these orders
        assert check_certificate(g, c)
        assert c == reference_certificate(g, n - 3)


class TestSolve3:
    def test_k5(self):
        c = solve3(helpers.k5())
        assert c.deleted == ()
        assert c.witness == (0, 1, 2)
        assert c.witness_degree == 4

    def test_antiregular5(self):
        c = solve3(helpers.antiregular5())
        assert c.deleted == (1,)
        assert c.witness == (2, 3, 4)

    def test_small_orders_rejected(self):
        for g in [helpers.p4(), helpers.k3(), helpers.k1()]:
            with pytest.raises(errors.OrderOutOfRange):
                solve3(g)

    def test_budget_respected_at_n5(self):
        # only two deletions are allowed at order 5
        for g in [helpers.c5(), helpers.antiregular5(), helpers.star(4)]:
            assert len(solve3(g).deleted) <= 2

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_is_the_oracle_on_every_class(self, n, graphs_by_n):
        for g in graphs_by_n(n):
            assert solve3(g) == min_deletion_for_rep3(g, min(3, n - 3))

    def test_certificates_pinned(self):
        certs = [
            solve3(parse_graph6(rec)).to_dict()
            for n in range(5, 9)
            for rec in catalogue_records(n)
        ]
        digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
        assert digest == CERTIFICATES_5_8_SHA256

    def test_oracle_miss_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "min_deletion_for_rep3", lambda g, k: None)
        with pytest.raises(errors.TheoremViolation):
            solve3(helpers.c5())

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_exactness_against_oracle(self, n, data):
        g = random_graph(n, data)
        c = solve3(g)
        o = min_deletion_for_rep3(g, n - 3)
        assert len(c.deleted) == len(o.deleted)
        assert len(c.deleted) <= min(3, n - 3)
        assert check_certificate(g, c)

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_complement_same_size(self, n, data):
        g = random_graph(n, data)
        assert len(solve3(g).deleted) == len(solve3(complement(g)).deleted)

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rep_actually_reaches_three(self, n, data):
        from rep3.graphcore import delete_vertices

        g = random_graph(n, data)
        c = solve3(g)
        h, _ = delete_vertices(g, c.deleted)
        assert profile(h).rep >= 3


class TestCheckCertificate:
    def test_valid(self):
        g = helpers.k3()
        assert check_certificate(g, DeletionCertificate(3, (), (0, 1, 2), 2))

    def test_wrong_degree(self):
        g = helpers.k3()
        assert not check_certificate(g, DeletionCertificate(3, (), (0, 1, 2), 1))
        # nothing deleted: each witness degree is read from g itself
        g = helpers.c5()
        assert check_certificate(g, DeletionCertificate(5, (), (0, 2, 4), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 2, 4), 1))
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 2, 4), 3))

    def test_antiregular5_explicit(self):
        g = helpers.antiregular5()
        assert check_certificate(g, DeletionCertificate(5, (1,), (2, 3, 4), 1))
        assert not check_certificate(g, DeletionCertificate(5, (0,), (2, 3, 4), 1))

    def test_overlap_rejected(self):
        g = helpers.c5()
        assert not check_certificate(g, DeletionCertificate(5, (0,), (0, 1, 2), 2))

    def test_wrong_order_rejected(self):
        g = helpers.c5()
        assert not check_certificate(g, DeletionCertificate(4, (), (0, 1, 2), 2))
        assert not check_certificate(g, DeletionCertificate(6, (), (0, 1, 2), 2))

    def test_out_of_range_rejected(self):
        g = helpers.c5()
        assert not check_certificate(g, DeletionCertificate(5, (9,), (0, 1, 2), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 1, 9), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 1, 5), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (-1, 0, 1), 2))
        assert not check_certificate(g, DeletionCertificate(5, (-1,), (0, 1, 2), 2))

    def test_short_witness_rejected(self):
        g = helpers.c5()
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 1, 1), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (2, 2, 2), 2))
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 1), 2))

    def test_repeated_deletion_rejected(self):
        g = helpers.antiregular5()
        assert check_certificate(g, DeletionCertificate(5, (1,), (2, 3, 4), 1))
        assert not check_certificate(g, DeletionCertificate(5, (1, 1), (2, 3, 4), 1))

    def test_unequal_degrees_rejected(self):
        g = helpers.antiregular5()
        assert not check_certificate(g, DeletionCertificate(5, (), (0, 1, 2), 2))
        # degrees 2, 2, 1: only the last witness is off
        assert not check_certificate(g, DeletionCertificate(5, (), (2, 3, 4), 2))

    def test_json_shape(self):
        c = DeletionCertificate(5, (1,), (2, 3, 4), 1)
        assert c.to_dict() == {
            "n": 5,
            "deleted": [1],
            "witness": [2, 3, 4],
            "degree": 1,
        }


class TestCheckSizeZero:
    @pytest.mark.parametrize("n", [5, 6])
    def test_agrees_with_check_certificate_on_sorted_witnesses(self, n):
        # every class, every witness u < v < w, every degree from -1 to
        # n, at the graph's order and either side of it
        for rec in catalogue_records(n):
            g = parse_graph6(rec)
            for order in (n - 1, n, n + 1):
                for witness in combinations(range(n), 3):
                    for degree in range(-1, n + 1):
                        c = DeletionCertificate(order, (), witness, degree)
                        assert solver.check_size_zero(g.degrees, c) == check_certificate(g, c)

    def test_refuses_what_it_does_not_certify(self):
        degrees = helpers.c5().degrees  # (2, 2, 2, 2, 2)
        assert solver.check_size_zero(degrees, DeletionCertificate(5, (), (0, 2, 4), 2))
        for c in [
            DeletionCertificate(5, (1,), (0, 2, 4), 2),  # a deletion
            DeletionCertificate(5, (), (0, 2), 2),
            DeletionCertificate(5, (), (0, 1, 2, 3), 2),
            DeletionCertificate(5, (), (0, 2, 2), 2),
            DeletionCertificate(5, (), (4, 2, 0), 2),  # not by index
            DeletionCertificate(5, (), (-1, 0, 2), 2),
            DeletionCertificate(5, (), (2, 3, 5), 2),
            DeletionCertificate(4, (), (0, 1, 2), 2),
            DeletionCertificate(5, (), (0, 2, 4), 3),
        ]:
            assert not solver.check_size_zero(degrees, c), c
