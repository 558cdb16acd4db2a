import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations

from rep3 import errors, graphcore, solver
from rep3.enumeration import catalogue_lines
from rep3.graphcore import complement, delete_vertices, from_edge_list, parse_graph6, write_graph6
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
        # the search reads its certificate off the accepted mask and
        # builds no reduced graph; nor does check_certificate
        expected = {
            (g, k): reference_certificate(g, k)
            for n in (5, 6, 7)
            for g in graphs_by_n(n)
            for k in range(n - 2)
        }

        def refuse(g, d):
            raise AssertionError("the search built a reduced graph")

        monkeypatch.setattr(graphcore, "delete_vertices", refuse)
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

    def test_agrees_with_the_reduced_graph(self):
        # every deletion set of size <= 3 and every witness triple of its
        # survivors, on every class of orders 5 and 6, with the first
        # witness's reduced degree and with one more
        for n in (5, 6):
            for rec in catalogue_records(n):
                g = parse_graph6(rec)
                for k in range(4):
                    for d in combinations(range(n), k):
                        kept = [v for v in range(n) if v not in d]
                        h, remap = delete_vertices(g, d)
                        for w in combinations(kept, 3):
                            true = h.degrees[remap[w[0]]]
                            for degree in (true, true + 1):
                                c = DeletionCertificate(n, d, w, degree)
                                assert check_certificate(g, c) == helpers.check_certificate_by_deletion(g, c)

    @pytest.mark.parametrize(
        "cert",
        [
            pytest.param(DeletionCertificate(5, (1,), (1, 3, 4), 1), id="witness_deleted"),
            pytest.param(DeletionCertificate(5, (1,), (2, 2, 4), 1), id="witness_repeated"),
            pytest.param(DeletionCertificate(5, (5,), (2, 3, 4), 1), id="deleted_out_of_range"),
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 5), 1), id="witness_out_of_range"),
            pytest.param(DeletionCertificate(5, (-1,), (2, 3, 4), 1), id="negative"),
            pytest.param(DeletionCertificate(6, (1,), (2, 3, 4), 1), id="wrong_order"),
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 4), 1), id="valid"),
        ],
    )
    def test_malformed_claims_agree_with_the_reduced_graph(self, cert):
        g = helpers.antiregular5()
        expected = cert == DeletionCertificate(5, (1,), (2, 3, 4), 1)
        assert check_certificate(g, cert) == helpers.check_certificate_by_deletion(g, cert) == expected

    def test_json_shape(self):
        c = DeletionCertificate(5, (1,), (2, 3, 4), 1)
        assert c.to_dict() == {
            "n": 5,
            "deleted": [1],
            "witness": [2, 3, 4],
            "degree": 1,
        }


def claim_lanes(certs):
    """The lanes of certs, one record each, every one deleting the same
    number k of vertices, as solver._certificates writes size k: the
    degree named + 1, the witnesses u, v and w, then the deleted
    vertices, each one byte."""
    return tuple(map(bytes, zip(*((c.witness_degree + 1, *c.witness, *c.deleted) for c in certs), strict=True)))


def lane_check(graphs, certs):
    """solver.check_claims over one span of graphs, all of one order,
    whose record i claims certs[i]: the lane it returns, as a list."""
    span = b"".join(map(write_graph6, graphs))
    return list(solver.check_claims(span, graphs[0].n, range(len(graphs)), claim_lanes(certs)))


def reference_lane(graphs, certs):
    """helpers.check_size_zero, the per-record reference, record by
    record, as a lane of 0s and 1s."""
    return [int(helpers.check_size_zero(g.degrees, c)) for g, c in zip(graphs, certs)]


class TestCheckSizeZero:
    @pytest.mark.parametrize("n", [5, 6])
    def test_agrees_with_check_certificate_on_sorted_witnesses(self, n):
        # every class, every witness u < v < w < n + 1, every degree from
        # -1 (the empty target, 0 in its lane) to n, each case one record
        # of one span per class, passing and failing records side by
        # side; the reference agrees with check_certificate, at the
        # graph's order and either side of it, which the lanes cannot
        # name: a span's claims are read at the span's own order
        for rec in catalogue_records(n):
            g = parse_graph6(rec)
            cases = [
                DeletionCertificate(n, (), witness, degree)
                for witness in combinations(range(n + 1), 3)
                for degree in range(-1, n + 1)
            ]
            expected = reference_lane([g] * len(cases), cases)
            assert 0 in expected and (1 in expected) == (max(profile(g).rep, 0) >= 3)
            assert lane_check([g] * len(cases), cases) == expected
            for order in (n - 1, n, n + 1):
                for c in cases:
                    if max(c.witness) < n:
                        c = c._replace(original_order=order)
                        assert helpers.check_size_zero(g.degrees, c) == check_certificate(g, c)

    def test_refuses_what_it_does_not_certify(self):
        g = helpers.c5()  # degrees (2, 2, 2, 2, 2)
        good = DeletionCertificate(5, (), (0, 2, 4), 2)
        refused = [
            DeletionCertificate(5, (), (0, 2, 2), 2),
            DeletionCertificate(5, (), (0, 0, 2), 2),
            DeletionCertificate(5, (), (4, 2, 0), 2),  # not by index
            DeletionCertificate(5, (), (0, 4, 2), 2),
            DeletionCertificate(5, (), (255, 0, 2), 2),  # -1 as a lane byte
            DeletionCertificate(5, (), (2, 3, 5), 2),
            DeletionCertificate(5, (), (0, 2, 4), 3),
            DeletionCertificate(5, (), (0, 2, 4), 1),
            DeletionCertificate(5, (), (0, 2, 4), -1),  # the empty target
        ]
        # each case alone, as a one-record span, and all in one span
        assert lane_check([g], [good]) == [1]
        for c in refused:
            assert not helpers.check_size_zero(g.degrees, c)
            assert lane_check([g], [c]) == [0], c
        span = [good, *refused, good]
        assert lane_check([g] * len(span), span) == [1] + [0] * len(refused) + [1]
        # what the lanes cannot write is refused by the reference
        for c in [
            DeletionCertificate(5, (1,), (0, 2, 4), 2),  # a deletion
            DeletionCertificate(5, (), (0, 2), 2),
            DeletionCertificate(5, (), (0, 1, 2, 3), 2),
            DeletionCertificate(5, (), (-1, 0, 2), 2),
            DeletionCertificate(4, (), (0, 1, 2), 2),  # another order
            DeletionCertificate(6, (), (0, 1, 2), 2),
        ]:
            assert not helpers.check_size_zero(g.degrees, c), c

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_mixed_spans_agree_with_the_reference(self, n):
        # seeded graphs, each with an edge probability of its own, each
        # with a claim that holds where one can, or that claim one step
        # off (a witness repeated, two swapped, the last at n, the degree
        # one off), beside claims of random bytes, the empty target and
        # 255s, so a carry or borrow between bytes shows in the lane
        rng = random.Random(41 + n)
        near_misses = [
            lambda u, v, w, d: ((u, u, w), d),
            lambda u, v, w, d: ((u, v, v), d),
            lambda u, v, w, d: ((v, u, w), d),
            lambda u, v, w, d: ((u, w, v), d),
            lambda u, v, w, d: ((u, v, n), d),
            lambda u, v, w, d: ((u, v, w), d + 1),
            lambda u, v, w, d: ((u, v, w), d - 1),
        ]
        pairs = list(combinations(range(n), 2))
        graphs, certs = [], []
        for _ in range(3000):
            p = rng.random()
            g = from_edge_list(n, [e for e in pairs if rng.random() < p])
            degrees = g.degrees
            kind = rng.randrange(4)
            held = [d for d in set(degrees) if degrees.count(d) >= 3]
            if kind == 0 and held:
                d = rng.choice(held)
                u, v, w = sorted(rng.sample([v for v in range(n) if degrees[v] == d], 3))
                near = rng.choice(near_misses) if rng.randrange(2) else lambda u, v, w, d: ((u, v, w), d)
                c = DeletionCertificate(n, (), *near(u, v, w, d))
            elif kind == 1:
                c = DeletionCertificate(n, (), (255, 255, 255), 254)
            elif kind == 2:
                c = DeletionCertificate(n, (), (0, 1, 2), -1)
            else:
                c = DeletionCertificate(n, (), tuple(rng.randrange(256) for _ in range(3)), rng.randrange(-1, 255))
            graphs.append(g)
            certs.append(c)
        expected = reference_lane(graphs, certs)
        assert 100 < sum(expected) < 1500
        assert lane_check(graphs, certs) == expected


def claims_hold(span, n, rng, chance):
    """(got, expected, changed) for every claim that solver._certificates
    makes over span, graph6 records of order n joined, every size's,
    after one random lane byte of each claim, by rng, with the given
    chance, is set to a value in 0..n+1: got is what check_claims
    reads, expected what check_certificate says of the claim on the
    decoded graph, with its witnesses u < v < w, and changed how many
    claims were changed.  A record whose target byte reads 0 claims
    nothing, which holds on no graph."""
    width = graphcore._width(n)
    got, expected, changed = [], [], 0
    for open_, lanes in solver._certificates(span):
        lanes = [bytearray(lane) for lane in lanes]
        for j in range(len(open_)):
            if rng.random() < chance:
                lanes[rng.randrange(len(lanes))][j] = rng.randrange(n + 2)
                changed += 1
        got += solver.check_claims(span, n, open_, tuple(map(bytes, lanes)))
        for i, (t, u, v, w, *dropped) in zip(open_, zip(*lanes)):
            g = parse_graph6(span[i * width:(i + 1) * width])
            c = DeletionCertificate(n, tuple(dropped), (u, v, w), t - 1)
            expected.append(int(t > 0 and u < v < w and check_certificate(g, c)))
    return got, expected, changed


class TestCheckClaims:
    def test_agrees_with_check_certificate_on_every_claim(self):
        # every claim the kernel makes over the seed-1 g6_stream input,
        # one span per order, and over the catalogue of orders 5..8, at
        # every size, about half of them changed in one lane byte
        rng = random.Random(43)
        spans = {n: [catalogue_lines(n).replace(b"\n", b"")] for n in range(5, 9)}
        spans[9] = []
        for n in range(5, 10):
            spans[n].append(b"".join(rec for rec in helpers.stream_records(100000) if rec[0] - 63 == n))
        held = refused = changed = 0
        for n, group in spans.items():
            for span in group:
                got, expected, count = claims_hold(span, n, rng, 0.5)
                assert got == expected
                held += sum(expected)
                refused += len(expected) - sum(expected)
                changed += count
        assert held > 60000 and refused > 60000 and changed > 55000

    @given(st.integers(5, 9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_check_certificate_on_labeled_graphs(self, n, data):
        # spans of 1..8 labeled graphs, every claim changed in one lane
        # byte with a drawn chance
        graphs = [random_graph(n, data) for _ in range(data.draw(st.integers(1, 8)))]
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        chance = data.draw(st.sampled_from([0, 0.5, 1]))
        got, expected, _ = claims_hold(b"".join(map(write_graph6, graphs)), n, rng, chance)
        assert got == expected

    @pytest.mark.parametrize(
        "cert,holds",
        [
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 4), 1), 1, id="valid"),
            pytest.param(DeletionCertificate(5, (1,), (1, 3, 4), 1), 0, id="witness_deleted"),
            pytest.param(DeletionCertificate(5, (1, 1), (2, 3, 4), 1), 0, id="deleted_twice"),
            pytest.param(DeletionCertificate(5, (5,), (2, 3, 4), 1), 0, id="deleted_out_of_range"),
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 4), 2), 0, id="wrong_degree"),
            pytest.param(DeletionCertificate(5, (1,), (2, 4, 4), 1), 0, id="witness_repeated"),
            pytest.param(DeletionCertificate(5, (1,), (2, 4, 3), 1), 0, id="witness_out_of_order"),
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 5), 1), 0, id="witness_out_of_range"),
            pytest.param(DeletionCertificate(5, (1,), (2, 3, 4), -1), 0, id="empty_target"),
        ],
    )
    def test_deletion_claims(self, cert, holds):
        # antiregular5, degrees (4, 3, 2, 2, 1), less vertex 1: (3, -, 1,
        # 1, 1), and less 0 and 1: (-, -, 0, 0, 0); each claim alone and
        # beside a valid one of its size
        g = helpers.antiregular5()
        valid = {
            1: DeletionCertificate(5, (1,), (2, 3, 4), 1),
            2: DeletionCertificate(5, (0, 1), (2, 3, 4), 0),
        }[len(cert.deleted)]
        assert lane_check([g], [cert]) == [holds]
        assert lane_check([g] * 3, [valid, cert, valid]) == [1, holds, 1]
        assert holds == int(min(cert.witness) >= 0 and cert.witness == tuple(sorted(cert.witness))
                            and check_certificate(g, cert))

    def test_refuses_deletions_that_reduce_nothing(self):
        # c5, degrees (2, 2, 2, 2, 2): a deleted vertex past the order,
        # or one named twice, reduces no witness's degree, which then
        # reads as the degree named, yet no such claim holds
        g = helpers.c5()
        refused = [
            DeletionCertificate(5, (5,), (0, 1, 2), 2),
            DeletionCertificate(5, (255,), (0, 1, 2), 2),
            DeletionCertificate(5, (4, 4), (0, 1, 2), 2),
            DeletionCertificate(5, (3, 3, 4), (0, 1, 2), 2),
        ]
        for cert in refused:
            assert not check_certificate(g, cert)
            assert lane_check([g], [cert]) == [0], cert
        # the same witnesses with nothing deleted hold
        assert lane_check([g], [DeletionCertificate(5, (), (0, 1, 2), 2)]) == [1]

    def test_reads_only_the_records_it_names(self):
        # a claim is read against the record its index names, joined
        # from the span, whatever sits beside it
        g, h = helpers.antiregular5(), helpers.k5()
        span = write_graph6(h) + write_graph6(g) + write_graph6(h)
        lanes = claim_lanes([DeletionCertificate(5, (1,), (2, 3, 4), 1)])
        assert list(solver.check_claims(span, 5, [1], lanes)) == [1]
        assert list(solver.check_claims(span, 5, [0], lanes)) == [0]
        assert list(solver.check_claims(span, 5, [2], lanes)) == [0]
