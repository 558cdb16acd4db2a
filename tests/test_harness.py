import errno
import hashlib
import io
import json
import os
import random
import re
from functools import cache
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import enumeration, errors, feasible, graphcore, harness, solver
from rep3.cli import run
from rep3.enumeration import catalogue_lines
from rep3.graphcore import _check, _width, from_edge_list, parse_graph6, write_graph6
from rep3.feasible import TripleClassification, budget, classify_triple, equalize_triple
from rep3.harness import (
    VerificationReport,
    counting_identity_suite,
    find_extremal,
    verify_lemmas,
    verify_theorem,
)
from rep3.solver import check_certificate, min_deletion_for_rep3, solve3

import helpers
from helpers import catalogue_records, read_graph6_records

SUITES = ("induced_path", "paired_degree_gap", "median_feasible", "feasible_budget")

# SHA-256 of json.dumps([solve3(g).to_dict() for g in helpers.labeled_records()])
# and of json.dumps(verify_theorem(5, 9, source=...).comparable(),
# sort_keys=True) over the same records: labeled input, byte for byte
LABELED_CERTIFICATES_SHA256 = "f4d08908c2f8f70e0a96502575ae5cfcfe1397bc72e531dc14aeab10982a4ce4"
LABELED_REPORT_SHA256 = "ae3bc47fcc167e6117a1bc68f1e394876d77cc0a7345bc11ec96bba780f9e7e0"
# the same report digest over test_shuffled_input_with_absent_orders_pinned's
# input: seeded labeled records of orders 5, 7 and 9 and the order-7
# catalogue, shuffled together
SHUFFLED_REPORT_SHA256 = "61ac6ce7084e2318562f4e902e8a57d98ec3aec663a2f7472a6ab92600e51a30"


def reference_lemma_scan(rec):
    """_lemma_worker(rec) rebuilt from the public classify_triple,
    budget and equalize_triple in the record's own labels, one 4-set and
    one 5-set at a time, with no relabeling and no cover masks.  The
    oracle is read through harness, as the worker reads it."""
    g = parse_graph6(rec)
    n, degs = g.n, g.degrees
    head = {"n": n, "graph": rec.decode("ascii")}
    oracle_min = None
    if n >= 3:
        cert = harness.min_deletion_for_rep3(g, n - 3)
        oracle_min = None if cert is None else len(cert.deleted)
    tc = {s: classify_triple(g, s) for s in combinations(range(n), 3)}
    found = {suite: [] for suite in SUITES}

    paired = []
    for x in combinations(range(n), 4):
        low = sorted(degs[v] for v in x)
        if any(tc[s].balanceable for s in combinations(x, 3)):
            if low[0] == low[1] and low[2] == low[3] == low[0] + 2:
                paired.append(x)
            continue
        edges = {frozenset((a, b)) for a, b in combinations(x, 2) if g.rows[a] >> b & 1}
        paths = [
            p for p in permutations(x)
            if edges == {frozenset(p[i:i + 2]) for i in range(3)}
        ]
        if not any(sorted((degs[p[0]], degs[p[3]])) == low[:2] for p in paths):
            found["induced_path"].append({**head, "subset": list(x)})
    if oracle_min is None or oracle_min > min(3, n - 3):
        found["paired_degree_gap"] = [
            {**head, "subset": list(x), "oracle_min": oracle_min} for x in paired
        ]

    for u in combinations(range(n), 5):
        m = sorted(u, key=lambda v: (degs[v], v))[2]
        if not any(tc[s].feasible for s in combinations(u, 3) if m in s):
            found["median_feasible"].append({**head, "subset": list(u)})

    budgeted = failures = 0
    for s, c in tc.items():
        if not c.feasible or budget(c) > n - 3:
            continue
        budgeted += 1
        failures += equalize_triple(g, s, budget(c)) is None
        if oracle_min is None or oracle_min > budget(c):
            found["feasible_budget"].append(
                {**head, "triple": list(s), "budget": budget(c), "oracle_min": oracle_min}
            )
    violations = tuple((suite, v) for suite in SUITES for v in found[suite])
    return n, budgeted, len(paired), failures, violations


def only_triangles_feasible(mp):
    """Plant violations in every suite through the verdict source: every
    3-set but a triangle (shape C2; the shape is a function of the
    signature) reads as infeasible and not balanceable, and the oracle
    finds no set of one deletion or more.  Then every triangle-free
    4-set reaches the induced-path test, including induced paths whose
    ends do not carry the set's two smallest degrees, which no real
    class sends there.  A graph with a degree held three times keeps
    its oracle minimum 0, which the worker reads off its degrees without
    asking the oracle.  The verdict memo starts empty, so nothing
    planted outlives mp."""
    real_classify = feasible._classify

    def classify(g, s3):
        tc = real_classify(g, s3)
        if tc.condition == "C2":
            return tc
        return TripleClassification(None, None, False, tc.p, tc.q)

    mp.setattr(feasible, "_VERDICTS", {})
    mp.setattr(feasible, "_classify", classify)
    mp.setattr(harness, "min_deletion_for_rep3", lambda g, k: min_deletion_for_rep3(g, 0))


class TestVerifyTheorem:
    def test_n5(self):
        r = verify_theorem(5, 5)
        entry = r.per_n[5]
        assert entry["graph_count"] == 34
        assert sum(entry["min_deletion_histogram"]) == 34
        # three survivors of five leave at most two deletions
        assert entry["min_deletion_histogram"][3] == 0
        assert entry["violations"] == []
        assert entry["extremal_witnesses"] == []
        assert r.verified

    def test_n5_to_6(self):
        r = verify_theorem(5, 6)
        assert r.per_n[5]["graph_count"] == 34
        assert r.per_n[6]["graph_count"] == 156
        assert r.verified

    def test_stream_source_equivalent(self):
        gen = verify_theorem(5, 5)
        streamed = verify_theorem(5, 5, source=helpers.g6_file(catalogue_records(5)))
        assert gen.comparable() == streamed.comparable()

    def test_record_source_equivalent(self):
        text = b"".join(rec + b"\n" for rec in catalogue_records(5))
        streamed = verify_theorem(5, 5, source=helpers.g6_file(read_graph6_records(io.BytesIO(text))))
        assert verify_theorem(5, 5).comparable() == streamed.comparable()

    def test_other_orders_skipped_and_never_solved(self, monkeypatch):
        solved = []

        def solving(g):
            solved.append(g.n)
            return solve3(g)

        monkeypatch.setattr(harness, "_certificates", helpers.searching_with(solving))
        source = [
            write_graph6(from_edge_list(n, [(0, 1)])) for n in (4, 5, 7, 6, 10)
        ]
        r = verify_theorem(5, 6, source=helpers.g6_file(source), jobs=1)
        assert r.skipped == 3
        assert r.per_n[5]["graph_count"] == r.per_n[6]["graph_count"] == 1
        assert solved == [5, 6]

    @pytest.mark.parametrize(
        "rec,jobs",
        [
            pytest.param(rec, jobs, id=name if jobs == 1 else f"{name}_pooled")
            for jobs in (1, 2)
            for name, rec in [
                ("empty", b""),
                ("order_3_bad_bytes", b"B!!!!"),
                ("order_64", b"\x7f"),
                ("order_5_bad_bytes", b"D!!!"),
                ("order_5_packed_bad_bytes", b"D!!"),
            ]
        ],
    )
    def test_malformed_source_record_raises(self, rec, jobs, monkeypatch):
        # the reader checks every line before the sweep, of whatever
        # order or width; an empty one is a blank line, which it skips
        # with no check and does not count as skipped
        if not rec:
            calls = []
            real_check = graphcore._check
            monkeypatch.setattr(graphcore, "_check", lambda r: calls.append(r) or real_check(r))
            report = verify_theorem(5, 5, source=helpers.g6_file([rec] * jobs), jobs=jobs)
            assert (calls, report.skipped, report.checked) == ([], 0, 0)
            return
        with pytest.raises(errors.MalformedRecord):
            verify_theorem(5, 5, source=helpers.g6_file([rec] * jobs), jobs=jobs)

    def test_input_reaches_the_sweep_packed_per_order(self, monkeypatch):
        # each swept order's records reach _sweep as one bytes-like
        # object of _width(n) bytes a record, in input order; no list of
        # records is built
        seen = []
        real_sweep = harness._sweep

        def sweep(worker, jobs, orders, blobs=None):
            seen.extend(blobs)
            return real_sweep(worker, jobs, orders, seen)

        monkeypatch.setattr(harness, "_sweep", sweep)
        records = helpers.labeled_records(count=300)
        report = verify_theorem(5, 9, source=helpers.g6_file(records), jobs=1)
        assert report.checked == 300
        assert all(isinstance(blob, bytearray) for blob in seen)
        by_order = [[rec for rec in records if rec[0] - 63 == n] for n in range(5, 10)]
        assert [len(blob) for blob in seen] == [
            _width(n) * len(recs) for n, recs in zip(range(5, 10), by_order)
        ]
        assert seen == [b"".join(recs) for recs in by_order]

    def test_shuffled_input_with_absent_orders_pinned(self):
        # orders 5, 7 and 9 interleaved, none of 6 or 8: each order is
        # swept in its input order, and both absent orders report zero
        records = [r for r in helpers.labeled_records(seed=30, count=900) if r[0] - 63 in (5, 7, 9)]
        records += catalogue_records(7)
        random.Random(30).shuffle(records)
        for jobs in (1, 2):
            report = verify_theorem(5, 9, source=helpers.g6_file(records), jobs=jobs)
            assert report.per_n[6]["graph_count"] == report.per_n[8]["graph_count"] == 0
            text = json.dumps(report.comparable(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == SHUFFLED_REPORT_SHA256

    @pytest.mark.parametrize(
        "lines,message",
        [
            pytest.param([b"Bw", b"D!!"], "line 2: data byte 33 outside [63, 126]", id="data-byte"),
            pytest.param([b"Bw", b"DQ@"], "line 2: nonzero padding bits", id="padding"),
            pytest.param(
                [b"D??", b"E!!!", b"D!!", b"E???"], "line 2: data byte 33 outside [63, 126]", id="two-orders"
            ),
            pytest.param(
                [b"D??", b"D?!", b"D?"], "line 2: data byte 33 outside [63, 126]", id="before-a-later-width"
            ),
            pytest.param(
                [b"D??", b"DQ@", b"~abc"], "line 2: nonzero padding bits", id="before-a-later-order"
            ),
            pytest.param(
                [b"D??", b"D?!", b"B!"], "line 2: data byte 33 outside [63, 126]", id="before-a-later-skip"
            ),
            pytest.param([b"D??", b"B!", b"D?!"], "line 2: data byte 33 outside [63, 126]", id="skip-first"),
            pytest.param(
                [b"D??", b"D?C", b"D?!", b"DQ@"], "line 3: data byte 33 outside [63, 126]", id="first-of-one-order"
            ),
        ],
    )
    def test_first_bad_line_is_named(self, forks, lines, message):
        # a record of a swept order is packed once it is as wide as its
        # order byte says; its data bytes and padding are checked with
        # the rest of its order, before any later line's error is raised,
        # and the error names the first bad line, as the line reader does,
        # before the sweep forks a child
        for source in (lines, read_graph6_records):
            with pytest.raises(errors.MalformedRecord) as caught:
                if source is read_graph6_records:
                    list(source(lines))
                else:
                    verify_theorem(5, 6, source=helpers.g6_file(source), jobs=2)
            assert str(caught.value) == message
        assert forks.children == []

    def test_short_record_of_a_swept_order_raises_before_any_pool(self, forks):
        # a record one byte short of its order's width is not packed: the
        # reader's own check rejects it before the sweep forks a child
        source = [*catalogue_records(6), catalogue_records(7)[0][:-1]]
        forks.clear()
        message = "expected 4 data bytes for order 7, got 3"
        with pytest.raises(errors.MalformedRecord, match=message):
            verify_theorem(5, 7, source=helpers.g6_file(source), jobs=2)
        assert forks.children == []

    def test_labeled_input_pinned(self):
        # the catalogue pins cover degree-sorted records only
        records = helpers.labeled_records()
        certs = [solve3(parse_graph6(rec)).to_dict() for rec in records]
        digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
        assert digest == LABELED_CERTIFICATES_SHA256
        for jobs in (1, 2):
            report = verify_theorem(5, 9, source=helpers.g6_file(records), jobs=jobs)
            text = json.dumps(report.comparable(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == LABELED_REPORT_SHA256

    def test_jobs_equivalent(self):
        serial = verify_theorem(5, 5, jobs=1)
        pooled = verify_theorem(5, 5, jobs=2)
        assert serial.comparable() == pooled.comparable()

    def test_out_of_range(self):
        with pytest.raises(errors.OrderOutOfRange):
            verify_theorem(4, 5)
        with pytest.raises(errors.OrderOutOfRange):
            verify_theorem(5, 10)
        with pytest.raises(errors.OrderOutOfRange):
            verify_theorem(6, 5)

    def test_report_serialization(self):
        r = verify_theorem(5, 5)
        doc = json.loads(r.to_json())
        assert doc["per_n"]["5"]["graph_count"] == 34
        assert "elapsed" in doc
        table = r.to_table()
        assert "graphs" in table and "5" in table


@cache
def labeled_pools():
    """helpers.labeled_records() by (order, whether solve3 deletes
    nothing): the records with a degree held three times and those with
    none, of each order 5..9."""
    pools = {(n, zero): [] for n in range(5, 10) for zero in (False, True)}
    for rec in helpers.labeled_records():
        pools[rec[0] - 63, not solve3(parse_graph6(rec)).deleted].append(rec)
    return pools


def kernel_certificates(span):
    """solver._certificates over span, as the theorem worker reads its
    lanes, one answer per record, as helpers.per_record reads them."""
    return helpers.per_record(span[0] - 63, solver._certificates(span))


def assert_kernel_matches_reference(records):
    """The lane kernel over the span of records, one order's, against
    min_deletion_for_rep3 at the allowance, record by record: the same
    deleted set, witness and degree, which check_certificate accepts;
    and the theorem worker over the span against helpers.theorem_result."""
    span = b"".join(records)
    for rec, cert in zip(records, kernel_certificates(span), strict=True):
        g = parse_graph6(rec)
        expected = min_deletion_for_rep3(g, solver.allowance(g.n))
        assert (cert.deleted, cert.witness, cert.witness_degree) == (
            expected.deleted,
            expected.witness,
            expected.witness_degree,
        ), rec
        assert cert == expected and check_certificate(g, cert)
    assert harness._theorem_worker(span) == helpers.theorem_worker_result(records)


class TestTheoremKernel:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_catalogue_matches_reference(self, n):
        assert_kernel_matches_reference(catalogue_records(n))

    @pytest.mark.extended
    def test_order_9_matches_reference(self):
        records = catalogue_records(9)
        assert len(records) == 274668
        assert_kernel_matches_reference(records)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_labeled_records_match_reference(self, n):
        # in input order, and as spans that all have, or all lack, a
        # degree held three times
        records = [rec for rec in helpers.labeled_records() if rec[0] - 63 == n]
        assert_kernel_matches_reference(records)
        pools = labeled_pools()
        assert pools[n, True] and pools[n, False]
        assert_kernel_matches_reference(pools[n, True])
        assert_kernel_matches_reference(pools[n, False])

    @given(st.integers(5, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_labeled_spans_match_reference(self, n, data):
        # spans of 1..12 labeled records, each drawn with or without a
        # degree held three times, all-zero and no-zero spans included
        pools = labeled_pools()
        kinds = data.draw(st.lists(st.booleans(), min_size=1, max_size=12))
        assert_kernel_matches_reference([data.draw(st.sampled_from(pools[n, zero])) for zero in kinds])

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_stream_records_match_reference(self, n):
        # the first 3,000 records of the seed-1 g6_stream input, one span
        # per order, relabelled G?Cj|{ copies among the order-8 ones
        records = [rec for rec in helpers.stream_records(3000) if rec[0] - 63 == n]
        sizes = [len(solve3(parse_graph6(rec)).deleted) for rec in records]
        # orders 5..7 reach size 2, the G?Cj|{ copies size 3
        assert {0, 1} <= set(sizes) and max(sizes) == {5: 2, 6: 2, 7: 2, 8: 3, 9: 1}[n]
        assert_kernel_matches_reference(records)

    def test_size_three_span_matches_reference(self):
        # a span made only of relabellings of G?Cj|{, the one order-8
        # class that needs three deletions, so every record reaches the
        # search's last size
        rng = random.Random(40)
        g = parse_graph6(b"G?Cj|{")
        records = []
        for _ in range(300):
            perm = rng.sample(range(8), 8)
            records.append(write_graph6(from_edge_list(8, [(perm[u], perm[v]) for u, v in g.edges()])))
        assert len(set(records)) > 250
        assert all(len(solve3(parse_graph6(rec)).deleted) == 3 for rec in records)
        assert_kernel_matches_reference(records)

    def test_orders_above_nine_rejected(self):
        # a reduced degree fits the bit-planes' byte only up to order 9
        with pytest.raises(errors.OrderOutOfRange):
            solver._certificates(write_graph6(from_edge_list(10, [(0, 1)])))

    def test_witnesses_by_index(self):
        # the path 0-1-2-3-4, degrees (1, 2, 2, 2, 1); the path 0-3-1-4-2,
        # degrees (1, 2, 1, 2, 2); and antiregular5, whose degrees
        # (4, 3, 2, 2, 1) hold none three times, and which deleting vertex
        # 1 leaves with degrees (3, -, 1, 1, 1), read as one span
        span = b"DhC" + b"DEW" + write_graph6(helpers.antiregular5())
        assert kernel_certificates(span) == [
            solver.DeletionCertificate(5, (), (1, 2, 3), 2),
            solver.DeletionCertificate(5, (), (1, 3, 4), 2),
            solver.DeletionCertificate(5, (1,), (2, 3, 4), 1),
        ]


class TestVerifyLemmas:
    def test_suite_keys(self):
        r = verify_lemmas(4)
        assert set(r.lemma_results) == {
            "induced_path",
            "median_feasible",
            "feasible_budget",
            "paired_degree_gap",
        }

    def test_max4(self):
        r = verify_lemmas(4)
        # one 4-subset per order-4 graph, none below
        assert r.lemma_results["induced_path"]["instances_checked"] == 11
        assert r.lemma_results["induced_path"]["violations"] == []
        assert r.lemma_results["median_feasible"]["instances_checked"] == 0
        assert r.lemma_results["paired_degree_gap"]["instances_checked"] == 0
        assert r.verified

    def test_max5(self):
        r = verify_lemmas(5)
        assert r.lemma_results["median_feasible"]["instances_checked"] == 34
        for suite in r.lemma_results.values():
            assert suite["violations"] == []
        assert r.lemma_results["feasible_budget"]["instances_checked"] > 0
        sf = r.lemma_results["feasible_budget"]["strong_form_failures"]
        assert isinstance(sf, int) and sf >= 0

    def test_zero_instances_not_verified(self):
        # no 3-set exists below order 3, so every suite checks nothing
        r = verify_lemmas(2)
        assert all(s["instances_checked"] == 0 for s in r.lemma_results.values())
        assert not r.verified

    def test_jobs_equivalent(self):
        assert verify_lemmas(5, jobs=1).comparable() == verify_lemmas(5, jobs=2).comparable()

    def test_cap(self):
        with pytest.raises(errors.OrderOutOfRange):
            verify_lemmas(10)

    def test_violations_reach_report(self, monkeypatch):
        # no real class violates a lemma, so plant violations in every
        # suite; each suite lists them in catalogue order, and each
        # class's in its lexicographic scan order.  Order 6 is the first
        # with a paired-gap violation: below it, every class with a
        # paired-gap set holding a triangle has a degree held three times
        only_triangles_feasible(monkeypatch)
        expected = {suite: [] for suite in SUITES}
        for n in range(1, 7):
            for rec in catalogue_records(n):
                for suite, v in reference_lemma_scan(rec)[4]:
                    expected[suite].append(v)
        assert all(expected.values())
        for jobs in (1, 2):
            r = verify_lemmas(6, jobs=jobs)
            assert not r.verified
            for suite in SUITES:
                assert r.lemma_results[suite]["violations"] == expected[suite]


def _oracle_past_the_allowance_at_order_6(g, k):
    """min_deletion_for_rep3, except that an order-6 hit of one deletion
    or more reads four deletions, one above allowance(6); a hit of none
    is read off the degrees, without asking the oracle."""
    cert = min_deletion_for_rep3(g, k)
    if cert is not None and cert.deleted and g.n == 6:
        return solver.DeletionCertificate(6, (0, 1, 2, 3), (), 0)
    return cert


class TestPlantedLemmaFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_minimum_above_the_allowance_reports_paired_gaps(self, monkeypatch, jobs):
        # a paired-gap set is a violation when the oracle finds no set
        # and also when its minimum exceeds the allowance; order 6 is the
        # first where a class with a paired-gap set holding a balanceable
        # triple needs a deletion
        monkeypatch.setattr(harness, "min_deletion_for_rep3", _oracle_past_the_allowance_at_order_6)
        expected = [
            v
            for rec in catalogue_records(6)
            for suite, v in reference_lemma_scan(rec)[4]
            if suite == "paired_degree_gap"
        ]
        gaps = verify_lemmas(6, jobs=jobs).lemma_results["paired_degree_gap"]["violations"]
        assert gaps == expected
        assert gaps and all(v["n"] == 6 and v["oracle_min"] == 4 for v in gaps)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strong_form_failures_are_counted(self, monkeypatch, jobs):
        # an _equalize that never finds a set within the budget makes
        # every budgeted triple a strong-form failure; the verdict memo
        # starts empty, so nothing planted outlives the test
        monkeypatch.setattr(feasible, "_VERDICTS", {})
        monkeypatch.setattr(feasible, "_equalize", lambda g, s3, max_delete: None)
        suite = verify_lemmas(6, jobs=jobs).lemma_results["feasible_budget"]
        assert suite["strong_form_failures"] == suite["instances_checked"] > 0


def chunks(records, size):
    """records cut into consecutive chunks of size records."""
    return [records[i:i + size] for i in range(0, len(records), size)]


class TestLemmaWorker:
    @given(st.integers(4, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_degree_sorted_input_matches_reference(self, n, data):
        # any graph relabeled by (degree, index), not only catalogue
        # classes, scans in its own labels as the reference does
        pairs = list(combinations(range(n), 2))
        g = from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
        rec = write_graph6(helpers.degree_sorted(g)[0])
        assert harness._lemma_worker(rec) == [reference_lemma_scan(rec)]
        with pytest.MonkeyPatch.context() as mp:
            only_triangles_feasible(mp)
            planted = reference_lemma_scan(rec)
            assert harness._lemma_worker(rec) == [planted]

    def test_falling_degrees_rejected(self):
        # the star K1,3 with its hub first is no catalogue record: the
        # scan reads medians and path ends by position, so the worker
        # refuses it, naming the record, wherever it lies in its span
        assert parse_graph6(b"Cs").degrees == (3, 1, 1, 1)
        for span in (b"Cs", b"C~CsC~"):
            with pytest.raises(errors.MalformedRecord, match="^Cs: "):
                harness._lemma_worker(span)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "after-a-run"])
    def test_falling_record_named_wherever_its_lane_lies(self, where):
        # the degree check reads a run's lanes at once; the record named
        # is the first that falls, in its run's lanes or the next run's
        size = 2 * feasible._SCAN_RUN + 3
        at = {"first": 0, "middle": size // 2, "last": size - 1, "after-a-run": feasible._SCAN_RUN}[where]
        later = write_graph6(from_edge_list(4, [(0, 1), (0, 2)]))  # degrees (2, 1, 1, 0)
        records = [b"C~"] * size
        records[at] = b"Cs"
        records[at + 1:] = [later] * (size - at - 1)
        with pytest.raises(errors.MalformedRecord) as caught:
            harness._lemma_worker(b"".join(records))
        assert str(caught.value) == "Cs: degrees (3, 1, 1, 1) fall, as in no catalogue record"

    @given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_degree_sorted_spans_match_reference(self, n, count, run, data):
        # records of one order, each any graph relabeled by (degree,
        # index), joined and read in runs of run records, give the
        # reference's result record by record, with the real verdicts
        # and with violations planted in every suite: a lane that
        # carried or borrowed into the next record's byte would show
        pairs = list(combinations(range(n), 2))
        records = [
            write_graph6(helpers.degree_sorted(
                from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])
            )[0])
            for _ in range(count)
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(feasible, "_SCAN_RUN", run)
            assert harness._lemma_worker(b"".join(records)) == list(map(reference_lemma_scan, records))
            only_triangles_feasible(mp)
            assert harness._lemma_worker(b"".join(records)) == list(map(reference_lemma_scan, records))

    def test_records_of_two_orders_rejected(self):
        # K3 and K4 share a record width; scanned as one run of order 3,
        # K4 read (4, 1, 0, 0, ()), where alone it reads (4, 4, 0, 0, ())
        with pytest.raises(errors.MalformedRecord) as caught:
            harness._lemma_worker(b"BwC~")
        assert str(caught.value) == "records of orders [3, 4] in one run"
        assert harness._lemma_worker(b"C~") == [(4, 4, 0, 0, ())]

    def test_records_of_two_widths_rejected(self):
        # K3 and the order-5 record DQc, each well formed alone, in one span
        with pytest.raises(errors.MalformedRecord) as caught:
            harness._lemma_worker(b"BwDQc")
        assert str(caught.value) == "records of orders [3, 5] in one run"

    @pytest.mark.parametrize(
        "span,bad", [pytest.param(span, bad, id=name) for name, span, bad in helpers.BAD_SPANS]
    )
    def test_a_bad_record_inside_a_span_raises_as_check_does(self, span, bad):
        # so do the theorem and fill workers, which check a span with
        # _shape as this one does, the fill's through _records, which
        # raises when it is called, before any record is decoded
        with pytest.raises(errors.MalformedRecord) as alone:
            _check(bad)
        for read in (
            harness._lemma_worker,
            harness._theorem_worker,
            enumeration._children,
            graphcore._records,
        ):
            with pytest.raises(errors.MalformedRecord) as caught:
                read(span)
            assert str(caught.value) == str(alone.value)

    def test_catalogue_through_order_6_matches_reference(self):
        for n in range(1, 7):
            records = catalogue_records(n)
            expected = list(map(reference_lemma_scan, records))
            assert harness._lemma_worker(b"".join(records)) == expected

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "planted"])
    def test_chunks_match_reference(self, planted):
        # each order of 1..7 cut into chunks of 1, 2 and 7 records, and
        # whole (order 7's 1,044 records in _SCAN_RUN runs), as _map cuts
        # each order on its own, gives the reference's result record by
        # record
        orders = [catalogue_records(n) for n in range(1, 8)]
        with pytest.MonkeyPatch.context() as mp:
            if planted:
                only_triangles_feasible(mp)
            expected = [reference_lemma_scan(rec) for records in orders for rec in records]
            for size in (1, 2, 7, None):
                got = [
                    r
                    for records in orders
                    for chunk in chunks(records, size or len(records))
                    for r in harness._lemma_worker(b"".join(chunk))
                ]
                assert got == expected

    @pytest.mark.extended
    def test_order_8_matches_reference(self):
        records = catalogue_records(8)
        expected = list(map(reference_lemma_scan, records))
        assert harness._lemma_worker(b"".join(records)) == expected


def _identity_worker_editing_k2(span, edit):
    """_identity_worker over a span, with edit applied to K2's code byte."""
    codes = _real_identity_worker(span)
    records = helpers.split(span)
    if b"A_" not in records:
        return codes
    i = records.index(b"A_")
    return codes[:i] + bytes([edit(codes[i])]) + codes[i + 1:]


def _identity_worker_missing_more_in_k2(records):
    """_identity_worker, with one more missing degree in K2's code only."""
    return _identity_worker_editing_k2(records, lambda code: code + 1)


def _identity_worker_doubling_more_in_k2(records):
    """_identity_worker, with one more doubled degree in K2's code only:
    then one missing degree too few."""
    return _identity_worker_editing_k2(records, lambda code: code + 16)


class TestCountingIdentity:
    def test_max6_clean(self):
        r = counting_identity_suite(6)
        suite = r.lemma_results["counting_identity"]
        assert suite["violations"] == []
        assert suite["instances_checked"] > 0
        assert r.verified

    def test_jobs_equivalent(self):
        serial = counting_identity_suite(7, jobs=1)
        assert counting_identity_suite(7, jobs=2).comparable() == serial.comparable()

    def test_instance_filter(self):
        # hypothesis demands no repeated-degree class above two and no
        # isolated vertex; K2 qualifies, K1 and K3 do not
        r = counting_identity_suite(2)
        assert r.lemma_results["counting_identity"]["instances_checked"] == 1

    def test_cap(self):
        with pytest.raises(errors.OrderOutOfRange):
            counting_identity_suite(10)

    def test_records_of_two_orders_rejected(self):
        # K3 and K4 share a record width, so only their order bytes differ
        with pytest.raises(errors.MalformedRecord) as caught:
            harness._identity_worker(b"BwC~")
        assert str(caught.value) == "records of orders [3, 4] in one run"
        assert harness._identity_worker(b"C~") == bytes([255])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_violation_names_its_class(self, forks, monkeypatch, jobs):
        # K2 planted with one more missing degree than the identity
        # allows; orders 1..5 hold 52 classes, pooled at two jobs
        catalogue_records(5)
        forks.clear()
        monkeypatch.setattr(harness, "_identity_worker", _identity_worker_missing_more_in_k2)
        report = counting_identity_suite(5, jobs=jobs)
        assert report.lemma_results["counting_identity"]["violations"] == [
            {"n": 2, "graph": "A_", "s_size": 1, "t_size": 1}
        ]
        assert not report.verified
        assert forks.children == ([1] if jobs == 2 else [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_too_few_missing_degrees_is_a_violation(self, forks, monkeypatch, jobs):
        # the identity broken the other way: K2 planted with one missing
        # degree fewer than the identity asks
        catalogue_records(5)
        forks.clear()
        monkeypatch.setattr(harness, "_identity_worker", _identity_worker_doubling_more_in_k2)
        report = counting_identity_suite(5, jobs=jobs)
        assert report.lemma_results["counting_identity"]["violations"] == [
            {"n": 2, "graph": "A_", "s_size": 2, "t_size": 0}
        ]
        assert forks.children == ([1] if jobs == 2 else [])


# json.dumps of each suite's counts and violation lists over the
# order-9 catalogue, byte for byte
SUITES_9_SHA256 = "d2e6e58f229077f83af7c7f4562cb0f30b91d33da322af31948dd20a19335897"


@pytest.mark.extended
def test_lemma_and_identity_suites_over_order_9():
    # each suite's order-9 share: its max_n=9 report less its max_n=8
    # one, with the violations of order 9
    upto = {
        max_n: {
            **verify_lemmas(max_n, jobs=2).lemma_results,
            **counting_identity_suite(max_n).lemma_results,
        }
        for max_n in (8, 9)
    }
    results = {
        suite: {
            key: [v for v in value if v["n"] == 9] if key == "violations"
            else value - upto[8][suite][key]
            for key, value in counts.items()
        }
        for suite, counts in upto[9].items()
    }
    assert all(not suite["violations"] for suite in results.values())
    assert {s: r["instances_checked"] for s, r in results.items()} == {
        "induced_path": 274668 * 126,
        "median_feasible": 274668 * 126,
        "feasible_budget": 16843452,
        "paired_degree_gap": 865842,
        "counting_identity": 13649,
    }
    assert results["feasible_budget"]["strong_form_failures"] == 0
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITES_9_SHA256


class TestFindExtremal:
    def test_n5_default_target(self):
        for rec in find_extremal(5):
            g = parse_graph6(rec.encode("ascii"))
            c = min_deletion_for_rep3(g, 2)
            assert c is not None and len(c.deleted) == 2

    def test_n6(self):
        hits = find_extremal(6)
        for rec in hits:
            g = parse_graph6(rec.encode("ascii"))
            assert len(min_deletion_for_rep3(g, 3).deleted) == 3

    def test_theorem_miss_raises(self, monkeypatch):
        # a class the search cannot solve must not drop out of the listing:
        # the lane kernel finds no set for any class that needs a deletion
        monkeypatch.setattr(harness, "_certificates", _certificates_missing)
        with pytest.raises(errors.TheoremViolation):
            find_extremal(5)

    def test_failed_check_raises(self, monkeypatch):
        # every class goes through the theorem sweep's independent check
        monkeypatch.setattr(harness, "check_claims", lambda span, n, open_, lanes: bytes(len(open_)))
        with pytest.raises(errors.TheoremViolation):
            find_extremal(5)

    def test_range(self):
        with pytest.raises(errors.OrderOutOfRange):
            find_extremal(4)
        with pytest.raises(errors.OrderOutOfRange):
            find_extremal(10)


@pytest.fixture
def forks(monkeypatch):
    """The children forked by each map shared while the test runs, on a
    host taken to have two cores (helpers.ForkSpy)."""
    return helpers.ForkSpy(monkeypatch)


def _no_lemma_work(span):
    """_lemma_worker's result shape for each class, with nothing checked."""
    return [(rec[0] - 63, 0, 0, 0, ()) for rec in helpers.split(span)]


def cold(monkeypatch):
    """Empty the catalogue down to its order-1 seed, as in a new process."""
    monkeypatch.setattr(enumeration, "_catalogue", {1: b"@"})


def test_each_sweep_opens_at_most_one_pool(forks):
    # over a warm catalogue a sweep is one map: one child at two jobs,
    # reaped when the map ends, and none at one job
    catalogue_records(7)  # a warm catalogue: no generation below
    forks.clear()
    lemmas = verify_lemmas(6, jobs=2)
    assert forks.children == [1]
    theorem = verify_theorem(5, 7, jobs=2)
    assert forks.children == [1, 1]
    assert lemmas.comparable() == verify_lemmas(6, jobs=1).comparable()
    assert theorem.comparable() == verify_theorem(5, 7, jobs=1).comparable()
    assert forks.children == [1, 1]


@pytest.mark.parametrize(
    "call,maps",
    [
        pytest.param(lambda: verify_theorem(5, 8, jobs=2), 4, id="verify_theorem"),
        pytest.param(lambda: verify_lemmas(8, jobs=2), 4, id="verify_lemmas"),
        pytest.param(lambda: catalogue_lines(8), 3, id="catalogue_lines"),
    ],
)
def test_cold_call_opens_one_pool(forks, monkeypatch, call, maps):
    # orders 2..5 are generated in this process; orders 6, 7 and 8, and
    # the sweep after them, are one shared map each, with one child
    # apiece; only children are counted here, so the lemma suites check
    # nothing
    monkeypatch.setattr(harness, "_lemma_worker", _no_lemma_work)
    cold(monkeypatch)
    call()
    assert forks.children == [1] * maps


def test_warm_catalogue_starts_nothing(forks):
    catalogue_records(8)
    forks.clear()
    assert len(catalogue_records(8)) == 12346
    assert forks.children == []


def test_cold_catalogue_pools_only_when_jobs_allow(forks, monkeypatch):
    cold(monkeypatch)
    serial = verify_theorem(5, 6, jobs=1)
    cold(monkeypatch)
    serial_lemmas = verify_lemmas(6, jobs=1)
    assert forks.children == []
    cold(monkeypatch)
    pooled = verify_theorem(5, 6, jobs=2)
    assert forks.children == [1, 1]  # the order-6 fill, then the sweep
    assert pooled.comparable() == serial.comparable()
    assert verify_lemmas(6, jobs=2).comparable() == serial_lemmas.comparable()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: counting_identity_suite(8).comparable(), id="identity"),
        pytest.param(lambda: find_extremal(8), id="extremal"),
    ],
)
def test_one_worker_per_core_opens_one_pool(forks, monkeypatch, call):
    # these calls take no jobs: over a warm catalogue, one child on two
    # cores, none on one, and the same result either way
    catalogue_records(8)
    forks.clear()
    pooled = call()
    assert forks.children == [1]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert call() == pooled
    assert forks.children == [1]


def orders(span):
    """A chunk worker: each record's order, in order."""
    return [rec[0] - 63 for rec in helpers.split(span)]


@pytest.mark.parametrize("jobs", [3, 1000, None])
def test_pool_never_exceeds_the_cores(forks, jobs):
    # a huge --jobs must not fork a child per job; forks reports
    # two cores, so at most two processes start
    blobs = [catalogue_lines(n).replace(b"\n", b"") for n in (5, 6)]
    forks.clear()
    assert list(chain.from_iterable(enumeration._map(orders, blobs, jobs))) == [5] * 34 + [6] * 156
    assert forks.children == [1]


def test_small_cold_catalogue_starts_nothing(forks, monkeypatch):
    # orders 2..5 extend at most 11 parents each, one chunk
    cold(monkeypatch)
    assert len(catalogue_records(5)) == 34
    assert forks.children == []
    assert len(catalogue_records(6)) == 156  # 34 order-5 parents
    assert forks.children == [1]


@pytest.mark.parametrize("count,pools", [(31, []), (32, [1])])
def test_sweep_pools_past_one_chunk(forks, count, pools):
    source = catalogue_records(6)[:count]
    forks.clear()
    report = verify_theorem(5, 8, source=helpers.g6_file(source), jobs=2)
    assert forks.children == pools
    assert report.checked == count


def _solve3_missing(g):
    """A search that finds no deletion set."""
    return None


@pytest.mark.parametrize(
    "solve,reason",
    [
        pytest.param(
            lambda g: solver.DeletionCertificate(g.n, (0, 1, 2), (3, 4, 4), 0),
            lambda g: "deletion set (0, 1, 2) exceeds allowance 2",
            id="oversized",
        ),
        pytest.param(_solve3_missing, lambda g: f"no deletion set of size <= 2 found for {g!r}", id="missing"),
        pytest.param(
            lambda g: solver.DeletionCertificate(g.n, (), (0, 1, 2), 5),
            lambda g: "certificate {'n': 5, 'deleted': [], 'witness': [0, 1, 2], 'degree': 5}"
            " failed the independent check",
            id="unchecked",
        ),
    ],
)
def test_oversized_deletion_set_is_a_violation(forks, monkeypatch, solve, reason):
    # a search that deletes more than allowance(5) = 2 vertices is a
    # violation before the certificate is checked, and so are a search
    # that claims nothing and a certificate the independent check
    # refuses, in this process and in the map that 34 records share at
    # two jobs; each fault is planted in the search seam, which every
    # class passes; reason gives each class's reason from its graph
    monkeypatch.setattr(harness, "_certificates", helpers.searching_with(solve))
    expected = [reason(parse_graph6(rec)) for rec in catalogue_records(5)]
    for jobs in (1, 2):
        report = verify_theorem(5, 5, jobs=jobs)
        assert not report.verified
        reasons = [viol["reason"] for viol in report.per_n[5]["violations"]]
        assert reasons == expected
        assert report.to_table().endswith("\nstatus: VIOLATIONS FOUND")
    with pytest.raises(errors.TheoremViolation) as caught:
        find_extremal(5)
    assert str(caught.value).endswith(": " + expected[0])
    assert forks.children == [1, 1]


def _four_deleted(g):
    """A certificate that holds on g, of order 7, past its allowance of
    3: four vertices deleted, leaving a triangle or three vertices with
    no edge, which every graph on six or more vertices holds."""
    for kept in combinations(range(g.n), 3):
        inside = sum(g.rows[u] >> v & 1 for u, v in combinations(kept, 2))
        if inside in (0, 3):
            deleted = tuple(v for v in range(g.n) if v not in kept)
            return solver.DeletionCertificate(g.n, deleted, kept, inside and 2)
    raise AssertionError(g)


def test_valid_claim_past_the_allowance_is_a_violation(forks, monkeypatch):
    # a search that deletes four vertices of an order-7 class, one more
    # than allowance(7) = 3, is a violation even where the lane check
    # passes the claim, in this process and in a shared map
    records = catalogue_records(7)[:40]
    certs = [_four_deleted(parse_graph6(rec)) for rec in records]
    assert all(check_certificate(parse_graph6(rec), c) for rec, c in zip(records, certs))
    forks.clear()
    monkeypatch.setattr(harness, "_certificates", helpers.searching_with(_four_deleted))
    for jobs in (1, 2):
        report = verify_theorem(7, 7, source=helpers.g6_file(records), jobs=jobs)
        assert [(v["graph"], v["reason"]) for v in report.per_n[7]["violations"]] == [
            (rec.decode(), f"deletion set {c.deleted} exceeds allowance 3") for rec, c in zip(records, certs)
        ]
        assert report.per_n[7]["min_deletion_histogram"] == [0, 0, 0, 0]
    assert forks.children == [1]


_real_certificates = harness._certificates
_real_check_claims = harness.check_claims


def _refusing_size_zero(span, n, open_, lanes):
    """harness.check_claims refusing every claim of size 0."""
    return bytes(len(open_)) if len(lanes) == 4 else _real_check_claims(span, n, open_, lanes)


def _another_degree(cert):
    """cert naming a degree one above its witnesses'."""
    return cert._replace(witness_degree=cert.witness_degree + 1)


def _repeated_witness(cert):
    """cert with its second witness in place of its third."""
    u, v, _ = cert.witness
    return cert._replace(witness=(u, v, v))


def _certificates_editing(edit):
    """harness._certificates with edit applied to every certificate of
    size 0 it gives, in its lanes."""
    return lambda span: helpers.lane_form([
        cert if cert.deleted else edit(cert)
        for cert in helpers.per_record(span[0] - 63, _real_certificates(span))
    ])


def _certificates_missing(span):
    """harness._certificates finding no set of one deletion or more."""
    return helpers.lane_form([
        None if cert.deleted else cert
        for cert in helpers.per_record(span[0] - 63, _real_certificates(span))
    ])


@pytest.mark.parametrize(
    "name,fault,edit",
    [
        pytest.param(
            "_certificates",
            _certificates_editing(_another_degree),
            _another_degree,
            id="another-degree",
        ),
        pytest.param(
            "_certificates",
            _certificates_editing(_repeated_witness),
            _repeated_witness,
            id="repeated-witness",
        ),
        pytest.param("check_claims", _refusing_size_zero, lambda c: c, id="check-refuses"),
    ],
)
def test_size_zero_fault_fails_every_size_zero_class(forks, monkeypatch, name, fault, edit):
    # a search that names a degree its witnesses do not hold, or one
    # witness twice, and a check that refuses everything each make every
    # order-5 class with a degree held three times a violation, and no
    # other class, in this process and in a shared map
    certs = {rec: solve3(parse_graph6(rec)) for rec in catalogue_records(5)}
    zero = [(rec.decode(), edit(c)) for rec, c in certs.items() if not c.deleted]
    assert len(zero) == 25
    monkeypatch.setattr(harness, name, fault)
    for jobs in (1, 2):
        report = verify_theorem(5, 5, jobs=jobs)
        entry = report.per_n[5]
        assert [(v["graph"], v["reason"]) for v in entry["violations"]] == [
            (rec, f"certificate {c.to_dict()} failed the independent check") for rec, c in zero
        ]
        assert entry["min_deletion_histogram"] == [0, 6, 3, 0]
        assert not report.verified
    assert forks.children == [1]


def _deletion_faults(edit):
    """harness._certificates with edit applied to every certificate it
    gives that deletes a vertex, in its lanes."""
    return lambda span: helpers.lane_form([
        edit(cert) if cert.deleted else cert
        for cert in helpers.per_record(span[0] - 63, _real_certificates(span))
    ])


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda c: c._replace(deleted=(c.witness[0], *c.deleted[1:])), id="deleted-witness"),
        # the first deleted vertex in place of the last, or, alone, twice
        pytest.param(lambda c: c._replace(deleted=c.deleted[:-1] + c.deleted[:1] if c.deleted[1:] else c.deleted * 2),
                     id="deleted-twice"),
        pytest.param(lambda c: c._replace(deleted=(c.original_order, *c.deleted[1:])), id="deleted-out-of-range"),
        pytest.param(_another_degree, id="another-degree"),
        pytest.param(_repeated_witness, id="repeated-witness"),
    ],
)
def test_deletion_fault_fails_every_class_that_needs_one(forks, monkeypatch, edit):
    # a search whose certificates of one deletion or more delete a
    # witness, name a deleted vertex twice or past the order, name a
    # degree their witnesses do not hold, or name one witness twice,
    # makes every order-5 class that needs a deletion a violation with
    # the independent check's reason, and no other class, in this
    # process and in a shared map
    certs = {rec: solve3(parse_graph6(rec)) for rec in catalogue_records(5)}
    needing = [(rec.decode(), edit(c)) for rec, c in certs.items() if c.deleted]
    assert len(needing) == 9
    monkeypatch.setattr(harness, "_certificates", _deletion_faults(edit))
    for jobs in (1, 2):
        report = verify_theorem(5, 5, jobs=jobs)
        entry = report.per_n[5]
        assert [(v["graph"], v["reason"]) for v in entry["violations"]] == [
            (rec, f"certificate {c.to_dict()} failed the independent check") for rec, c in needing
        ]
        assert entry["min_deletion_histogram"] == [25, 0, 0, 0]
        assert not report.verified
    assert forks.children == [1]


def _claiming_size_zero(span):
    """harness._certificates, with a size-0 claim written into its lanes,
    witnesses 0, 1 and 2 of degree 1, for every record it also gives a
    certificate of one deletion or more."""
    found = _real_certificates(span)
    n = span[0] - 63
    claim = solver.DeletionCertificate(n, (), (0, 1, 2), 1)
    answers = [claim if c.deleted else c for c in helpers.per_record(n, found)]
    return [helpers.lane_form(answers)[0], *found[1:]]


def test_unsupported_size_zero_claim_is_a_violation(forks, monkeypatch):
    # a search that claims size 0 in its lanes for a class with no
    # degree held three times, which its lanes cannot support, makes
    # that class a violation with the independent check's reason, even
    # beside the certificate that would have passed, in this process
    # and in a shared map; the histogram counts no such class
    needing = [rec.decode() for rec in catalogue_records(5) if solve3(parse_graph6(rec)).deleted]
    assert len(needing) == 9
    reason = "certificate {'n': 5, 'deleted': [], 'witness': [0, 1, 2], 'degree': 1} failed the independent check"
    monkeypatch.setattr(harness, "_certificates", _claiming_size_zero)
    for jobs in (1, 2):
        report = verify_theorem(5, 5, jobs=jobs)
        entry = report.per_n[5]
        assert [(v["graph"], v["reason"]) for v in entry["violations"]] == [(rec, reason) for rec in needing]
        assert entry["min_deletion_histogram"] == [25, 0, 0, 0]
        assert entry["graph_count"] == 34
        assert not report.verified
    with pytest.raises(errors.TheoremViolation) as caught:
        find_extremal(5)
    assert str(caught.value) == f"{needing[0]}: {reason}"
    assert forks.children == [1, 1]


def test_kernel_miss_gives_the_solve3_reason(forks, monkeypatch):
    # where the lane kernel finds no set, the report gives, for each such
    # class and no other, the reason solve3 raises when its search finds
    # none, word for word, in this process and in a shared map
    expected = []
    with monkeypatch.context() as mp:
        mp.setattr(solver, "min_deletion_for_rep3", lambda g, k: None)
        for rec in catalogue_records(6):
            g = parse_graph6(rec)
            if min_deletion_for_rep3(g, 0) is None:
                with pytest.raises(errors.TheoremViolation) as caught:
                    solve3(g)
                expected.append((rec.decode(), str(caught.value)))
    assert len(expected) == 32
    assert expected[0][1].startswith("no deletion set of size <= 3 found for Graph(n=6, edges=")
    monkeypatch.setattr(harness, "_certificates", _certificates_missing)
    for jobs in (1, 2):
        report = verify_theorem(6, 6, jobs=jobs)
        assert [(v["graph"], v["reason"]) for v in report.per_n[6]["violations"]] == expected
        assert report.per_n[6]["min_deletion_histogram"] == [124, 0, 0, 0]
    assert forks.children == [1]


def test_no_record_is_checked_twice(monkeypatch):
    # the fill and every sweep check each span once, with _shape, and
    # decode its records with no _check of their own; the file reader
    # checks each swept order's packed records with one _shape, and puts
    # only a record of an order outside the sweep to _check, once, and a
    # blank line not at all
    calls = []
    real_check = graphcore._check

    def counted(rec):
        calls.append(bytes(rec))
        return real_check(rec)

    catalogue_lines(8)  # warm, before anything is counted
    warm = enumeration._catalogue[7]
    monkeypatch.setattr(graphcore, "_check", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with monkeypatch.context() as mp:
        mp.setattr(enumeration, "_catalogue", {1: b"@"})
        assert enumeration._fill(7, None) == warm  # a cold fill, in this process
    assert calls == []
    assert verify_theorem(5, 8, jobs=1).verified
    assert verify_lemmas(7, jobs=1).verified
    find_extremal(7)
    assert counting_identity_suite(8, jobs=1).verified
    assert calls == []
    records = catalogue_records(5) + catalogue_records(6)
    lines = [b"Bw", b"", *records]
    fh = io.BytesIO(b"".join(line + b"\n" for line in lines))
    report = verify_theorem(5, 6, source=fh, jobs=1)
    assert (report.checked, report.skipped) == (len(records), 1)
    assert calls == [b"Bw"]


def test_guarded_keeps_a_rep3_error_of_the_one_record_rerun():
    # a span that crashes is run again a record at a time; a Rep3Error
    # raised then keeps its own type and message
    def worker(span):
        if len(span) > _width(5):
            raise ZeroDivisionError("planted")
        raise errors.MalformedRecord("alone")

    with pytest.raises(errors.MalformedRecord, match="^alone$"):
        enumeration._guarded(worker, b"D??D?_")


def _crashing(span):
    """A worker that fails on every span."""
    raise ZeroDivisionError("planted")


@given(
    st.one_of(
        st.binary(max_size=40),
        st.sampled_from([span for _, span, _ in helpers.BAD_SPANS] + [b"BwC~", b"BwDQc"]),
        st.integers(1, 6)
        .flatmap(lambda n: st.lists(st.sampled_from(catalogue_records(n)), min_size=1))
        .map(b"".join),
    )
)
@settings(max_examples=300, deadline=None)
def test_guarded_crash_path_raises_only_typed_errors(span):
    # the crash path reads any span's records through the one span
    # check: a malformed span raises its typed error, and a span of
    # whole records of one order a WorkerCrash naming its first record,
    # which fails alone
    with pytest.raises(errors.Rep3Error) as caught:
        enumeration._guarded(_crashing, span)
    try:
        records = helpers.split(span)
        whole = all(_check(rec) == span[0] - 63 for rec in records)
    except (IndexError, errors.Rep3Error):  # an empty span, or a bad record
        whole = False
    if whole:
        first = records[0].decode()
        assert type(caught.value) is errors.WorkerCrash
        assert str(caught.value) == f"{first}: _crashing raised ZeroDivisionError('planted')"


@pytest.mark.parametrize("count", [0, 1])
def test_tiny_source_starts_nothing(forks, count):
    # a fork costs more than mapping one record in this process
    source = catalogue_records(5)[:count]
    forks.clear()
    report = verify_theorem(5, 8, source=helpers.g6_file(source), jobs=2)
    assert forks.children == []
    assert report.checked == count


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: verify_lemmas(1, jobs=2), id="verify_lemmas"),
        pytest.param(lambda: counting_identity_suite(1), id="identity"),
    ],
)
def test_one_class_catalogue_starts_nothing(forks, call):
    # order 1 is memoised from the start and holds one class, K1
    call()
    assert forks.children == []


_real_children = enumeration._children
_real_theorem_worker = harness._theorem_worker
_real_lemma_worker = harness._lemma_worker
_real_identity_worker = harness._identity_worker
K6 = b"E~~w"


def _children_editing(parents, edit):
    """_children over a span of parents, with edit applied to the
    children of the edgeless order-5 parent."""
    return [
        edit(out) if rec == b"D??" else out
        for rec, out in zip(helpers.split(parents), _real_children(parents))
    ]


def _children_dropping_one(parents):
    """_children, except that the edgeless order-5 parent loses its
    first child, the edgeless graph of order 6."""

    def edit(out):
        (edges, forms), *rest = out
        return [(edges, forms[_width(6):]), *rest]

    return _children_editing(parents, edit)


def _children_repeating_a_class(parents):
    """_children, except that the edgeless order-5 parent's child with
    two edges, P3 + 3K1, is swapped for a copy of 2K2 + 2K1, the other
    class of order 6 with two edges."""

    def edit(out):
        return [(edges, b"E?C_" if forms == b"E??W" else forms) for edges, forms in out]

    return _children_editing(parents, edit)


def _children_moving_a_class(parents):
    """_children, except that the edgeless order-5 parent's child with
    two edges is filed under three edges."""

    def edit(out):
        return [(3 if forms == b"E??W" else edges, forms) for edges, forms in out]

    return _children_editing(parents, edit)


def _children_widening_a_record(parents):
    """_children, except that the edgeless order-5 parent's child with
    two edges, P3 + 3K1, comes one byte too long."""

    def edit(out):
        return [(edges, b"E??W?" if forms == b"E??W" else forms) for edges, forms in out]

    return _children_editing(parents, edit)


def _children_misaligning_two(parents):
    """_children, except that the two children of order 6 with two
    edges come one byte too long (P3 + 3K1) and one too short (2K2 +
    2K1): together a whole number of records, split at the wrong bytes."""
    swap = {b"E??W": b"E??W?", b"E?C_": b"E?C"}
    return [
        [(edges, swap.get(forms, forms)) for edges, forms in out]
        for out in _real_children(parents)
    ]


@pytest.mark.parametrize(
    "children,message",
    [
        pytest.param(
            _children_widening_a_record,
            "order 6, 2 edges: generated 9 bytes, not whole 4-byte records of order 6",
            id="widened",
        ),
        pytest.param(
            _children_misaligning_two,
            "order 6, 2 edges: generated 8 bytes, not whole 4-byte records of order 6",
            id="misaligned",
        ),
        pytest.param(
            _children_repeating_a_class,
            "order 6, 2 edges: generated 2 records, 1 distinct, A008406 counts 2",
            id="repeated",
        ),
        pytest.param(
            _children_moving_a_class,
            "order 6, 2 edges: generated 1 records, 1 distinct, A008406 counts 2",
            id="moved",
        ),
    ],
)
def test_class_count_kept_fails_the_level_gate(monkeypatch, children, message):
    # each order still holds A000088's number of records; only the gates
    # per edge count (whole records, then count and distinctness) see
    # the fault
    monkeypatch.setattr(enumeration, "_children", children)
    cold(monkeypatch)
    with pytest.raises(errors.IncompleteCatalogue, match=message):
        catalogue_records(6)
    assert 6 not in enumeration._catalogue


def _children_dividing_by_zero(parents):
    """_children, except on a span holding the edgeless order-5
    parent, where it raises ZeroDivisionError."""
    if b"D??" in helpers.split(parents):
        raise ZeroDivisionError("planted")
    return _real_children(parents)


def _theorem_worker_dividing_by_zero(span):
    """_theorem_worker, except on a span holding K6, where it raises
    ZeroDivisionError."""
    if K6 in helpers.split(span):
        raise ZeroDivisionError("planted")
    return _real_theorem_worker(span)


def _lemma_worker_dividing_by_zero(span):
    """_lemma_worker, except on a span holding K6, where it raises
    ZeroDivisionError."""
    if K6 in helpers.split(span):
        raise ZeroDivisionError("planted")
    return _real_lemma_worker(span)


def _identity_worker_dividing_by_zero(span):
    """_identity_worker, except on a span holding K6, where it raises
    ZeroDivisionError."""
    if K6 in helpers.split(span):
        raise ZeroDivisionError("planted")
    return _real_identity_worker(span)


def _theorem_worker_rejecting(span):
    """_theorem_worker, except on a span holding K6, which it calls
    malformed."""
    if K6 in helpers.split(span):
        raise errors.MalformedRecord("K6 rejected on purpose")
    return _real_theorem_worker(span)


# the 58th of the 190 classes of orders 5 and 6, the 24th of order 6,
# whose records are cut into chunks on their own: fourth of a 5-record
# chunk at two jobs (190 // 32) and second of an 11-record chunk at one
# (190 // 16)
MID_CHUNK = 57


def _theorem_worker_failing_mid_chunk(span):
    """_theorem_worker, except on a span holding the class MID_CHUNK
    of orders 5 and 6, where it raises ZeroDivisionError."""
    if [*catalogue_records(5), *catalogue_records(6)][MID_CHUNK] in helpers.split(span):
        raise ZeroDivisionError("planted")
    return _real_theorem_worker(span)


def _theorem_worker_failing_together(span):
    """_theorem_worker, except on spans of more than one record, where
    it raises ZeroDivisionError: no record fails alone."""
    if len(helpers.split(span)) > 1:
        raise ZeroDivisionError("planted")
    return _real_theorem_worker(span)


def test_dropped_class_fails_the_completeness_gate(forks, monkeypatch, capsys):
    monkeypatch.setattr(enumeration, "_children", _children_dropping_one)
    message = "order 6: generated 155 classes, A000088 counts 156"
    cold(monkeypatch)
    with pytest.raises(errors.IncompleteCatalogue, match=message):
        catalogue_records(6)
    assert forks.children == [1]
    assert 6 not in enumeration._catalogue
    capsys.readouterr()
    assert run(["verify", "--min-n", "5", "--max-n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_generation_crash_names_its_parent(forks, monkeypatch, capsys, jobs):
    # a crash while a parent is extended is a typed error naming that
    # parent, as a sweep worker's is, and exits 2 at any jobs count
    monkeypatch.setattr(enumeration, "_children", _children_dividing_by_zero)
    cold(monkeypatch)
    assert run(["verify", "--min-n", "5", "--max-n", "6", "--jobs", str(jobs)]) == 2
    assert forks.children == ([1] if jobs == 2 else [])
    assert 6 not in enumeration._catalogue
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "D??: _children_dividing_by_zero raised ZeroDivisionError('planted')"
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "worker,message",
    [
        pytest.param(
            _theorem_worker_dividing_by_zero,
            "E~~w: _theorem_worker_dividing_by_zero raised ZeroDivisionError('planted')",
            id="crash",
        ),
        pytest.param(_theorem_worker_rejecting, "K6 rejected on purpose", id="rep3error"),
    ],
)
def test_worker_error_names_its_record(forks, monkeypatch, capsys, jobs, worker, message):
    # a crash becomes a typed error naming the record; a Rep3Error the
    # worker raises keeps its own message; both exit 2 at any jobs count
    catalogue_records(6)
    forks.clear()
    monkeypatch.setattr(harness, "_theorem_worker", worker)
    assert run(["verify", "--min-n", "5", "--max-n", "6", "--jobs", str(jobs)]) == 2
    assert forks.children == ([1] if jobs == 2 else [])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("jobs,size", [(1, 11), (2, 5)])
def test_crash_mid_chunk_names_its_record(forks, monkeypatch, jobs, size):
    # the planted record sits inside its chunk, neither first nor last;
    # the chunk fails, and only its records run again one at a time
    records = [*catalogue_records(5), *catalogue_records(6)]
    assert len(records) // (16 * jobs) == size and 0 < (MID_CHUNK - 34) % size < size - 1
    forks.clear()
    monkeypatch.setattr(harness, "_theorem_worker", _theorem_worker_failing_mid_chunk)
    name = records[MID_CHUNK].decode("ascii")
    message = f"{name}: _theorem_worker_failing_mid_chunk raised ZeroDivisionError('planted')"
    with pytest.raises(errors.WorkerCrash) as caught:
        verify_theorem(5, 6, jobs=jobs)
    assert str(caught.value) == message
    assert forks.children == ([1] if jobs == 2 else [])


def test_crash_no_record_repeats_alone_names_its_chunk(monkeypatch):
    # the first chunk, records 0..10 of orders 5 and 6 at one job, fails
    # while each of its records passes alone
    records = [*catalogue_records(5), *catalogue_records(6)]
    monkeypatch.setattr(harness, "_theorem_worker", _theorem_worker_failing_together)
    first, last = records[0].decode("ascii"), records[10].decode("ascii")
    message = f"{first}..{last}: _theorem_worker_failing_together raised ZeroDivisionError('planted')"
    with pytest.raises(errors.WorkerCrash) as caught:
        verify_theorem(5, 6, jobs=1)
    assert str(caught.value) == message


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize(
    "name,worker,call",
    [
        pytest.param(
            "_lemma_worker",
            _lemma_worker_dividing_by_zero,
            lambda cores: verify_lemmas(6, jobs=cores),
            id="lemmas",
        ),
        pytest.param(
            "_identity_worker",
            _identity_worker_dividing_by_zero,
            lambda cores: counting_identity_suite(6),
            id="identity",
        ),
        pytest.param(
            "_theorem_worker",
            _theorem_worker_dividing_by_zero,
            lambda cores: find_extremal(6),
            id="extremal",
        ),
    ],
)
def test_every_sweep_names_the_record_a_worker_crashed_on(
    forks, monkeypatch, cores, name, worker, call
):
    # each sweep's map guards its worker, shared with a child on two
    # cores and in this process on one; identity and extremal take their
    # process count from the core count alone
    catalogue_records(6)
    forks.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(harness, name, worker)
    message = f"E~~w: {worker.__name__} raised ZeroDivisionError('planted')"
    with pytest.raises(errors.WorkerCrash) as caught:
        call(cores)
    assert str(caught.value) == message
    assert forks.children == ([1] if cores == 2 else [])


@pytest.mark.parametrize("cores", [1, 2])
def test_every_map_hands_its_workers_bytes_records(forks, monkeypatch, cores):
    # the catalogue is held as one bytes per order; the fill and each
    # sweep hand every worker call one span, a bytes slice of whole
    # records of one order, in this process and in a forked child
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(enumeration, "_children", helpers.OneSpan("_children"))
    for name in ("_theorem_worker", "_lemma_worker", "_identity_worker"):
        monkeypatch.setattr(harness, name, helpers.OneSpan(name))
    cold(monkeypatch)
    assert verify_theorem(5, 6, jobs=cores).verified
    assert verify_lemmas(6, jobs=cores).verified
    assert counting_identity_suite(6).verified
    find_extremal(6)
    # the order-6 fill, then one map per sweep
    assert forks.children == ([1] * 5 if cores == 2 else [])


def _in_child(planted):
    """A _theorem_worker that runs planted(span) in place of the real
    worker in a forked child, and the real worker in this process."""
    main = os.getpid()

    def worker(span):
        return (planted if os.getpid() != main else _real_theorem_worker)(span)

    return worker


def _in_main(planted):
    """A _theorem_worker that runs planted(span) in place of the real
    worker in this process, and the real worker in a forked child."""
    main = os.getpid()

    def worker(span):
        return (planted if os.getpid() == main else _real_theorem_worker)(span)

    return worker


def _rejecting(span):
    raise errors.MalformedRecord("rejected in a child")


@pytest.mark.parametrize(
    "patch,call,raised,message",
    [
        pytest.param(None, lambda: verify_theorem(5, 7, jobs=2), None, None, id="clean_theorem"),
        pytest.param(None, lambda: verify_lemmas(6, jobs=2), None, None, id="clean_lemmas"),
        pytest.param(None, lambda: counting_identity_suite(6), None, None, id="clean_identity"),
        pytest.param(None, lambda: find_extremal(7), None, None, id="clean_extremal"),
        pytest.param(None, None, None, None, id="clean_fill"),
        pytest.param(
            ("_theorem_worker", _in_child(_rejecting)),
            lambda: verify_theorem(5, 7, jobs=2),
            errors.MalformedRecord,
            "rejected in a child",
            id="rep3error_in_child",
        ),
        pytest.param(
            ("_theorem_worker", _in_main(_crashing)),
            lambda: verify_theorem(5, 7, jobs=2),
            errors.WorkerCrash,
            "D??: worker raised ZeroDivisionError('planted')",
            id="crash_in_main_share",
        ),
        pytest.param(
            ("_certificates", helpers.searching_with(_solve3_missing)),
            lambda: find_extremal(7),
            errors.TheoremViolation,
            "F????: no deletion set of size <= 3 found for Graph(n=7, edges=[])",
            id="fold_raises_mid_map",
        ),
    ],
)
def test_no_child_outlives_a_call(forks, monkeypatch, patch, call, raised, message):
    # however a shared call ends, cleanly, by a Rep3Error a child sent,
    # by a crash in this process's own chunks or by a fold that stops
    # reading mid-map, every child it forked is gone when it returns;
    # the fill is a cold one, of orders 6 and 7
    catalogue_records(7)
    if patch:
        monkeypatch.setattr(harness, *patch)
    if call is None:
        cold(monkeypatch)
        assert catalogue_lines(7).count(b"\n") == 1044
    elif raised:
        with pytest.raises(raised) as caught:
            call()
        assert str(caught.value) == message
    else:
        call()
    assert forks.children and set(forks.children) == {1}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors():
    """This process's open file descriptors, or None where
    /proc/self/fd is absent."""
    fds = "/proc/self/fd"
    return set(os.listdir(fds)) if os.path.isdir(fds) else None


@pytest.mark.parametrize("good", [0, 1], ids=["first_fork_fails", "second_fork_fails"])
def test_failed_fork_leaves_no_pipe_or_child(monkeypatch, capsys, good):
    # a fork that fails, as with EAGAIN on a host out of processes,
    # raises out of the sweep and is one error line from the CLI; the
    # pipe made for it is closed, and a child forked before it is killed
    # and reaped and its pipe closed too; three cores make two children
    catalogue_records(7)  # a warm catalogue: the sweep is the one map
    real_fork = os.fork
    forked = []

    def fork():
        if len(forked) >= good:
            raise OSError(errno.EAGAIN, "planted")
        forked.append(real_fork())
        return forked[-1]

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    before = open_descriptors()
    with pytest.raises(OSError) as caught:
        verify_theorem(5, 7)
    assert caught.value.errno == errno.EAGAIN
    assert len(forked) == good
    assert open_descriptors() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    capsys.readouterr()
    assert run(["verify", "--min-n", "5", "--max-n", "7", "--jobs", "2"]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert open_descriptors() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize(
    "module,name,call",
    [
        pytest.param(enumeration, "_children", lambda: catalogue_lines(7), id="fill"),
        pytest.param(harness, "_theorem_worker", lambda: verify_theorem(5, 6), id="theorem"),
        pytest.param(harness, "_lemma_worker", lambda: verify_lemmas(6), id="lemmas"),
        pytest.param(harness, "_identity_worker", lambda: counting_identity_suite(6), id="identity"),
        pytest.param(harness, "_theorem_worker", lambda: find_extremal(6), id="extremal"),
    ],
)
def test_crash_rerun_hands_one_record_spans(monkeypatch, cores, module, name, call):
    # every span of more than one record crashes; _guarded runs the
    # first crashed span's records again, each as a one-record span that
    # the spy checks and the real worker passes, so the crash names the
    # span's first and last records
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(module, name, helpers.OneSpan(name, crash=True))
    cold(monkeypatch)
    with pytest.raises(errors.WorkerCrash) as caught:
        call()
    assert re.fullmatch(rf"\S+\.\.\S+: {name} raised ZeroDivisionError\('planted'\)", str(caught.value))


def test_each_4_set_is_checked_once(monkeypatch):
    # the induced-path test applies once to each 4-set with no
    # balanceable 3-subset, and to no other: with every entry of its
    # table planted as a failure, the violations are exactly those
    # sets, each once; catalogue classes are degree-sorted, so the
    # worker scans them in their own labels
    monkeypatch.setattr(feasible, "_PATH_OK", bytes(512))
    report = verify_lemmas(7, jobs=1)
    expected = [
        {"n": n, "graph": rec.decode("ascii"), "subset": list(x)}
        for n in range(4, 8)
        for rec in catalogue_records(n)
        for g in [parse_graph6(rec)]
        for x in combinations(range(n), 4)
        if not any(classify_triple(g, s).balanceable for s in combinations(x, 3))
    ]
    found = report.lemma_results["induced_path"]["violations"]
    assert found == expected
    assert 0 < len(found) < report.lemma_results["induced_path"]["instances_checked"]


def test_oracle_sees_only_graphs_with_no_degree_held_three_times(monkeypatch):
    # a degree held three times is a minimum of 0 deletions, read off the
    # degree lanes; every other class, in catalogue order, goes to the
    # oracle once
    asked = []

    def oracle(g, k):
        asked.append((g, k))
        return min_deletion_for_rep3(g, k)

    monkeypatch.setattr(harness, "min_deletion_for_rep3", oracle)
    verify_lemmas(7, jobs=1)
    expected = [
        (g, n - 3)
        for n in range(3, 8)
        for g in map(parse_graph6, catalogue_records(n))
        if max(g.degrees.count(d) for d in g.degrees) < 3
    ]
    assert asked == expected
    assert all(min_deletion_for_rep3(g, k).deleted for g, k in expected if g.n >= 5)


class TestReport:
    def test_comparable_drops_elapsed(self):
        r = VerificationReport(per_n={}, lemma_results={}, elapsed=1.5)
        assert "elapsed" not in r.comparable()
        assert json.loads(r.to_json())["elapsed"] == 1.5

    def test_verified_flag(self):
        bad = VerificationReport(
            per_n={5: {"graph_count": 1, "min_deletion_histogram": [1, 0, 0, 0],
                       "violations": [{"n": 5}], "extremal_witnesses": []}},
            lemma_results={},
            elapsed=0.0,
        )
        assert not bad.verified
