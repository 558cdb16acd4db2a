import json

import pytest

from rep3 import errors, feasible, harness, solver
from rep3.enumeration import catalogue_records, enumerate_graphs, read_graph6_records
from rep3.graphcore import parse_graph6
from rep3.harness import (
    VerificationReport,
    counting_identity_suite,
    find_extremal,
    verify_lemmas,
    verify_theorem,
)
from rep3.solver import min_deletion_for_rep3


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
        streamed = verify_theorem(5, 5, source=enumerate_graphs(5))
        assert gen.comparable() == streamed.comparable()

    def test_record_source_equivalent(self):
        text = b"".join(rec + b"\n" for rec in catalogue_records(5))
        streamed = verify_theorem(5, 5, source=read_graph6_records(text))
        assert verify_theorem(5, 5).comparable() == streamed.comparable()

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
        with pytest.raises(errors.OrderTooLarge):
            verify_lemmas(9)

    def test_violations_reach_report(self, monkeypatch):
        # no real class violates a lemma, so plant one 4-set and one
        # 5-set violation in every class that has them
        real_p4 = harness._p4

        def p4(g, x, table):
            if x == (0, 1, 2, 3):
                return feasible.StructureVerdict("violation", None)
            return real_p4(g, x, table)

        def median(u, table, keys):
            if u == (0, 1, 2, 3, 4):
                raise errors.NoFeasibleTriple("planted")

        monkeypatch.setattr(harness, "_p4", p4)
        monkeypatch.setattr(harness, "_median_triple", median)
        expected = {
            "induced_path": [
                (n, rec.decode("ascii"), [0, 1, 2, 3])
                for n in (4, 5)
                for rec in catalogue_records(n)
            ],
            "median_feasible": [
                (5, rec.decode("ascii"), [0, 1, 2, 3, 4]) for rec in catalogue_records(5)
            ],
        }
        for jobs in (1, 2):
            r = verify_lemmas(5, jobs=jobs)
            assert not r.verified
            for name, suite in r.lemma_results.items():
                named = [(v["n"], v["graph"], v["subset"]) for v in suite["violations"]]
                assert named == expected.get(name, [])


class TestCountingIdentity:
    def test_max6_clean(self):
        r = counting_identity_suite(6)
        suite = r.lemma_results["counting_identity"]
        assert suite["violations"] == []
        assert suite["instances_checked"] > 0
        assert r.verified

    def test_instance_filter(self):
        # hypothesis demands no repeated-degree class above two and no
        # isolated vertex; K2 qualifies, K1 and K3 do not
        r = counting_identity_suite(2)
        assert r.lemma_results["counting_identity"]["instances_checked"] == 1

    def test_cap(self):
        with pytest.raises(errors.OrderTooLarge):
            counting_identity_suite(9)


class TestFindExtremal:
    def test_n5_default_target(self):
        for rec in find_extremal(5):
            g = parse_graph6(rec)
            c = min_deletion_for_rep3(g, 2)
            assert c is not None and len(c.deleted) == 2

    def test_n5_three_impossible(self):
        assert find_extremal(5, target=3) == []

    def test_n6(self):
        hits = find_extremal(6)
        for rec in hits:
            g = parse_graph6(rec)
            assert len(min_deletion_for_rep3(g, 3).deleted) == 3

    def test_theorem_miss_raises(self, monkeypatch):
        # a class the search cannot solve must not drop out of the listing
        monkeypatch.setattr(solver, "min_deletion_for_rep3", lambda g, k: None)
        with pytest.raises(errors.TheoremViolation):
            find_extremal(5)

    def test_failed_check_raises(self, monkeypatch):
        # every class goes through the theorem sweep's independent check
        monkeypatch.setattr(harness, "check_certificate", lambda g, c: False)
        with pytest.raises(errors.TheoremViolation):
            find_extremal(5)

    def test_range(self):
        with pytest.raises(errors.OrderOutOfRange):
            find_extremal(4)
        with pytest.raises(errors.OrderOutOfRange):
            find_extremal(10)


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
