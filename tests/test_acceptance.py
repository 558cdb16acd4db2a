"""Acceptance gate: fourteen checks, one test and one pass/fail line each.

Tolerances are exact throughout: zero violations, exact class counts,
byte equality.  The order-9 leg of the first check runs under the
`extended` marker (about 35 s on two cores, generation included);
everything else stays in the default suite.  Session fixtures share the
two expensive sweeps so no suite is computed twice.
"""

import hashlib
import json
from itertools import combinations, permutations

import pytest

from rep3.graphcore import complement, parse_graph6, write_graph6
from rep3.harness import counting_identity_suite, verify_lemmas, verify_theorem
from rep3.solver import min_deletion_for_rep3

import helpers

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# instances checked by each lemma suite through orders 7 and 8
SUITE_COUNTS = {
    7: {"induced_path": 39061, "median_feasible": 22894,
        "feasible_budget": 22826, "paired_degree_gap": 1246},
    8: {"induced_path": 903281, "median_feasible": 714270,
        "feasible_budget": 475642, "paired_degree_gap": 25808},
}

# SHA-256 of json.dumps(verify_lemmas(8).comparable(), sort_keys=True):
# every count and violation list of the four suites, byte for byte
LEMMAS_8_SHA256 = "754b6170868c62417c1e63f75e10227accac889dcf824e0742ba583a8fe7ee1b"
# the same of counting_identity_suite(8), at one worker and at two
IDENTITY_8_SHA256 = "b319b63a9aa8e280ca5e33a647c413c0a5baa1f657a1b8968b216daa20fc79e3"
# the same of verify_theorem(5, 8), at one worker and at two: the
# histograms, witness lists and violations of orders 5..8
VERIFY_5_8_SHA256 = "0d08e0a19a277f819714b2ad0255e9ac888983df88ebba3fd8a15248c44693ec"


def assert_suite_counts(name, *reports):
    for max_n, report in zip((7, 8), reports):
        suite = report.lemma_results[name]
        assert suite["violations"] == []
        assert suite["instances_checked"] == SUITE_COUNTS[max_n][name]


@pytest.fixture(scope="module")
def theorem_report():
    return verify_theorem(5, 8, jobs=1)


@pytest.fixture(scope="module")
def lemma_suite_7():
    return verify_lemmas(7)


@pytest.fixture(scope="module")
def lemma_suite_8():
    return verify_lemmas(8)


def test_a01_exhaustive_sweep_orders_5_to_8(theorem_report):
    for n in range(5, 9):
        entry = theorem_report.per_n[n]
        assert entry["graph_count"] == CLASS_COUNTS[n]
        assert entry["violations"] == []
        assert sum(entry["min_deletion_histogram"]) == CLASS_COUNTS[n]
    assert theorem_report.verified


@pytest.mark.extended
def test_a01_exhaustive_sweep_order_9():
    report = verify_theorem(9, 9)
    assert report.per_n[9]["graph_count"] == 274668
    assert report.per_n[9]["violations"] == []
    assert report.per_n[9]["min_deletion_histogram"] == [259827, 14822, 19, 0]
    assert report.verified


def test_a02_path_on_four_vertices_never_solvable():
    g = helpers.p4()
    for max_k in range(0, g.n - 2):
        assert min_deletion_for_rep3(g, max_k) is None


def test_a03_induced_path_suite_through_order_8(lemma_suite_7, lemma_suite_8):
    assert_suite_counts("induced_path", lemma_suite_7, lemma_suite_8)


def test_a04_median_feasible_suite_through_order_8(lemma_suite_7, lemma_suite_8):
    assert_suite_counts("median_feasible", lemma_suite_7, lemma_suite_8)


def test_a05_feasible_budget_weak_form_through_order_7(lemma_suite_7, lemma_suite_8):
    assert_suite_counts("feasible_budget", lemma_suite_7, lemma_suite_8)
    # the strong form (equalizing the triple itself within its
    # allowance) is not part of the lemma, and a failure would not
    # unverify a report; its measured count is pinned so that a change
    # to the budget search shows here
    for report in (lemma_suite_7, lemma_suite_8):
        assert report.lemma_results["feasible_budget"]["strong_form_failures"] == 0


def test_a06_paired_degree_gap_suite_through_order_8(lemma_suite_7, lemma_suite_8):
    assert_suite_counts("paired_degree_gap", lemma_suite_7, lemma_suite_8)


def test_a07_counting_identity_through_order_8():
    report = counting_identity_suite(8)
    suite = report.lemma_results["counting_identity"]
    assert suite["violations"] == []
    assert suite["instances_checked"] > 0


def test_a08_complement_invariance_orders_5_to_7(graphs_by_n):
    for n in range(5, 8):
        cap = min(3, n - 3)
        for g in graphs_by_n(n):
            mine = min_deletion_for_rep3(g, cap)
            twin = min_deletion_for_rep3(complement(g), cap)
            assert mine is not None and twin is not None
            assert len(mine.deleted) == len(twin.deleted)


def _labeled_class_count(n: int) -> int:
    """Isomorphism classes of order n by sheer force: every labeled graph
    as an edge bitmask, collapsed under every one of the n! vertex
    bijections.  Shares no code with the enumerator."""
    import numpy as np

    if n == 1:
        return 1
    pairs = list(combinations(range(n), 2))
    slot = {pq: i for i, pq in enumerate(pairs)}
    m = len(pairs)
    perm_maps = np.array(
        [
            [slot[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
            for perm in permutations(range(n))
        ],
        dtype=np.int64,
    )
    masks = np.arange(1 << m, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m)) & 1
    weights = np.int64(1) << np.arange(m, dtype=np.int64)
    best = masks.copy()
    for pm in perm_maps:
        np.minimum(best, bits[:, pm] @ weights, out=best)
    return len(np.unique(best))


def test_a09_class_counts_cross_checked(graphs_by_n):
    for n, expected in CLASS_COUNTS.items():
        assert len(graphs_by_n(n)) == expected
    for n in range(1, 7):
        assert _labeled_class_count(n) == CLASS_COUNTS[n]


def test_a10_graph6_round_trips(graphs_by_n, catalogue_records):
    for n in range(1, 8):
        for g in graphs_by_n(n):
            assert parse_graph6(write_graph6(g)) == g
    for record in catalogue_records:
        assert write_graph6(parse_graph6(record)) == record


def test_a11_report_identical_across_worker_counts(theorem_report):
    wide = verify_theorem(5, 8, jobs=8)
    assert wide.comparable() == theorem_report.comparable()


def test_a12_lemma_report_pinned(lemma_suite_8):
    text = json.dumps(lemma_suite_8.comparable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMAS_8_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_a13_identity_report_pinned(jobs):
    report = counting_identity_suite(8, jobs=jobs)
    text = json.dumps(report.comparable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == IDENTITY_8_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_a14_theorem_report_pinned(theorem_report, jobs):
    report = theorem_report if jobs == 1 else verify_theorem(5, 8, jobs=jobs)
    text = json.dumps(report.comparable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_5_8_SHA256
