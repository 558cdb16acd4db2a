"""Self-test of the benchmark's reference checks and of quick-mode runs.

    python3 -m pytest perfbench -q

The hand-built cases pin the brute force that every workload's output is
checked against; the quick-mode runs drive each workload end to end at a
tiny size and compare the printed metrics with BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import g6input
import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def complete(n):
    return [set(range(n)) - {v} for v in range(n)]


def test_p4_never_reaches_three_equal_degrees():
    p4 = [{1}, {0, 2}, {1, 3}, {2}]
    assert refcheck.min_deletions(p4) is None


def test_k5_needs_no_deletion():
    assert refcheck.min_deletions(complete(5)) == 0


def test_extremal_class_needs_exactly_three():
    adj = refcheck.decode_graph6(g6input.EXTREMAL)
    assert len(adj) == 8
    assert refcheck.min_deletions(adj) == 3


def test_graph6_codec_round_trips():
    assert refcheck.encode_graph6(complete(3)) == "Bw"
    assert refcheck.decode_graph6("Bw") == complete(3)
    assert refcheck.encode_graph6(refcheck.decode_graph6(g6input.EXTREMAL)) == g6input.EXTREMAL


def test_identity_count_on_p4():
    # degrees 1, 2, 2, 1: degree 3 is missed, degrees 1 and 2 are doubled
    p4 = refcheck.encode_graph6([{1}, {0, 2}, {1, 3}, {2}])
    assert refcheck.identity_instances([p4]) == (1, 0)


def test_relabelled_copies_stay_extremal():
    records = g6input.make_records(seed=3, count=100)
    copies = [r for r in records if refcheck.min_deletions(refcheck.decode_graph6(r)) == 3]
    assert len(copies) >= 100 // g6input.EXTREMAL_EVERY
    assert g6input.make_records(seed=3, count=100) == records


def test_report_check_catches_a_wrong_histogram():
    recs = ["DQo", refcheck.encode_graph6(complete(5))]
    mins = refcheck.minimum_table(recs)
    hist = [0, 0, 0, 0]
    for r in recs:
        hist[mins[r]] += 1
    report = {
        "verified": True,
        "lemma_results": {},
        "per_n": {"5": {"graph_count": 2, "min_deletion_histogram": hist,
                        "violations": [], "extremal_witnesses": []}},
    }
    assert refcheck.check_theorem_report(report, {"5": recs}, mins) == []
    report["per_n"]["5"]["min_deletion_histogram"] = [h + 1 for h in hist]
    assert refcheck.check_theorem_report(report, {"5": recs}, mins)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["sweep8_cold", "suites8_warm", "g6_stream"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                 "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "g6_stream", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
