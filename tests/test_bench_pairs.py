import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


def test_missing_work_directory_is_a_usage_error(tmp_path):
    # checked before any tree is extracted or any run starts
    missing = tmp_path / "missing"
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--workload", "suites8_warm",
            "--seed", "1", "--out", str(out), "--work", str(missing)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 2
    assert f"--work {missing}: no such directory" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists() and not missing.exists()


def run_script(tmp_path, *extra):
    """bench_pairs.py with a --work directory of its own and extra
    arguments; (result, work directory, out path)."""
    work = tmp_path / "work"
    work.mkdir()
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--seed", "1",
            "--out", str(out), "--work", str(work), *extra]
    return subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path), work, out


@pytest.mark.parametrize("pairs", ["0", "1"])
def test_too_few_pairs_is_a_usage_error(tmp_path, pairs):
    # quartiles need two values; refused before any tree is extracted
    done, work, out = run_script(tmp_path, "--workload", "sweep8_cold", "--pairs", pairs)
    assert done.returncode == 2
    assert f"--pairs {pairs}: need at least 2 pairs" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists() and list(work.iterdir()) == []


def test_unknown_workload_is_a_usage_error(tmp_path):
    done, work, out = run_script(tmp_path, "--workload", "sweep8_cold", "--workload", "sweep8_warm")
    assert done.returncode == 2
    assert "invalid choice: 'sweep8_warm'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists() and list(work.iterdir()) == []


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values):
    """Synthetic run.py result lines, one metric each."""
    return [{"metrics": {"sweep_s": {"value": v, "unit": "s"}}} for v in values]


def test_summarise_medians_quartiles_and_wins():
    bench_pairs = load_script()
    parent = [10.0, 12.0, 14.0, 16.0, 18.0]
    change = [9.0, 12.0, 15.0, 15.0, 17.0]  # wins pairs 1, 4 and 5; pair 2 ties
    got = bench_pairs.summarise(runs(parent), runs(change))["sweep_s"]
    assert got["unit"] == "s"
    assert got["parent_median"] == 14.0 and got["change_median"] == 15.0
    assert got["change_pct"] == pytest.approx(100 / 14)
    # statistics.quantiles' default (exclusive) method
    assert (got["parent_q1"], got["parent_q3"], got["parent_iqr"]) == (11.0, 17.0, 6.0)
    assert got["change_wins"] == 3 and got["pairs"] == 5
    assert got["parent"] == parent and got["change"] == change
    # the tie counts for neither side: the parent wins only pair 3
    assert bench_pairs.summarise(runs(change), runs(parent))["sweep_s"]["change_wins"] == 1
