import pathlib
import subprocess
import sys

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
