"""Paired before/after runs of the rep3 benchmark, written to one JSON file.

Runs perfbench/run.py, as each tree has it, on a parent tree and a
change tree in alternating pairs (the parent first in even pairs, the
change first in odd ones), each run in a new interpreter with its own
seed, and records per workload and end-to-end metric:

  * both medians, the parent's quartiles and IQR, and the pairs the
    change won (every metric here is better lower);
  * every raw value, the seeds, and whether every run was correct.

Alongside: the core count, the Python version, whether
PYTHONDONTWRITEBYTECODE was set (when it is, run.py's warm-up import
writes no bytecode, so every child's setup_s includes compiling src/),
a fixed pure-Python loop timed before and after the runs (the
benchmark's host.ref_loop_s yardstick), and each side's git commit and
a SHA-256 of its src/ tree.  Standard library only.  From the root of a
rep3 git checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH.json \\
        --workload suites8_warm --workload sweep8_cold --pairs 10 --seed 301

--parent and --change name git revisions, extracted with git archive
into --work; --change defaults to the working tree as it is on disk,
copied there without the files git ignores.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from time import perf_counter

WORKING_TREE = "WORKTREE"


def ref_loop_s() -> float:
    """The benchmark's host yardstick: a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def src_digest(root: str) -> str:
    """SHA-256 over the paths and bytes of every file under root/src."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def side(rev: str, work: str, name: str) -> dict:
    """A tree to run, copied into work/name: the working tree's files
    that git does not ignore, or rev's.  Both sides start without
    bytecode caches or benchmark output, so neither inherits the other's."""
    root = os.path.join(work, name)
    os.makedirs(root)
    if rev == WORKING_TREE:
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for path in filter(os.path.isfile, files.split("\0")):
            os.makedirs(os.path.join(root, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(root, path))
        dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src"))
        commit = git("rev-parse", "HEAD")
    else:
        archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(root)
        dirty = False
        commit = git("rev-parse", rev)
    return {"root": root, "commit": commit, "src_changed_since_commit": dirty,
            "src_sha256": src_digest(root)}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run in root; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(parent: list, change: list) -> dict:
    """Per metric: medians, the parent's quartiles, wins, raw values."""
    out = {}
    for metric in parent[0]["metrics"]:
        a = [r["metrics"][metric]["value"] for r in parent]
        b = [r["metrics"][metric]["value"] for r in change]
        q1, q3 = quartiles(a)
        pa, pb = statistics.median(a), statistics.median(b)
        out[metric] = {
            "unit": parent[0]["metrics"][metric]["unit"],
            "parent_median": pa,
            "change_median": pb,
            "change_pct": 100.0 * (pb - pa) / pa,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr": q3 - q1,
            "change_wins": sum(y < x for x, y in zip(a, b)),
            "pairs": len(a),
            "parent": a,
            "change": b,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", default=WORKING_TREE,
                    help=f"git revision of the change (default {WORKING_TREE}: as on disk)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--work", default=None, help="directory for extracted trees")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    work = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work)
    try:
        doc = measure(args, work)
    finally:
        shutil.rmtree(work)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


def measure(args, work: str) -> dict:
    """Every pair of every workload, with the host and tree details."""
    sides = {"parent": side(args.parent, work, "parent"),
             "change": side(args.change, work, "change")}
    ref = [ref_loop_s() for _ in range(3)]
    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        seeds = list(range(args.seed, args.seed + args.pairs))
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(run_once(sides[name]["root"], workload, seed, args.seconds))
            print(workload, seed, {n: {m: round(v["value"], 3) for m, v in
                                       runs[n][-1]["metrics"].items()} for n in runs},
                  file=sys.stderr, flush=True)
        workloads[workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
            "failed": {n: sum(r["failed"] for r in rs) for n, rs in runs.items()},
            "metrics": summarise(runs["parent"], runs["change"]),
        }
    ref += [ref_loop_s() for _ in range(3)]
    return {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "order": "alternating: parent first in even pairs, change first in odd ones",
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Python treats any non-empty value as set
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "host_ref_loop_s": {"median": statistics.median(ref), "min": min(ref), "max": max(ref)},
        "parent": {k: v for k, v in sides["parent"].items() if k != "root"},
        "change": {k: v for k, v in sides["change"].items() if k != "root"},
        "workloads": workloads,
    }


if __name__ == "__main__":
    sys.exit(main())
