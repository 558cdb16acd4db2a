"""rep3 benchmark: three workloads, end-to-end or per-layer metrics.

Run from the root of a rep3 source tree (the package is used from src/,
not installed):

    python3 perfbench/run.py --workload sweep8_cold --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop: one caller waiting on each call, at most
two worker processes):

  sweep8_cold   rep3 verify --min-n 5 --max-n 8 --jobs 2 in a fresh process
                with an empty catalogue; mostly enumeration
  suites8_warm  catalogue filled through order 8 in set-up; times
                verify_lemmas(8, jobs=2), counting_identity_suite(8) and
                find_extremal(8); no enumeration in the timed part
  g6_stream     rep3 verify --min-n 5 --max-n 9 --jobs 2 --input FILE on a
                seeded file of 100k labeled graphs; parse, solve, check

With --trace 0 the last stdout line carries sweep_s, setup_s and
peak_rss_mb, all measured with tracing off.  With --trace 1 it carries
the per-layer metrics of one traced round (jobs=1) next to untraced
rounds.  Every output is checked against perfbench/refcheck.py; one
operation is one graph processed.  The result line and the traced
per-function totals are also written to .perfbench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from math import comb
from time import perf_counter

import g6input
import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep8_cold", "suites8_warm", "g6_stream")
# highest order each workload sweeps, and the g6_stream record count;
# quick mode runs every workload at a tiny size for the self-test
SIZES = {
    False: {"sweep8_cold": 8, "suites8_warm": 8, "g6_stream": 9, "records": g6input.RECORDS},
    True: {"sweep8_cold": 6, "suites8_warm": 5, "g6_stream": 9, "records": 300},
}
SETUP_SAMPLES = 3
# a child may run past --seconds by its set-up and one round, traced
# ones included; this margin covers both on a slow host
CHILD_MARGIN_S = 160

END_TO_END = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "enumeration.enumerate_graphs.s": "s",
    "enumeration.canonical_form.calls": "count",
    "enumeration.canonical_form.s": "s",
    "enumeration.classes_per_canonical_call": "ratio",
    "enumeration.read_graph6_stream.s": "s",
    "graphcore.parse_graph6.calls": "count",
    "graphcore.parse_graph6.s": "s",
    "graphcore.parse_graph6.calls_per_graph": "ratio",
    "graphcore.write_graph6.calls": "count",
    "graphcore.write_graph6.s": "s",
    "solver.solve3.calls": "count",
    "solver.solve3.s": "s",
    "solver.check_certificate.s": "s",
    "graphcore.delete_vertices.calls": "count",
    "graphcore.delete_vertices.s": "s",
    "solver.min_deletion_for_rep3.calls": "count",
    "solver.min_deletion_for_rep3.s": "s",
    "feasible.classify_triple.calls": "count",
    "feasible.classify_triple.s": "s",
    "feasible.classify_triple.calls_per_triple": "ratio",
    "feasible.p4_structure.s": "s",
    "feasible.find_feasible_in_five.s": "s",
    "feasible.equalize_triple.s": "s",
    "repetition.profile.s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.ref_loop_s": "s",
}


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop: a yardstick for host speed."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def python(argv: list, timeout: float) -> int:
    """Run a fresh interpreter that imports rep3 from src/; return its exit code.

    The interpreter gets a process group of its own, so that a timeout or
    an interrupt ends its pool workers along with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *argv], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:  # timeout, interrupt or SIGTERM
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def spawn(work: str, args: list, tag: str, timeout: float) -> dict:
    """Run child.py to its end; return its JSON."""
    out = os.path.join(work, tag + ".json")
    code = python([os.path.join(HERE, "child.py"), *args, "--out", out], timeout)
    if code != 0:
        raise RuntimeError(f"child {tag} exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_children(args, sizes: dict, work: str):
    """Untraced rounds, set-up samples and (with --trace 1) the traced round."""
    base = ["--workload", args.workload, "--max-n", str(sizes[args.workload])]
    records = None
    if args.workload == "g6_stream":
        records = g6input.make_records(args.seed, sizes["records"])
        path = os.path.join(work, "input.g6")
        g6input.write_file(path, records)
        base += ["--input", path]
    timeout = args.seconds + CHILD_MARGIN_S
    # the first import in a fresh tree compiles bytecode; keep it out of set-up
    if python(["-c", "import rep3.cli"], timeout) != 0:
        raise RuntimeError("cannot import rep3 from src/")
    timed = []
    if args.workload == "sweep8_cold":
        # every round needs an empty catalogue, so a fresh process
        while not timed or sum(c["rounds"][0]["sweep_s"] for c in timed) < args.seconds:
            dump = [] if timed else ["--dump"]
            timed.append(spawn(work, base + dump, f"timed{len(timed)}", timeout))
    else:
        rounds = base + ["--dump", "--seconds", str(args.seconds)]
        timed.append(spawn(work, rounds, "timed0", timeout))
    setups = [c["setup_s"] for c in timed]
    traced = None
    if args.trace:
        traced = spawn(work, base + ["--mode", "traced", "--jobs", "1"], "traced", timeout)
    else:
        while len(setups) < SETUP_SAMPLES:
            tag = f"setup{len(setups)}"
            setups.append(spawn(work, base + ["--mode", "setup"], tag, timeout)["setup_s"])
    return records, timed, setups, traced


def check_outputs(workload: str, max_n: int, records, catalogue: dict, outputs: list):
    """(errors, attempted, failed) over every round's output."""
    errors = []
    attempted = failed = 0
    if workload == "suites8_warm":
        errors += refcheck.check_catalogue(catalogue, range(1, max_n + 1))
        mins = refcheck.minimum_table(catalogue[str(max_n)])
        # lemma and identity suites see every class, the extremal search the top order
        classes = sum(len(catalogue[str(n)]) for n in range(1, max_n + 1))
        per_round = 2 * classes + len(catalogue[str(max_n)])
        for out in outputs:
            errors += refcheck.check_suites(out, catalogue, max_n, mins)
            attempted += per_round
            failed += len({
                (v["n"], v["graph"])
                for report in (out["lemmas"], out["identity"])
                for suite in report["lemma_results"].values()
                for v in suite["violations"]
            })
        return errors, attempted, failed
    if workload == "sweep8_cold":
        errors += refcheck.check_catalogue(catalogue, range(5, max_n + 1))
        by_order = catalogue
    else:
        by_order = {str(n): [r for r in records if ord(r[0]) - 63 == n]
                    for n in range(5, max_n + 1)}
    mins = refcheck.minimum_table([r for recs in by_order.values() for r in recs])
    for out in outputs:
        if out["exit"] != 0:
            errors.append(f"rep3 verify exited with {out['exit']}")
        errors += refcheck.check_theorem_report(out["report"], by_order, mins)
        per_n = out["report"]["per_n"].values()
        attempted += sum(e["graph_count"] for e in per_n)
        failed += sum(len(e["violations"]) for e in per_n)
    return errors, attempted, failed


def layer_metrics(workload: str, max_n: int, stats: dict, graphs: int, traced_s: float,
                  untraced_s: float, cpu: float, ref_s: float) -> dict:
    def calls(key):
        return stats.get(key, [0, 0.0])[0]

    def self_s(key):
        return stats.get(key, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def module_s(module):
        return sum(s for key, (_, s) in stats.items() if key.split(".")[0] == module)

    # classes each workload enumerates, and distinct triples the lemma suites see
    enum_orders = {"sweep8_cold": range(5, max_n + 1), "suites8_warm": range(1, max_n + 1)}
    classes = sum(refcheck.A000088[n] for n in enum_orders.get(workload, ()))
    triples = 0
    if workload == "suites8_warm":
        triples = sum(refcheck.A000088[n] * comb(n, 3) for n in range(1, max_n + 1))
    out = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind in ("s", "calls"):
            out[name] = self_s(key) if kind == "s" else calls(key)
    out.update({
        "enumeration.classes_per_canonical_call":
            ratio(classes, calls("enumeration.canonical_form")),
        "graphcore.parse_graph6.calls_per_graph": ratio(calls("graphcore.parse_graph6"), graphs),
        "feasible.classify_triple.calls_per_triple":
            ratio(calls("feasible.classify_triple"), triples),
        "harness.self_s": module_s("harness"),
        "cli.self_s": module_s("cli"),
        "process.cpu_s": cpu,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
        "host.ref_loop_s": ref_s,
    })
    return out


def measure(args, work: str) -> tuple:
    sizes = SIZES[args.quick]
    max_n = sizes[args.workload]
    ref_samples = [ref_loop_s() for _ in range(3)] if args.trace else []
    records, timed, setups, traced = run_children(args, sizes, work)
    rounds = [r for c in timed for r in c["rounds"]]
    outputs = [r["output"] for r in rounds]
    if traced is not None:
        outputs.append(traced["rounds"][0]["output"])
    errors, attempted, failed = check_outputs(
        args.workload, max_n, records, timed[0].get("catalogue", {}), outputs)
    for err in errors:
        print("check failed:", err, file=sys.stderr)
    sweep_s = statistics.median(r["sweep_s"] for r in rounds)
    if args.trace:
        ref_samples += [ref_loop_s() for _ in range(3)]
        graphs = attempted // len(outputs)
        values = layer_metrics(
            args.workload, max_n, traced["layers"], graphs, traced["rounds"][0]["sweep_s"],
            sweep_s, statistics.median(r["cpu_s"] for r in rounds), statistics.median(ref_samples))
        units = PER_LAYER
    else:
        values = {
            "sweep_s": sweep_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in timed),
        }
        units = END_TO_END
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat timed rounds until they add up to this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "rep3", "cli.py")):
        print("perfbench: no src/rep3 here; run from the root of a rep3 source tree",
              file=sys.stderr)
        return 2
    os.makedirs(".perfbench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=".perfbench_work")
    try:
        result, traced = measure(args, work)
    finally:
        shutil.rmtree(work)
    os.makedirs(".perfbench_out", exist_ok=True)
    stem = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if traced is not None:
        with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
            json.dump(traced["layers"], fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
