"""One benchmark process: set up, run timed rounds, write what it saw.

run.py starts this script in a fresh interpreter with PYTHONPATH=src, so
every process begins with an empty catalogue.  Set-up time runs from
the first line of this file, before rep3 is imported, to the first timed
call.  The timed calls' standard output is captured and parsed only
after the clock stops.  Results go to the JSON file named by --out.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

WORKLOADS = ("sweep8_cold", "suites8_warm", "g6_stream")


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def set_up(args) -> None:
    """Set-up beyond the import: suites8_warm fills the catalogue."""
    if args.workload == "suites8_warm":
        from rep3.enumeration import enumerate_graphs

        for n in range(1, args.max_n + 1):
            for _ in enumerate_graphs(n):
                pass


def _cli(argv):
    from rep3.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue()}


def one_round(args, jobs: int):
    """The workload's timed calls; returns their raw outputs."""
    if args.workload == "sweep8_cold":
        return _cli(["verify", "--min-n", "5", "--max-n", str(args.max_n), "--jobs", str(jobs)])
    if args.workload == "g6_stream":
        return _cli(["verify", "--min-n", "5", "--max-n", str(args.max_n), "--jobs", str(jobs),
                     "--input", args.input])
    from rep3.harness import counting_identity_suite, find_extremal, verify_lemmas

    return {
        "lemmas": verify_lemmas(args.max_n, jobs=jobs).to_dict(),
        "identity": counting_identity_suite(args.max_n).to_dict(),
        "extremal": find_extremal(args.max_n),
    }


def parse_output(raw):
    if "stdout" in raw:
        return {"exit": raw["exit"], "report": json.loads(raw["stdout"])}
    return raw


def catalogue(workload: str, max_n: int) -> dict:
    from rep3.enumeration import enumerate_graphs
    from rep3.graphcore import write_graph6

    lo = {"sweep8_cold": 5, "suites8_warm": 1}.get(workload)
    if lo is None:
        return {}
    return {
        str(n): [write_graph6(g).decode("ascii") for g in enumerate_graphs(n)]
        for n in range(lo, max_n + 1)
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--max-n", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--input", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="repeat rounds until their total reaches this")
    ap.add_argument("--mode", choices=("timed", "setup", "traced"), default="timed")
    ap.add_argument("--dump", action="store_true",
                    help="also write the catalogue the rounds used")
    args = ap.parse_args()

    import rep3.cli  # noqa: F401  (loads every layer, so the tracer can wrap them all)

    tracer = None
    if args.mode == "traced":
        from layers import LayerTrace

        tracer = LayerTrace()
        tracer.install()
    set_up(args)
    result = {"setup_s": time.perf_counter() - START, "rounds": []}

    if args.mode != "setup":
        raw = []
        total = 0.0
        while not raw or total < args.seconds:
            cpu0 = cpu_s()
            t0 = time.perf_counter()
            raw.append(one_round(args, args.jobs))
            elapsed = time.perf_counter() - t0
            result["rounds"].append({"sweep_s": elapsed, "cpu_s": cpu_s() - cpu0})
            total += elapsed
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.remove()
            result["layers"] = tracer.stats
        for entry, out in zip(result["rounds"], raw):
            entry["output"] = parse_output(out)
        if args.dump:
            result["catalogue"] = catalogue(args.workload, args.max_n)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
