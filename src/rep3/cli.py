"""Command-line front end.

Nine subcommands map onto the library: solve / oracle / classify /
equalize act on one graph, given inline as graph6 or as @path to an
edge-list JSON file; gen / verify / lemmas / extremal / identity walk
the catalogue.  Exit status 0 is success or a fully verified report,
1 a miss or a found violation, 2 a usage or input problem.

Output on the single-graph commands is byte-identical across runs:
JSON is emitted compact, keys in schema order, no timing fields.
"""

import argparse
import json
import sys

from .enumeration import catalogue_lines
from .errors import MalformedRecord, NotFeasible, Rep3Error, TheoremViolation
from .feasible import budget, classify_triple, equalize_triple
from .graphcore import from_edge_json, parse_graph6
from .harness import (
    counting_identity_suite,
    find_extremal,
    verify_lemmas,
    verify_theorem,
)
from .solver import allowance, min_deletion_for_rep3, solve3


def _load_graph(spec: str):
    """Inline graph6, or @path pointing at an edge-list JSON file."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise MalformedRecord("edge-list file is not UTF-8") from None
        return from_edge_json(text)
    if not spec.isascii():
        raise MalformedRecord("non-ascii record")
    return parse_graph6(spec.encode("ascii"))


def _triple_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated vertices")
    return tuple(int(p) for p in parts)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _kv(pairs) -> str:
    width = max(len(key) for key, _ in pairs)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in pairs)


def _print_certificate(cert, fmt: str) -> int:
    """Print cert, or "none" when there is none; the exit code."""
    if cert is None:
        print("none")
        return 1
    d = cert.to_dict()
    if fmt == "json":
        _emit(d)
    else:
        print(_kv([
            ("order", d["n"]),
            ("deleted", " ".join(map(str, d["deleted"])) or "-"),
            ("witness", " ".join(map(str, d["witness"]))),
            ("degree", d["degree"]),
        ]))
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if g.n >= 5:
        cert = solve3(g)
    elif g.n >= 3:
        # below order 5 there is no guarantee; fall back to the
        # bounded oracle and report a miss honestly
        cert = min_deletion_for_rep3(g, g.n - 3)
    else:
        cert = None
    return _print_certificate(cert, args.format)


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    return _print_certificate(min_deletion_for_rep3(g, args.max_k), args.format)


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    tc = classify_triple(g, args.triple)
    if args.format == "json":
        _emit(tc.to_dict())
        return 0
    pairs = [("condition", tc.condition or "none")]
    if tc.labeling is not None:
        pairs.append(("labeling", " ".join(map(str, tc.labeling))))
    pairs += [("p", tc.p), ("q", tc.q)]
    print(_kv(pairs))
    return 0


def _cmd_equalize(args) -> int:
    g = _load_graph(args.graph)
    max_delete = args.budget
    if max_delete is None:
        tc = classify_triple(g, args.triple)
        if not tc.feasible:
            raise NotFeasible(
                "triple satisfies no condition, so it has no implied "
                "allowance; pass --budget explicitly"
            )
        max_delete = budget(tc)
    deleted = equalize_triple(g, args.triple, max_delete)
    if deleted is None:
        print("none")
        return 1
    if args.format == "json":
        _emit({"deleted": list(deleted)})
    else:
        print("delete " + (" ".join(map(str, deleted)) or "nothing"))
    return 0


def _cmd_gen(args) -> int:
    text = catalogue_lines(args.n).decode("ascii")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report_exit(report, fmt: str) -> int:
    print(report.to_json() if fmt == "json" else report.to_table())
    return 0 if report.verified else 1


def _cmd_verify(args) -> int:
    if args.input:
        with open(args.input, "rb") as fh:
            report = verify_theorem(args.min_n, args.max_n, source=fh, jobs=args.jobs)
    else:
        report = verify_theorem(args.min_n, args.max_n, jobs=args.jobs)
    return _report_exit(report, args.format)


def _cmd_lemmas(args) -> int:
    return _report_exit(verify_lemmas(args.max_n, jobs=args.jobs), args.format)


def _cmd_identity(args) -> int:
    return _report_exit(counting_identity_suite(args.max_n, jobs=args.jobs), args.format)


def _cmd_extremal(args) -> int:
    hits = find_extremal(args.n)
    if args.format == "json":
        _emit({"n": args.n, "target": allowance(args.n), "witnesses": hits})
    else:
        for rec in hits:
            print(rec)
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rep3",
        description="minimum vertex deletions to force three equal degrees, "
        "with exhaustive small-order verification",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "table"), default="json")
        return p

    p = command("solve", _cmd_solve, "minimum deletion certificate for one graph")
    p.add_argument("--graph", required=True, metavar="G6|@FILE")

    p = command("oracle", _cmd_oracle, "brute-force search up to an explicit budget")
    p.add_argument("--graph", required=True, metavar="G6|@FILE")
    p.add_argument("--max-k", required=True, type=int)

    p = command("classify", _cmd_classify, "match a triple against the conditions")
    p.add_argument("--graph", required=True, metavar="G6|@FILE")
    p.add_argument("--triple", required=True, type=_triple_arg, metavar="A,B,C")

    p = command("equalize", _cmd_equalize, "delete vertices to equalize a triple")
    p.add_argument("--graph", required=True, metavar="G6|@FILE")
    p.add_argument("--triple", required=True, type=_triple_arg, metavar="A,B,C")
    p.add_argument("--budget", type=_nonneg, default=None)

    p = command("gen", _cmd_gen, "stream one graph6 record per isomorphism class")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--out", default=None, metavar="FILE")

    p = command("verify", _cmd_verify, "solve and re-check every class in a range")
    p.add_argument("--min-n", required=True, type=int)
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--input", default=None, metavar="FILE.g6")
    p.add_argument("--jobs", type=_positive, default=None)

    p = command("lemmas", _cmd_lemmas, "run the structural suites up to an order")
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--jobs", type=_positive, default=None)

    p = command("extremal", _cmd_extremal, "classes needing the full allowance")
    p.add_argument("--n", required=True, type=int)

    p = command("identity", _cmd_identity, "missing-degree counting identity sweep")
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--jobs", type=_positive, default=None)

    return ap


def run(argv) -> int:
    argv = list(argv)
    if "--graph" in argv[:-1]:
        # argparse takes a value that begins with "-" for an option;
        # joined to its flag, graph text that does stays a value
        i = argv.index("--graph")
        argv[i:i + 2] = ["--graph=" + argv[i + 1]]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    except (Rep3Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
