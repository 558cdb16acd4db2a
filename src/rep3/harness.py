"""Exhaustive verification over the small-graph catalogue.

Four statements are checked wall to wall, each over every isomorphism
class up to a requested order:

  * the headline sweep (verify_theorem): every graph of order 5..9 has
    a deletion set of size at most min(3, n-3) leaving three equal
    degrees, certified and independently re-checked;
  * induced_path: a 4-set with no balanceable 3-subset induces a path
    whose endpoints carry the set's two smallest degrees;
  * median_feasible: every 5-set contains a feasible 3-subset through
    its median-degree vertex;
  * feasible_budget: whenever a feasible triple's allowance
    p + q + max(p, q) fits the order (at most n-3), that many deletions
    suffice somewhere in the graph (weak reading, asserted).  Whether
    the triple itself can always be equalized within the allowance is
    the strong reading: recorded as strong_form_failures, never
    asserted;
  * paired_degree_gap: a 4-set with degrees (d, d, d+2, d+2) holding a
    balanceable triple admits min(3, n-3) deletions overall.

plus the counting identity suite: in a graph where no degree repeats
three times and no vertex is isolated, the degrees in [1, n-1] missed
entirely are one fewer than those hit exactly twice.

The lemma suites classify each graph's triples once, into the table of
feasible.classify_triples, and all of them read that table.

Reports are deterministic: worker-pool sharding preserves stream order,
so any jobs count produces the same report, elapsed time aside.
"""

import json
import os
import time
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import get_context

from .enumeration import catalogue_records, enumerate_graphs
from .errors import NoFeasibleTriple, OrderOutOfRange, OrderTooLarge, TheoremViolation
from .feasible import (
    budget,
    classify_triples,
    equalize_triple,
    find_feasible_in_five,
    p4_structure,
)
from .graphcore import parse_graph6, write_graph6
from .repetition import profile
from .solver import check_certificate, min_deletion_for_rep3, solve3

LEMMA_IDS = ("induced_path", "median_feasible", "feasible_budget", "paired_degree_gap")


@dataclass
class VerificationReport:
    per_n: dict
    lemma_results: dict
    elapsed: float
    skipped: int = 0  # input graphs whose order lay outside the swept range

    @property
    def checked(self) -> int:
        """Graphs and lemma or identity instances the report covers."""
        return sum(e["graph_count"] for e in self.per_n.values()) + sum(
            s["instances_checked"] for s in self.lemma_results.values()
        )

    @property
    def verified(self) -> bool:
        # a report that checked nothing at all has verified nothing
        if not self.checked:
            return False
        return all(not e["violations"] for e in self.per_n.values()) and all(
            not s["violations"] for s in self.lemma_results.values()
        )

    def to_dict(self):
        return {
            "per_n": {str(n): e for n, e in sorted(self.per_n.items())},
            "lemma_results": dict(sorted(self.lemma_results.items())),
            "skipped": self.skipped,
            "verified": self.verified,
            "elapsed": round(self.elapsed, 6),
        }

    def comparable(self):
        """Everything except wall time, for determinism checks."""
        d = self.to_dict()
        del d["elapsed"]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = []
        if self.per_n:
            lines.append("  n   graphs   histogram 0/1/2/3   witnesses   violations")
            for n, e in sorted(self.per_n.items()):
                h = "/".join(str(c) for c in e["min_deletion_histogram"])
                lines.append(
                    f"{n:>3}   {e['graph_count']:>6}   {h:>17}"
                    f"   {len(e['extremal_witnesses']):>9}   {len(e['violations']):>10}"
                )
        for name, s in sorted(self.lemma_results.items()):
            extra = (
                f"   strong-form failures {s['strong_form_failures']}"
                if "strong_form_failures" in s
                else ""
            )
            lines.append(
                f"{name}: {s['instances_checked']} instances,"
                f" {len(s['violations'])} violations{extra}"
            )
        if self.skipped:
            lines.append(f"skipped {self.skipped} graphs of other orders")
        lines.append(f"elapsed {self.elapsed:.2f}s")
        if self.verified:
            status = "verified"
        elif self.checked:
            status = "VIOLATIONS FOUND"
        else:
            status = "nothing checked"
        lines.append("status: " + status)
        return "\n".join(lines)


def _run(worker, records, jobs):
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if jobs == 1 or len(records) < 2:
        return [worker(r) for r in records]
    # fork keeps the imported module state; map preserves input order, so
    # the merged report is independent of scheduling
    with get_context("fork").Pool(jobs) as pool:
        chunk = max(1, len(records) // (jobs * 4))
        return pool.map(worker, records, chunksize=chunk)


def _theorem_worker(rec: bytes):
    g = parse_graph6(rec)
    name = rec.decode("ascii")
    cap = min(3, g.n - 3)
    try:
        cert = solve3(g)
    except TheoremViolation as exc:
        return None, name, {"n": g.n, "graph": name, "reason": str(exc)}
    if len(cert.deleted) > cap:
        return None, name, {
            "n": g.n,
            "graph": name,
            "reason": f"deletion set {cert.deleted} exceeds allowance {cap}",
        }
    if not check_certificate(g, cert):
        return None, name, {
            "n": g.n,
            "graph": name,
            "reason": f"certificate {cert.to_dict()} failed the independent check",
        }
    return len(cert.deleted), name, None


def verify_theorem(min_n: int, max_n: int, source=None, jobs=None) -> VerificationReport:
    """Solve and re-check every graph of each order in [min_n, max_n].

    source None enumerates the catalogue; otherwise any iterable of
    graphs works, and graphs of orders outside the range are counted in
    the report's skipped field.  A sweep that checks no graph at all is
    not verified.  Graphs with minimum deletion 3 are collected as
    lower-bound witnesses.
    """
    if not 5 <= min_n <= max_n <= 9:
        raise OrderOutOfRange(f"need 5 <= min_n <= max_n <= 9, got {min_n}..{max_n}")
    t0 = time.perf_counter()
    buckets = {n: [] for n in range(min_n, max_n + 1)}
    skipped = 0
    if source is None:
        for n in buckets:
            buckets[n] = catalogue_records(n)
    else:
        for g in source:
            if g.n in buckets:
                buckets[g.n].append(write_graph6(g))
            else:
                skipped += 1
    per_n = {}
    for n in sorted(buckets):
        hist = [0, 0, 0, 0]
        violations = []
        witnesses = []
        for size, name, viol in _run(_theorem_worker, buckets[n], jobs):
            if viol is not None:
                violations.append(viol)
                continue
            hist[size] += 1
            if size == 3:
                witnesses.append(name)
        per_n[n] = {
            "graph_count": len(buckets[n]),
            "min_deletion_histogram": hist,
            "violations": violations,
            "extremal_witnesses": witnesses,
        }
    return VerificationReport(per_n, {}, time.perf_counter() - t0, skipped)


def _lemma_worker(rec: bytes):
    g = parse_graph6(rec)
    n = g.n
    name = rec.decode("ascii")
    degs = g.degrees
    out = {
        "induced": [0, []],
        "median": [0, []],
        "budget": [0, [], 0],
        "paired": [0, []],
    }

    oracle_min = None
    if n >= 3:
        cert = min_deletion_for_rep3(g, n - 3)
        oracle_min = None if cert is None else len(cert.deleted)

    table = classify_triples(g)
    for x in combinations(range(n), 4):
        verdict = p4_structure(g, x, table)
        out["induced"][0] += 1
        if verdict.kind == "violation":
            out["induced"][1].append({"n": n, "graph": name, "subset": list(x)})
        ds = sorted(degs[v] for v in x)
        if (
            ds[0] == ds[1]
            and ds[2] == ds[3]
            and ds[2] - ds[0] == 2
            and verdict.kind == "has_balanceable"
        ):
            out["paired"][0] += 1
            cap = min(3, n - 3)
            if oracle_min is None or oracle_min > cap:
                out["paired"][1].append(
                    {"n": n, "graph": name, "subset": list(x), "oracle_min": oracle_min}
                )

    for u in combinations(range(n), 5):
        out["median"][0] += 1
        try:
            find_feasible_in_five(g, u, table)
        except NoFeasibleTriple:
            out["median"][1].append({"n": n, "graph": name, "subset": list(u)})

    for s, tc in table.items():
        if tc.condition is None:
            continue
        b = budget(tc)
        if b > n - 3:
            continue
        out["budget"][0] += 1
        if oracle_min is None or oracle_min > b:
            out["budget"][1].append(
                {
                    "n": n,
                    "graph": name,
                    "triple": list(s),
                    "budget": b,
                    "oracle_min": oracle_min,
                }
            )
        if equalize_triple(g, s, b) is None:
            out["budget"][2] += 1

    return out


def verify_lemmas(max_n: int, jobs=None) -> VerificationReport:
    """Run the four structural suites over every class up to max_n."""
    if not 1 <= max_n <= 8:
        raise OrderTooLarge(f"lemma suites cover orders 1..8, got {max_n}")
    t0 = time.perf_counter()
    results = {
        "induced_path": {"instances_checked": 0, "violations": []},
        "median_feasible": {"instances_checked": 0, "violations": []},
        "feasible_budget": {
            "instances_checked": 0,
            "violations": [],
            "strong_form_failures": 0,
        },
        "paired_degree_gap": {"instances_checked": 0, "violations": []},
    }
    for n in range(1, max_n + 1):
        for out in _run(_lemma_worker, catalogue_records(n), jobs):
            for key, lemma in (
                ("induced", "induced_path"),
                ("median", "median_feasible"),
                ("budget", "feasible_budget"),
                ("paired", "paired_degree_gap"),
            ):
                results[lemma]["instances_checked"] += out[key][0]
                results[lemma]["violations"].extend(out[key][1])
            results["feasible_budget"]["strong_form_failures"] += out["budget"][2]
    return VerificationReport({}, results, time.perf_counter() - t0)


def counting_identity_suite(max_n: int) -> VerificationReport:
    """Check |missing degrees| = |doubled degrees| - 1 where it applies."""
    if not 1 <= max_n <= 8:
        raise OrderTooLarge(f"identity suite covers orders 1..8, got {max_n}")
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            p = profile(g)
            if p.rep > 2 or min(g.degrees) < 1:
                continue
            checked += 1
            if len(p.t_set) != len(p.s_set) - 1:
                violations.append(
                    {
                        "n": n,
                        "graph": write_graph6(g).decode("ascii"),
                        "s_size": len(p.s_set),
                        "t_size": len(p.t_set),
                    }
                )
    results = {
        "counting_identity": {"instances_checked": checked, "violations": violations}
    }
    return VerificationReport({}, results, time.perf_counter() - t0)


def find_extremal(n: int, target=None):
    """graph6 records of classes whose exact minimum deletion hits target.

    target defaults to min(3, n-3), the largest value the order allows.
    Each class is solved by solve3, so a class the theorem misses
    raises TheoremViolation rather than dropping out of the listing.
    Output is exploratory: which orders contain maximal-cost classes is
    recorded, not asserted.
    """
    if not 5 <= n <= 9:
        raise OrderOutOfRange(f"extremal search covers orders 5..9, got {n}")
    if target is None:
        target = min(3, n - 3)
    hits = []
    for g in enumerate_graphs(n):
        if len(solve3(g).deleted) == target:
            hits.append(write_graph6(g).decode("ascii"))
    return hits
