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

The lemma suites read one verdict table per graph, built by
feasible._triple_verdicts: each 3-set's shape, balanceability, budget
and strong-form answer, worked out once per triple signature and
shared by every graph with that signature.  The paired_degree_gap
4-sets come from the graph's degree classes.  Each worker returns its
counts and a tuple of (suite, violation) pairs, so the parent holds
little per class while the pool runs.  The suites' vertex sets come
from combinations(range(n), k), so they call the feasible cores that
skip the public input checks.

find_extremal runs the headline sweep's worker over the catalogue, so
both solve and check each class the same way; each worker returns its
class's minimum deletion size or a violation, and callers name classes
from their own record lists.

Reports are deterministic: worker-pool sharding preserves stream order,
so any jobs count produces the same report, elapsed time aside.
"""

import json
import os
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from multiprocessing import get_context

from .enumeration import catalogue_records, enumerate_graphs
from .errors import NoFeasibleTriple, OrderOutOfRange, OrderTooLarge, TheoremViolation
from .feasible import _median_triple, _p4, _triple_verdicts
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
    """(minimum deletion size, None) for a class the theorem holds on,
    or (None, violation); callers zip results with their records."""
    g = parse_graph6(rec)
    cap = min(3, g.n - 3)
    try:
        cert = solve3(g)
    except TheoremViolation as exc:
        reason = str(exc)
    else:
        if len(cert.deleted) > cap:
            reason = f"deletion set {cert.deleted} exceeds allowance {cap}"
        elif not check_certificate(g, cert):
            reason = f"certificate {cert.to_dict()} failed the independent check"
        else:
            return len(cert.deleted), None
    return None, {"n": g.n, "graph": rec.decode("ascii"), "reason": reason}


def verify_theorem(min_n: int, max_n: int, source=None, jobs=None) -> VerificationReport:
    """Solve and re-check every graph of each order in [min_n, max_n].

    source None enumerates the catalogue; otherwise any iterable of
    graphs works, or of (record, graph) pairs as read_graph6_records
    yields them, whose records go to the workers unchanged.  Graphs of
    orders outside the range are counted in the report's skipped field.
    A sweep that checks no graph at all is not verified.  Graphs with
    minimum deletion 3 are collected as lower-bound witnesses.
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
        for item in source:
            rec, g = item if isinstance(item, tuple) else (None, item)
            if g.n in buckets:
                buckets[g.n].append(rec or write_graph6(g))
            else:
                skipped += 1
    per_n = {}
    for n in sorted(buckets):
        hist = [0, 0, 0, 0]
        violations = []
        witnesses = []
        records = buckets[n]
        for rec, (size, viol) in zip(records, _run(_theorem_worker, records, jobs)):
            if viol is not None:
                violations.append(viol)
                continue
            hist[size] += 1
            if size == 3:
                witnesses.append(rec.decode("ascii"))
        per_n[n] = {
            "graph_count": len(records),
            "min_deletion_histogram": hist,
            "violations": violations,
            "extremal_witnesses": witnesses,
        }
    return VerificationReport(per_n, {}, time.perf_counter() - t0, skipped)


def _paired_gap_sets(degs):
    """The 4-sets with degrees (d, d, d+2, d+2), in lexicographic order."""
    by_degree = {}
    for v, d in enumerate(degs):
        by_degree.setdefault(d, []).append(v)
    out = []
    for d, low in by_degree.items():
        for pair in combinations(low, 2):
            for high in combinations(by_degree.get(d + 2, ()), 2):
                out.append(tuple(sorted(pair + high)))
    out.sort()
    return out


def _lemma_worker(rec: bytes):
    """One class's lemma results: (feasible_budget instances,
    paired_degree_gap instances, strong-form failures, violations).

    Every 4-set and 5-set is checked, so those suites' instance counts
    are C(n, 4) and C(n, 5), added by the caller.  violations is a
    tuple of (suite, violation) pairs, each suite's in scan order.
    """
    g = parse_graph6(rec)
    n = g.n
    name = rec.decode("ascii")
    found = []

    oracle_min = None
    if n >= 3:
        cert = min_deletion_for_rep3(g, n - 3)
        oracle_min = None if cert is None else len(cert.deleted)

    table = _triple_verdicts(g)
    for x in combinations(range(n), 4):
        if _p4(g, x, table).kind == "violation":
            found.append(("induced_path", {"n": n, "graph": name, "subset": list(x)}))

    paired = [
        x
        for x in _paired_gap_sets(g.degrees)
        if _p4(g, x, table).kind == "has_balanceable"
    ]
    if oracle_min is None or oracle_min > min(3, n - 3):
        for x in paired:
            found.append(
                (
                    "paired_degree_gap",
                    {"n": n, "graph": name, "subset": list(x), "oracle_min": oracle_min},
                )
            )

    keys = list(zip(g.degrees, range(n)))
    for u in combinations(range(n), 5):
        try:
            _median_triple(u, table, keys)
        except NoFeasibleTriple:
            found.append(("median_feasible", {"n": n, "graph": name, "subset": list(u)}))

    budgeted = failures = 0
    for s, v in table.items():
        if v.budget is None:
            continue
        budgeted += 1
        failures += v.unequalizable
        if oracle_min is None or oracle_min > v.budget:
            found.append(
                (
                    "feasible_budget",
                    {
                        "n": n,
                        "graph": name,
                        "triple": list(s),
                        "budget": v.budget,
                        "oracle_min": oracle_min,
                    },
                )
            )

    return budgeted, len(paired), failures, tuple(found)


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
        records = catalogue_records(n)
        results["induced_path"]["instances_checked"] += comb(n, 4) * len(records)
        results["median_feasible"]["instances_checked"] += comb(n, 5) * len(records)
        for budgeted, paired, failures, found in _run(_lemma_worker, records, jobs):
            results["feasible_budget"]["instances_checked"] += budgeted
            results["feasible_budget"]["strong_form_failures"] += failures
            results["paired_degree_gap"]["instances_checked"] += paired
            for lemma, violation in found:
                results[lemma]["violations"].append(violation)
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
    Each class goes through the theorem sweep's worker, over a worker
    pool, so a class the theorem misses, or whose certificate fails the
    independent check, raises TheoremViolation rather than dropping out
    of the listing.  Output is exploratory: which orders contain
    maximal-cost classes is recorded, not asserted.
    """
    if not 5 <= n <= 9:
        raise OrderOutOfRange(f"extremal search covers orders 5..9, got {n}")
    if target is None:
        target = min(3, n - 3)
    records = catalogue_records(n)
    hits = []
    for rec, (size, viol) in zip(records, _run(_theorem_worker, records, None)):
        if viol is not None:
            raise TheoremViolation(f"{viol['graph']}: {viol['reason']}")
        if size == target:
            hits.append(rec.decode("ascii"))
    return hits
