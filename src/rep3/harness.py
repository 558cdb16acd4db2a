"""Exhaustive verification over the small-graph catalogue.

Five statements are checked wall to wall, each over every isomorphism
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

This module holds the reports, the workers and the folds.  Sweeps move
graph6 records only, each order's joined in the catalogue's compact
form: the catalogue keeps them so, and verify_theorem packs the records
graphcore.read_graph6_records hands out into the same form, one
bytearray per order.  All four sweeps fold over enumeration._sweep,
which opens one map per call: that map first generates any catalogue
order the sweep needs and is not memoised yet, then hands the worker
the sweep's records a chunk at a time, each chunk a span: one slice of
an order's compact form, as _pool cuts it.  Each worker reads the span
itself: record by record through graphcore._records, which checks once
that the span is whole records of one order and then hands out each
record with its decoded Graph, so no worker parses or checks a record
again; or all at once, as the identity worker does.  It returns one
result per record, in order, folded in as it arrives.  A worker that
fails on a record with anything but a Rep3Error surfaces as a
WorkerCrash naming that record, at any jobs count; a Rep3Error keeps its
own message.

The lemma worker takes its span's decoded records from graphcore._records
in runs of at most _SCAN_RUN, checks that each graph's degrees are
sorted, as catalogue records are and the scan needs, and asks the
oracle for its minimum deletion size, one record at a time.  It then
hands the run, of one order as every span is, to feasible._lemma_scan,
which answers the cover questions for all its records at once, in each
record's own labels.  verify_lemmas builds the scan's tables for every
swept order before the sweep starts.  The children a shared map forks
inherit them, and the verdict memo as this process has filled it so
far, its own share of earlier sweeps included.  The scan returns, per
record, its counts and the sets each suite reports, in lexicographic
order; the worker turns them into violation records and returns its
counts and a tuple of (suite, violation) pairs, so the main process
holds little per class while the map runs.

find_extremal runs the headline sweep's worker over the catalogue, so
both solve and check each class the same way; each worker returns its
class's minimum deletion size or a violation, and each fold names
classes by the record _sweep pairs with the result.

The identity worker is repetition._identity_codes, which parses nothing
and splits no record off its span: it reads the degrees of the whole
span at once, one byte lane per record, and returns one code byte per
class, _EXEMPT where the counting identity does not apply (a degree
held three times or an isolated vertex), else 16 * |doubled| +
|missing|.  So the map yields one int per class, and the fold takes the
order from the record's first byte and builds the violation.

Reports are deterministic: every map yields results in record order,
so any jobs count produces the same report, elapsed time aside.
"""

import json
import time
from itertools import islice, starmap
from math import comb
from typing import NamedTuple

from .enumeration import MAX_ENUM, _sweep
from .errors import MalformedRecord, OrderOutOfRange, TheoremViolation
from .feasible import _lemma_scan, _tables
from .graphcore import _check, _records, _width
from .repetition import _EXEMPT, _identity_codes as _identity_worker
from .solver import allowance, check_certificate, min_deletion_for_rep3, solve3


class VerificationReport(NamedTuple):
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


def _theorem_worker(span):
    """_theorem_result of each record of a span, as graphcore._records
    reads it."""
    return list(starmap(_theorem_result, _records(span)))


def _theorem_result(rec: bytes, g):
    """(n, minimum deletion size, None) for the class of record rec,
    the Graph g of order n, when the theorem holds on it, or (n, None,
    violation)."""
    cap = allowance(g.n)
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
            return g.n, len(cert.deleted), None
    return g.n, None, {"n": g.n, "graph": rec.decode("ascii"), "reason": reason}


def verify_theorem(min_n: int, max_n: int, source=None, jobs=None) -> VerificationReport:
    """Solve and re-check every graph of each order in [min_n, max_n].

    source None sweeps the catalogue; otherwise it is any iterable of
    graph6 records as graphcore.read_graph6_records yields them.  Each
    record of a swept order n and of _width(n) bytes is packed into one
    bytearray per order, the catalogue's compact form, in input order;
    the orders are then swept in turn, which leaves the report as it
    would be in input order, since each order's entry keeps its
    records' order.  Every other record is validated first:
    one of another order is counted in the report's skipped field and
    never solved, and a malformed one raises MalformedRecord
    (OrderOutOfRange for the multi-byte order form), as does one of a
    swept order but of another width, before the sweep starts.  The
    packed records go to one map, whose workers check each span they
    take once, through graphcore._records, so a malformed record of the
    right width raises MalformedRecord there.  jobs also sets the
    process count for any catalogue order not yet generated, and one
    _pool serves that generation and the sweep.  A sweep that checks no
    graph at all is not verified.  Graphs with minimum deletion 3 are
    collected as lower-bound witnesses.
    """
    if not 5 <= min_n <= max_n <= MAX_ENUM:
        raise OrderOutOfRange(
            f"need 5 <= min_n <= max_n <= {MAX_ENUM}, got {min_n}..{max_n}"
        )
    t0 = time.perf_counter()
    orders = range(min_n, max_n + 1)
    blobs = None  # the catalogue of each order
    skipped = 0
    if source is not None:
        # keyed by order byte and width: a record of a swept order but of
        # another width finds no blob
        packed = {(63 + n, _width(n)): bytearray() for n in orders}
        for rec in source:
            blob = packed.get((rec[0] if rec else 0, len(rec)))
            if blob is not None:
                blob += rec
            else:
                _check(rec)  # raises unless a well-formed record of another order
                skipped += 1
        blobs = packed.values()
    per_n = {
        n: {
            "graph_count": 0,
            "min_deletion_histogram": [0, 0, 0, 0],
            "violations": [],
            "extremal_witnesses": [],
        }
        for n in orders
    }
    for rec, (n, size, viol) in _sweep(_theorem_worker, jobs, orders, blobs):
        entry = per_n[n]
        entry["graph_count"] += 1
        if viol is not None:
            entry["violations"].append(viol)
            continue
        entry["min_deletion_histogram"][size] += 1
        if size == 3:
            entry["extremal_witnesses"].append(rec.decode("ascii"))
    return VerificationReport(per_n, {}, time.perf_counter() - t0, skipped)


_SCAN_RUN = 512  # records the lemma worker scans together at most


def _lemma_worker(span):
    """Each record's lemma results: (n, feasible_budget instances,
    paired_degree_gap instances, strong-form failures, violations).

    span holds records of one order, as every chunk of _pool's does;
    graphcore._records checks that once and hands out its records as
    (record, Graph) pairs, taken in runs of at most _SCAN_RUN, so no
    more decoded graphs are held at once, which bounds the scan's memory
    whatever the chunk size.  Each graph's degrees are checked and it is
    put to the oracle alone, then the whole run is scanned at once.  A
    record is scanned in its own labels, which must be sorted by degree,
    as every catalogue record's are; a record whose degrees fall raises
    MalformedRecord.  Every 4-set and 5-set is checked, so those suites'
    instance counts are C(n, 4) and C(n, 5), added by the caller.
    violations is a tuple of (suite, violation) pairs, each suite's in
    lexicographic scan order.
    """
    pairs = _records(span)
    n = span[0] - 63
    out = []
    while run := list(islice(pairs, _SCAN_RUN)):
        graphs, minima = [], []
        for rec, g in run:
            if list(g.degrees) != sorted(g.degrees):
                name = rec.decode("ascii")
                raise MalformedRecord(f"{name}: degrees {g.degrees} fall, as in no catalogue record")
            oracle_min = None
            if n >= 3:
                cert = min_deletion_for_rep3(g, n - 3)
                oracle_min = None if cert is None else len(cert.deleted)
            graphs.append(g)
            minima.append(oracle_min)
        for (rec, _), oracle_min, scan in zip(run, minima, _lemma_scan(graphs, minima)):
            budgeted, failures, low, paths, medians, paired = scan
            gaps = paired if oracle_min is None or oracle_min > allowance(n) else ()
            found = ()
            if paths or gaps or medians or low:
                head = {"n": n, "graph": rec.decode("ascii")}
                found = (
                    *[("induced_path", {**head, "subset": list(x)}) for x in paths],
                    *[("paired_degree_gap", {**head, "subset": list(x), "oracle_min": oracle_min})
                      for x in gaps],
                    *[("median_feasible", {**head, "subset": list(u)}) for u in medians],
                    *[("feasible_budget",
                       {**head, "triple": list(s), "budget": b, "oracle_min": oracle_min})
                      for s, b in low],
                )
            out.append((n, budgeted, len(paired), failures, found))
    return out


def verify_lemmas(max_n: int, jobs=None) -> VerificationReport:
    """Run the four structural suites over every class up to max_n."""
    if not 1 <= max_n <= MAX_ENUM:
        raise OrderOutOfRange(f"lemma suites cover orders 1..{MAX_ENUM}, got {max_n}")
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
    orders = range(1, max_n + 1)
    for n in orders:
        _tables(n)  # built once here, and inherited by forked children
    for _, (n, budgeted, paired, failures, found) in _sweep(_lemma_worker, jobs, orders):
        results["induced_path"]["instances_checked"] += comb(n, 4)
        results["median_feasible"]["instances_checked"] += comb(n, 5)
        results["feasible_budget"]["instances_checked"] += budgeted
        results["feasible_budget"]["strong_form_failures"] += failures
        results["paired_degree_gap"]["instances_checked"] += paired
        for lemma, violation in found:
            results[lemma]["violations"].append(violation)
    return VerificationReport({}, results, time.perf_counter() - t0)


def counting_identity_suite(max_n: int, jobs=None) -> VerificationReport:
    """Check |missing degrees| = |doubled degrees| - 1 where it applies."""
    if not 1 <= max_n <= MAX_ENUM:
        raise OrderOutOfRange(f"identity suite covers orders 1..{MAX_ENUM}, got {max_n}")
    t0 = time.perf_counter()
    checked = 0
    violations = []
    orders = range(1, max_n + 1)
    for rec, code in _sweep(_identity_worker, jobs, orders):
        if code == _EXEMPT:
            continue
        checked += 1
        s_size, t_size = divmod(code, 16)
        if t_size != s_size - 1:
            graph = rec.decode("ascii")
            violations.append({"n": rec[0] - 63, "graph": graph, "s_size": s_size, "t_size": t_size})
    results = {
        "counting_identity": {"instances_checked": checked, "violations": violations}
    }
    return VerificationReport({}, results, time.perf_counter() - t0)


def find_extremal(n: int):
    """graph6 records of classes whose exact minimum deletion is
    min(3, n-3), the largest value the order allows.

    Each class goes through the theorem sweep's worker, over up to one
    process per core, so a class the theorem misses, or whose certificate fails the
    independent check, raises TheoremViolation rather than dropping out
    of the listing.  Output is exploratory: which orders contain
    maximal-cost classes is recorded, not asserted.
    """
    if not 5 <= n <= MAX_ENUM:
        raise OrderOutOfRange(f"extremal search covers orders 5..{MAX_ENUM}, got {n}")
    target = allowance(n)
    hits = []
    for rec, (_, size, viol) in _sweep(_theorem_worker, None, [n]):
        if viol is not None:
            raise TheoremViolation(f"{viol['graph']}: {viol['reason']}")
        if size == target:
            hits.append(rec.decode("ascii"))
    return hits
