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
form: the catalogue keeps them so, and graphcore._pack_lines packs
the records of verify_theorem's input file into the same form, one
bytearray per order.  All four sweeps fold over
enumeration._sweep, which first generates any catalogue order the
sweep needs and is not memoised yet, then hands the worker the sweep's
records through one enumeration._map, a chunk at a time, each chunk a
span: one slice of an order's compact form, as _map cuts it.
Each worker is a span kernel: it checks the span once, with
graphcore._shape, reads it at once in byte lanes, one per record,
through graphcore._lanes, and decodes a record only where the lanes do
not settle it.  It returns one result per record, in order, folded in
as it arrives.  A worker that fails on a record with
anything but a Rep3Error surfaces as a WorkerCrash naming that record,
at any jobs count; a Rep3Error keeps its own message.

The lemma worker hands its span to feasible._lemma_scan, a span kernel
like the identity worker: it reads the span in runs of at most
feasible._SCAN_RUN records, each run in byte lanes, one per record,
checks that every record's degrees are sorted, as catalogue records
are and the scan needs, and answers every suite for the whole run at
once, in each record's own labels.  It asks the oracle,
min_deletion_for_rep3, only about records with no degree held three
times, whose minimum is not 0.  The children a shared map forks
inherit the verdict memo as this process has filled it so far, its own
share of earlier sweeps included.  The kernel returns, per record, its
counts in one result tuple, and lists what each suite reports only for
the records with a finding; the worker turns those into violation
records, so the main process holds little per class while the map
runs.  verify_lemmas counts the records of each order, whose 4-set and
5-set instance counts it multiplies out once the sweep ends.

The theorem worker reads its span's degree and count lanes once, with
graphcore._degree_counts, and takes each record's certificate from one
search seam, _search, which hands the whole span to the lane kernel,
solver._certificates: every record's certificate is the one
min_deletion_for_rep3 gives at the allowance, found in byte lanes with
no graph decoded.  A record with a degree held three times needs no
deletion, and solver.check_size_zero checks its certificate against
the record's own degree tuple, reading nothing else the search
computed.  Every other record, 14,841 of order 9's 274,668 classes,
is decoded only for the check: its certificate must keep to the
allowance and pass check_certificate on the graph.  A record the
kernel finds no set for is a violation, with the reason solve3 would
give.  find_extremal runs the same worker over the catalogue, so both
solve and check each class the same way; each worker returns its class's
minimum deletion size or a violation, and each fold names classes by
the record _sweep pairs with the result.

The identity worker, _identity_worker, parses nothing and splits no
record off its span: it reads the count lanes of the whole span at
once, as the theorem worker does, and returns one code byte per class,
_EXEMPT where the counting identity does not apply (a degree held three
times or an isolated vertex), else 16 * |doubled| + |missing|.  So the
map yields one int per class, and the fold takes the order from the
record's first byte and builds the violation.  Its reference in the
tests is a per-graph degree profile that shares no code with it.

Reports are deterministic: every map yields results in record order,
so any jobs count produces the same report, elapsed time aside.
"""

import json
import time
from math import comb
from typing import NamedTuple

from .enumeration import MAX_ENUM, _sweep
from .errors import OrderOutOfRange, TheoremViolation
from .feasible import _lemma_scan
from .graphcore import _IS, _THRICE, _decode, _degree_counts, _pack_lines, _width
from .solver import _certificates, allowance, check_certificate, check_size_zero, min_deletion_for_rep3


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
    """(n, minimum deletion size, None) for each record of span, graph6
    records of one order n joined, when the theorem holds on it, or (n,
    None, violation).

    graphcore._degree_counts checks the span and reads its lanes once.
    Each certificate _search gives must keep to the allowance and pass
    the check that fits it: check_size_zero, against the record's own
    degree tuple, for one read off the lanes with no graph, and
    check_certificate, against the decoded graph, for any other."""
    n, degrees, counts = _degree_counts(span)
    width = _width(n)
    cap = allowance(n)
    sized = [(n, size, None) for size in range(cap + 1)]  # one result per size
    results = []
    for degs, (cert, g) in zip(zip(*degrees), _search(span, n, degrees, counts)):
        if isinstance(cert, TheoremViolation):
            reason = str(cert)
        elif len(cert.deleted) > cap:
            reason = f"deletion set {cert.deleted} exceeds allowance {cap}"
        elif not (check_size_zero(degs, cert) if g is None else check_certificate(g, cert)):
            reason = f"certificate {cert.to_dict()} failed the independent check"
        else:
            results.append(sized[len(cert.deleted)])
            continue
        start = len(results) * width
        graph = span[start:start + width].decode("ascii")
        results.append((n, None, {"n": n, "graph": graph, "reason": reason}))
    return results


def _search(span, n, degrees, counts):
    """One (certificate, graph) pair per record of span, records of order
    n with degrees and counts as graphcore._degree_counts reads them, in
    order: the theorem sweep's search.  solver._certificates searches
    the whole span in byte lanes.  A certificate of size 0 comes with no
    graph; any other record is decoded, and where the lanes find no set
    within the allowance, the TheoremViolation solve3 raises on a miss,
    word for word, stands in for its certificate."""
    width = _width(n)
    for i, cert in enumerate(_certificates(span, n, degrees, counts)):
        if cert is not None and not cert.deleted:
            yield cert, None
            continue
        g = _decode(span[i * width:(i + 1) * width], n)
        yield cert or TheoremViolation(f"no deletion set of size <= {allowance(n)} found for {g!r}"), g


def verify_theorem(min_n: int, max_n: int, source=None, jobs=None) -> VerificationReport:
    """Solve and re-check every graph of each order in [min_n, max_n].

    source None sweeps the catalogue; otherwise it is an iterable of the
    byte lines of a graph6 file, such as the open binary file itself,
    which verify_theorem reads through graphcore._pack_lines.  That
    reader skips blank lines and a leading header, as
    graphcore.read_graph6_records does, and packs each record of a
    swept order into one bytearray per order, the catalogue's compact
    form, in input order.  It checks each record once: a swept order's
    for its width as it is packed, then all of that order at once with
    graphcore._shape, and any other with graphcore._check; so a
    malformed record raises MalformedRecord naming the first bad line
    before the sweep starts.  A list of bare records is read the same
    way.  The orders
    are then swept in turn, which leaves the report as it would be in
    input order, since each order's entry keeps its records' order.  A
    record of another order is counted in the report's skipped field
    and never solved.  The packed records go to one map, whose workers
    check each span they take once, with graphcore._shape, and certify
    every record of it from the span's byte lanes, by the lane kernel
    solver._certificates.  A certificate of size 0 is checked against
    its record's own degree tuple, with no graph decoded; any other
    record is decoded only to check its certificate with
    check_certificate.  jobs also sets the process count for any
    catalogue order not yet generated, whose fill is one map per
    order before the sweep's own.  A sweep that checks no graph at all is
    not verified.  Graphs with minimum deletion 3 are collected as
    lower-bound witnesses.
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
        blobs, skipped = _pack_lines(source, orders)
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


def _lemma_worker(span):
    """Each record's lemma results: (n, feasible_budget instances,
    paired_degree_gap instances, strong-form failures, violations).

    feasible._lemma_scan reads the span, records of one order as every
    chunk of _map's is, in byte lanes, and asks min_deletion_for_rep3,
    read here at call time, for the oracle minimum of the graphs that
    need one.  A record is scanned in its own labels, which must be
    sorted by degree, as every catalogue record's are; a record whose
    degrees fall raises MalformedRecord.  Every 4-set and 5-set is
    checked, so those suites' instance counts are C(n, 4) and C(n, 5),
    added by the caller.  violations is a tuple of (suite, violation)
    pairs, each suite's in lexicographic scan order; only the records
    with one are touched here.
    """
    results, findings = _lemma_scan(span, min_deletion_for_rep3)
    for i, rec, oracle_min, paths, gaps, medians, low in findings:
        n, budgeted, paired, failures, _ = results[i]
        head = {"n": n, "graph": rec.decode("ascii")}
        results[i] = n, budgeted, paired, failures, (
            *[("induced_path", {**head, "subset": list(x)}) for x in paths],
            *[("paired_degree_gap", {**head, "subset": list(x), "oracle_min": oracle_min})
              for x in gaps],
            *[("median_feasible", {**head, "subset": list(u)}) for u in medians],
            *[("feasible_budget",
               {**head, "triple": list(s), "budget": b, "oracle_min": oracle_min})
              for s, b in low],
        )
    return results


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
    classes = [0] * (max_n + 1)  # per order
    budgeted = failures = paired = 0
    for _, (n, b, p, f, found) in _sweep(_lemma_worker, jobs, range(1, max_n + 1)):
        classes[n] += 1
        budgeted += b
        paired += p
        failures += f
        for lemma, violation in found:
            results[lemma]["violations"].append(violation)
    results["induced_path"]["instances_checked"] = sum(c * comb(n, 4) for n, c in enumerate(classes))
    results["median_feasible"]["instances_checked"] = sum(c * comb(n, 5) for n, c in enumerate(classes))
    results["feasible_budget"]["instances_checked"] = budgeted
    results["feasible_budget"]["strong_form_failures"] = failures
    results["paired_degree_gap"]["instances_checked"] = paired
    return VerificationReport({}, results, time.perf_counter() - t0)


_EXEMPT = 255  # the code of a record the counting identity does not apply to

# a translate table that maps every nonzero byte to 255
_ALL = b"\0" + b"\xff" * 255


def _identity_worker(span) -> bytes:
    """One code byte per record of span, graph6 records of one order, up
    to 31, joined: _EXEMPT where a degree is held three times or a
    vertex is isolated, where the counting identity does not apply, and
    otherwise 16 * |s| + |t|, where s holds the degrees in [1, n-1] that
    exactly two vertices have and t those that none has.

    graphcore._degree_counts checks the span with graphcore._shape and
    reads its count lanes: byte i of every lane belongs to record i.
    The sizes of both sets sum translates of the count lanes of degrees
    1..n-1.  No lane carries: a count is at most n, and a code at most
    15 * (n // 2) + n - 1, which is 255 at order 31.
    """
    n, _, counts = _degree_counts(span)
    if n > 31:
        raise OrderOutOfRange(f"identity codes cover orders up to 31, got {n}")
    count = len(counts[0])

    def tally(table, lanes):
        """The sum of each lane translated by table, as one int."""
        return sum(int.from_bytes(lane.translate(table), "little") for lane in lanes)

    # nonzero where a vertex is isolated or a degree held three times
    void = int.from_bytes(counts[0], "little") + tally(_THRICE, counts[1:])
    code = (16 * tally(_IS[2], counts[1:]) + tally(_IS[0], counts[1:])) | tally(
        _ALL, [void.to_bytes(count, "little")]
    )
    return code.to_bytes(count, "little")


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
    process per core: the lane kernel solver._certificates finds every
    certificate, and a class it finds no set for, or whose certificate
    fails its independent check (check_size_zero for a class with a
    degree held three times, check_certificate on the decoded graph for
    any other), raises TheoremViolation rather than dropping out of the
    listing.  Output is exploratory: which orders contain maximal-cost
    classes is recorded, not asserted.
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
