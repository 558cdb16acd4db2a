"""Reference computations behind the benchmark's output checks.

Nothing here imports rep3.  graph6 decoding, the minimum-deletion search
and degree counting are redone on plain Python sets, so a fault in the
program's solver, classifier or degree statistics cannot vouch for
itself.  Each check_* function returns a list of error strings; an empty
list means the output agrees with the reference.
"""

from collections import Counter
from itertools import combinations
from math import comb

# OEIS A000088: graphs on n unlabeled vertices, n = 0..9
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def decode_graph6(record: str) -> list:
    """Adjacency sets of a single-byte-order graph6 record."""
    data = record.encode("ascii")
    n = data[0] - 63
    need = n * (n - 1) // 2
    bits = [(byte - 63) >> k & 1 for byte in data[1:] for k in range(5, -1, -1)]
    if not 1 <= n <= 62 or len(data) - 1 != (need + 5) // 6:
        raise ValueError(f"not a graph6 record: {record!r}")
    adj = [set() for _ in range(n)]
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i].add(j)
                adj[j].add(i)
            pos += 1
    return adj


def encode_graph6(adj: list) -> str:
    """graph6 record of adjacency sets, upper triangle column by column."""
    n = len(adj)
    bits = [1 if j in adj[i] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def min_deletions(adj: list):
    """Fewest deletions, at most min(3, n-3), leaving three equal degrees.

    Plain search over vertex sets by increasing size; None when no set
    within the allowance works.
    """
    n = len(adj)
    for k in range(min(3, n - 3) + 1):
        for gone in map(set, combinations(range(n), k)):
            seen = Counter(len(adj[v] - gone) for v in range(n) if v not in gone)
            if max(seen.values()) >= 3:
                return k
    return None


def identity_instances(records) -> tuple:
    """(graphs the counting identity applies to, graphs breaking it).

    It applies when no degree is held by three vertices and no vertex is
    isolated; it says the degrees in [1, n-1] held by nobody number one
    fewer than those held by exactly two vertices.
    """
    checked = broken = 0
    for rec in records:
        degrees = [len(a) for a in decode_graph6(rec)]
        held = Counter(degrees)
        if max(held.values()) > 2 or min(degrees) < 1:
            continue
        checked += 1
        inner = range(1, len(degrees))
        missing = sum(1 for d in inner if d not in held)
        doubled = sum(1 for d in inner if held[d] == 2)
        broken += missing != doubled - 1
    return checked, broken


def minimum_table(records) -> dict:
    """record -> min_deletions, each distinct record solved once."""
    return {rec: min_deletions(decode_graph6(rec)) for rec in set(records)}


def check_catalogue(catalogue: dict, orders) -> list:
    """Class counts equal A000088, records distinct and of the right order."""
    errors = []
    for n in orders:
        recs = catalogue[str(n)]
        if len(recs) != A000088[n]:
            errors.append(f"order {n}: {len(recs)} classes, A000088 says {A000088[n]}")
        if len(set(recs)) != len(recs):
            errors.append(f"order {n}: repeated records in the catalogue")
        if any(len(decode_graph6(r)) != n for r in recs):
            errors.append(f"order {n}: a catalogue record has another order")
    return errors


def check_theorem_report(report: dict, by_order: dict, mins: dict) -> list:
    """A verify report against the brute force over the graphs it swept.

    by_order maps each order (as a string) to its records in sweep order.
    """
    errors = []
    if report.get("verified") is not True:
        errors.append("report is not verified")
    if report.get("lemma_results") != {}:
        errors.append("theorem report carries lemma results")
    per_n = report.get("per_n", {})
    if set(per_n) != set(by_order):
        errors.append(f"report orders {sorted(per_n)} != swept {sorted(by_order)}")
        return errors
    for n, recs in by_order.items():
        entry = per_n[n]
        hist = [0, 0, 0, 0]
        for rec in recs:
            if mins[rec] is None:
                errors.append(f"brute force finds no certificate for {rec}")
                continue
            hist[mins[rec]] += 1
        witnesses = [rec for rec in recs if mins[rec] == 3]
        if entry["graph_count"] != len(recs):
            errors.append(f"order {n}: graph_count {entry['graph_count']} != {len(recs)}")
        if entry["min_deletion_histogram"] != hist:
            errors.append(
                f"order {n}: histogram {entry['min_deletion_histogram']} != brute force {hist}"
            )
        if entry["extremal_witnesses"] != witnesses:
            errors.append(f"order {n}: extremal witnesses differ from the brute force")
        if entry["violations"]:
            errors.append(f"order {n}: {len(entry['violations'])} violations")
    return errors


def check_suites(out: dict, catalogue: dict, max_n: int, mins: dict) -> list:
    """Lemma, identity and extremal outputs of one suites8_warm round."""
    errors = []
    lemmas, identity = out["lemmas"], out["identity"]
    for name, report in (("lemmas", lemmas), ("identity", identity)):
        if report["verified"] is not True or report["per_n"]:
            errors.append(f"{name} report is not a verified suite report")
        for suite, result in report["lemma_results"].items():
            if result["violations"]:
                errors.append(f"{suite}: {len(result['violations'])} violations")
    expected = {
        "induced_path": sum(A000088[n] * comb(n, 4) for n in range(1, max_n + 1)),
        "median_feasible": sum(A000088[n] * comb(n, 5) for n in range(1, max_n + 1)),
    }
    for suite, count in expected.items():
        got = lemmas["lemma_results"][suite]["instances_checked"]
        if got != count:
            errors.append(f"{suite}: {got} instances, expected {count}")
    records = [r for n in range(1, max_n + 1) for r in catalogue[str(n)]]
    checked, broken = identity_instances(records)
    got = identity["lemma_results"]["counting_identity"]
    if got["instances_checked"] != checked:
        errors.append(
            f"counting_identity: {got['instances_checked']} instances, expected {checked}")
    if broken:
        errors.append(f"counting identity fails on {broken} graphs by the reference count")
    cap = min(3, max_n - 3)
    extremal = [r for r in catalogue[str(max_n)] if mins[r] == cap]
    if out["extremal"] != extremal:
        errors.append(f"find_extremal({max_n}) = {out['extremal']}, brute force {extremal}")
    return errors
