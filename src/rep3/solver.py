"""Minimum-deletion search for three equal degrees.

min_deletion_for_rep3 is the one search: plain brute force over
deletion sets by increasing size, sets of one size in lexicographic
order, so the first hit is a minimum and the same on every run.  solve3
is that search at the theorem's allowance min(3, n-3), with a miss
raised as TheoremViolation.

Each deletion set is tested on its bit mask alone: a survivor's reduced
degree is its degree less its deleted neighbours, and the set is a hit
once three survivors share one.  The certificate is read off the same
mask: its witness is the first three survivors, by index, of the
smallest reduced degree that three or more survivors share.
Certificates carry original vertex indices and can be re-checked from
scratch by check_certificate, which builds the reduced graph with
delete_vertices and shares no code with the search.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceedsOrder, OrderTooSmall, TheoremViolation
from .graphcore import Graph, delete_vertices


@dataclass(frozen=True)
class DeletionCertificate:
    original_order: int
    deleted: tuple
    witness: tuple
    witness_degree: int

    def to_dict(self):
        return {
            "n": self.original_order,
            "deleted": list(self.deleted),
            "witness": list(self.witness),
            "degree": self.witness_degree,
        }


def _rep3_after(g: Graph, mask: int) -> bool:
    # cheap filter: reduced degrees from bit masks, no graph built
    counts = {}
    rows = g.rows
    degrees = g.degrees
    for v in range(g.n):
        if (mask >> v) & 1:
            continue
        d = degrees[v] - (rows[v] & mask).bit_count()
        c = counts.get(d, 0) + 1
        if c == 3:
            return True
        counts[d] = c
    return False


def _certificate_for(g: Graph, combo, mask: int) -> DeletionCertificate:
    """The certificate for a deletion set _rep3_after accepted: the first
    three survivors, by index, of the smallest reduced degree that three
    or more survivors share."""
    by_degree = {}
    for v in range(g.n):
        if not (mask >> v) & 1:
            d = g.degrees[v] - (g.rows[v] & mask).bit_count()
            by_degree.setdefault(d, []).append(v)
    d = min(d for d, vs in by_degree.items() if len(vs) >= 3)
    return DeletionCertificate(g.n, combo, tuple(by_degree[d][:3]), d)


def min_deletion_for_rep3(g: Graph, max_k: int):
    """Smallest deletion set (size <= max_k) leaving three equal degrees.

    Sizes are tried in increasing order, sets of one size in
    lexicographic order; the first hit is returned as a certificate.
    None when the budget does not suffice.
    """
    if not 0 <= max_k <= g.n - 3:
        raise BudgetExceedsOrder(
            f"max_k {max_k} outside [0, {g.n - 3}] for order {g.n}"
        )
    for k in range(max_k + 1):
        for combo in combinations(range(g.n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if _rep3_after(g, mask):
                return _certificate_for(g, combo, mask)
    return None


def solve3(g: Graph) -> DeletionCertificate:
    """The oracle's certificate at the allowance min(3, n-3).

    Every graph of order at least five admits one; a miss therefore
    signals a bug and raises TheoremViolation instead of returning.
    """
    if g.n < 5:
        raise OrderTooSmall(f"need at least 5 vertices, got {g.n}")
    allowance = min(3, g.n - 3)
    cert = min_deletion_for_rep3(g, allowance)
    if cert is None:
        raise TheoremViolation(
            f"no deletion set of size <= {allowance} found for {g!r}"
        )
    return cert


def check_certificate(g: Graph, c: DeletionCertificate) -> bool:
    """Re-derive every certificate claim from the graph alone."""
    deleted = tuple(c.deleted)
    witness = tuple(c.witness)
    if c.original_order != g.n:
        return False
    if len(witness) != 3 or len(set(witness)) != 3:
        return False
    if len(set(deleted)) != len(deleted):
        return False
    if set(deleted) & set(witness):
        return False
    if any(not (0 <= v < g.n) for v in deleted + witness):
        return False
    h, remap = delete_vertices(g, deleted)
    return all(h.degree(remap[v]) == c.witness_degree for v in witness)
