"""Minimum-deletion search for three equal degrees.

min_deletion_for_rep3 is the one search: plain brute force over
deletion sets by increasing size, sets of one size in lexicographic
order, so the first hit is a minimum and the same on every run.  solve3
is that search at the theorem's allowance min(3, n-3), with a miss
raised as TheoremViolation.

Size 0 is read off the sorted degree tuple: the smallest degree held
three times, and its first three vertices, are the certificate.  Each
larger deletion set is tested on its bit mask alone, in one pass over
the survivors: a survivor's reduced degree is its degree less its
deleted neighbours, and the set is a hit once three survivors share
one.  The same pass reads the certificate's witness: the first three
survivors, by index, of the smallest reduced degree that three or more
survivors share.
Certificates carry original vertex indices and can be re-checked from
scratch by check_certificate, which builds the reduced graph with
delete_vertices and shares no code with the search.
"""

from itertools import combinations
from typing import NamedTuple

from .errors import BudgetExceedsOrder, OrderOutOfRange, TheoremViolation
from .graphcore import Graph, delete_vertices


class DeletionCertificate(NamedTuple):
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


def _witness_after(g: Graph, mask: int):
    """(witness, degree) once deleting mask leaves three equal degrees,
    else None: the first three survivors, by index, of the smallest
    reduced degree that three or more survivors share.  One pass over
    the survivors, on bit masks alone; no graph is built."""
    by_degree = {}
    best = None
    rows = g.rows
    degrees = g.degrees
    for v in range(g.n):
        if not (mask >> v) & 1:
            d = degrees[v] - (rows[v] & mask).bit_count()
            vs = by_degree.setdefault(d, [])
            vs.append(v)
            if len(vs) == 3 and (best is None or d < best):
                best = d
    return None if best is None else (tuple(by_degree[best][:3]), best)


def allowance(n: int) -> int:
    """The theorem's deletion allowance at order n: min(3, n-3)."""
    return min(3, n - 3)


def min_deletion_for_rep3(g: Graph, max_k: int):
    """Smallest deletion set (size <= max_k) leaving three equal degrees.

    Sizes are tried in increasing order, sets of one size in
    lexicographic order; the first hit is returned as a certificate.
    None when the budget does not suffice.  Size 0, which most graphs
    need, reads the degrees once and tries no set.
    """
    if not 0 <= max_k <= g.n - 3:
        raise BudgetExceedsOrder(
            f"max_k {max_k} outside [0, {g.n - 3}] for order {g.n}"
        )
    degrees = g.degrees
    ranked = sorted(degrees)
    for d, e in zip(ranked, ranked[2:]):
        if d == e:
            # no deletion: the first three vertices of the smallest
            # degree held three times, as _witness_after reads mask 0
            u = degrees.index(d)
            v = degrees.index(d, u + 1)
            witness = (u, v, degrees.index(d, v + 1))
            return DeletionCertificate(g.n, (), witness, d)
    for k in range(1, max_k + 1):
        for combo in combinations(range(g.n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            hit = _witness_after(g, mask)
            if hit is not None:
                return DeletionCertificate(g.n, combo, *hit)
    return None


def solve3(g: Graph) -> DeletionCertificate:
    """The oracle's certificate at the allowance min(3, n-3).

    Every graph of order at least five admits one; a miss therefore
    signals a bug and raises TheoremViolation instead of returning.
    """
    if g.n < 5:
        raise OrderOutOfRange(f"need at least 5 vertices, got {g.n}")
    k = allowance(g.n)
    cert = min_deletion_for_rep3(g, k)
    if cert is None:
        raise TheoremViolation(f"no deletion set of size <= {k} found for {g!r}")
    return cert


def check_certificate(g: Graph, c: DeletionCertificate) -> bool:
    """Re-derive every certificate claim from the graph alone."""
    deleted = tuple(c.deleted)
    witness = tuple(c.witness)
    if c.original_order != g.n:
        return False
    # distinct witnesses, distinct deletions, and no vertex in both
    named = deleted + witness
    if len(witness) != 3 or len(set(named)) != len(named):
        return False
    if min(named) < 0 or max(named) >= g.n:
        return False
    h, remap = delete_vertices(g, deleted)
    degrees = h.degrees
    u, v, w = witness
    return degrees[remap[u]] == degrees[remap[v]] == degrees[remap[w]] == c.witness_degree
