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

The theorem sweep reads size 0 for a whole span at once:
_thrice_certificates takes a span's degree and count lanes, one byte
per record, as graphcore._degree_counts reads them, and gives each
record with a degree held three times the certificate
min_deletion_for_rep3 would, with no graph decoded.  Those
certificates, and only those, are checked by check_size_zero, against
the record's degree tuple alone: its order, no deletion, and three
witnesses u < v < w, each of the degree named.  It shares the degree
lanes with the search, as check_certificate shares Graph.degrees with
min_deletion_for_rep3, and nothing else.  Every certificate solve3
returns is checked by check_certificate.
"""

from itertools import combinations
from typing import NamedTuple

from .errors import BudgetExceedsOrder, OrderOutOfRange, TheoremViolation
from .graphcore import _IS, _THRICE, Graph, delete_vertices


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


def _thrice_certificates(n, degrees, counts):
    """Per record of a span of order n, the certificate
    min_deletion_for_rep3 returns when it deletes nothing, or None for a
    record with no degree held three times; degrees and counts are the
    span's lanes as graphcore._degree_counts reads them.

    A lane here is an int with one byte per record, read little-endian.
    target holds d + 1 in the byte of each record whose smallest degree
    held three or more times is d, and 0 where there is none: walking
    the count lanes up from degree 0, each record takes the first whose
    translate by _THRICE reads 1 in its byte.  A degree lane plus one,
    XORed with target, is 0 where its vertex holds that degree; seen,
    the sum of those hits at lower vertices, ranks it, and witness lane
    k sums v over the hits of vertices v that k hits precede.  No byte
    carries: none exceeds 62.
    """
    count = len(degrees[0])
    ones = int.from_bytes(b"\1" * count, "little")
    left, target = ones, 0
    for d, lane in enumerate(counts):
        hit = int.from_bytes(lane.translate(_THRICE), "little") & left
        target |= hit * (d + 1)
        left ^= hit
    witness, seen = [0, 0, 0], 0
    for v, lane in enumerate(degrees):
        held = ((int.from_bytes(lane, "little") + ones) ^ target).to_bytes(count, "little")
        hits = int.from_bytes(held.translate(_IS[0]), "little")
        ranks = seen.to_bytes(count, "little")
        for k in range(3):
            witness[k] += v * (hits & int.from_bytes(ranks.translate(_IS[k]), "little"))
        seen += hits
    return [
        None if t == 0 else DeletionCertificate(n, (), (u, v, w), t - 1)
        for t, u, v, w in zip(*(x.to_bytes(count, "little") for x in (target, *witness)))
    ]


def check_size_zero(degrees, c: DeletionCertificate) -> bool:
    """Re-derive the claims of a certificate that deletes nothing from
    the degree tuple of its graph alone: its order, no deletion, and
    three witnesses u < v < w < n, each of the degree it names."""
    n = len(degrees)
    if c.original_order != n or len(c.deleted) or len(c.witness) != 3:
        return False
    u, v, w = c.witness
    return 0 <= u < v < w < n and degrees[u] == degrees[v] == degrees[w] == c.witness_degree
