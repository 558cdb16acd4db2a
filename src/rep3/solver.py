"""Minimum-deletion search for three equal degrees.

min_deletion_for_rep3 searches one graph: plain brute force over
deletion sets by increasing size, sets of one size in lexicographic
order, so the first hit is a minimum and the same on every run.  solve3
is that search at the theorem's allowance min(3, n-3), with a miss
raised as TheoremViolation; rep3 solve and the lemma suites' oracle
use them.

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

The theorem sweep searches a whole span at once, in byte lanes, one
byte per record: _certificates takes the span's degree and count lanes
as graphcore._degree_counts reads them, reads size 0 off them, and
tries each larger size on the records still open, every set of that
size side by side, by the same rule, so each record's certificate is
the one min_deletion_for_rep3 gives at the allowance; no graph is
decoded.  A certificate of size 0 is checked by check_size_zero,
against the record's degree tuple alone: its order, no deletion, and
three witnesses u < v < w, each of the degree named.  It shares the
degree lanes with the search, as check_certificate shares Graph.degrees
with min_deletion_for_rep3, and nothing else.  Every other certificate
is checked by check_certificate, on the decoded graph.
"""

from functools import cache
from itertools import combinations, compress, repeat
from typing import NamedTuple

from .errors import BudgetExceedsOrder, OrderOutOfRange, TheoremViolation
from .graphcore import _IS, _THRICE, Graph, _lanes, _width, delete_vertices


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


@cache
def _sets(n, k):
    """(places, pairs, held): the k-sets of range(n), in combinations
    order, as indices.  places[j] holds the j-th vertex of each set;
    pairs[j], for each vertex v in turn, v * n plus that vertex, an
    index into a table of n * n lanes; and held, for each vertex v in
    turn, 2v + 1 for each set that holds v and 2v for each other."""
    sets = list(combinations(range(n), k))
    places = tuple(zip(*sets))
    return (
        places,
        tuple(tuple(v * n + u for v in range(n) for u in p) for p in places),
        tuple(2 * v + (v in s) for v in range(n) for s in sets),
    )


def _fold(x, size, blocks):
    """The sum of the blocks, size bytes each, that x holds, blocks of
    them; no byte carries where at most one block is nonzero in it."""
    while blocks > 1:
        half = (blocks + 1) // 2
        x = (x & ((1 << 8 * size * half) - 1)) + (x >> 8 * size * half)
        blocks = half
    return x


# the byte of a deleted vertex's degree, less its deleted neighbours:
# above every degree, so no degree matches it
_GONE = 192


def _certificates(span, n, degrees, counts):
    """Per record of span, graph6 records of order n joined, the
    certificate min_deletion_for_rep3 returns at allowance(n), or None
    where it finds none; degrees and counts are the span's lanes as
    graphcore._degree_counts reads them.  The theorem sweep's search.

    A lane here is an int, or its bytes, with one byte per record, read
    little-endian.  Size 0 reads the span's own lanes.  Each larger size
    k joins the records still open into a sub-span and reads its edge
    and degree lanes once, with graphcore._lanes; then every k-set is
    tried at once, in blocks: block i of a lane holds one byte per open
    record for the i-th set in combinations order.  A survivor's block
    is its degree less the edge lanes it shares with the set, a deleted
    vertex's _GONE less the same, and each degree's count lane sums a
    translate of those.

    target holds d + 1 in the byte of each record and set whose
    smallest degree held three or more times is d, and 0 where there is
    none: walking the count lanes up from degree 0, each takes the first
    whose translate by _THRICE reads 1 in its byte.  A record keeps only
    the first set that hits, whose byte of seen, the OR of the blocks
    that hit up to its own, doubling, is 0 in the block before.  A
    degree lane plus one, XORed with target, is 0 where its vertex holds
    that degree.  Walking the vertices up, need[j] holds the records
    with j witnesses found, and witness lane j sums v over those hits
    of v that find the (j + 1)-th: the first three survivors, by index,
    as _witness_after reads them.  Each result lane then folds its
    blocks into one, and the records that hit leave the search before
    size k + 1.  No byte carries: none exceeds 193.
    """
    width = _width(n)
    open_ = range(len(degrees[0]))
    for k in range(allowance(n) + 1):
        places, pairs, held = _sets(n, k)
        size = len(open_)
        blocks = len(held) // n
        count = size * blocks
        if k:
            sub = b"".join([span[i * width:(i + 1) * width] for i in open_])
            edges, lanes = _lanes(sub, n, width)
            table = [bytes(size)] * (n * n)  # table[v * n + u]: the edge lane u, v
            bits = iter(edges)
            for v in range(1, n):  # edges[v(v-1)/2 + u] holds u < v
                for u in range(v):
                    table[u * n + v] = table[v * n + u] = next(bits).to_bytes(size, "little")
            gone = bytes([_GONE]) * size
            ends = [x for lane in lanes for x in (lane.to_bytes(size, "little"), gone)]
            reduced = (
                int.from_bytes(b"".join(map(ends.__getitem__, held)), "little")
                - sum(int.from_bytes(b"".join(map(table.__getitem__, p)), "little") for p in pairs)
            ).to_bytes(n * count, "little")
            degrees = [reduced[v * count:(v + 1) * count] for v in range(n)]
            counts = [
                sum(map(int.from_bytes, map(bytes.translate, degrees, repeat(_IS[d])), repeat("little")))
                .to_bytes(count, "little")
                for d in range(n - k)
            ]
        ones = int.from_bytes(b"\1" * count, "little")
        left, target = ones, 0
        for d, lane in enumerate(counts):
            hit = int.from_bytes(lane.translate(_THRICE), "little") & left
            target |= hit * (d + 1)
            left ^= hit
        first = seen = ones ^ left
        if blocks > 1:
            shift = 8 * size
            while shift < 8 * count:
                seen |= seen << shift
                shift *= 2
            first &= ~(seen << 8 * size)
            target &= first * 255
        witness, need = [0, 0, 0], [first, 0, 0]
        for v, lane in enumerate(degrees):
            hits = ((int.from_bytes(lane, "little") + ones) ^ target).to_bytes(count, "little")
            hits = int.from_bytes(hits.translate(_IS[0]), "little")
            a, b, c = need[0] & hits, need[1] & hits, need[2] & hits
            witness = [witness[0] + v * a, witness[1] + v * b, witness[2] + v * c]
            need = [need[0] ^ a, need[1] ^ b | a, need[2] ^ c | b]
        marks = [bytes([u]) * size for u in range(n)]
        deleted = [int.from_bytes(b"".join(map(marks.__getitem__, p)), "little") & first * 255 for p in places]
        found = [_fold(x, size, blocks).to_bytes(size, "little") for x in (target, *witness, *deleted)]
        made = [
            DeletionCertificate(n, dropped, (u, v, w), t - 1) if t else None
            for t, u, v, w, dropped in zip(*found[:4], zip(*found[4:]) if k else repeat(()))
        ]
        if k:
            for i, cert in zip(open_, made):
                certs[i] = cert
        else:
            certs = made
        open_ = list(compress(open_, found[0].translate(_IS[0])))
        if not open_:
            break
    return certs


def check_size_zero(degrees, c: DeletionCertificate) -> bool:
    """Re-derive the claims of a certificate that deletes nothing from
    the degree tuple of its graph alone: its order, no deletion, and
    three witnesses u < v < w < n, each of the degree it names."""
    n = len(degrees)
    if c.original_order != n or len(c.deleted) or len(c.witness) != 3:
        return False
    u, v, w = c.witness
    return 0 <= u < v < w < n and degrees[u] == degrees[v] == degrees[w] == c.witness_degree
