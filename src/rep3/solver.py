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
scratch by check_certificate, which reads each witness's reduced
degree off its row, masked by the vertices kept, and shares no code
with the search.

The theorem sweep searches a whole span at once, in byte lanes, one
byte per record: _certificates reads the span's edge and degree lanes
with graphcore._lanes, reads size 0 off them, and tries each larger
size on the records still open, every set of that size side by side,
by the same rule, so each record's certificate is
the one min_deletion_for_rep3 gives at the allowance; no graph is
decoded.  No certificate leaves its lanes: for each size searched, the
indices of the records searched, then one byte per record for the
degree named, one each for the three witnesses and one for each
deleted vertex.  check_claims checks one size's claims at once, in
lanes: it joins the records claimed from the span itself, reads their
edge and degree lanes with graphcore._lanes, and re-derives each
witness's reduced degree from them.  It shares graphcore._lanes with
the search, as check_certificate shares Graph.rows with
min_deletion_for_rep3, and nothing else; check_certificate is its
reference in the tests.
"""

from functools import cache
from itertools import combinations, compress
from typing import NamedTuple

from .errors import BudgetExceedsOrder, OrderOutOfRange, TheoremViolation
from .graphcore import _IS, _THRICE, Graph, _lanes, _shape, _width


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
    """Re-derive every certificate claim from the graph alone: the
    order, three witnesses, no vertex named twice, every vertex in
    range, and each witness's degree once the deleted vertices are
    gone, its row masked by the vertices kept."""
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
    kept = (1 << g.n) - 1
    for x in deleted:
        kept ^= 1 << x
    rows = g.rows
    u, v, w = witness
    return (
        (rows[u] & kept).bit_count() == (rows[v] & kept).bit_count()
        == (rows[w] & kept).bit_count() == c.witness_degree
    )


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
# above every degree, so no degree matches it, and low enough that it
# plus one, XORed with any target, stays below 128, as the witness
# walk's zero test needs
_GONE = 64
# translate tables of a degree byte and of a bit-plane byte: _ONE_HOT
# maps each degree d < 8 to bit d, and every other byte, _GONE less
# anything included, to 0; _LOWEST maps a byte to one plus the index of
# its lowest set bit, 0 to 0
_ONE_HOT = bytes(1 << d if d < 8 else 0 for d in range(256))
_LOWEST = bytes((b & -b).bit_length() for b in range(256))


def _certificates(span):
    """The certificate min_deletion_for_rep3 returns at allowance(n)
    for each record of span, graph6 records of one order n joined, all
    in byte lanes.  The theorem sweep's search.  graphcore._shape checks
    the span; orders above 9 raise OrderOutOfRange.

    It returns one (open_, lanes) pair for each size k it searched, in
    order: open_ holds the indices of the records searched at size k,
    range of the span's record count at size 0, and lanes, one byte per
    record of open_, the degree a hit names plus one, then its witnesses
    u, v and w, then its k deleted vertices, the first three lanes 0 in
    the byte of a record that size k does not hit.  No object is built
    for any record; a record that no size hits is one the search finds
    no set for.

    A lane here is an int, or its bytes, with one byte per record, read
    little-endian.  Each size k joins the records still open into a
    sub-span, the span itself at size 0, and reads its edge and degree
    lanes once, with graphcore._lanes; then every k-set is tried at
    once, in blocks: block i of a lane holds one byte per open record
    for the i-th set in combinations order.  A survivor's block is its
    degree less the edge lanes it shares with the set, a deleted
    vertex's _GONE less the same.

    target holds d + 1 in the byte of each record and set whose
    smallest degree held three or more times is d, and 0 where there is
    none.  Each byte of a degree below 8 translates by _ONE_HOT to one
    bit, and _GONE less anything to 0, so three saturating bit-planes,
    c1, c2 and c3, hold the degrees seen once, twice and three times,
    and target is c3 translated by _LOWEST.  A degree is at most
    n - 1 - k, so only degree 8, at size 0 of order 9, has no bit: it
    is the target where three vertices hold it and no smaller degree
    is.  A record keeps only the first set that hits, whose byte of
    seen, the OR of the blocks that hit up to its own, doubling, is 0
    in the block before.  A degree lane plus one, XORed with target, is
    0 where its vertex holds that degree, and each of its bytes is below
    128, so 127 added to it sets the top bit of every other byte and
    carries into none: one add, AND, XOR and shift read the hits.
    Walking the vertices up, need[j] holds the records with j witnesses
    found, and witness lane j sums v over those hits of v that find the
    (j + 1)-th: the first three survivors, by index, as _witness_after
    reads them.  Each result lane then folds its blocks into one, and
    the records that hit leave the search before size k + 1.  No byte
    carries: a degree byte is at most 65, and every other at most 255
    only in the zero test.
    """
    n, width = _shape(span)
    if n > 9:
        raise OrderOutOfRange(f"the lane search covers orders up to 9, got {n}")
    open_ = range(len(span) // width)
    found = []
    for k in range(allowance(n) + 1):
        places, pairs, held = _sets(n, k)
        size = len(open_)
        blocks = len(held) // n
        count = size * blocks
        ones = int.from_bytes(b"\1" * count, "little")
        sub = b"".join([span[i * width:(i + 1) * width] for i in open_]) if k else span
        edges, ints = _lanes(sub, n, width)
        if k:
            table = [bytes(size)] * (n * n)  # table[v * n + u]: the edge lane u, v
            bits = iter(edges)
            for v in range(1, n):  # edges[v(v-1)/2 + u] holds u < v
                for u in range(v):
                    table[u * n + v] = table[v * n + u] = next(bits).to_bytes(size, "little")
            gone = bytes([_GONE]) * size
            ends = [x for lane in ints for x in (lane.to_bytes(size, "little"), gone)]
            reduced = (
                int.from_bytes(b"".join(map(ends.__getitem__, held)), "little")
                - sum(int.from_bytes(b"".join(map(table.__getitem__, p)), "little") for p in pairs)
            ).to_bytes(n * count, "little")
            degrees = [reduced[v * count:(v + 1) * count] for v in range(n)]
            ints = [int.from_bytes(lane, "little") for lane in degrees]
        else:
            degrees = [lane.to_bytes(count, "little") for lane in ints]
        c1 = c2 = c3 = 0
        for lane in degrees:
            x = int.from_bytes(lane.translate(_ONE_HOT), "little")
            c3 |= c2 & x
            c2 |= c1 & x
            c1 |= x
        target = c3.to_bytes(count, "little").translate(_LOWEST)
        first = seen = ones ^ int.from_bytes(target.translate(_IS[0]), "little")
        target = int.from_bytes(target, "little")
        if n - k > 8:
            eights = sum(int.from_bytes(lane.translate(_IS[8]), "little") for lane in degrees)
            eights = int.from_bytes(eights.to_bytes(count, "little").translate(_THRICE), "little") & ~first
            target |= 9 * eights
            first = seen = first | eights
        if blocks > 1:
            shift = 8 * size
            while shift < 8 * count:
                seen |= seen << shift
                shift *= 2
            first &= ~(seen << 8 * size)
            target &= first * 255
        low, high = 127 * ones, 128 * ones
        witness, need = [0, 0, 0], [first, 0, 0]
        for v, lane in enumerate(ints):
            hits = ((((lane + ones) ^ target) + low) & high ^ high) >> 7
            a, b, c = need[0] & hits, need[1] & hits, need[2] & hits
            witness = [witness[0] + v * a, witness[1] + v * b, witness[2] + v * c]
            need = [need[0] ^ a, need[1] ^ b | a, need[2] ^ c | b]
        marks = [bytes([u]) * size for u in range(n)]
        deleted = [int.from_bytes(b"".join(map(marks.__getitem__, p)), "little") & first * 255 for p in places]
        lanes = tuple(_fold(x, size, blocks).to_bytes(size, "little") for x in (target, *witness, *deleted))
        found.append((open_, lanes))
        open_ = list(compress(open_, lanes[0].translate(_IS[0])))
        if not open_:
            break
    return found


# a translate table that keeps every byte below 128 and maps every
# other to 127, which names no vertex and no degree + 1 below 126
_BELOW_128 = bytes(range(128)) + bytes([127]) * 128


def check_claims(span, n, open_, lanes):
    """A lane with 1 in the byte of each record of open_ whose claim
    holds, and 0 in every other: span is graph6 records of order n
    joined, open_ the indices of some of them, and lanes a claim for
    each, one byte per record of open_, as _certificates gives one size
    k: the degree named + 1, the witnesses u, v and w, then k deleted
    vertices.  A claim holds where its deleted vertices are distinct and
    below n, no witness is deleted, the witnesses are u < v < w < n, and
    each witness's degree less its deleted neighbours is the degree
    named; a record whose first lane reads 0 claims nothing.

    The records of open_ are joined from span itself, and their edge and
    degree lanes read with graphcore._lanes; nothing else the search
    computed is read.  Every claim lane is read with its bytes of 128 or
    more as 127, so each lane compared here has every byte below 128,
    and zeros finds its 0 bytes with no translate: 127 added to any
    other byte sets its top bit, and carries into no other byte.
    named[j][v] marks the records whose lane j names vertex v, and
    gone[v] counts the deleted lanes that name v, so the deletions are
    valid where exactly k vertices are named once.  A vertex's reduced
    degree is its degree lane less the edge lanes it shares with a
    vertex gone.  Walking the vertices up, need[j] holds the records
    with j witnesses confirmed: a vertex kept, of the named degree,
    moves a record from need[j] to need[j + 1] when it is the record's
    (j + 1)-th witness, against need as it stood before that vertex, so
    a witness named twice, or out of order, never gets as far as
    need[3]."""
    width = _width(n)
    count = len(open_)
    whole = open_ == range(len(span) // width)
    sub = span if whole else b"".join([span[i * width:(i + 1) * width] for i in open_])
    edges, degrees = _lanes(sub, n, width)
    ones = int.from_bytes(b"\1" * count, "little")
    low, high = 127 * ones, 128 * ones

    def zeros(x):
        return ((x + low) & high ^ high) >> 7

    target, *claimed = (int.from_bytes(lane.translate(_BELOW_128), "little") for lane in lanes)
    vertices = [v * ones for v in range(n)]
    named = [[zeros(x ^ v) for v in vertices] for x in claimed]
    witnesses, dropped = named[:3], named[3:]
    gone = [sum(lane[v] for lane in dropped) for v in range(n)]
    valid = ones
    if dropped:
        once = sum(zeros(lane ^ ones) for lane in gone)
        valid = zeros(once ^ len(dropped) * ones)
        bits = iter(edges)
        for v in range(1, n):
            for u in range(v):
                edge = next(bits)
                degrees[u] -= edge & gone[v]
                degrees[v] -= edge & gone[u]
    need = [valid, 0, 0, 0]
    for v, lane in enumerate(degrees):
        held = zeros((lane + ones) ^ target) & ~gone[v]
        a, b, c = (held & need[j] & witnesses[j][v] for j in range(3))
        need = [need[0] ^ a, need[1] ^ b | a, need[2] ^ c | b, need[3] | c]
    return need[3].to_bytes(count, "little")
