"""Three-vertex set classification and budgeted equalization.

A 3-set is examined under every labeling (x, y, z) of its vertices that
respects the degree sort d(x) <= d(y) <= d(z).  Eight shapes C1..C8 are
recognised, and each allows exactly one edge pattern (exy, exz, eyz):
C1 none (000), C2 all three (111), C3 the lone edge xy (100), C4 the two
edges at x (110), C5 the lone edge xz (010), C6 the path x-y-z (101),
C7 the lone edge yz (001), C8 the two edges at z (011).  C1 to C4 are
the pattern alone; C5 to C8 additionally require stated neighborhood
differences to be nonempty.  A set matching any shape admits a bounded
equalization: the deletion price is at most p + q + max(p, q), where
p and q are the upper and lower degree gaps of the sorted triple.

Degree ties make the labeling ambiguous, so a set satisfies a shape if
ANY degree-consistent labeling does.  A labeling's edge pattern names
the one shape it can match; the set takes the smallest shape any of
its labelings matches, and on a tie the first such labeling in
lexicographic vertex order, which makes the reported (condition,
labeling) pair reproducible.

Input is checked once, at the public boundary: classify_triple and
equalize_triple validate their triple and then call one private core
that takes a sorted tuple of three distinct in-range vertices.
The lemma scan, whose sets come from walking every 3-set of range(n)
and so are valid by construction, calls the cores directly.

The lemma suites ask the same of every 3-set: whether it is feasible
and balanceable, its budget when that is at most n - 3, and whether
_equalize finds a set within that budget.  The answers depend only on
the order and the triple's signature (its edge pattern and how many
other vertices lie in each of the eight adjacency regions around it),
so _verdict runs _classify and _equalize on the first triple of each
signature and the memo _VERDICTS, one dict per order, hands its answer
as a one-byte code to every later triple, in any graph, that shares
it.  Through order 8 the 731,424 triples have 2,946 signatures.

One private entry point, _lemma_scan, reads a run of graphs of one
order, each in its own labels, which must be sorted by degree, as every
catalogue record is, so that a 5-set's median-degree vertex is its
median position.  Per graph it computes only the signatures and their
memo lookup: _tables(n) holds, per order up to 9, two lookup tables
indexed by a vertex's row; their entries summed over the graph's
vertices make one big int with every 3-set's signature in a 32-bit
field, which _signatures unpacks with one struct call, and the verdict
codes form one bytes object per graph.  Past a signature's first
sighting, no Python code runs per 3-set.

Everything else is answered for the whole run at once, bit-sliced
(Biham, "A fast new DES implementation in software", FSE 1997) with one
byte lane per graph.  bytes.translate turns the run's codes into
per-triple flags, and one strided slice per 3-set gathers its flag from
every graph into one int.  A 4-set is covered where any of its four
3-sets is balanceable, and a 5-set where any of its six 3-sets through
its median position is feasible: one OR per set, of the ints of the
3-sets that _tables lists for it, answers it for every graph of the run.  The covers are
joined into one bytes object per size, and bytes.find walks its zero
bytes, the uncovered (set, graph) pairs.  Uncovered 5-sets are the
violations; uncovered 4-sets reach the induced-path test,
_induced_path_ok, a lookup of the set's induced edges and degree ties
in a 512-entry table, graph by graph in lexicographic order.  Byte
counts over each graph's span of the flags give its budgeted and
unequalizable 3-set counts.
"""

import struct
from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import NotATriple, NotFeasible, OrderOutOfRange, VertexOutOfRange
from .graphcore import Graph


class TripleClassification(NamedTuple):
    condition: Optional[str]
    labeling: Optional[tuple]
    balanceable: bool
    p: int
    q: int

    @property
    def feasible(self) -> bool:
        return self.condition is not None

    def to_dict(self):
        d = {"condition": self.condition}
        if self.labeling is not None:
            d["labeling"] = list(self.labeling)
        d["p"] = self.p
        d["q"] = self.q
        return d


def _distinct_sorted(g: Graph, vs):
    out = tuple(sorted(set(vs)))
    if len(out) != 3:
        raise NotATriple(f"need exactly 3 distinct vertices, got {vs!r}")
    if out[0] < 0 or out[-1] >= g.n:
        raise VertexOutOfRange(f"{out} outside 0..{g.n - 1}")
    return out


# the shape a labeling can match, indexed by its edge pattern read as
# the number 4*exy + 2*exz + eyz
_SHAPE_OF_PATTERN = (1, 7, 5, 8, 3, 6, 4, 2)


def _clause_holds(cond, rows, x, y, z):
    """The neighborhood clause C5..C8 add to their edge pattern."""
    if cond == 5:
        return rows[y] & ~rows[z] != 0
    if cond == 6:
        return rows[x] & ~(rows[y] | (1 << y)) != 0
    if cond == 7:
        return rows[x] & ~rows[y] != 0 and rows[x] & ~rows[z] != 0
    closed_z = rows[z] | (1 << z)
    return rows[x] & ~closed_z != 0 and rows[y] & ~closed_z != 0


def _classify(g: Graph, s3) -> TripleClassification:
    degs = g.degrees
    rows = g.rows
    a, b, c = s3
    lo, mid, hi = sorted((degs[a], degs[b], degs[c]))
    best = 9
    labeling = None
    for x, y, z in permutations(s3):
        if not degs[x] <= degs[y] <= degs[z]:
            continue
        rx = rows[x]
        cond = _SHAPE_OF_PATTERN[
            ((rx >> y) & 1) << 2 | ((rx >> z) & 1) << 1 | (rows[y] >> z) & 1
        ]
        if cond < best and (cond <= 4 or _clause_holds(cond, rows, x, y, z)):
            best, labeling = cond, (x, y, z)
    if labeling is None:
        return TripleClassification(None, None, False, hi - mid, mid - lo)
    return TripleClassification(f"C{best}", labeling, best <= 4, hi - mid, mid - lo)


def classify_triple(g: Graph, s) -> TripleClassification:
    """Match a 3-set against the eight shapes.

    Returns the smallest shape any degree-consistent labeling matches,
    with the first such labeling in lexicographic vertex order, or a
    classification with condition None when nothing matches.  The
    degree gaps p and q are reported either way.
    """
    return _classify(g, _distinct_sorted(g, s))


def budget(tc: TripleClassification) -> int:
    """Deletion allowance p + q + max(p, q) of a classified set."""
    if tc.condition is None:
        raise NotFeasible("no budget for a set matching no shape")
    return tc.p + tc.q + max(tc.p, tc.q)


def _equalize(g: Graph, s3, max_delete: int):
    max_delete = min(max_delete, g.n - 3)
    a, b, c = s3
    da, db, dc = g.degrees[a], g.degrees[b], g.degrees[c]
    ra, rb, rc = g.rows[a], g.rows[b], g.rows[c]
    others = [v for v in range(g.n) if v != a and v != b and v != c]
    for k in range(max_delete + 1):
        for combo in combinations(others, k):
            m = 0
            for v in combo:
                m |= 1 << v
            # degrees drop by the number of deleted neighbors
            if (
                da - (ra & m).bit_count()
                == db - (rb & m).bit_count()
                == dc - (rc & m).bit_count()
            ):
                return combo
    return None


def equalize_triple(g: Graph, s, max_delete: int):
    """Smallest deletion set outside s making the three degrees equal.

    Searches sizes 0, 1, ... up to max_delete with lexicographic
    tie-break, so the result is the minimum and deterministic.  Returns
    None when no deletion set within the allowance works.  The effective
    allowance is capped at n - 3: the triple itself must survive.
    """
    return _equalize(g, _distinct_sorted(g, s), max_delete)


# a verdict's byte code: what the lemma suites ask of a 3-set, with
# the budget in bits 4..6 when _BUDGETED is set
_FEASIBLE, _BALANCEABLE, _BUDGETED, _UNEQUALIZABLE = 1, 2, 4, 8

# verdict codes by order, then by packed signature, shared by every
# graph: a verdict is a pure function of its signature, so an entry
# never goes stale
_VERDICTS = {}


def _verdict(g: Graph, s3) -> int:
    """The byte code of the 3-set s3 of g."""
    tc = _classify(g, s3)
    if tc.condition is None:
        return 0
    code = _FEASIBLE | _BALANCEABLE * tc.balanceable
    b = budget(tc)
    if b > g.n - 3:
        return code
    return code | _BUDGETED | _UNEQUALIZABLE * (_equalize(g, s3, b) is None) | b << 4


def _flags(test) -> bytes:
    """A bytes.translate table sending each verdict code to 1 where
    test(code) holds and to 0 elsewhere."""
    return bytes(1 if test(code) else 0 for code in range(256))


_IS_FEASIBLE = _flags(lambda code: code & _FEASIBLE)
_IS_BALANCEABLE = _flags(lambda code: code & _BALANCEABLE)
_IS_BUDGETED = _flags(lambda code: code & _BUDGETED)
_IS_UNEQUALIZABLE = _flags(lambda code: code & _UNEQUALIZABLE)


@cache
def _budget_below(limit: int) -> bytes:
    return _flags(lambda code: code & _BUDGETED and code >> 4 < limit)


# A 3-set (a, b, c)'s signature packs into one 32-bit field, low bit
# first: the edge bits ab, ac and bc, then 4-bit fields from bits 3, 7
# and 11 for the degrees of a, b and c, and from bits 15, 19, 23 and 27
# for the common-neighbour counts of ab, ac, bc and abc.  Through
# order 9 a degree is at most 8 and a common count at most 7, so no
# field carries into the next.
_MAX_PACKED = 9

# what one row adds to the degree and common-count fields of (a, b, c),
# indexed by the row's bits at a, b and c read as the number
# 4*c + 2*b + a: a vertex counts once towards the degree of each of
# a, b, c it is adjacent to, and once towards the common count of each
# pair and of the triple it is adjacent to all of
_ROW_FIELD = tuple(
    xa << 3 | xb << 7 | xc << 11
    | (xa & xb) << 15 | (xa & xc) << 19 | (xb & xc) << 23 | (xa & xb & xc) << 27
    for xc in (0, 1) for xb in (0, 1) for xa in (0, 1)
)


def _edge_field(t, v, upper):
    """The edge bits of the 3-set t read from vertex v's row above v,
    whose bit i is the edge from v to v + 1 + i: ab and ac from a's
    row, bc from b's."""
    a, b, c = t
    if v == a:
        return (upper >> (b - a - 1) & 1) | (upper >> (c - a - 1) & 1) << 1
    if v == b:
        return (upper >> (c - b - 1) & 1) << 2
    return 0


class ScanTables(NamedTuple):
    """What _lemma_scan reads at order n.  The 3-sets, 4-sets and
    5-sets of range(n) are in combinations order.  A graph's packed
    signatures are the sum, over its vertices v with row r, of
    by_row[r] and by_upper[v][r >> (v + 1)], each holding the t-th
    3-set's field at bit 32 * t.  four_triples and five_triples hold,
    for each 4-set and 5-set, the indices of the 3-sets that cover it."""

    triples: tuple
    unpack: object  # the packed signatures' bytes to one int per 3-set
    by_row: tuple
    by_upper: tuple
    fours: tuple
    four_index: dict  # each 4-set to its index
    fives: tuple
    four_triples: tuple  # each 4-set's four 3-sets
    five_triples: tuple  # each 5-set's six 3-sets holding its median position


@cache
def _tables(n: int) -> ScanTables:
    if n > _MAX_PACKED:
        raise OrderOutOfRange(f"lemma scan packs orders up to {_MAX_PACKED}, got {n}")
    triples = tuple(combinations(range(n), 3))
    index = {t: i for i, t in enumerate(triples)}
    fields = struct.Struct(f"<{len(triples)}I")

    def packed(values):
        return int.from_bytes(fields.pack(*values), "little")

    fours = tuple(combinations(range(n), 4))
    fives = tuple(combinations(range(n), 5))
    return ScanTables(
        triples,
        fields.unpack,
        tuple(
            packed([_ROW_FIELD[(r >> a & 1) | (r >> b & 1) << 1 | (r >> c & 1) << 2]
                    for a, b, c in triples])
            for r in range(1 << n)
        ),
        tuple(
            tuple(
                packed([_edge_field(t, v, upper) for t in triples])
                for upper in range(1 << (n - 1 - v))
            )
            for v in range(n)
        ),
        fours,
        {x: i for i, x in enumerate(fours)},
        fives,
        tuple(tuple(map(index.__getitem__, combinations(x, 3))) for x in fours),
        tuple(
            tuple(index[t] for t in combinations(u, 3) if u[2] in t) for u in fives
        ),
    )


def _signatures(g: Graph) -> tuple:
    """The packed signature of every 3-set s = (a, b, c) of g, in
    combinations order.

    The signature holds the three internal edge bits, the three degrees
    and the common-neighbour counts of ab, ac, bc and abc.  With n, by
    inclusion-exclusion, these fix, and are fixed by, the counts of the
    other vertices in each of the eight adjacency regions relative to
    the triple.  A deletion set changes the three degrees only through
    how many vertices it takes from each region, and every shape's
    neighbourhood clause asks whether some regions are all empty, so
    the order and the signature decide _verdict.
    """
    tables = _tables(g.n)
    by_row, by_upper = tables.by_row, tables.by_upper
    total = 0
    for v, r in enumerate(g.rows):
        total += by_row[r] + by_upper[v][r >> (v + 1)]
    return tables.unpack(total.to_bytes(4 * len(tables.triples), "little"))


def _path_table() -> bytes:
    """1 at each index _induced_path_ok packs whose six edge bits form
    a path with its ends at the set's two smallest degrees."""
    pairs = list(combinations(range(4), 2))  # the edge bits' order
    table = bytearray(512)
    for p in permutations(range(4)):
        if p[0] > p[3]:
            continue  # each path once, read from its lower end
        edges = sum(1 << pairs.index(tuple(sorted(p[k:k + 2]))) for k in range(3))
        i, j = p[0], p[3]
        for ties in range(8):
            # degrees do not fall along the positions, so the end at i
            # has the smallest degree when ties join i to position 0,
            # and the end at j the second smallest when they join j to 1
            if all(ties >> k & 1 for k in range(i)) and all(ties >> k & 1 for k in range(1, j)):
                table[edges | ties << 6] = 1
    return bytes(table)


_PATH_OK = _path_table()


def _induced_path_ok(g: Graph, x) -> bool:
    """Whether the sorted 4-set x of the degree-sorted graph g induces a
    path whose endpoints carry the two smallest degrees of the set
    (compared as a multiset, so ties are accepted either way round).

    The set packs into 9 bits: its six induced edge bits in pair order
    ab, ac, ad, bc, bd, cd, then whether ab, bc and cd tie in degree."""
    a, b, c, d = x
    rows, degs = g.rows, g.degrees
    ra, rb = rows[a], rows[b]
    return _PATH_OK[
        (ra >> b & 1) | (ra >> c & 1) << 1 | (ra >> d & 1) << 2
        | (rb >> c & 1) << 3 | (rb >> d & 1) << 4 | (rows[c] >> d & 1) << 5
        | (degs[a] == degs[b]) << 6 | (degs[b] == degs[c]) << 7 | (degs[c] == degs[d]) << 8
    ] == 1


def _positions(data: bytes, value: int):
    """The positions of the bytes equal to value in data, in order."""
    pos = data.find(value)
    while pos >= 0:
        yield pos
        pos = data.find(value, pos + 1)


def _paired_gap_sets(degs):
    """The 4-sets with degrees (d, d, d+2, d+2) of a degree-sorted
    graph, in lexicographic order: vertices of a lower degree carry
    lower labels, so each set is pair + high, already sorted."""
    # sorted degrees repeat side by side, each over one run of labels
    twice = {d for d, e in zip(degs, degs[1:]) if d == e}

    def run(d):
        first = degs.index(d)
        return range(first, first + degs.count(d))

    found = []
    for d in sorted(twice):
        if d + 2 in twice:
            highs = list(combinations(run(d + 2), 2))
            found += [pair + high for pair in combinations(run(d), 2) for high in highs]
    return found


def _lemma_scan(graphs, oracle_mins):
    """The lemma suites' findings in each of graphs, one order, from
    their packed signatures.

    Each graph's degrees must not fall as its labels rise, as in every
    catalogue record; then a 5-set's median-degree vertex is its median
    position.  The order is at most 9, where the packing is exact;
    OrderOutOfRange otherwise.  oracle_mins holds each graph's minimum
    deletion size, None if no set of at most n - 3 deletions works.
    Each 3-set's verdict code is read from the memo, computed by
    _verdict on its signature's first sighting.  The codes of the whole
    run are then read set by set: byte lane i of each cover below
    belongs to graphs[i], a 4-set's cover is the OR of its four 3-sets'
    balanceable lanes, and a 5-set's the OR of the feasible lanes of its
    six 3-sets through the median.  Each graph's counts and low budgets
    are read from its own span of the codes, which alone is translated
    for that graph's oracle minimum.

    Returns, per graph, (budgeted, failures, low, paths, medians,
    paired): how many 3-sets have a budget of at most n - 3, and how
    many of those _equalize cannot equalize within it; the (s, budget)
    pairs among them whose budget lies below the oracle minimum; the
    4-sets no balanceable 3-set covers that fail the induced-path test;
    the 5-sets left uncovered; and the 4-sets with degrees
    (d, d, d+2, d+2) holding a balanceable 3-set.  Each list is in
    lexicographic order.
    """
    count = len(graphs)
    n = graphs[0].n
    tables = _tables(n)
    triples = tables.triples
    width = len(triples)
    memo = _VERDICTS.setdefault(n, {})
    codes = []
    for g in graphs:
        keys = _signatures(g)
        try:
            codes.append(bytes(map(memo.__getitem__, keys)))
        except KeyError:
            for s, key in zip(triples, keys):
                if key not in memo:
                    memo[key] = _verdict(g, s)
            codes.append(bytes(map(memo.__getitem__, keys)))
    codes = b"".join(codes)

    # one int per 3-set, byte lane i holding graphs[i]'s flag
    flags = codes.translate(_IS_BALANCEABLE)
    bal = [int.from_bytes(flags[t::width], "little") for t in range(width)]
    flags = codes.translate(_IS_FEASIBLE)
    feas = [int.from_bytes(flags[t::width], "little") for t in range(width)]
    cover4 = b"".join(
        (bal[a] | bal[b] | bal[c] | bal[d]).to_bytes(count, "little")
        for a, b, c, d in tables.four_triples
    )
    cover5 = b"".join(
        (feas[a] | feas[b] | feas[c] | feas[d] | feas[e] | feas[f]).to_bytes(count, "little")
        for a, b, c, d, e, f in tables.five_triples
    )
    uncovered = [[] for _ in graphs]
    for pos in _positions(cover4, 0):
        uncovered[pos % count].append(tables.fours[pos // count])
    medians = [[] for _ in graphs]
    for pos in _positions(cover5, 0):
        medians[pos % count].append(tables.fives[pos // count])

    budgeted = codes.translate(_IS_BUDGETED)
    unequalizable = codes.translate(_IS_UNEQUALIZABLE)
    gaps = {}  # each degree sequence's paired-gap sets, with their cover offsets
    out = []
    for i, (g, oracle_min) in enumerate(zip(graphs, oracle_mins)):
        start, stop = i * width, (i + 1) * width
        # with no minimum found, every budget (at most 6) counts as below
        # it; no budget lies below 0
        limit = 8 if oracle_min is None else oracle_min
        low = []
        if limit:
            span = codes[start:stop]
            low = [(triples[pos], span[pos] >> 4)
                   for pos in _positions(span.translate(_budget_below(limit)), 1)]
        degs = g.degrees
        if degs not in gaps:
            gaps[degs] = [(x, tables.four_index[x] * count) for x in _paired_gap_sets(degs)]
        out.append((
            budgeted.count(1, start, stop),
            unequalizable.count(1, start, stop),
            low,
            [x for x in uncovered[i] if not _induced_path_ok(g, x)],
            medians[i],
            [x for x, offset in gaps[degs] if cover4[offset + i]],
        ))
    return out
