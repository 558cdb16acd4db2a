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
and so are valid by construction, calls the cores directly, through
_verdict.

The lemma suites ask the same of every 3-set: whether it is feasible
and balanceable, its budget when that is at most n - 3, and whether
_equalize finds a set within that budget.  The answers depend only on
the order and the triple's signature (its edge pattern and how many
other vertices lie in each of the eight adjacency regions around it),
so _verdict runs _classify and _equalize on the first triple of each
signature and the memo _VERDICTS, one dict per order, hands its answer
as a one-byte code to every later triple, in any graph, that shares
it.  Through order 8 the 731,424 triples have 2,946 signatures.

One private entry point, _lemma_scan, is the lemma suites' span kernel:
it reads a span of graph6 records of one order, as _map cuts them, in
runs of at most _SCAN_RUN records, each record in its own labels, which
must be sorted by degree, as every catalogue record's are, so that a
5-set's median-degree vertex is its median position.  A run is read
bit-sliced (Biham, "A fast new DES implementation in software", FSE
1997), with one byte lane per record, as harness._identity_worker
reads its spans: graphcore._lanes gives one edge lane per vertex pair
from the triangle bits, with a strided slice and a translate, and the
degree lanes as their sums; no graph is decoded but to raise, to fill
the memo, or for the oracle.  One borrow test per pair of neighbouring
degree lanes checks that no record's degrees fall.  Every 3-set's packed signature
is assembled from ORs of edge, degree and common-count lanes, one key
byte at a time, and the run's keys, laid out triple-major, are read
with one memoryview cast and looked up in the memo with one map, so
past a signature's first sighting no Python code runs per 3-set.  Translates of the codes give per-3-set flag lanes, each a
contiguous slice, and the budgeted and unequalizable counts of every
record are sums of lanes.  A 4-set is covered where any of its four
3-sets is balanceable, and a 5-set where any of its six 3-sets through
its median position is feasible: one OR per set, of the lanes of the
3-sets that _tables lists for it, answers it for every record of the
run.  A 4-set's induced-path test is bit-sliced too: its edge bits and
degree ties form one byte lane, translated through both halves of the
512-entry table _PATH_OK at once, and its cd tie lane picks the half.
Tie lanes and "differs by 2" lanes also find the paired-gap 4-sets.
bytes.find walks only the zero bytes of the covers, uncovered 5-sets
and uncovered 4-sets that fail the path test, which are the findings.
A record with a degree held three times needs no deletion; only the
others go to the oracle, and only their low budgets are read.
"""

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import MalformedRecord, NotATriple, NotFeasible, OrderOutOfRange, VertexOutOfRange
from .graphcore import Graph, _decode, _lanes, _shape


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


# A 3-set (a, b, c)'s signature packs into one 32-bit key, low bit
# first: the edge bits ab, ac and bc, then 4-bit fields from bits 3, 7
# and 11 for the degrees of a, b and c, and from bits 15, 19, 23 and 27
# for the common-neighbour counts of ab, ac, bc and abc.  Through
# order 9 a degree is at most 8 and a common count at most 7, so no
# field carries into the next.  The scan assembles each key a byte at a
# time, one byte lane per record:
#   byte 0: ab | ac << 1 | bc << 2 | d(a) << 3 | (d(b) & 1) << 7
#   byte 1: d(b) >> 1 | d(c) << 3 | (c(ab) & 1) << 7
#   byte 2: c(ab) >> 1 | c(ac) << 3 | (c(bc) & 1) << 7
#   byte 3: c(bc) >> 1 | c(abc) << 3
_MAX_PACKED = 9

_SCAN_RUN = 512  # records the lemma scan reads together at most


class ScanTables(NamedTuple):
    """The sets _lemma_scan reads at order n.  The 3-sets, 4-sets and
    5-sets of range(n) are in combinations order, and pairs in triangle
    bit order, column by column, as graphcore._lanes reads them.
    four_triples and five_triples hold, for each 4-set and 5-set, the
    indices of the 3-sets that cover it."""

    pairs: tuple
    triples: tuple
    fours: tuple
    fives: tuple
    four_triples: tuple  # each 4-set's four 3-sets, (a, b, c) first
    five_triples: tuple  # each 5-set's six 3-sets holding its median position


@cache
def _tables(n: int) -> ScanTables:
    if n > _MAX_PACKED:
        raise OrderOutOfRange(f"lemma scan packs orders up to {_MAX_PACKED}, got {n}")
    triples = tuple(combinations(range(n), 3))
    index = {t: i for i, t in enumerate(triples)}
    fours = tuple(combinations(range(n), 4))
    fives = tuple(combinations(range(n), 5))
    return ScanTables(
        tuple((i, j) for j in range(n) for i in range(j)),
        triples,
        fours,
        fives,
        tuple(tuple(map(index.__getitem__, combinations(x, 3))) for x in fours),
        tuple(
            tuple(index[t] for t in combinations(u, 3) if u[2] in t) for u in fives
        ),
    )


def _path_table() -> bytes:
    """1 at each index whose six edge bits, in pair order ab, ac, ad,
    bc, bd, cd of a sorted 4-set, form a path with its ends at the set's
    two smallest degrees, where bits 6, 7 and 8 say whether ab, bc and
    cd tie in degree."""
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

# translate tables of a difference of two sorted degrees: 1 where it is
# 0, a tie, and where it is 2
_IS_TIE = b"\1" + bytes(255)
_IS_TWO = bytes(2) + b"\1" + bytes(253)


def _positions(data: bytes, value: int):
    """The positions of the bytes equal to value in data, in order."""
    pos = data.find(value)
    while pos >= 0:
        yield pos
        pos = data.find(value, pos + 1)


def _lemma_scan(span, oracle):
    """The lemma suites' findings in each record of span, graph6 records
    of one order n joined, in each record's own labels.

    span is checked once by graphcore._shape, then read in runs of at
    most _SCAN_RUN records.  The first record whose degrees fall as its
    labels rise raises MalformedRecord; past that check, an order above
    9, where the packing ends, raises OrderOutOfRange.  oracle(g, n - 3)
    is min_deletion_for_rep3, asked only about the graphs with no degree
    held three times: the others need no deletion.

    Returns (results, findings).  results holds, per record, (n,
    budgeted, paired, failures, ()): how many 3-sets have a budget of
    at most n - 3, how many 4-sets with degrees (d, d, d+2, d+2) hold a
    balanceable 3-set, and how many budgeted 3-sets _equalize cannot
    equalize within their budget.  findings lists, in record order, (i,
    record, oracle minimum, paths, gaps, medians, low) for each record
    i with anything to report: the 4-sets no balanceable 3-set covers
    that fail the induced-path test; the paired-gap 4-sets above, when
    the oracle minimum is None (no set of at most n - 3 deletions) or
    above the allowance min(3, n - 3); the 5-sets with no feasible
    3-set through their median; and the (s, budget) pairs of budgeted
    3-sets whose budget lies below the oracle minimum.  Each list is in
    lexicographic order.
    """
    n, width = _shape(span)
    step = _SCAN_RUN * width
    results, findings = [], []
    for start in range(0, len(span), step):
        _scan_run(span[start:start + step], n, width, oracle, results, findings)
    return results, findings


def _codes(run, n, width, adj, degs):
    """The verdict codes of the 3-sets of run, records of order n each
    width bytes long, triple-major: code t * count + i is 3-set t's in
    record i.  adj[u][v] is the edge lane of the pair (u, v) and degs[v]
    the degree lane of v.  Each byte of a 3-set's packed signature is
    one byte lane, laid out as above; the common count of (a, b, c)
    sums c's edge lanes ANDed with a's and b's common neighbours' lanes.
    The run's keys are read with one cast and looked up with one map;
    on a memo miss, the graph that first shows the key fills it."""
    count = len(run) // width
    triples = _tables(n).triples
    ones = int.from_bytes(b"\1" * count, "little")
    low7 = ones * 0x7F
    meet, common = {}, [[0] * n for _ in range(n)]
    for u, v in _tables(n).pairs:
        meet[u, v] = [x & y for x, y in zip(adj[u], adj[v])]
        common[u][v] = sum(meet[u, v])
    odd = [[(c & ones) << 7 for c in row] for row in common]
    half = [[c >> 1 & low7 for c in row] for row in common]
    packed = bytearray(4 * len(triples) * count)
    for k, byte in enumerate((
        lambda a, b, c: adj[a][b] | adj[a][c] << 1 | adj[b][c] << 2 | degs[a] << 3 | (degs[b] & ones) << 7,
        lambda a, b, c: degs[b] >> 1 & low7 | degs[c] << 3 | odd[a][b],
        lambda a, b, c: half[a][b] | common[a][c] << 3 | odd[b][c],
        lambda a, b, c: half[b][c] | sum(map(int.__and__, meet[a, b], adj[c])) << 3,
    )):
        packed[k::4] = b"".join(byte(*t).to_bytes(count, "little") for t in triples)
    keys = memoryview(packed).cast("I")
    memo = _VERDICTS.setdefault(n, {})
    try:
        return bytes(map(memo.__getitem__, keys))
    except KeyError:
        for pos, key in enumerate(keys):
            if key not in memo:
                t, i = divmod(pos, count)
                memo[key] = _verdict(_decode(run[i * width:(i + 1) * width], n), triples[t])
        return bytes(map(memo.__getitem__, keys))


def _scan_run(run, n, width, oracle, results, findings):
    """Extend results and findings, as _lemma_scan lays them out, by the
    records of run, each width bytes long, of order n.

    A lane is an int with one byte per record, read little-endian.
    Degrees do not fall where (d(v + 1) | 0x80) - d(v) keeps bit 7 of
    each byte.  Sorted degrees make each d(v) - d(u), u < v, a lane with
    no borrow, which one translate turns into a tie lane or a "differs
    by 2" lane.  The run's keys and codes are triple-major: 3-set t's
    codes are codes[t * count:(t + 1) * count].  No lane sum exceeds
    126 per byte, so none carries.
    """
    count = len(run) // width

    def record(i):
        return bytes(run[i * width:(i + 1) * width])

    edges, degs = _lanes(run, n, width)
    ones = int.from_bytes(b"\1" * count, "little")
    high = ones << 7
    rising = high
    for lo, hi in zip(degs, degs[1:]):
        rising &= (hi | high) - lo
    if rising & high != high:
        fall = high & ~rising
        rec = record(((fall & -fall).bit_length() - 1) // 8)  # the first to fall
        raise MalformedRecord(
            f"{rec.decode('ascii')}: degrees {_decode(rec, n).degrees} fall, as in no catalogue record"
        )
    tables = _tables(n)
    triples = tables.triples
    size = len(triples)

    adj = [[0] * n for _ in range(n)]
    for (u, v), lane in zip(tables.pairs, edges):
        adj[u][v] = adj[v][u] = lane
    tie, two = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for u, v in tables.pairs:
        gap = (degs[v] - degs[u]).to_bytes(count, "little")
        tie[u][v] = int.from_bytes(gap.translate(_IS_TIE), "little")
        two[u][v] = int.from_bytes(gap.translate(_IS_TWO), "little")

    codes = _codes(run, n, width, adj, degs)

    def flag_lanes(table):
        flags = codes.translate(table)
        return [int.from_bytes(flags[t * count:(t + 1) * count], "little") for t in range(size)]

    bal = flag_lanes(_IS_BALANCEABLE)
    feas = flag_lanes(_IS_FEASIBLE)
    cover4 = [bal[a] | bal[b] | bal[c] | bal[d] for a, b, c, d in tables.four_triples]
    # a 4-set's path lane packs its edge bits and its ab and bc ties as
    # _PATH_OK indexes them; translated through both halves at once, it
    # answers in bit 0 without a cd tie and in bit 1 with one, and a
    # zero byte of its cover ORed with that answer is a finding
    both = bytes(x | y << 1 for x, y in zip(_PATH_OK[:256], _PATH_OK[256:]))
    paths = []
    for cover, (a, b, c, d) in zip(cover4, tables.fours):
        index = (adj[a][b] | adj[a][c] << 1 | adj[a][d] << 2 | adj[b][c] << 3 | adj[b][d] << 4
                 | adj[c][d] << 5 | tie[a][b] << 6 | tie[b][c] << 7)
        answer = int.from_bytes(index.to_bytes(count, "little").translate(both), "little")
        paths.append((cover | answer & (ones + tie[c][d])).to_bytes(count, "little"))
    paths = b"".join(paths)
    medians = b"".join(
        (feas[a] | feas[b] | feas[c] | feas[d] | feas[e] | feas[f]).to_bytes(count, "little")
        for a, b, c, d, e, f in tables.five_triples
    )
    paired = [
        cover & tie[a][b] & two[b][c] & tie[c][d]
        for cover, (a, b, c, d) in zip(cover4, tables.fours)
    ]

    found = {}  # record index: its paths, gaps, medians and low lists
    for pos in _positions(paths, 0):
        found.setdefault(pos % count, ([], [], [], []))[0].append(tables.fours[pos // count])
    for pos in _positions(medians, 0):
        found.setdefault(pos % count, ([], [], [], []))[2].append(tables.fives[pos // count])
    minima = {}  # record index: oracle minimum, for the records the oracle sees
    if n >= 3:  # below order 3 there is no 3-set to report
        # sorted degrees hold a degree three times where d(v) ties d(v + 2)
        thrice = 0
        for v in range(n - 2):
            thrice |= tie[v][v + 2]
        for i in _positions(thrice.to_bytes(count, "little"), 0):
            cert = oracle(_decode(record(i), n), n - 3)
            minima[i] = None if cert is None else len(cert.deleted)
    cap = min(3, n - 3)
    for i, oracle_min in minima.items():
        gaps = low = ()
        if oracle_min is None or oracle_min > cap:
            gaps = [x for x, lane in zip(tables.fours, paired) if lane >> 8 * i & 1]
        # with no minimum found, every budget (at most 6) counts as below it
        limit = 8 if oracle_min is None else oracle_min
        if limit:
            below = codes[i::count].translate(_budget_below(limit))
            low = [(triples[t], codes[t * count + i] >> 4) for t in _positions(below, 1)]
        if gaps or low:
            entry = found.setdefault(i, ([], [], [], []))
            entry[1].extend(gaps)
            entry[3].extend(low)
    base = len(results)
    results += zip(
        [n] * count,
        sum(flag_lanes(_IS_BUDGETED)).to_bytes(count, "little"),
        sum(paired).to_bytes(count, "little"),
        sum(flag_lanes(_IS_UNEQUALIZABLE)).to_bytes(count, "little"),
        [()] * count,
    )
    for i in sorted(found):
        findings.append((base + i, record(i), minima.get(i, 0), *found[i]))
