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
the triple's signature (its edge pattern and how many other vertices
lie in each of the eight adjacency regions around it), so _verdict
runs _classify and _equalize on the first triple of each signature
and the memo _VERDICTS hands the answer to every later triple, in any
graph, that shares it.  Through order 8 the 731,424 triples have
2,946 signatures.

The 4-set and 5-set checks are bit masks over the sets' indices in
combinations order.  _cover_tables(n) holds, for each 3-set t, the mask
of the 4-sets that contain t and the mask of the 5-sets that contain t
and whose median position lies in t.  One private entry point,
_lemma_scan, owns these masks.  It reads a graph in its own labels,
which must be sorted by degree, as every catalogue record is, so that
a 5-set's median-degree vertex is its median position.  It walks the
3-sets once: each balanceable one ORs its 4-set mask into one cover
and each feasible one its 5-set mask into another.  Only the 4-sets
left uncovered reach the induced-path test, _induced_path_ok, and the
5-sets left uncovered are the violations.
"""

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import NotATriple, NotFeasible, VertexOutOfRange
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


class TripleVerdict(NamedTuple):
    """What the lemma suites ask of a 3-set."""

    condition: Optional[str]
    balanceable: bool
    budget: Optional[int]  # the allowance of a feasible set, if at most n - 3
    unequalizable: bool  # _equalize finds no set within that budget


# verdicts by signature, shared by every graph: a verdict is a pure
# function of its signature, so an entry never goes stale
_VERDICTS = {}


def _verdict(g: Graph, s3) -> TripleVerdict:
    tc = _classify(g, s3)
    b = budget(tc) if tc.feasible else None
    if b is None or b > g.n - 3:
        return TripleVerdict(tc.condition, tc.balanceable, None, False)
    return TripleVerdict(tc.condition, tc.balanceable, b, _equalize(g, s3, b) is None)


def _triple_signatures(g: Graph):
    """(s, signature) for every 3-set s = (a, b, c) of g, in
    lexicographic order.

    The signature is n, the three internal edge bits, the three degrees
    and the common-neighbour counts of ab, ac, bc and abc.  By
    inclusion-exclusion these fix, and are fixed by, the counts of the
    other vertices in each of the eight adjacency regions relative to
    the triple.  A deletion set changes the three degrees only through
    how many vertices it takes from each region, and every shape's
    neighbourhood clause asks whether some regions are all empty, so
    the signature decides _verdict.
    """
    n = g.n
    rows = g.rows
    degs = g.degrees
    for a in range(n - 2):
        ra = rows[a]
        for b in range(a + 1, n - 1):
            rb = rows[b]
            rab = ra & rb
            eab = (ra >> b) & 1
            cab = rab.bit_count()
            for c in range(b + 1, n):
                rc = rows[c]
                yield (a, b, c), (
                    n,
                    eab,
                    (ra >> c) & 1,
                    (rb >> c) & 1,
                    degs[a],
                    degs[b],
                    degs[c],
                    cab,
                    (ra & rc).bit_count(),
                    (rb & rc).bit_count(),
                    (rab & rc).bit_count(),
                )


class CoverTables(NamedTuple):
    """The 4-sets and 5-sets of range(n) in combinations order, and what
    the t-th 3-set in that order covers of them, as masks over their
    indices."""

    fours: tuple
    four_index: dict  # each 4-set to its index
    fives: tuple
    m4: tuple  # m4[t]: the 4-sets containing the 3-set
    m5: tuple  # m5[t]: the 5-sets containing it whose median position it holds


@cache
def _cover_tables(n: int) -> CoverTables:
    triples = [set(t) for t in combinations(range(n), 3)]
    fours = tuple(combinations(range(n), 4))
    fives = tuple(combinations(range(n), 5))
    return CoverTables(
        fours,
        {x: i for i, x in enumerate(fours)},
        fives,
        tuple(sum(1 << i for i, x in enumerate(fours) if t.issubset(x)) for t in triples),
        tuple(
            sum(1 << i for i, u in enumerate(fives) if u[2] in t and t.issubset(u))
            for t in triples
        ),
    )




def _induced_path_ok(g: Graph, x) -> bool:
    """Whether the sorted 4-set x of the degree-sorted graph g induces a
    path whose endpoints carry the two smallest degrees of the set
    (compared as a multiset, so ties are accepted either way round)."""
    inside = 0
    for v in x:
        inside |= 1 << v
    counts = [(g.rows[v] & inside).bit_count() for v in x]
    # 3 edges on 4 vertices with degree multiset (1,1,2,2) is a path
    if sorted(counts) != [1, 1, 2, 2]:
        return False
    # in g, degrees do not fall as labels rise
    degs = g.degrees
    ends = [degs[v] for v, k in zip(x, counts) if k == 1]
    return ends == [degs[x[0]], degs[x[1]]]


def _clear_bits(mask, sets):
    """The members of sets whose bit in mask is clear, in index order."""
    rest = ~mask & ((1 << len(sets)) - 1)
    while rest:
        low = rest & -rest
        yield sets[low.bit_length() - 1]
        rest ^= low


def _paired_gap_sets(degs):
    """The 4-sets with degrees (d, d, d+2, d+2) of a degree-sorted
    graph, in lexicographic order: vertices of a lower degree carry
    lower labels, so each set is pair + high, already sorted."""
    by_degree = {}
    for v, d in enumerate(degs):
        by_degree.setdefault(d, []).append(v)
    return [
        pair + high
        for d, low in by_degree.items()
        for pair in combinations(low, 2)
        for high in combinations(by_degree.get(d + 2, ()), 2)
    ]


def _lemma_scan(g: Graph, oracle_min):
    """The lemma suites' findings in g, from one pass over its 3-sets.

    g's degrees must not fall as its labels rise, as in every catalogue
    record; then a 5-set's median-degree vertex is its median position.
    oracle_min is g's minimum deletion size, None if no set of at most
    n - 3 deletions works.  Each 3-set's verdict is read from the
    signature memo, computed on its first sighting.  Each balanceable
    3-set ORs the mask of the 4-sets containing it into one cover and
    each feasible 3-set the mask of the 5-sets whose median it holds
    into another.

    Returns (budgeted, failures, low, paths, medians, paired): how many
    3-sets have a budget of at most n - 3, and how many of those
    _equalize cannot equalize within it; the (s, budget) pairs among
    them whose budget lies below oracle_min; the 4-sets no balanceable
    3-set covers that fail the induced-path test; the 5-sets left
    uncovered; and the 4-sets with degrees (d, d, d+2, d+2) holding a
    balanceable 3-set.  Each list is in lexicographic order.
    """
    tables = _cover_tables(g.n)
    memo = _VERDICTS
    cov4 = cov5 = budgeted = failures = 0
    low = []
    for m4, m5, (s, key) in zip(tables.m4, tables.m5, _triple_signatures(g)):
        v = memo.get(key)
        if v is None:
            v = memo[key] = _verdict(g, s)
        if v.condition is None:
            continue
        cov5 |= m5
        if v.balanceable:
            cov4 |= m4
        if v.budget is not None:
            budgeted += 1
            failures += v.unequalizable
            if oracle_min is None or oracle_min > v.budget:
                low.append((s, v.budget))
    return (
        budgeted,
        failures,
        low,
        [x for x in _clear_bits(cov4, tables.fours) if not _induced_path_ok(g, x)],
        list(_clear_bits(cov5, tables.fives)),
        [x for x in _paired_gap_sets(g.degrees) if cov4 >> tables.four_index[x] & 1],
    )
