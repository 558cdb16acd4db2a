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

Input is checked once, at the public boundary: classify_triple,
equalize_triple, find_feasible_in_five and p4_structure each validate
their vertex set and then call one private core that takes a sorted
tuple of distinct in-range vertices.  Internal callers whose sets are
valid by construction (the triple table and the verification harness,
which walk combinations(range(n), k)) call the cores directly.

The 4-set and 5-set structure checks and the lemma suites read one
per-graph table of every 3-set, _triple_verdicts(g).  It holds only
what they ask: whether the set is feasible and balanceable, its budget
when that is at most n - 3, and whether _equalize finds a set within
that budget.  These depend only on the triple's signature (its edge
pattern and how many other vertices lie in each of the eight
adjacency regions around it), so _triple_verdicts runs _classify and
_equalize on the first triple of each signature and reuses the answer
for every later triple, in any graph, that shares it.  Through order 8
the 731,424 triples have 2,946 signatures.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import (
    NoFeasibleTriple,
    NotATriple,
    NotFeasible,
    VertexOutOfRange,
    WrongSetSize,
)
from .graphcore import Graph


@dataclass(frozen=True)
class TripleClassification:
    condition: Optional[str]
    labeling: Optional[tuple]
    balanceable: bool
    accessible: bool
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


def _distinct_sorted(g: Graph, vs, size, exc):
    out = tuple(sorted(set(vs)))
    if len(out) != size:
        raise exc(f"need exactly {size} distinct vertices, got {vs!r}")
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
        return TripleClassification(None, None, False, False, hi - mid, mid - lo)
    return TripleClassification(
        f"C{best}", labeling, best <= 4, best >= 5, hi - mid, mid - lo
    )


def classify_triple(g: Graph, s) -> TripleClassification:
    """Match a 3-set against the eight shapes.

    Returns the smallest shape any degree-consistent labeling matches,
    with the first such labeling in lexicographic vertex order, or a
    classification with condition None when nothing matches.  The
    degree gaps p and q are reported either way.
    """
    return _classify(g, _distinct_sorted(g, s, 3, NotATriple))


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
    return _equalize(g, _distinct_sorted(g, s, 3, NotATriple), max_delete)


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


def _triple_verdicts(g: Graph) -> dict:
    """The verdict table of g: _verdict for every 3-set, keyed by the
    sorted vertex tuple, computed once per signature."""
    memo = _VERDICTS
    table = {}
    for s, key in _triple_signatures(g):
        v = memo.get(key)
        if v is None:
            v = memo[key] = _verdict(g, s)
        table[s] = v
    return table


def _median_triple(u5, table, keys):
    # keys[v] is (degree, index) of v: built once per graph by callers
    order = sorted(u5, key=keys.__getitem__)
    m = order.pop(2)
    # the remaining pairs in lexicographic position order, so the scan
    # walks 3-subsets of sorted positions through position 2 in order
    for a, b in combinations(order, 2):
        if a > b:
            a, b = b, a
        triple = (m, a, b) if m < a else (a, m, b) if m < b else (a, b, m)
        tc = table[triple]
        if tc.condition is not None:
            return triple, tc
    raise NoFeasibleTriple(
        f"no feasible triple through median vertex {m} of {tuple(u5)}"
    )


def find_feasible_in_five(g: Graph, u):
    """A feasible 3-subset of a 5-set through its median-degree vertex,
    with its verdict.

    Vertices are sorted by (degree, index); the scan walks 3-subsets of
    sorted positions in lexicographic order, restricted to those
    containing position 2, each looked up in _triple_verdicts(g).  Failure
    raises NoFeasibleTriple, which the verification harness treats as a
    fatal finding: every 5-set is expected to contain such a triple.
    """
    u5 = _distinct_sorted(g, u, 5, WrongSetSize)
    return _median_triple(u5, _triple_verdicts(g), list(zip(g.degrees, range(g.n))))


class StructureVerdict(NamedTuple):
    kind: str  # "has_balanceable" | "induced_path_ok" | "violation"
    triple: Optional[tuple]


def _p4(g: Graph, x4, table) -> StructureVerdict:
    for s in combinations(x4, 3):
        if table[s].balanceable:
            return StructureVerdict("has_balanceable", s)
    inside = {v: [w for w in x4 if w != v and g.has_edge(v, w)] for v in x4}
    counts = sorted(len(ns) for ns in inside.values())
    if counts != [1, 1, 2, 2]:
        return StructureVerdict("violation", None)
    # 3 edges on 4 vertices with degree multiset (1,1,2,2) is a path
    ends = [v for v in x4 if len(inside[v]) == 1]
    degs = sorted(g.degrees[v] for v in x4)
    if sorted(g.degrees[v] for v in ends) == degs[:2]:
        return StructureVerdict("induced_path_ok", None)
    return StructureVerdict("violation", None)


def p4_structure(g: Graph, x) -> StructureVerdict:
    """Structure verdict for a 4-set, reading _triple_verdicts(g).

    If some 3-subset matches one of the edge-pattern shapes C1..C4, the
    verdict is has_balanceable with the first such subset.  Otherwise
    the induced subgraph must be a path whose endpoints carry the two
    smallest degrees of the set (compared as a multiset, so ties are
    accepted either way round); anything else is a violation.
    """
    return _p4(g, _distinct_sorted(g, x, 4, WrongSetSize), _triple_verdicts(g))
