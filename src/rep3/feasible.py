"""Three-vertex set classification and budgeted equalization.

A 3-set is examined under every labeling (x, y, z) of its vertices that
respects the degree sort d(x) <= d(y) <= d(z).  Eight shapes C1..C8 are
recognised.  C1 to C4 depend only on which of the three possible edges
are present (independent set, clique, lone edge xy, exactly the two
edges at x); C5 to C8 additionally require stated neighborhood
differences to be nonempty.  A set matching any shape admits a bounded
equalization: the deletion price is at most p + q + max(p, q), where
p and q are the upper and lower degree gaps of the sorted triple.

Degree ties make the labeling ambiguous, so a set satisfies a shape if
ANY degree-consistent labeling does.  Shapes are tried in the fixed
order C1..C8 and labelings in lexicographic vertex order, which makes
the reported (condition, labeling) pair reproducible.

classify_triple is the only classifier.  classify_triples(g) runs it
once over every 3-set of g; the 4-set and 5-set structure checks
(p4_structure, find_feasible_in_five) read that table rather than
classifying again, so a graph's triples are classified once however
many suites ask about them.
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
    out = sorted(set(vs))
    if len(out) != size:
        raise exc(f"need exactly {size} distinct vertices, got {vs!r}")
    if out[0] < 0 or out[-1] >= g.n:
        raise VertexOutOfRange(f"{out} outside 0..{g.n - 1}")
    return out


def _condition_holds(cond, rows, x, y, z):
    exy = (rows[x] >> y) & 1
    exz = (rows[x] >> z) & 1
    eyz = (rows[y] >> z) & 1
    if cond == 1:
        return not (exy or exz or eyz)
    if cond == 2:
        return exy and exz and eyz
    if cond == 3:
        return exy and not exz and not eyz
    if cond == 4:
        return exy and exz and not eyz
    if cond == 5:
        return (
            exz and not exy and not eyz and rows[y] & ~rows[z] != 0
        )
    if cond == 6:
        return (
            exy and eyz and not exz and rows[x] & ~(rows[y] | (1 << y)) != 0
        )
    if cond == 7:
        return (
            eyz
            and not exy
            and not exz
            and rows[x] & ~rows[y] != 0
            and rows[x] & ~rows[z] != 0
        )
    if cond == 8:
        closed_z = rows[z] | (1 << z)
        return (
            exz
            and eyz
            and not exy
            and rows[x] & ~closed_z != 0
            and rows[y] & ~closed_z != 0
        )
    raise AssertionError(cond)


def classify_triple(g: Graph, s) -> TripleClassification:
    """Match a 3-set against the eight shapes.

    Returns the first (condition, labeling) hit in the fixed scan order,
    or a classification with condition None when nothing matches.  The
    degree gaps p and q are reported either way.
    """
    s3 = _distinct_sorted(g, s, 3, NotATriple)
    degs = g.degrees
    t0, t1, t2 = sorted(s3, key=lambda v: (degs[v], v))
    p = degs[t2] - degs[t1]
    q = degs[t1] - degs[t0]
    labelings = [
        (x, y, z)
        for x, y, z in permutations(s3)
        if degs[x] <= degs[y] <= degs[z]
    ]
    rows = g.rows
    for cond in range(1, 9):
        for x, y, z in labelings:
            if _condition_holds(cond, rows, x, y, z):
                return TripleClassification(
                    f"C{cond}", (x, y, z), cond <= 4, cond >= 5, p, q
                )
    return TripleClassification(None, None, False, False, p, q)


def classify_triples(g: Graph) -> dict:
    """The triple table of g: classify_triple for every 3-set, keyed by
    the sorted vertex tuple."""
    return {s: classify_triple(g, s) for s in combinations(range(g.n), 3)}


def budget(tc: TripleClassification) -> int:
    """Deletion allowance p + q + max(p, q) of a classified set."""
    if tc.condition is None:
        raise NotFeasible("no budget for a set matching no shape")
    return tc.p + tc.q + max(tc.p, tc.q)


def equalize_triple(g: Graph, s, max_delete: int):
    """Smallest deletion set outside s making the three degrees equal.

    Searches sizes 0, 1, ... up to max_delete with lexicographic
    tie-break, so the result is the minimum and deterministic.  Returns
    None when no deletion set within the allowance works.  The effective
    allowance is capped at n - 3: the triple itself must survive.
    """
    s3 = _distinct_sorted(g, s, 3, NotATriple)
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


def find_feasible_in_five(g: Graph, u, table):
    """A feasible 3-subset of a 5-set through its median-degree vertex.

    Vertices are sorted by (degree, index); the scan walks 3-subsets of
    sorted positions in lexicographic order, restricted to those
    containing position 2, each looked up in g's triple table.  Failure
    raises NoFeasibleTriple, which the verification harness treats as a
    fatal finding: every 5-set is expected to contain such a triple.
    """
    u5 = _distinct_sorted(g, u, 5, WrongSetSize)
    degs = g.degrees
    order = sorted(u5, key=lambda v: (degs[v], v))
    for pos in combinations(range(5), 3):
        if 2 not in pos:
            continue
        triple = tuple(sorted(order[i] for i in pos))
        tc = table[triple]
        if tc.condition is not None:
            return triple, tc
    raise NoFeasibleTriple(
        f"no feasible triple through median vertex {order[2]} of {tuple(u5)}"
    )


class StructureVerdict(NamedTuple):
    kind: str  # "has_balanceable" | "induced_path_ok" | "violation"
    triple: Optional[tuple]


def p4_structure(g: Graph, x, table) -> StructureVerdict:
    """Structure verdict for a 4-set, reading g's triple table.

    If some 3-subset matches one of the edge-pattern shapes C1..C4, the
    verdict is has_balanceable with the first such subset.  Otherwise
    the induced subgraph must be a path whose endpoints carry the two
    smallest degrees of the set (compared as a multiset, so ties are
    accepted either way round); anything else is a violation.
    """
    x4 = _distinct_sorted(g, x, 4, WrongSetSize)
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
