"""Non-isomorphic small-graph generation and canonical forms.

canonical_form returns the graph6 record of a canonical relabeling: the
lexicographically least upper-triangle bit string over all vertex
orderings sorted by ascending degree.  Restricting to degree-sorted
orderings is safe (the degree multiset is preserved by isomorphism, so
the restricted ordering class is mapped onto itself) and prunes most of
the n! space; the remaining ties are resolved by depth-first search
with three cuts:

  * at each position only candidates whose adjacency bits to the placed
    prefix are minimal can start a minimal completion, because those
    bits occupy the same positions of the final string;
  * candidates that agree on their whole neighborhood outside the pair
    (interchangeable twins) yield identical subtrees, so only the first
    is expanded;
  * a prefix that compares worse than the best full string found so far
    is abandoned.

The same search also yields the last orbit: the vertices that sit last
in some optimal ordering.  Two optimal orderings spell the same string,
so one maps onto the other by an automorphism; the last vertices of all
optimal orderings are therefore exactly one orbit of Aut(g).  Leaves
hidden by the twin cut are images of visited ones under the skipped
twin transposition, so the visited last vertices closed under those
transpositions give the whole orbit.

enumerate_graphs builds order n by canonical vertex augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998) over the
memoised order n-1 catalogue.  A child is a parent P plus a new vertex
v = n-1 joined to a subset S, and it is accepted only if v lies in its
last orbit.  Every class G arises this way from exactly one parent
class, namely G minus any last-orbit vertex (one orbit, so one class).
Two accepted children of the same parent that are isomorphic are
related by an isomorphism fixing v (compose with an automorphism moving
one last-orbit vertex onto the other), i.e. by an automorphism of P
carrying one S onto the other; so duplicates only arise among one
parent's children, and a per-parent set of records removes them.  No
level-wide seen-set exists.

Because degree-sorted orderings end on a vertex of maximum degree, v
can only be last if |S| = k >= max degree of P and every member of S
has parent degree below k; only those subsets are generated.  Twins of
P (vertices with equal neighborhoods outside their pair, an equivalence
relation) are swapped by an automorphism of P, which, fixing v, maps
the child for S onto the child for the swapped S.  So S is also
required to meet each twin class in a prefix of its members; the
subsets skipped that way only repeat children.

The stream of each order is sorted by (edge count, record), so it is
deterministic and independent of generation order.
"""

from itertools import combinations

from .errors import MalformedRecord, OrderTooLarge
from .graphcore import _HEADER, Graph, _pack, parse_graph6

MAX_CANON = 10
MAX_ENUM = 9


def canonical_form(g: Graph) -> bytes:
    return _canonical_search(g)[0]


def _canonical_search(g: Graph):
    """(canonical record, last orbit as a vertex mask) from one search."""
    if g.n > MAX_CANON:
        raise OrderTooLarge(f"canonical form capped at order {MAX_CANON}")
    n = g.n
    rows = g.rows
    degs = g.degrees
    position_degree = sorted(degs)

    poolmask = {}
    for v, d in enumerate(degs):
        poolmask[d] = poolmask.get(d, 0) | (1 << v)

    full = (1 << n) - 1
    acc = [0] * n  # adjacency bits of each vertex toward the placed prefix
    cur = [0] * n
    best = [None]  # code prefix per level of the best ordering so far
    last = 0  # last vertices of the optimal orderings visited so far
    twins = set()  # skipped twin pairs as masks; each swap is in Aut(g)

    def record():
        pref = [0] * (n + 1)
        code = 0
        for lvl in range(n):
            code = (code << lvl) | cur[lvl]
            pref[lvl + 1] = code
        best[0] = pref

    def descend(level, child, v, used):
        rest = full & ~used & ~(1 << v)
        rv = rows[v]
        t = rest
        while t:
            low = t & -t
            w = low.bit_length() - 1
            acc[w] = (acc[w] << 1) | ((rv >> w) & 1)
            t ^= low
        dfs(level + 1, child, used | (1 << v))
        t = rest
        while t:
            low = t & -t
            acc[low.bit_length() - 1] >>= 1
            t ^= low

    def dfs(level, code, used):
        nonlocal last
        cm = poolmask[position_degree[level]] & ~used
        bp = best[0]
        if cm & (cm - 1) == 0:
            v = cm.bit_length() - 1
            m = acc[v]
            child = (code << level) | m
            if bp is not None and child > bp[level + 1]:
                return
            cur[level] = m
            if level == n - 1:
                # a full ordering, ended by the one vertex left in cm
                if bp is None or child < bp[n]:
                    record()
                    last = 0
                last |= cm
                return
            descend(level, child, v, used)
            return
        m = -1
        t = cm
        while t:
            low = t & -t
            a = acc[low.bit_length() - 1]
            if m < 0 or a < m:
                m = a
            t ^= low
        child = (code << level) | m
        if bp is not None and child > bp[level + 1]:
            return
        cur[level] = m
        kept = []
        t = cm
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            if acc[v] != m:
                continue
            merged = rows[v] | low
            twin = False
            for u in kept:
                bu = 1 << u
                if (rows[u] | bu | low) == (merged | bu):
                    twins.add(bu | low)
                    twin = True
                    break
            if not twin:
                kept.append(v)
        for v in kept:
            descend(level, child, v, used)

    dfs(0, 0, 0)
    del dfs, descend  # the nested functions form a cycle; free it now, not at gc

    grown = True
    while grown:
        grown = False
        for pair in twins:
            if last & pair and last & pair != pair:
                last |= pair
                grown = True

    # the full code is the upper triangle, column by column
    return _pack(n, best[0][n]), last


_catalogue = {}  # n -> tuple of canonical graph6 records in stream order


def catalogue_records(n: int) -> tuple:
    """The canonical graph6 record of every class of order n, 1 <= n <= 9.

    Sorted by (edge count, record) and memoised together with every
    lower order, so callers that only pass records on (to a worker pool,
    to a file) need not parse and re-encode them.
    """
    if not 1 <= n <= MAX_ENUM:
        raise OrderTooLarge(f"enumeration supports orders 1..{MAX_ENUM}, got {n}")
    if n not in _catalogue:
        _catalogue[n] = _generate(n)
    return _catalogue[n]


def _generate(n):
    if n == 1:
        return (canonical_form(Graph(1, (0,))),)
    top = 1 << (n - 1)
    levels = [[] for _ in range(n * (n - 1) // 2 + 1)]  # records by edge count
    for rec in catalogue_records(n - 1):
        parent = parse_graph6(rec)
        rows = parent.rows
        degs = parent.degrees
        edges = parent.edge_count()
        seen = set()  # isomorphic children of one parent only
        links = []  # (u, w) masks, u the previous twin of w in P
        for w in range(1, n - 1):
            for u in range(w - 1, -1, -1):
                if rows[u] & ~(1 << w) == rows[w] & ~(1 << u):
                    links.append((1 << u, 1 << w))
                    break
        for k in range(max(degs), n):
            pool = [u for u in range(n - 1) if degs[u] < k]
            for s in combinations(pool, k):
                mask = 0
                for u in s:
                    mask |= 1 << u
                if any(mask & b and not mask & a for a, b in links):
                    continue
                child = tuple(
                    r | top if (mask >> u) & 1 else r for u, r in enumerate(rows)
                )
                form, orbit = _canonical_search(Graph(n, child + (mask,)))
                if orbit & top and form not in seen:
                    seen.add(form)
                    levels[edges + k].append(form)
    return tuple(form for level in levels for form in sorted(level))


def enumerate_graphs(n: int):
    """One representative per isomorphism class of order n, 1 <= n <= 9.

    Yields the graphs of catalogue_records(n), parsed in stream order,
    so the sequence is canonically labeled and identical across calls.
    """
    for form in catalogue_records(n):
        yield parse_graph6(form)


def _byte_lines(source):
    # text is taken as UTF-8, which keeps every line break where it was
    # and leaves non-ASCII text on its own line, to be rejected there
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        return source.splitlines()
    return (
        line.encode("utf-8", "surrogatepass") if isinstance(line, str) else line
        for line in source
    )


def read_graph6_records(source):
    """(record, graph) pairs from newline-separated graph6 records, in
    file order.

    source may be bytes, str, or any iterable of lines (an open binary
    file works).  Blank lines and a leading ">>graph6<<" header are
    tolerated; anything else malformed, non-ASCII text included, is
    reported with its 1-based line number.  record is the line's own
    bytes without the header and surrounding whitespace; parsing is
    strict, so it equals write_graph6(graph).
    """
    for lineno, raw in enumerate(_byte_lines(source), start=1):
        line = raw.strip().removeprefix(_HEADER)
        if not line:
            continue
        if not line.isascii():
            raise MalformedRecord("non-ascii record", line=lineno)
        try:
            g = parse_graph6(line)
        except MalformedRecord as exc:
            raise MalformedRecord(str(exc), line=lineno) from None
        # parse_graph6 drops one more header of its own
        yield line.removeprefix(_HEADER), g
