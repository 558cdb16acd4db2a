"""Non-isomorphic small-graph generation and canonical forms.

_canonical_search returns the graph6 record of a canonical relabeling:
the lexicographically least upper-triangle bit string over all vertex
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

The search carries its state down one recursive function, and the
first cut is a partition refinement on vertex masks.  A shared stack
holds the complemented row of each placed vertex, in placement order.
At each position the call starts from the unplaced vertices of the
position's degree and, placed vertex by placed vertex, keeps those not
adjacent to it when any are (a 0 bit) and all of them otherwise (a 1
bit): one AND per placed vertex leaves exactly the candidates whose
bits toward the prefix are least, and spells those bits.  No per-vertex
bit list is built at any node.  The best string so far is one integer,
whose prefix after k placed vertices is a right shift of it.

The same search also yields the last orbit: the vertices that sit last
in some optimal ordering.  Two optimal orderings spell the same string,
so one maps onto the other by an automorphism; the last vertices of all
optimal orderings are therefore exactly one orbit of Aut(g).  Leaves
hidden by the twin cut are images of visited ones under the skipped
twin transposition, so the visited last vertices closed under those
transpositions give the whole orbit.

catalogue_records builds order n by canonical vertex augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998)
over the memoised order n-1 catalogue, which K1 seeds.  A child is a
parent P plus a new vertex v = n-1 joined to a subset S, and it is
accepted only if v lies in its last orbit.  Every class G arises this
way from exactly one parent class, namely G minus any last-orbit vertex
(one orbit, so one class).
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

Since each class has exactly one parent class and duplicates only
arise among one parent's children, the parents of an order are
independent shards, as in the res/mod splitting of nauty's geng:
_fill maps the per-parent worker _children over the order n-1 records
with the map it is given, unordered, folds each parent's children in
as they finish and needs no state shared between shards.  The stream
of each order is then sorted by (edge count, record), so its bytes do
not depend on jobs, on the shard each parent went to or on the order
in which shards finish.  _pool opens that map once per public call, so
one worker pool, of at most one worker per core, serves every order the
call generates and the sweep after them.
Both map their workers through _guarded, so a crash in generation or in
a sweep is a WorkerCrash that names the record it failed on.

read_graph6_records turns the byte lines of a graph6 file, as iterating
the open binary file gives them, into validated record bytes without
building a graph.
"""

import os
from contextlib import contextmanager
from functools import partial
from itertools import combinations
from multiprocessing import get_context

from .errors import IncompleteCatalogue, MalformedRecord, OrderTooLarge, Rep3Error
from .errors import UnsupportedOrder, WorkerCrash
from .graphcore import _HEADER, Graph, _check, _pack, parse_graph6

MAX_CANON = 10
MAX_ENUM = 9
# OEIS A000088: the number of graphs on n unlabeled vertices, n = 0..9
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


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

    total = n * (n - 1) // 2
    # the code of the first k placed vertices is the full code >> shift[k]
    shift = [total - k * (k - 1) // 2 for k in range(n + 1)]
    best = 1 << total  # the best code so far; above every code at first
    last = 0  # last vertices of the optimal orderings visited so far
    twins = set()  # skipped twin pairs as masks; each swap is in Aut(g)

    prefix = []  # ~row of each placed vertex, in placement order

    def dfs(level, code, used):
        nonlocal best, last
        # refine the pool to the candidates whose bits toward the prefix,
        # first placed first, are least, and append those bits to code
        cm = poolmask[position_degree[level]] & ~used
        for r in prefix:
            code <<= 1
            c = cm & r
            if c:
                cm = c
            else:
                code |= 1
        if code > best >> shift[level + 1]:
            return
        if level == n - 1:
            # a full ordering, ended by the one vertex left in cm
            if code < best:
                best = code
                last = 0
            last |= cm
            return
        kept = []
        t = cm
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            merged = rows[v] | low
            for u in kept:
                bu = 1 << u
                if (rows[u] | bu | low) == (merged | bu):
                    twins.add(bu | low)
                    break
            else:
                kept.append(v)
                prefix.append(~rows[v])
                dfs(level + 1, code, used | low)
                prefix.pop()

    dfs(0, 0, 0)
    del dfs  # dfs is its own closure cycle; free it now, not at gc

    grown = True
    while grown:
        grown = False
        for pair in twins:
            if last & pair and last & pair != pair:
                last |= pair
                grown = True

    # the full code is the upper triangle, column by column
    return _pack(n, best), last


_catalogue = {1: (b"@",)}  # n -> canonical records in stream order; K1 seeds it


@contextmanager
def _pool(jobs):
    """A map, imap(worker, records, ordered=True), for one public call.

    jobs None means os.cpu_count(), and no more workers start than there
    are cores; jobs 1 maps in this process and starts none.  Otherwise
    one worker pool serves every imap call inside the context.  Results
    are yielded as they arrive, for callers to fold, not kept: in input
    order, or with ordered=False in the order they finish, in chunks of
    32 records, so a slow chunk holds back no finished one and no one
    result message is large.
    """
    cores = os.cpu_count() or 1
    jobs = min(max(1, int(cores if jobs is None else jobs)), cores)
    if jobs < 2:
        yield lambda worker, records, ordered=True: map(worker, records)
        return
    # fork keeps the imported module state
    with get_context("fork").Pool(jobs) as pool:

        def imap(worker, records, ordered=True):
            if ordered:
                chunk = max(1, len(records) // (jobs * 4))
                return pool.imap(worker, records, chunksize=chunk)
            # small chunks, so one result message stays small too
            return pool.imap_unordered(worker, records, chunksize=32)

        yield imap


def _guarded(worker, rec):
    """worker(rec), with any error but a Rep3Error raised again as a
    WorkerCrash that names the record; module level, so it pickles."""
    try:
        return worker(rec)
    except Rep3Error:
        raise
    except Exception as exc:
        name = rec.decode("ascii", "replace")
        raise WorkerCrash(f"{name}: {worker.__name__} raised {exc!r}") from exc


def catalogue_records(n: int) -> tuple:
    """The canonical graph6 record of every class of order n, 1 <= n <= 9.

    Sorted by (edge count, record) and memoised together with every
    lower order, so callers that only pass records on (to a worker pool,
    to a file) need not parse and re-encode them.  Orders not yet
    memoised are generated over one worker per core; a memoised order
    starts no process.
    """
    if not 1 <= n <= MAX_ENUM:
        raise OrderTooLarge(f"enumeration supports orders 1..{MAX_ENUM}, got {n}")
    with _pool(1 if n in _catalogue else None) as imap:
        return _fill(n, imap)


def _fill(n, imap):
    """catalogue_records(n), generating each order up to n that is not
    memoised yet with the map imap of _pool, unordered: each order is
    sorted, so its parents' children are folded as they finish.  A
    generated order whose class count is not A000088's raises
    IncompleteCatalogue and is not memoised; a parent whose extension
    fails with anything but a Rep3Error raises WorkerCrash naming that
    parent."""
    if n not in _catalogue:
        levels = [[] for _ in range(n * (n - 1) // 2 + 1)]  # records by edge count
        parents = _fill(n - 1, imap)
        for children in imap(partial(_guarded, _children), parents, ordered=False):
            for edges, forms in children:
                levels[edges] += forms
        records = tuple(form for level in levels for form in sorted(level))
        if len(records) != A000088[n]:
            raise IncompleteCatalogue(
                f"order {n}: generated {len(records)} classes, A000088 counts {A000088[n]}"
            )
        _catalogue[n] = records
    return _catalogue[n]


def _children(rec):
    """The accepted children of one parent class, each once, as
    (edge count, canonical records) pairs, one per edge count."""
    parent = parse_graph6(rec)
    n = parent.n + 1
    top = 1 << (n - 1)
    rows = parent.rows
    degs = parent.degrees
    edges = parent.edge_count()
    seen = set()  # isomorphic children of one parent only
    out = []
    links = []  # (u, w) masks, u the previous twin of w in P
    for w in range(1, n - 1):
        for u in range(w - 1, -1, -1):
            if rows[u] & ~(1 << w) == rows[w] & ~(1 << u):
                links.append((1 << u, 1 << w))
                break
    for k in range(max(degs), n):
        pool = [u for u in range(n - 1) if degs[u] < k]
        forms = []
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
                forms.append(form)
        out.append((edges + k, forms))
    return out


def enumerate_graphs(n: int):
    """One representative per isomorphism class of order n, 1 <= n <= 9.

    Yields the graphs of catalogue_records(n), parsed in stream order,
    so the sequence is canonically labeled and identical across calls.
    """
    for form in catalogue_records(n):
        yield parse_graph6(form)


def read_graph6_records(lines):
    """The graph6 records of an iterable of byte lines, as bytes, in
    line order.

    lines is what iterating a binary file gives: each line ends at
    b"\n", so a lone b"\r" stays inside its line.  Blank lines and a
    leading ">>graph6<<" header are tolerated; anything else malformed,
    non-ASCII bytes and multi-byte orders included, is a MalformedRecord
    naming its 1-based line.  A record is the line's own bytes without
    the header and surrounding whitespace, checked by graphcore._check
    as strictly as parse_graph6 checks it, but not decoded.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip().removeprefix(_HEADER)
        if not line:
            continue
        if not line.isascii():
            raise MalformedRecord("non-ascii record", line=lineno)
        # parse_graph6 drops one more header of its own
        rec = line.removeprefix(_HEADER)
        try:
            _check(rec)
        except (MalformedRecord, UnsupportedOrder) as exc:
            raise MalformedRecord(str(exc), line=lineno) from None
        yield rec
