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

A full ordering is a leaf of that search.  A forced position, one
candidate left after refinement, is placed in the same call, with no
recursion; this visits the same nodes.

The same search also yields a last W-orbit.  W is a vertex mask that
Aut(g) maps onto itself (all vertices by default), and the last W-orbit
holds the vertices that sit last among W's in some optimal ordering.
Two optimal orderings spell the same string, so one maps onto the other
by an automorphism, which keeps W; W's positions are therefore the same
in every optimal ordering, and the vertices at the last of them form
exactly one orbit of Aut(g).  The search carries the last W-vertex
placed down each branch.  Leaves hidden by the twin cut are images of
visited ones under the skipped twin transposition, so the visited last
W-vertices closed under those transpositions give the whole orbit.

_fill builds order n by canonical vertex augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998)
over the memoised order n-1 catalogue, which K1 seeds.  A child is a
parent P plus a new vertex v = n-1 joined to a subset S.  Its W is an
invariant in the manner of nauty's geng (McKay & Piperno 2014): the
vertices of maximum degree whose neighbour-degree sum is largest.  A
child is accepted only if v lies in its last W-orbit.  That orbit is
one orbit of the child, so every class G arises this way from exactly
one parent class, namely G minus any vertex of the orbit.
Two accepted children of the same parent that are isomorphic are
related by an isomorphism fixing v (compose with an automorphism moving
one orbit vertex onto the other), i.e. by an automorphism of P carrying
one S onto the other; so duplicates only arise among one parent's
children, and a per-parent set of records removes them.  No level-wide
seen-set exists.

Because degree-sorted orderings end on a vertex of maximum degree, v
can only be in W if |S| = k >= max degree of P and every member of S
has parent degree below k; only those subsets are generated.  Twins of
P (vertices with equal neighborhoods outside their pair, an equivalence
relation) are swapped by an automorphism of P, which, fixing v, maps
the child for S onto the child for the swapped S.  So S is also
required to meet each twin class in a prefix of its members; the
subsets skipped that way only repeat children.  Each parent vertex's
neighbour-degree sum is taken once, so a child's sums cost one AND and
one popcount per vertex of degree k, and a child with v outside W is
rejected without a search.

Complement maps the classes with e edges one to one onto those with
total - e, total = n(n-1)/2.  So only children of at most total // 2
edges are generated, and the complement of each accepted child below
half, built by graphcore.complement from the child in hand, is searched
and returned at its own edge count.  Each class below half is accepted
once, hence so is each class above it.  _fill checks each order's class
count against A000088, then each edge count's records, distinct,
against Polya's count (OEIS A008406).

Since each class has exactly one parent class and duplicates only
arise among one parent's children, the parents of an order are
independent shards, as in the res/mod splitting of nauty's geng:
_fill maps the worker _children, which extends each parent of its chunk
with _extend, over the compact form of order n-1 with the map it is given,
folds each parent's children in parent order and needs no state shared
between shards.  The stream of each order is then sorted by (edge
count, record), so its bytes do not depend on jobs or on the shard each
parent went to.

The catalogue keeps each order in a compact form: one bytes holding
its records, which all have the same width at one order, joined in
stream order.  At order 9 that is 1.83 MiB, where one bytes object per
record took 10.5 MiB (sys.getsizeof summed).  Neither the fill nor a
sweep holds an order as one object per record: _extend returns each
edge count's records joined, _fill appends them to one bytearray per
edge count and splits one edge count at a time to sort it, and _map
maps over the compact forms themselves.  catalogue_lines and
enumerate_graphs read the compact form, the latter through
graphcore._records, as the fill's worker _children does.

_map is the one map, over compact forms, of every fill and sweep.  It
hands each worker call a whole chunk as it is cut: a span, one slice of
one order's compact form, which the worker reads itself, and maps to a
list of results, one per record, in order.  It reads the span all at
once or through graphcore._records, the one reader of a span's records,
which checks the span once and hands out (record, Graph) pairs, so no
worker parses or checks a record again.  The map yields those results
one by one, in record order.  Every map is cut into 16 chunks per
process, counted over all its records, and each order is cut on its
own, so no chunk spans two orders.  A map too small for 16 records per
process runs in this process, with the same chunk rule, and so does
every map at one job.  A larger map is sharded as geng shards by
res/mod: of jobs processes, at most one per core, this one is process 0
and the other jobs - 1 are children that _shared forks when the map
starts, and chunk i goes to process i % jobs.  A child inherits every
memoised order and memo as they stand, so nothing is sent to it: it
cuts the same chunks, works its own, and writes each result, pickled,
to its own pipe, which this process reads in chunk order between its
own chunks.  So a child runs ahead by at most its pipe's buffer and one
chunk, whether each result is one small tuple (a sweep) or a parent's
children (the fill).  _shared owns the children it forks: however the
map ends, run out, raising, or dropped unfinished, every child still
running is killed, and each is reaped and its pipe closed.  A worker
that takes a chunk can answer for all its records at once, as the lemma
scan and the identity kernel do.

_sweep is the one driver of harness's sweeps: it fills any catalogue
order the sweep needs and is not memoised yet, one map per order, then
maps the sweep's worker over the compact forms of their records, in
record order, and pairs each result with its record as it unpacks them.
It takes records in the compact form only, the catalogue's own or a
caller's (harness packs an input file's records so), so no sweep holds
its records as one object each.  _map runs every worker through
_guarded, so a crash in generation or in a sweep is a WorkerCrash that
names the record it failed on, at any jobs count: only when a span
fails with anything but a Rep3Error is it cut into records by the same
reader, each run again alone as a one-record span, to find the first
that fails alone.  A child that dies, as one the OOM killer ends,
shows as the end of its pipe, a WorkerCrash naming the first and last
records of the chunk it owed.
"""

import os
from contextlib import suppress
from functools import partial
from itertools import chain, combinations, islice
from math import factorial, gcd
from operator import eq
from struct import iter_unpack

from .errors import IncompleteCatalogue, OrderOutOfRange, Rep3Error, WorkerCrash
from .graphcore import Graph, _pack, _records, _width, complement

MAX_ENUM = 9
# OEIS A000088: the number of graphs on n unlabeled vertices, n = 0..9
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


# the code of the first k placed vertices of n is the full code >> _SHIFTS[n][k]
_SHIFTS = [
    [n * (n - 1) // 2 - k * (k - 1) // 2 for k in range(n + 1)] for n in range(MAX_ENUM + 1)
]


def _canonical_search(g: Graph, w=None):
    """(canonical record, last W-orbit as a vertex mask) from one search
    of g, whose order is at most MAX_ENUM.

    w is a vertex mask closed under Aut(g), all vertices by default; the
    last W-orbit holds the vertices that sit last among w's in some
    optimal ordering, which by default is the last orbit."""
    n = g.n
    rows = g.rows
    degs = g.degrees
    if w is None:
        w = (1 << n) - 1

    cellmask = {}
    for v, d in enumerate(degs):
        cellmask[d] = cellmask.get(d, 0) | (1 << v)
    # the vertices of the degree each position takes, in position order
    cells = [cellmask[d] for d in sorted(degs)]

    total = n * (n - 1) // 2
    shift = _SHIFTS[n]
    best = 1 << total  # the best code so far; above every code at first
    last = 0  # last w-vertices of the optimal orderings visited so far
    twins = set()  # skipped twin pairs as masks; each swap is in Aut(g)

    prefix = []  # ~row of each placed vertex, in placement order

    def dfs(level, code, used, lastw):
        # lastw is the last w-vertex placed so far, as a mask
        nonlocal best, last
        start = level
        while True:
            # refine the pool to the candidates whose bits toward the
            # prefix, first placed first, are least, and append those
            # bits to code
            cm = cells[level] & ~used
            for r in prefix:
                code <<= 1
                c = cm & r
                if c:
                    cm = c
                else:
                    code |= 1
            if code > best >> shift[level + 1]:
                break
            if level == n - 1:
                # a full ordering, ended by the one vertex left in cm
                if code < best:
                    best = code
                    last = 0
                last |= cm if cm & w else lastw
                break
            if cm & (cm - 1) == 0:
                # one candidate: place it without a call of its own
                prefix.append(~rows[cm.bit_length() - 1])
                used |= cm
                if cm & w:
                    lastw = cm
                level += 1
                continue
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
                    dfs(level + 1, code, used | low, low if low & w else lastw)
                    prefix.pop()
            break
        del prefix[start:]

    dfs(0, 0, 0, 0)
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


_catalogue = {1: b"@"}  # n -> its canonical records in stream order, joined; K1 seeds it


_CHUNKS = 16  # chunks per process in every shared map
# the pipe buffer asked for each child: an order-9 fill's chunks pickle
# to 64 KiB on average and up to 331 KiB, so Linux's default 64 KiB
# would hold a child to the main process's pace chunk by chunk
_PIPE_BYTES = 1 << 20


def _map(worker, blobs, jobs):
    """worker's results over blobs, one by one, in record order, as they
    arrive, for callers to fold, not keep.

    blobs are compact forms: per order, one bytes-like object of
    fixed-width records of that order, joined; an empty one is skipped.
    The worker takes a chunk, a span of whole records of one order, and
    returns one result per record, in order; _guarded runs it.

    jobs None means os.cpu_count(), and no more processes work a map
    than there are cores.  Each map is cut into _CHUNKS chunks per
    process, counted over the records of all its blobs, and each blob is
    cut on its own, so no chunk spans two orders; a map with fewer
    records than that holds one record per chunk.  The chunks are made
    one at a time, each a slice of its blob, and the worker reads that
    span itself.  A map too small to share runs in this process, and so
    does every map at one job.  A larger map is shared as _shared
    shares it, this process working one chunk in jobs and jobs - 1
    forked children the rest.
    """
    cores = os.cpu_count() or 1
    jobs = min(max(1, int(cores if jobs is None else jobs)), cores)
    worker = partial(_guarded, worker)
    # a record's first byte spells its order, hence its width
    blobs = [(blob, _width(blob[0] - 63)) for blob in blobs if blob]
    size = sum(len(blob) // width for blob, width in blobs) // (jobs * _CHUNKS)
    step = max(1, size)
    chunks = (
        blob[i:i + step * width]
        for blob, width in blobs
        for i in range(0, len(blob), step * width)
    )
    if jobs < 2 or not size:
        return chain.from_iterable(map(worker, chunks))
    return chain.from_iterable(_shared(worker, chunks, jobs))


def _shared(worker, chunks, jobs):
    """worker(chunk) for each of chunks, in order, chunk i worked by
    process i % jobs: this one is process 0, and jobs - 1 children,
    forked when the map starts, are the rest.

    A child inherits this process as it is then, every memoised order
    and memo included, so nothing is sent to it: it cuts the same
    chunks, works its own, and writes each result, or the Rep3Error
    worker raised, pickled to its own pipe, then exits.  This process
    works its own chunks in turn and reads the children's results in
    chunk order, so a child runs ahead by at most its pipe's buffer,
    _PIPE_BYTES where the host allows, and one chunk.  A child that dies
    shows as the end of its pipe, raised as a WorkerCrash naming the
    first and last records of the chunk it owed.

    The children are this generator's own: however it ends, run out,
    raising (a fork that fails included), or closed unfinished, every
    child is killed if still running and reaped, and every pipe end it
    opened is closed."""
    import fcntl
    import pickle

    children, pipes = [], []  # every child's pid; every pipe's read end
    try:
        for k in range(1, jobs):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
                    with suppress(OSError):  # where the host allows it
                        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                children.append(os.fork())
                if not children[-1]:
                    status = 1
                    try:
                        pipes[-1].close()
                        with open(w, "wb") as out:
                            for chunk in islice(chunks, k, None, jobs):
                                try:
                                    result = worker(chunk)
                                except Rep3Error as exc:
                                    result = exc
                                pickle.dump(result, out)
                                out.flush()
                        status = 0
                    finally:
                        os._exit(status)  # never return into the caller's frames
            finally:
                os.close(w)  # the child writes to its own copy
        for i, chunk in enumerate(chunks):
            if not i % jobs:
                yield worker(chunk)
                continue
            try:
                result = pickle.load(pipes[i % jobs - 1])
            except (EOFError, pickle.UnpicklingError):
                width = _width(chunk[0] - 63)
                first, last = (rec.decode("ascii", "replace") for rec in (chunk[:width], chunk[-width:]))
                raise WorkerCrash(f"{first}..{last}: the worker process died") from None
            if isinstance(result, Rep3Error):
                raise result
            yield result
    finally:
        from signal import SIGKILL

        for pid in children:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _guarded(worker, span):
    """worker(span), span a slice of one order's compact form, with any
    error but a Rep3Error raised again as a WorkerCrash that names a
    record.  Only then are the span's records read through
    graphcore._records, which raises MalformedRecord on a malformed span
    before it decodes any, and each is run again alone as a one-record
    span; the first that fails alone is named (the span's first and last
    records when none does)."""
    try:
        return worker(span)
    except Rep3Error:
        raise
    except Exception as exc:
        crash = exc
    records = [rec for rec, _ in _records(span)]
    name = f"{records[0].decode()}..{records[-1].decode()}"
    for rec in records:
        try:
            worker(rec)
        except Rep3Error:
            raise
        except Exception as exc:
            crash, name = exc, rec.decode()
            break
    raise WorkerCrash(f"{name}: {worker.__name__} raised {crash!r}") from crash


def catalogue_lines(n: int) -> bytes:
    """The canonical graph6 record of every class of order n,
    1 <= n <= 9, each ended by a newline, as rep3 gen prints them.

    Sorted by (edge count, record): a copy of the memoised compact form
    of order n (see _fill) with one newline after every record, made
    without a record object.  Orders not yet memoised are generated over
    up to one process per core; a memoised order starts no process.
    """
    blob = _fill(n, None)
    width = _width(n)
    count = len(blob) // width
    lines = bytearray(b"\n" * (count * (width + 1)))
    for i in range(width):
        lines[i::width + 1] = blob[i::width]
    return bytes(lines)


def _sweep(worker, jobs, orders, blobs=None):
    """(record, worker(record)) pairs in record order, over blobs or,
    when blobs is None, over the catalogue of each of orders.

    blobs holds records in the catalogue's compact form: per order, one
    bytes-like object of fixed-width records of that order, joined; an
    empty one is skipped.  Catalogue orders not memoised yet are
    generated first, each by a map of jobs processes, and the sweep is
    one more: a _map over the compact forms themselves, whose results
    are paired with their records as they are unpacked, blob by blob, so
    no sweep holds its records as one object each.  A fold that stops
    early, as by raising, drops this generator, and with it the map,
    whose children are killed and reaped then.
    """
    if blobs is None:
        blobs = [_fill(n, jobs) for n in orders]
    results = _map(worker, blobs, jobs)
    for blob in filter(None, blobs):
        for (rec,), result in zip(iter_unpack(f"{_width(blob[0] - 63)}s", blob), results):
            yield rec, result


def _partitions(n, most=None):
    """The partitions of n into parts of at most most, largest first."""
    if n == 0:
        yield ()
    for a in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - a, a):
            yield (a, *rest)


def _level_counts(n):
    """The number of classes of order n at each edge count (OEIS A008406):
    Polya's count over the cycle types of S_n, each weighted by its class
    size, of the pair cycles each type induces (Harary & Palmer,
    Graphical Enumeration, 1973, ch. 4)."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for parts in _partitions(n):
        cycles = []  # lengths of the cycles induced on vertex pairs
        for i, a in enumerate(parts):
            cycles += [a] * ((a - 1) // 2) + [a // 2] * (1 - a % 2)
            for b in parts[i + 1 :]:
                cycles += [a * b // gcd(a, b)] * gcd(a, b)
        poly = [1]  # edge sets fixed by the type, by size: prod of (1 + x^c)
        for c in cycles:
            poly = [a + b for a, b in zip(poly + [0] * c, [0] * c + poly)]
        size = factorial(n)
        for a in set(parts):
            size //= a ** parts.count(a) * factorial(parts.count(a))
        for e, x in enumerate(poly):
            counts[e] += size * x
    return [c // factorial(n) for c in counts]


def _fill(n, jobs):
    """The compact form of order n, 1 <= n <= 9, generating each order up
    to n that is not memoised yet by a _map of jobs processes.

    The compact form of an order is one bytes: its records, all
    _width(n) bytes long, joined in stream order.  _extend gives each
    parent's children at one edge count as one joined bytes, and they
    are appended, in parent order, to one bytearray per edge count.  A
    generated order is checked before it is memoised: each edge count's
    bytes must split into whole records that spell order n, the class
    count must match A000088, and then, one edge count at a time, the
    records are split off, sorted, checked against A008406, distinct,
    and joined.  A miss raises IncompleteCatalogue.  No order is ever
    held as one object per record.  A parent whose extension fails with
    anything but a Rep3Error raises WorkerCrash naming that parent, as
    _map runs every worker through _guarded."""
    if not 1 <= n <= MAX_ENUM:
        raise OrderOutOfRange(f"enumeration supports orders 1..{MAX_ENUM}, got {n}")
    if n not in _catalogue:
        width = _width(n)
        levels = [bytearray() for _ in range(n * (n - 1) // 2 + 1)]  # records by edge count
        for children in _map(_children, [_fill(n - 1, jobs)], jobs):
            for edges, forms in children:
                levels[edges] += forms
        for edges, level in enumerate(levels):
            # width bytes for every record start that spells order n
            if len(level) != width * level[::width].count(63 + n):
                raise IncompleteCatalogue(
                    f"order {n}, {edges} edges: generated {len(level)} bytes,"
                    f" not whole {width}-byte records of order {n}"
                )
        total = sum(map(len, levels)) // width
        if total != A000088[n]:
            raise IncompleteCatalogue(
                f"order {n}: generated {total} classes, A000088 counts {A000088[n]}"
            )
        joined = []
        for edges, count in enumerate(_level_counts(n)):
            level = sorted(rec for rec, in iter_unpack(f"{width}s", levels[edges]))
            levels[edges] = None  # each edge count's bytes freed once split
            distinct = len(level) - sum(map(eq, level, level[1:]))
            if len(level) != count or distinct != count:
                raise IncompleteCatalogue(
                    f"order {n}, {edges} edges: generated {len(level)} records,"
                    f" {distinct} distinct, A008406 counts {count}"
                )
            joined.append(b"".join(level))
        _catalogue[n] = b"".join(joined)
    return _catalogue[n]


def _children(span):
    """The accepted children of each parent class of a span, in parent
    order, as _extend gives them."""
    return [_extend(parent) for _, parent in _records(span)]


def _extend(parent):
    """The accepted children of one parent class, the Graph parent, each
    once, as (edge count, canonical records joined) pairs: those of at
    most half the edges, and the complement of each one below half."""
    n = parent.n + 1
    top = 1 << (n - 1)
    total = n * (n - 1) // 2
    rows = parent.rows
    degs = parent.degrees
    edges = parent.edge_count()
    # v's degree k is at least P's largest, and the child has at most
    # half the edges
    sizes = range(max(degs), min(n, total // 2 - edges + 1))
    if not sizes:
        return []
    # each parent vertex's neighbour-degree sum
    sums = [sum(degs[x] for x in range(n - 1) if r >> x & 1) for r in rows]
    seen = set()  # isomorphic children of one parent only
    out = []
    links = []  # (u, w) masks, u the previous twin of w in P
    for w in range(1, n - 1):
        for u in range(w - 1, -1, -1):
            if rows[u] & ~(1 << w) == rows[w] & ~(1 << u):
                links.append((1 << u, 1 << w))
                break
    for k in sizes:
        pool = [u for u in range(n - 1) if degs[u] < k]
        # the parent vertices of degree k in the child: (mask, row, sum,
        # whether they reach k only by joining v)
        heavy = [
            (1 << u, rows[u], sums[u], degs[u] < k) for u in range(n - 1) if degs[u] >= k - 1
        ]
        forms = []
        upper = []
        for s in combinations(pool, k):
            mask = 0
            for u in s:
                mask |= 1 << u
            if any(mask & b and not mask & a for a, b in links):
                continue
            # W: the child's vertices of degree k of greatest neighbour-
            # degree sum; v must be one of them
            vsum = k + sum(map(degs.__getitem__, s))
            wmask = top
            for bit, row, base, joins in heavy:
                if joins:
                    if not mask & bit:
                        continue
                    base += k
                base += (row & mask).bit_count()
                if base > vsum:
                    break
                if base == vsum:
                    wmask |= bit
            else:
                child = Graph(n, tuple(
                    r | top if (mask >> u) & 1 else r for u, r in enumerate(rows)
                ) + (mask,))
                form, orbit = _canonical_search(child, wmask)
                if orbit & top and form not in seen:
                    seen.add(form)
                    forms.append(form)
                    if 2 * (edges + k) < total:
                        upper.append(_canonical_search(complement(child))[0])
        out.append((edges + k, b"".join(forms)))
        out.append((total - edges - k, b"".join(upper)))
    return out


def enumerate_graphs(n: int):
    """One representative per isomorphism class of order n, 1 <= n <= 9.

    Yields the graphs of catalogue_lines(n), read one at a time in
    stream order from the compact form through graphcore._records, so
    the sequence is canonically labeled and identical across calls.
    """
    for _, g in _records(_fill(n, None)):
        yield g

