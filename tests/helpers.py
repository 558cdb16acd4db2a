"""Small named graphs shared across test modules.

Each constructor returns a fresh Graph value; vertex labels follow the
edge lists written out here so tests can assert exact indices.
"""

import os
import random
import sys
from collections import Counter
from functools import cache
from itertools import combinations
from typing import NamedTuple

from rep3 import enumeration, harness
from rep3.enumeration import catalogue_lines
from rep3.errors import TheoremViolation
from rep3.graphcore import Graph, _records, _width, from_edge_list, parse_graph6, write_graph6
from rep3.solver import DeletionCertificate, allowance, check_certificate, solve3


def k1():
    return from_edge_list(1, [])


def k2():
    return from_edge_list(2, [(0, 1)])


def k3():
    return from_edge_list(3, [(0, 1), (0, 2), (1, 2)])


def k4():
    return from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k5():
    return from_edge_list(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def k9():
    return from_edge_list(9, [(u, v) for u in range(9) for v in range(u + 1, 9)])


def p3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def p4():
    # path 0-1-2-3, degrees (1,2,2,1)
    return from_edge_list(4, [(0, 1), (1, 2), (2, 3)])


def c4():
    return from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def c5():
    return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def star(leaves):
    """K_{1,leaves} with the hub at index 0."""
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def paw():
    # triangle 0,1,2 plus pendant 3 attached to 0
    return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def antiregular5():
    # degrees (4,3,2,2,1): vertex 0 dominates, vertex 4 is the leaf
    return from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])


def empty(n):
    return from_edge_list(n, [])


def neighbor_sets(g):
    """The neighbourhood of each vertex of g as a plain set."""
    return [{w for w in range(g.n) if g.rows[v] >> w & 1} for v in range(g.n)]


def degree_sorted(g):
    """(h, order): g relabeled by (degree, index), so that h's vertex i
    is order[i], the i-th vertex of g by degree with ties broken by
    index.  Catalogue records come in this form, and the lemma scan
    reads graphs only in it."""
    order = sorted(range(g.n), key=lambda v: (g.degrees[v], v))
    pos = {v: i for i, v in enumerate(order)}
    return from_edge_list(g.n, [(pos[u], pos[v]) for u, v in g.edges()]), order


def seeded_graph(n, seed):
    """Each pair (i, j), column by column, is an edge when the next
    random.Random(seed).random() falls below 1/2."""
    rng = random.Random(seed)
    return from_edge_list(
        n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.5]
    )


class DegreeProfile(NamedTuple):
    rep: int
    s_set: frozenset
    t_set: frozenset


def profile(g: Graph) -> DegreeProfile:
    """g's degree profile, read from its degree histogram: the reference
    the identity worker's code bytes are checked against.

    rep is the repetition number, the largest number of vertices sharing
    one degree value.  Over the value range [1, n-1], s_set collects the
    degrees hit by exactly two vertices and t_set those hit by none.
    Degree 0 and degree n-1 outside that range are deliberately not
    tracked.
    """
    hist = Counter(g.degrees)
    s = frozenset(d for d in range(1, g.n) if hist.get(d, 0) == 2)
    t = frozenset(d for d in range(1, g.n) if d not in hist)
    return DegreeProfile(max(hist.values()), s, t)


def triple_signatures(g):
    """(s, signature) for every 3-set s = (a, b, c) of g, in
    lexicographic order: the reference the lemma scan's packed
    signatures are checked against.

    The signature is n, the three internal edge bits, the three degrees
    and the common-neighbour counts of ab, ac, bc and abc.  By
    inclusion-exclusion these fix, and are fixed by, the counts of the
    other vertices in each of the eight adjacency regions relative to
    the triple.
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


def induced_path_ok(g, x):
    """Whether the 4-set x of g induces a path whose endpoints carry
    the two smallest degrees of the set, compared as a multiset, so
    ties are accepted either way round: the reference for the lemma
    scan's path lanes, read from the induced edges alone, with no
    table."""
    # four vertices induce a path exactly when they induce three edges
    # and two of them, its ends, have one neighbour among the four
    inside = [sum(g.rows[u] >> v & 1 for v in x) for u in x]
    ends = [g.degrees[u] for u, k in zip(x, inside) if k == 1]
    smallest = sorted(g.degrees[v] for v in x)[:2]
    return sum(inside) == 6 and sorted(ends) == smallest


def paired_gap_sets(degs):
    """The 4-sets with degrees (d, d, d+2, d+2) of a degree-sorted
    graph, in lexicographic order: vertices of a lower degree carry
    lower labels, so each set is pair + high, already sorted.  The
    reference for the lemma scan's paired-gap lanes."""
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


def catalogue_records(n):
    """The canonical record of every class of order n, in catalogue
    order, as rep3 gen prints them, one a line."""
    return tuple(catalogue_lines(n).split())


def split(span):
    """The records of span, records of one order joined, each as wide as
    its first byte spells, as bytes; shares no code with the span
    checks of graphcore."""
    width = _width(span[0] - 63)
    return [bytes(span[i:i + width]) for i in range(0, len(span), width)]


# (id, span, the record _check rejects as the span reads it): spans of
# order 3, or 5 for inner-data-byte, each with one bad record inside
BAD_SPANS = [
    ("data-byte", b"BwB%Bo", b"B%"),
    ("inner-data-byte", b"D??D%{D~{", b"D%{"),
    ("padding", b"BwBxBo", b"Bx"),
    ("order-byte", b"Bw?wBo", b"?w"),
    # a trailing partial record, its order byte alone
    ("length", b"BwBoB", b"B"),
    # a record cut short inside the span shifts every later one: the
    # span reads its second record as b"BB", with padding bits set
    ("misaligned", b"BwBBo", b"BB"),
]


# the fill's worker and each sweep's, taken before any test patches them
REAL_WORKERS = {
    "_children": enumeration._children,
    "_theorem_worker": harness._theorem_worker,
    "_lemma_worker": harness._lemma_worker,
    "_identity_worker": harness._identity_worker,
}


class OneSpan:
    """A stand-in for the real worker of its name: it requires one
    bytes or bytearray span of whole records of one order, as _map
    cuts them, and then runs the real worker on that span.  With crash
    set it raises ZeroDivisionError on a span of more than one record,
    so only the one-record spans of _guarded's rerun reach the real
    worker, which is looked up by name."""

    def __init__(self, name, crash=False):
        self.__name__ = name
        self.crash = crash

    def __call__(self, span):
        if type(span) not in (bytes, bytearray) or not span:
            raise TypeError(f"{self.__name__} handed a {type(span).__name__}, not a span")
        width = _width(span[0] - 63)
        count, rest = divmod(len(span), width)
        if rest or span[::width] != span[:1] * count:
            raise TypeError(f"{self.__name__} handed {bytes(span)!r}, not records of one order")
        if self.crash and count > 1:
            raise ZeroDivisionError("planted")
        return REAL_WORKERS[self.__name__](span)


class ForkSpy:
    """Every map that enumeration._shared shares while a test runs, on a
    host taken to have two cores, since no more processes than cores
    work a map: per map, the pids of the children it forked and the
    record count of each chunk it cut, in order.

    Each chunk must be a bytes or bytearray slice of whole records of
    one order, handed out one at a time from an iterator, and every
    child a map forked must be reaped by the time the map ends."""

    def __init__(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        self.maps = []
        real_fork, real_shared = os.fork, enumeration._shared

        def fork():
            pid = real_fork()
            if pid:
                self.maps[-1][0].append(pid)
            return pid

        def shared(worker, chunks, jobs):
            pids, sizes = [], []
            self.maps.append((pids, sizes))
            yield from real_shared(worker, counted(chunks, sizes), jobs)
            for pid in pids:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    continue
                raise AssertionError(f"child {pid} outlived its map")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(enumeration, "_shared", shared)

    def clear(self):
        self.maps.clear()

    @property
    def children(self):
        """The number of children each map forked."""
        return [len(pids) for pids, _ in self.maps]

    @property
    def chunks(self):
        """(children forked, chunk sizes) of each map."""
        return [(len(pids), sizes) for pids, sizes in self.maps]


def counted(chunks, sizes):
    """chunks, each checked to be a span of whole records of one order
    as it passes, its record count appended to sizes."""
    assert iter(chunks) is chunks  # no list of every chunk is made
    for chunk in chunks:
        width = _width(chunk[0] - 63)
        count, rest = divmod(len(chunk), width)
        assert type(chunk) in (bytes, bytearray) and not rest
        assert chunk[::width] == chunk[:1] * count
        sizes.append(count)
        yield chunk


def labeled_records(seed=2026, count=2000):
    """Seeded labeled graphs as graph6 records: each draws an order in
    5..9 and an edge probability in [0, 1), so few come degree-sorted
    as catalogue records do."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        n = rng.randint(5, 9)
        p = rng.random()
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        edges = [e for e in pairs if rng.random() < p]
        records.append(write_graph6(from_edge_list(n, edges)))
    return records


@cache
def stream_records(count):
    """The first count records of the seed-1 g6_stream input, as
    perfbench/g6input.py writes them, as bytes."""
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import g6input
    finally:
        sys.path.remove(perfbench)
    return [rec.encode("ascii") for rec in g6input.make_records(1)[:count]]


def mask_search_certificate(g, max_k):
    """min_deletion_for_rep3 as a plain mask search from size 0: sets by
    increasing size, then lexicographically, each tested in one pass
    over the survivors; the witness is the first three survivors, by
    index, of the smallest reduced degree that three or more share.
    The reference for the search's shortcut at zero deletions."""
    for k in range(max_k + 1):
        for combo in combinations(range(g.n), k):
            mask = sum(1 << v for v in combo)
            by_degree = {}
            for v in range(g.n):
                if not mask >> v & 1:
                    d = g.degrees[v] - (g.rows[v] & mask).bit_count()
                    by_degree.setdefault(d, []).append(v)
            shared = [d for d, vs in by_degree.items() if len(vs) >= 3]
            if shared:
                d = min(shared)
                return DeletionCertificate(g.n, combo, tuple(by_degree[d][:3]), d)
    return None


def theorem_result(rec):
    """(n, minimum deletion size, None) for the class of graph6 record
    rec when the theorem holds on it, or (n, None, violation), one
    record at a time: parse_graph6, solve3, the allowance test and
    check_certificate.  The reference for the theorem sweep's kernel."""
    g = parse_graph6(rec)
    cap = allowance(g.n)
    try:
        cert = solve3(g)
    except TheoremViolation as exc:
        reason = str(exc)
    else:
        if len(cert.deleted) > cap:
            reason = f"deletion set {cert.deleted} exceeds allowance {cap}"
        elif not check_certificate(g, cert):
            reason = f"certificate {cert.to_dict()} failed the independent check"
        else:
            return g.n, len(cert.deleted), None
    return g.n, None, {"n": g.n, "graph": rec.decode("ascii"), "reason": reason}


def searching_with(solve):
    """A stand-in for harness._search, the theorem sweep's search seam,
    that answers every record of its span, whatever its degrees, with
    solve(g) over the decoded graph g, or with the TheoremViolation
    solve raises, paired with g: so a fault planted in solve reaches
    every class the sweep sees."""

    def search(span, n, degrees, counts):
        for _, g in _records(span):
            try:
                cert = solve(g)
            except TheoremViolation as exc:
                cert = exc
            yield cert, g

    return search
