"""Immutable bitset graphs, graph6 records in and out, graph6 files and
edge-list JSON in.

A Graph stores one adjacency row per vertex as a Python int used as a bit
mask, so neighborhood algebra (intersection, difference, popcount) is a
couple of machine-word operations for any order up to 64.  All operations
are pure and never touch their input: deletion and complement build new
values, except that deleting nothing returns the input graph itself,
which is safe since a Graph is immutable.  A deletion set is an iterable
of vertex indices; each deleted index is shifted out of every kept row,
highest index first.

graph6 records are the usual ASCII encoding of small graphs: one byte
63+n for the order (single-byte form only, n <= 62), then the upper
triangle of the adjacency matrix read column by column, packed into 6-bit
groups most significant bit first, zero-padded to a whole group, each
group emitted as one byte offset by 63.  parse_graph6 takes the record as
bytes and is strict: wrong record length, a data byte outside [63, 126],
or a nonzero padding bit all reject the record.  _check is that one
strict validator, and it decodes nothing, so a record can be checked
without being parsed.  read_graph6_records runs it on each line of a
graph6 file, as iterating the open binary file gives them, and yields
validated record bytes without building a graph.

parse_graph6 decodes by a byte table.  Bit k of the triangle is the
pair (i, j) with k = j(j-1)/2 + i at every order, so data byte p with
value x sets the same pairs in every record.  _TABLE[p][x] holds those
pairs as packed rows, 64 bits per vertex (row v is bits 64v..64v+63), so
a record is decoded with one OR per data byte and one split of the
packed integer into rows: to_bytes, then a little-endian unpack of n
64-bit words, which reads the same rows on a host of either byte
order.  A padding bit maps to a pair past the record's order, which is
harmless, since _check has rejected any record that sets one.  The
table grows on demand, under a lock, to the longest record parsed:
orders up to 9 need 6 positions, and the ceiling, 316 positions for
order 62, costs about 7.6 MB of memory and 10 ms to build.

from_edge_json reads {"n": ..., "edges": [[u, v], ...]} text and checks
its shape and every endpoint.
"""

import json
import struct
import threading
from math import isqrt

from .errors import EmptyResult, LoopEdge, MalformedRecord, OrderOutOfRange, VertexOutOfRange

MAX_ORDER = 64
_G6_MAX = 62


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    rows[v] is the neighborhood of v as a bit mask; degrees is the
    precomputed degree tuple.  Instances are value-like: equality and
    hashing follow (n, rows).
    """

    __slots__ = ("n", "rows", "degrees")

    def __init__(self, n, rows):
        self.n = n
        self.rows = rows
        self.degrees = tuple(map(int.bit_count, rows))

    def edges(self):
        """All edges as (u, v) pairs with u < v, lexicographically."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (self.rows[u] >> v) & 1
        ]

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def _is_index(x) -> bool:
    # bool is an int subclass, but True is no vertex count or index
    return isinstance(x, int) and not isinstance(x, bool)


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from unordered endpoint pairs.

    Duplicate pairs (in either orientation) collapse to a single edge.
    """
    if not _is_index(n) or not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be an int in [1, {MAX_ORDER}], got {n!r}")
    rows = [0] * n
    for u, v in edges:
        if not (_is_index(u) and _is_index(v)):
            raise VertexOutOfRange(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def delete_vertices(g: Graph, d):
    """Induced subgraph on the survivors of g after removing d.

    d is an iterable of vertex indices.  Returns (reduced graph, map old
    index -> new index).  The map is order preserving.  An empty d
    returns g itself and the identity map.  Removing every vertex is
    rejected because a graph here always has at least one vertex.
    """
    dmask = 0
    for v in d:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
        dmask |= 1 << v
    if not dmask:
        return g, {v: v for v in range(g.n)}
    keep = [v for v in range(g.n) if not (dmask >> v) & 1]
    if not keep:
        raise EmptyResult("deletion set equals the whole vertex set")
    remap = {old: new for new, old in enumerate(keep)}
    rows = [g.rows[v] for v in keep]
    while dmask:  # highest deleted index first, so lower ones stay put
        v = dmask.bit_length() - 1
        low = (1 << v) - 1
        rows = [(r & low) | ((r >> (v + 1)) << v) for r in rows]
        dmask ^= 1 << v
    return Graph(len(keep), tuple(rows)), remap


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, rows)


_HEADER = b">>graph6<<"


def _pack(n: int, code: int) -> bytes:
    """The graph6 record of order n whose upper-triangle bits, column by
    column, are those of code, the first bit most significant."""
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    code <<= pad
    shifts = range(nbits + pad - 6, -1, -6)
    return bytes([63 + n, *(63 + ((code >> k) & 63) for k in shifts)])


def write_graph6(g: Graph) -> bytes:
    """Encode as a canonical single-byte-order graph6 record."""
    if g.n > _G6_MAX:
        raise OrderOutOfRange(f"graph6 single-byte form caps at {_G6_MAX}, got {g.n}")
    code = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            code = (code << 1) | ((col >> i) & 1)
    return _pack(g.n, code)


_DATA_BYTES = bytes(range(63, 127))


def _width(n: int) -> int:
    """The bytes of each graph6 record of order n: the order byte, then
    six upper-triangle bits a byte."""
    return 1 + (n * (n - 1) // 2 + 5) // 6


def _check(record: bytes) -> int:
    """The order n of a header-free graph6 record, checked as strictly
    as parse_graph6 checks it but not decoded: the order byte, the
    length, every byte against [63, 126] in one translate, and the
    padding bits of the last byte.  A bad record raises MalformedRecord,
    or OrderOutOfRange for the multi-byte order form."""
    if not record:
        raise MalformedRecord("empty record")
    if record[0] == 126:
        raise OrderOutOfRange("multi-byte order encoding not supported")
    n = record[0] - 63
    if n < 1 or n > _G6_MAX:
        raise MalformedRecord(f"order byte decodes to {n}, outside [1, {_G6_MAX}]")
    nbits = n * (n - 1) // 2
    need = _width(n) - 1
    if len(record) - 1 != need:
        raise MalformedRecord(
            f"expected {need} data bytes for order {n}, got {len(record) - 1}"
        )
    bad = record.translate(None, _DATA_BYTES)  # the order byte is in range
    if bad:
        raise MalformedRecord(f"data byte {bad[0]} outside [63, 126]")
    if (record[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise MalformedRecord("nonzero padding bits")
    return n


# _TABLE[p][x]: the packed rows that data byte p sets when it reads x,
# for x in [63, 126]; entries below 63 are never read.  It grows one
# thread at a time, so no position is appended twice.
_TABLE = []
_GROWING = threading.Lock()
# one little-endian unpacker of n 64-bit rows per order n
_ROWS = [struct.Struct(f"<{n}Q") for n in range(_G6_MAX + 1)]


def _grow(need: int) -> None:
    """Extend _TABLE to need data-byte positions."""
    with _GROWING:
        for p in range(len(_TABLE), need):
            entry = [0] * 64
            for b in range(6):  # bit b of the group is triangle bit 6p + 5 - b
                k = 6 * p + 5 - b
                j = (1 + isqrt(1 + 8 * k)) // 2
                i = k - j * (j - 1) // 2
                entry[1 << b] = (1 << (64 * i + j)) | (1 << (64 * j + i))
            for x in range(1, 64):
                low = x & -x
                entry[x] = entry[x ^ low] | entry[low]
            _TABLE.append((0,) * 63 + tuple(entry))


def parse_graph6(record: bytes) -> Graph:
    """Decode one graph6 record.

    The optional ">>graph6<<" header is tolerated; everything else is
    validated strictly.
    """
    record = record.removeprefix(_HEADER)
    n = _check(record)
    data = record[1:]
    if len(data) > len(_TABLE):
        _grow(len(data))
    code = 0
    for cell, byte in zip(_TABLE, data):
        code |= cell[byte]
    return Graph(n, _ROWS[n].unpack(code.to_bytes(8 * n, "little")))


def read_graph6_records(lines):
    """The graph6 records of an iterable of byte lines, as bytes, in
    line order.

    lines is what iterating a binary file gives: each line ends at
    b"\n", so a lone b"\r" stays inside its line.  Blank lines and a
    leading ">>graph6<<" header are tolerated; anything else malformed,
    non-ASCII bytes and multi-byte orders included, is a MalformedRecord
    naming its 1-based line.  A record is the line's own bytes without
    the header and surrounding whitespace, checked by _check as
    strictly as parse_graph6 checks it, but not decoded.
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
        except (MalformedRecord, OrderOutOfRange) as exc:
            raise MalformedRecord(str(exc), line=lineno) from None
        yield rec


def from_edge_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    except RecursionError:
        # the decoder recurses once per nesting level
        raise MalformedRecord("invalid JSON: nested too deeply to decode") from None
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise MalformedRecord('edge-list JSON needs keys "n" and "edges"')
    edges = doc["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in edges
    ):
        raise MalformedRecord('"edges" must be a list of [u, v] pairs')
    return from_edge_list(doc["n"], edges)
