"""Immutable bitset graphs with graph6 I/O.

A Graph stores one adjacency row per vertex as a Python int used as a bit
mask, so neighborhood algebra (intersection, difference, popcount) is a
couple of machine-word operations for any order up to 64.  All operations
are pure: deletion and complement build new values and never touch their
input.

graph6 records are the usual ASCII encoding of small graphs: one byte
63+n for the order (single-byte form only, n <= 62), then the upper
triangle of the adjacency matrix read column by column, packed into 6-bit
groups most significant bit first, zero-padded to a whole group, each
group emitted as one byte offset by 63.  Parsing is strict: wrong record
length, a data byte outside [63, 126], or a nonzero padding bit all
reject the record.
"""

import json

from .errors import (
    EmptyResult,
    EndpointOutOfRange,
    LoopEdge,
    MalformedRecord,
    OrderOutOfRange,
    UnsupportedOrder,
    VertexOutOfRange,
)

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
        self.degrees = tuple(r.bit_count() for r in rows)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def neighbor_mask(self, v: int) -> int:
        return self.rows[v]

    def neighbors(self, v: int):
        """Neighbors of v in increasing order."""
        m = self.rows[v]
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

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


def _raw(n, rows):
    # construction fast path for internal callers that already hold
    # validated symmetric rows
    g = object.__new__(Graph)
    g.n = n
    g.rows = rows
    g.degrees = tuple(r.bit_count() for r in rows)
    return g


def _vertex_mask(g: Graph, vs) -> int:
    """Normalize a vertex-set argument: an int is taken as a bit mask,
    anything else as an iterable of vertex indices."""
    if isinstance(vs, int):
        if vs < 0 or vs >> g.n:
            raise VertexOutOfRange(f"mask {bin(vs)} has bits outside 0..{g.n - 1}")
        return vs
    m = 0
    for v in vs:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
        m |= 1 << v
    return m


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
            raise EndpointOutOfRange(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EndpointOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _raw(n, tuple(rows))


def delete_vertices(g: Graph, d):
    """Induced subgraph on the survivors of g after removing d.

    Returns (reduced graph, map old index -> new index).  The map is
    order preserving.  Removing every vertex is rejected because a graph
    here always has at least one vertex.
    """
    dmask = _vertex_mask(g, d)
    keep = [v for v in range(g.n) if not (dmask >> v) & 1]
    if not keep:
        raise EmptyResult("deletion set equals the whole vertex set")
    remap = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        r = g.rows[old] & ~dmask
        packed = 0
        while r:
            low = r & -r
            packed |= 1 << remap[low.bit_length() - 1]
            r ^= low
        rows.append(packed)
    return _raw(len(keep), tuple(rows)), remap


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n))
    return _raw(g.n, rows)


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
        raise UnsupportedOrder(f"graph6 single-byte form caps at {_G6_MAX}, got {g.n}")
    code = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            code = (code << 1) | ((col >> i) & 1)
    return _pack(g.n, code)


def parse_graph6(record) -> Graph:
    """Decode one graph6 record (bytes or str).

    The optional ">>graph6<<" header is tolerated; everything else is
    validated strictly.
    """
    if isinstance(record, str):
        try:
            record = record.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedRecord(f"non-ascii record: {exc}") from None
    if record.startswith(_HEADER):
        record = record[len(_HEADER):]
    if not record:
        raise MalformedRecord("empty record")
    if record[0] == 126:
        raise UnsupportedOrder("multi-byte order encoding not supported")
    n = record[0] - 63
    if n < 1 or n > _G6_MAX:
        raise MalformedRecord(f"order byte decodes to {n}, outside [1, {_G6_MAX}]")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = record[1:]
    if len(body) != need:
        raise MalformedRecord(
            f"expected {need} data bytes for order {n}, got {len(body)}"
        )
    bits = []
    for byte in body:
        val = byte - 63
        if not 0 <= val < 64:
            raise MalformedRecord(f"data byte {byte} outside [63, 126]")
        for k in range(5, -1, -1):
            bits.append((val >> k) & 1)
    if any(bits[nbits:]):
        raise MalformedRecord("nonzero padding bits")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return _raw(n, tuple(rows))


def to_edge_json(g: Graph) -> str:
    """Serialize as {"n": ..., "edges": [[u, v], ...]} with u < v."""
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


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
        not isinstance(e, (list, tuple)) or len(e) != 2 for e in edges
    ):
        raise MalformedRecord('"edges" must be a list of [u, v] pairs')
    return from_edge_list(doc["n"], [tuple(e) for e in edges])
