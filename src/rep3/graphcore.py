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
strict validator of a record, and it decodes nothing; _decode decodes
and checks nothing, so parse_graph6 is _check, then _decode.
read_graph6_records runs _check on each line of a graph6 file, as
iterating the open binary file gives them, and yields validated record
bytes without building a graph.  _pack_lines reads the same lines into
one span per order it is asked for, checking each such line only for
its width and then each span at once with _shape, and puts only the
records of other orders to _check; either way, an error names the first
bad line.

_decode reads a record by a byte table.  Bit k of the triangle is the
pair (i, j) with k = j(j-1)/2 + i at every order, so data byte p with
value x sets the same pairs in every record.  _TABLE[p][x] holds those
pairs as packed rows, 64 bits per vertex (row v is bits 64v..64v+63), so
a record is decoded with one OR per data byte and one split of the
packed integer into rows: to_bytes, then a little-endian unpack of n
64-bit words, which reads the same rows on a host of either byte
order.  A padding bit maps to a pair past the record's order, which is
harmless, since _check or _shape has rejected any record that sets
one before it is decoded.  The table grows on demand, under a lock, to
the longest record decoded:
orders up to 9 need 6 positions, and the ceiling, 316 positions for
order 62, costs about 7.6 MB of memory and 10 ms to build.

A span is graph6 records of one order joined, as the catalogue's
compact form holds them.  _shape is the one check that a span is whole
records of one order, as strict as _check on each record.  _records is
the one reader of a span's records: it runs _shape once when called,
then decodes each record with _decode as it is reached, so no record
of a span is checked twice.  _lanes reads a whole span at once, with
one byte lane per record and no graph decoded: one strided slice and
one translate per triangle bit give its edge lanes, and their sums its
degree lanes.  All three sweep kernels read spans through it: the
lemma scan directly, and the identity and theorem kernels through
_degree_counts, the one reader of count lanes, which adds, per degree
value, how many vertices of each record hold it.

from_edge_json reads {"n": ..., "edges": [[u, v], ...]} text and checks
its shape and every endpoint.
"""

import json
import struct
import threading
from array import array
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


def _pair(k: int):
    """The pair (i, j), i < j, of triangle bit k = j(j-1)/2 + i."""
    j = (1 + isqrt(1 + 8 * k)) // 2
    return k - j * (j - 1) // 2, j


def _grow(need: int) -> None:
    """Extend _TABLE to need data-byte positions."""
    with _GROWING:
        for p in range(len(_TABLE), need):
            entry = [0] * 64
            for b in range(6):  # bit b of the group is triangle bit 6p + 5 - b
                i, j = _pair(6 * p + 5 - b)
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
    return _decode(record, _check(record))


def _decode(record, n):
    """The graph of a header-free graph6 record of order n that is
    already checked: one OR per data byte, no check of its own."""
    data = record[1:]
    if len(data) > len(_TABLE):
        _grow(len(data))
    code = 0
    for cell, byte in zip(_TABLE, data):
        code |= cell[byte]
    return Graph(n, _ROWS[n].unpack(code.to_bytes(8 * n, "little")))


# _BIT[b] maps a data byte to bit b of its six; _CLEAN[pad] holds the data
# bytes whose pad low bits, a last byte's padding, are zero
_BIT = [bytes((x - 63) >> b & 1 for x in range(256)) for b in range(6)]
_CLEAN = [bytes(x for x in _DATA_BYTES if not (x - 63) & ((1 << pad) - 1)) for pad in range(6)]


def _shape(span):
    """(n, width) of span, a bytes-like object of whole graph6 records of
    one order n, each width bytes long, joined.

    The span is checked in a few C-level calls, as strictly as _check
    checks each record: one comparison of its record starts, a strided
    slice, against its first byte repeated once per whole record checks
    both that it splits into whole records and that every order byte is
    the first's; then every byte must lie in [63, 126] and every padding
    bit be zero.  Should any of that fail, the span is walked record by
    record, each as wide as its own order byte says, and each is put to
    _check, so a malformed record, a trailing partial one included,
    raises _check's own error; well-formed records of two orders raise
    MalformedRecord.
    """
    n = span[0] - 63 if span else 0
    width = _width(n)
    if not (
        1 <= n <= _G6_MAX
        and span[::width] == span[:1] * (len(span) // width)
        and not span.translate(None, _DATA_BYTES)
        and not span[width - 1::width].translate(None, _CLEAN[6 * width - 6 - n * (n - 1) // 2])
    ):
        # an empty span or a bad first record raises here
        orders, start = [_check(span[:width])], width
        while start < len(span):
            orders.append(_check(span[start:start + _width(span[start] - 63)]))
            start += _width(orders[-1])
        raise MalformedRecord(f"records of orders {sorted(set(orders))} in one run")
    return n, width


def _records(span):
    """(record, Graph) pairs of span's records, in order, the one reader
    of a span: _shape checks the whole span when _records is called, so
    a bad span raises before any record is decoded, and each record is
    then decoded as it is reached, with no check of its own."""
    n, width = _shape(span)
    return ((rec, _decode(rec, n)) for rec, in struct.iter_unpack(f"{width}s", span))


def _lanes(span, n, width):
    """(edges, degrees) of span, graph6 records of order n, each width
    bytes long, joined, as _shape has checked it: byte i of each lane,
    read little-endian, belongs to record i.  edges[k] holds triangle
    bit k, the pair (i, j) of _pair(k), gathered from every record at
    once by a strided slice of the span (data byte 1 + k // 6 of each
    record) and one translate (its bit 5 - k % 6); degrees[v] is the sum
    of the edge lanes at v.  A degree is at most 61, so no byte carries
    into the next.
    """
    columns = [span[p::width] for p in range(1, width)]
    edges = [
        int.from_bytes(columns[k // 6].translate(_BIT[5 - k % 6]), "little")
        for k in range(n * (n - 1) // 2)
    ]
    degrees = [0] * n
    bits = iter(edges)
    for j in range(1, n):  # triangle bits k = j(j-1)/2 + i, in order
        for i in range(j):
            lane = next(bits)
            degrees[i] += lane
            degrees[j] += lane
    return edges, degrees


# translate tables of a degree or count byte: _IS[d] maps d to 1 and
# every other byte to 0, _THRICE each value from 3 up to 1
_IS = [bytes(d) + b"\1" + bytes(255 - d) for d in range(_G6_MAX)]
_THRICE = bytes(3) + b"\1" * 253


def _degree_counts(span):
    """(n, degrees, counts) of span, graph6 records of one order n
    joined, checked by _shape: byte i of degrees[v] is vertex v's degree
    in record i, as _lanes reads it, and byte i of counts[d], d < n, is
    how many vertices of record i have degree d, the sum over the degree
    lanes of a translate of each by _IS[d].  No count carries: it is at
    most n."""
    n, width = _shape(span)
    count = len(span) // width
    degrees = [lane.to_bytes(count, "little") for lane in _lanes(span, n, width)[1]]
    counts = [
        sum(int.from_bytes(lane.translate(_IS[d]), "little") for lane in degrees).to_bytes(count, "little")
        for d in range(n)
    ]
    return n, degrees, counts


def _lines(lines):
    """(line number, record) for each non-blank line of lines, numbered
    from 1: the line's own bytes without surrounding whitespace and a
    leading ">>graph6<<" header, a MalformedRecord naming its line if
    they are not ASCII."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip().removeprefix(_HEADER)
        if not line:
            continue
        if not line.isascii():
            raise MalformedRecord("non-ascii record", line=lineno)
        # parse_graph6 drops one more header of its own
        yield lineno, line.removeprefix(_HEADER)


def _checked(lineno, rec):
    """_check(rec), its error a MalformedRecord naming line lineno."""
    try:
        return _check(rec)
    except (MalformedRecord, OrderOutOfRange) as exc:
        raise MalformedRecord(str(exc), line=lineno) from None


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
    for lineno, rec in _lines(lines):
        _checked(lineno, rec)
        yield rec


def _pack_lines(lines, orders):
    """(spans, skipped): the records of lines, read as
    read_graph6_records reads them, packed per order of orders into one
    bytearray each, the catalogue's compact form, in line order, and the
    count of the records of other orders.

    A line of a swept order is checked only for what packing needs: its
    bytes are ASCII, and it is as wide as its order byte says.  Each
    packed order is then checked once, by _shape; a record of any other
    order is put to _check on its own line.  Whichever check fails first,
    the error names the first bad line in file order, with _check's own
    message: the packed orders are checked before any later line's error
    is raised, and each packed record keeps its line number.
    """
    spans = {bytes([63 + n]): bytearray() for n in orders}
    widths = {order: _width(order[0] - 63) for order in spans}
    numbers = {order: array("L") for order in spans}  # each packed record's line
    skipped = 0
    try:
        for lineno, rec in _lines(lines):
            order = rec[:1]
            if len(rec) == widths.get(order):
                spans[order] += rec
                numbers[order].append(lineno)
            else:
                _checked(lineno, rec)
                skipped += 1
    finally:
        _check_packed(spans, numbers)
    return list(spans.values()), skipped


def _check_packed(spans, numbers):
    """Check each of spans, whole records of one order, with _shape;
    where one fails, raise _check's error for the first bad record of
    all of them in line order, naming its line from numbers."""
    bad = []
    for order, span in spans.items():
        try:
            if span:
                _shape(span)
        except MalformedRecord:
            records = struct.iter_unpack(f"{_width(order[0] - 63)}s", span)
            for lineno, (rec,) in zip(numbers[order], records):
                try:
                    _check(rec)
                except MalformedRecord as exc:
                    bad.append((lineno, str(exc)))
                    break
    if bad:
        lineno, message = min(bad)
        raise MalformedRecord(message, line=lineno)


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
