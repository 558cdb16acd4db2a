"""Degree statistics built on the degree histogram.

profile(g).rep is the repetition number: the largest number of vertices
sharing one degree value.  The profile adds two degree-class sets used
by the counting identity: over the value range [1, n-1], s_set collects
degrees hit by exactly two vertices and t_set collects degrees hit by
none.  Degree 0 and degree n-1 outside that range are deliberately not
tracked.

profile reads one graph.  The counting-identity sweep reads the span
_pool cuts, records of one order joined, all at once with
_identity_codes, bit-sliced with one byte lane per record, as the lemma
scan reads its covers: graphcore._degree_counts counts the vertices of
each degree value, and from those counts it takes the sizes of both
sets, each step one bytes.translate and one int.from_bytes per lane.
profile is its reference in the tests.
"""

from collections import Counter
from typing import NamedTuple

from .errors import OrderOutOfRange
from .graphcore import _IS, _THRICE, Graph, _degree_counts


class DegreeProfile(NamedTuple):
    rep: int
    s_set: frozenset
    t_set: frozenset


def profile(g: Graph) -> DegreeProfile:
    hist = Counter(g.degrees)
    s = frozenset(d for d in range(1, g.n) if hist.get(d, 0) == 2)
    t = frozenset(d for d in range(1, g.n) if d not in hist)
    return DegreeProfile(max(hist.values()), s, t)


_EXEMPT = 255  # the code of a record the counting identity does not apply to

# a translate table that maps every nonzero byte to 255
_ALL = b"\0" + b"\xff" * 255


def _identity_codes(span) -> bytes:
    """One code byte per record of span, graph6 records of one order, up
    to 31, joined: _EXEMPT where a degree is held three times or a
    vertex is isolated, where the counting identity does not apply, and
    otherwise 16 * len(s_set) + len(t_set) of the record's profile.

    graphcore._degree_counts checks the span with graphcore._shape and
    reads its count lanes: byte i of every lane belongs to record i.
    The sizes of both sets sum translates of the count lanes of degrees
    1..n-1.  No lane carries: a count is at most n, and a code at most
    15 * (n // 2) + n - 1, which is 255 at order 31.
    """
    n, _, counts = _degree_counts(span)
    if n > 31:
        raise OrderOutOfRange(f"identity codes cover orders up to 31, got {n}")
    count = len(counts[0])

    def tally(table, lanes):
        """The sum of each lane translated by table, as one int."""
        return sum(int.from_bytes(lane.translate(table), "little") for lane in lanes)

    # nonzero where a vertex is isolated or a degree held three times
    void = int.from_bytes(counts[0], "little") + tally(_THRICE, counts[1:])
    code = (16 * tally(_IS[2], counts[1:]) + tally(_IS[0], counts[1:])) | tally(
        _ALL, [void.to_bytes(count, "little")]
    )
    return code.to_bytes(count, "little")
