"""Degree statistics built on the degree histogram.

profile(g).rep is the repetition number: the largest number of vertices
sharing one degree value.  The profile adds two degree-class sets used
by the counting identity: over the value range [1, n-1], s_set collects
degrees hit by exactly two vertices and t_set collects degrees hit by
none.  Degree 0 and degree n-1 outside that range are deliberately not
tracked.
"""

from collections import Counter
from dataclasses import dataclass

from .graphcore import Graph


@dataclass(frozen=True)
class DegreeProfile:
    histogram: dict
    rep: int
    s_set: frozenset
    t_set: frozenset


def profile(g: Graph) -> DegreeProfile:
    hist = Counter(g.degrees)
    s = frozenset(d for d in range(1, g.n) if hist.get(d, 0) == 2)
    t = frozenset(d for d in range(1, g.n) if d not in hist)
    return DegreeProfile(dict(hist), max(hist.values()), s, t)
