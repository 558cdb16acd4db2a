import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import errors, feasible
from rep3.enumeration import enumerate_graphs
from rep3.feasible import (
    TripleClassification,
    _lemma_scan,
    budget,
    classify_triple,
    equalize_triple,
)
from rep3.graphcore import from_edge_list, write_graph6
from rep3.solver import min_deletion_for_rep3

import helpers


def random_graph(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [p for p in pairs if data.draw(st.booleans())])


def naive_classify(g, s):
    """Independent reference: plain-set reading of the eight conditions,
    every vertex permutation consistent with the degree sort.  Returns
    (condition, labeling) for the first condition, and its first
    labeling in lexicographic order, that holds; (None, None) if none
    does."""
    nbr = helpers.neighbor_sets(g)
    closed = [nbr[v] | {v} for v in range(g.n)]

    def holds(cond, x, y, z):
        edges = {
            frozenset((a, b))
            for a, b in [(x, y), (x, z), (y, z)]
            if g.rows[a] >> b & 1
        }
        e = lambda a, b: frozenset((a, b)) in edges
        if cond == 1:
            return not edges
        if cond == 2:
            return len(edges) == 3
        if cond == 3:
            return edges == {frozenset((x, y))}
        if cond == 4:
            return e(x, y) and e(x, z) and not e(y, z)
        if cond == 5:
            return edges == {frozenset((x, z))} and bool(nbr[y] - nbr[z])
        if cond == 6:
            return (
                e(x, y) and e(y, z) and not e(x, z) and bool(nbr[x] - closed[y])
            )
        if cond == 7:
            return (
                edges == {frozenset((y, z))}
                and bool(nbr[x] - nbr[y])
                and bool(nbr[x] - nbr[z])
            )
        if cond == 8:
            return (
                e(x, z) and e(y, z) and not e(x, y)
                and bool(nbr[x] - closed[z])
                and bool(nbr[y] - closed[z])
            )

    for cond in range(1, 9):
        for perm in itertools.permutations(sorted(s)):
            x, y, z = perm
            if not (g.degrees[x] <= g.degrees[y] <= g.degrees[z]):
                continue
            if holds(cond, x, y, z):
                return f"C{cond}", perm
    return None, None


class TestClassify:
    def test_k3_clique(self):
        tc = classify_triple(helpers.k3(), (0, 1, 2))
        assert tc.condition == "C2"
        assert tc.balanceable
        assert (tc.p, tc.q) == (0, 0)
        assert tc.labeling == (0, 1, 2)

    def test_p4_infeasible_triple(self):
        tc = classify_triple(helpers.p4(), (0, 1, 2))
        assert tc.condition is None
        assert tc.labeling is None
        assert not tc.balanceable
        assert (tc.p, tc.q) == (0, 1)

    def test_p4_other_triples_infeasible(self):
        for s in [(0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            assert classify_triple(helpers.p4(), s).condition is None

    def test_c5_single_edge_triple(self):
        tc = classify_triple(helpers.c5(), (0, 2, 4))
        assert tc.condition == "C3"
        # the satisfying labeling names the edge 0-4 as xy
        assert tc.labeling == (0, 4, 2)
        assert tc.balanceable

    def test_c5_two_edge_triple(self):
        tc = classify_triple(helpers.c5(), (0, 1, 2))
        assert tc.condition == "C4"
        assert tc.labeling == (1, 0, 2)

    def test_paw_triangle(self):
        tc = classify_triple(helpers.paw(), (0, 1, 2))
        assert tc.condition == "C2"
        assert (tc.p, tc.q) == (1, 0)

    def test_antiregular5_independent_triple(self):
        tc = classify_triple(helpers.antiregular5(), (2, 3, 4))
        assert tc.condition == "C1"
        assert tc.labeling == (4, 2, 3)
        assert (tc.p, tc.q) == (0, 1)

    def test_accessible_example(self):
        # single edge joining the lowest and highest degree, third vertex
        # in between: the clique/edge shapes all fail, the neighborhood
        # difference test passes
        g = from_edge_list(6, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 5)])
        tc = classify_triple(g, (0, 1, 2))
        assert tc.condition == "C5"
        assert tc.feasible and not tc.balanceable
        assert naive_classify(g, (0, 1, 2)) == ("C5", tc.labeling)

    def test_not_a_triple(self):
        with pytest.raises(errors.NotATriple):
            classify_triple(helpers.k3(), (0, 1))
        with pytest.raises(errors.NotATriple):
            classify_triple(helpers.k3(), (0, 1, 1))

    def test_vertex_out_of_range(self):
        with pytest.raises(errors.VertexOutOfRange):
            classify_triple(helpers.k3(), (0, 1, 7))

    def test_json_shape(self):
        d = classify_triple(helpers.paw(), (0, 1, 2)).to_dict()
        assert d == {"condition": "C2", "labeling": [1, 2, 0], "p": 1, "q": 0}

    def test_json_shape_infeasible(self):
        d = classify_triple(helpers.p4(), (0, 1, 2)).to_dict()
        assert d == {"condition": None, "p": 0, "q": 1}

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_reference(self, n, data):
        g = random_graph(n, data)
        s = data.draw(
            st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        )
        tc = classify_triple(g, s)
        assert (tc.condition, tc.labeling) == naive_classify(g, s)

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_isomorphism_invariant_condition(self, n, data):
        g = random_graph(n, data)
        perm = data.draw(st.permutations(range(n)))
        h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
        s = data.draw(
            st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        )
        assert (
            classify_triple(g, s).condition
            == classify_triple(h, [perm[v] for v in s]).condition
        )


class TestClassifyTriples:
    def test_matches_naive_reference_on_every_class(self, graphs_by_n):
        # the pattern table must keep the reference's tie order exactly:
        # reports and rep3 classify print the (condition, labeling) pair
        for n in range(3, 7):
            for g in graphs_by_n(n):
                for s in itertools.combinations(range(n), 3):
                    tc = classify_triple(g, s)
                    assert (tc.condition, tc.labeling) == naive_classify(g, s)


def region_signature(g, nbr, s):
    """A triple's signature by its definition: the three internal edge
    bits and how many of the other vertices fall in each of the eight
    adjacency regions relative to the triple.  nbr[v] is v's neighbour
    set."""
    a, b, c = s
    regions = [0] * 8
    for v in range(g.n):
        if v not in s:
            regions[(v in nbr[a]) + 2 * (v in nbr[b]) + 4 * (v in nbr[c])] += 1
    return (b in nbr[a], c in nbr[a], c in nbr[b], *regions)


# where each entry of the reference signature after n sits in a packed
# signature: (shift, width), edge bits first, then degrees, then
# common-neighbour counts
PACKED_FIELDS = (
    (0, 1), (1, 1), (2, 1), (3, 4), (7, 4), (11, 4), (15, 4), (19, 4), (23, 4), (27, 4)
)


def unpack_signature(n, key):
    """The reference signature a packed one encodes at order n."""
    assert 0 <= key < 1 << 31
    return (n, *(key >> shift & (1 << width) - 1 for shift, width in PACKED_FIELDS))


class KeyLog(dict):
    """A verdict memo that logs every key the lemma scan looks up."""

    def __init__(self, memo):
        super().__init__(memo)
        self.log = []

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)


def scan(g, oracle=min_deletion_for_rep3):
    """_lemma_scan of g's graph6 record alone: ((n, budgeted, paired,
    failures, ()), paths, gaps, medians, low)."""
    (result,), findings = _lemma_scan(write_graph6(g), oracle)
    return (result, *(findings[0][3:] if findings else ([], [], [], [])))


def packed_keys(graphs):
    """(g, keys) for each g of graphs: the packed signature the lemma
    scan looks up for each 3-set of g, in combinations order.  The
    graphs of each order are joined into one span and read as one run,
    whose keys are laid out triple-major; they are read from the memo's
    traffic on a second scan, once the first has filled the memo."""
    for n, group in itertools.groupby(graphs, key=lambda g: g.n):
        group = list(group)
        span = b"".join(map(write_graph6, group))
        _lemma_scan(span, min_deletion_for_rep3)
        memo = KeyLog(feasible._VERDICTS[n])
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(feasible._VERDICTS, n, memo)
            mp.setattr(feasible, "_SCAN_RUN", len(group))
            _lemma_scan(span, min_deletion_for_rep3)
        yield from zip(group, (memo.log[i::len(group)] for i in range(len(group))))


def check_packed_fields(graphs):
    """Each 3-set's packed signature decodes, field by field, to its
    reference signature; returns the largest degree and common count
    seen, so a caller can tell the widest fields were reached."""
    widest = (0, 0)
    for g, packed in packed_keys(graphs):
        reference = list(helpers.triple_signatures(g))
        assert [s for s, _ in reference] == list(itertools.combinations(range(g.n), 3))
        assert len(packed) == len(reference)
        for (_, sig), key in zip(reference, packed):
            assert unpack_signature(g.n, key) == sig
            widest = max(widest[0], *sig[4:7]), max(widest[1], *sig[7:])
    return widest


def unpack_verdict(code):
    """A verdict code's fields: feasible, balanceable, the budget when
    it is at most n - 3 (else None), and unequalizable within it."""
    budgeted = code & feasible._BUDGETED
    return (
        bool(code & feasible._FEASIBLE),
        bool(code & feasible._BALANCEABLE),
        code >> 4 if budgeted else None,
        bool(code & feasible._UNEQUALIZABLE),
    )


def check_signature_exactness(graphs):
    """The packed signature (with n) and the region signature fix each
    other; triples sharing a signature get the same direct answers, at
    every allowance 0..n-3; and the memo code the lemma scan reads for
    each triple decodes to the direct answer."""
    region_of, key_of, answer_of = {}, {}, {}
    for g, keys in packed_keys(graphs):
        nbr = helpers.neighbor_sets(g)
        memo = feasible._VERDICTS.get(g.n, {})
        triples = itertools.combinations(range(g.n), 3)
        for s, packed in zip(triples, keys, strict=True):
            code = memo[packed]
            key = (g.n, packed)
            region = region_signature(g, nbr, s)
            assert region_of.setdefault(key, region) == region
            assert key_of.setdefault(region, key) == key
            tc = classify_triple(g, s)
            # the search tries sizes in increasing order, so the smallest
            # set answers every allowance at once
            d = equalize_triple(g, s, g.n - 3)
            unequalizable = tuple(d is None or len(d) > k for k in range(g.n - 2))
            answer = (tc.condition is None, tc.balanceable, tc.p, tc.q, unequalizable)
            assert answer_of.setdefault(key, answer) == answer
            b = budget(tc) if tc.feasible else None
            if b is not None and b > g.n - 3:
                b = None
            strong_fail = b is not None and unequalizable[b]
            assert unpack_verdict(code) == (tc.feasible, tc.balanceable, b, strong_fail)


def order_9_degree_sorted(count=300, seed=25):
    """Seeded order-9 graphs relabeled by (degree, index), each with an
    edge probability drawn from [0, 1), and K9: dense ones reach the
    widest fields, degree 8 and common count 7."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(9), 2))
    graphs = [helpers.k9()]
    for _ in range(count):
        p = rng.random()
        graphs.append(from_edge_list(9, [e for e in pairs if rng.random() < p]))
    return [helpers.degree_sorted(g)[0] for g in graphs]


class TestPackedSignatures:
    def test_fields_through_order_7(self, graphs_by_n):
        check_packed_fields(g for n in range(1, 8) for g in graphs_by_n(n))

    def test_fields_at_order_9(self):
        # degree 8 sets a 4-bit field's top bit, common count 7 its other three
        assert check_packed_fields(order_9_degree_sorted()) == (8, 7)

    def test_scan_stops_above_order_9(self):
        # 4-bit fields end the exact packing at 9
        g = helpers.degree_sorted(helpers.seeded_graph(10, 10))[0]
        with pytest.raises(errors.OrderOutOfRange, match="got 10$"):
            scan(g)


@pytest.mark.parametrize(
    "degs",
    [
        (), (0, 1, 2, 3), (2, 2, 2, 2), (0, 0, 2, 2),
        (1, 1, 3, 3, 3, 5, 5, 6), (0, 0, 1, 2, 2, 2, 3, 4, 4),
    ],
)
def test_paired_gap_sets_match_brute_force(degs):
    # chained gaps (d, d+2, d+4) and repeated middles list every set in
    # lexicographic order, as the report lists them
    expected = [
        x for x in itertools.combinations(range(len(degs)), 4)
        if degs[x[0]] == degs[x[1]] and degs[x[2]] == degs[x[3]] == degs[x[0]] + 2
    ]
    assert helpers.paired_gap_sets(degs) == expected


def balanceable_cover(g, x):
    """Whether a balanceable 3-subset covers the 4-set x of g."""
    return any(classify_triple(g, s).balanceable for s in itertools.combinations(x, 3))


def test_paired_gaps_match_reference(graphs_by_n, monkeypatch):
    # the reference's paired-gap 4-sets holding a balanceable 3-set are
    # counted; with no deletion set found, they are also reported, unless
    # a degree held three times makes the minimum 0 unasked
    monkeypatch.setattr(feasible, "_VERDICTS", {})
    graphs = [g for n in range(4, 8) for g in graphs_by_n(n)] + order_9_degree_sorted(60)
    reached = 0
    for g in graphs:
        expected = [x for x in helpers.paired_gap_sets(g.degrees) if balanceable_cover(g, x)]
        (_, _, paired, _, _), _, gaps, _, _ = scan(g, lambda h, k: None)
        assert paired == len(expected)
        if max(map(g.degrees.count, g.degrees)) >= 3:
            assert gaps == []
        else:
            assert gaps == expected
            reached += bool(expected)
    assert reached > 0


def path_index(g, x):
    """The index of the sorted 4-set x of the degree-sorted graph g in
    feasible._PATH_OK: its six induced edge bits in pair order ab, ac,
    ad, bc, bd, cd, then whether ab, bc and cd tie in degree."""
    a, b, c, d = x
    rows, degs = g.rows, g.degrees
    bits = [rows[u] >> v & 1 for u, v in itertools.combinations(x, 2)]
    ties = [degs[a] == degs[b], degs[b] == degs[c], degs[c] == degs[d]]
    return sum(bit << k for k, bit in enumerate(bits + ties))


def path_failures(span, monkeypatch):
    """Per record of span, the 4-sets whose path lane fails, with every
    3-set read as neither feasible nor balanceable, so that no 4-set is
    covered and every 4-set's path lane is reported."""
    with monkeypatch.context() as mp:
        mp.setattr(feasible, "_VERDICTS", {})
        mp.setattr(feasible, "_verdict", lambda g, s3: 0)
        results, findings = _lemma_scan(span, lambda g, k: None)
    found = [[] for _ in results]
    for i, _, _, paths, *_ in findings:
        found[i] = paths
    return found


def path_reference(graphs):
    """Per graph, the 4-sets that fail helpers.induced_path_ok."""
    return [
        [x for x in itertools.combinations(range(g.n), 4) if not helpers.induced_path_ok(g, x)]
        for g in graphs
    ]


def test_path_lanes_match_reference(graphs_by_n, monkeypatch):
    # every 4-set of every class through order 7, one span per order,
    # and of the seeded order-9 graphs
    spans = [list(graphs_by_n(n)) for n in range(4, 8)] + [order_9_degree_sorted()]
    for graphs in spans:
        span = b"".join(map(write_graph6, graphs))
        assert path_failures(span, monkeypatch) == path_reference(graphs)


def test_path_table_fault_is_caught(graphs_by_n, monkeypatch):
    # each entry of _PATH_OK that a 4-set of a class through order 7
    # reaches, flipped alone, changes that class's path lanes, so the
    # comparison above fails under it
    witness = {}
    for n in range(4, 8):
        for g in graphs_by_n(n):
            for x in itertools.combinations(range(n), 4):
                witness.setdefault(path_index(g, x), g)
    assert len(witness) > 100
    real = feasible._PATH_OK
    for entry, g in witness.items():
        planted = bytearray(real)
        planted[entry] ^= 1
        monkeypatch.setattr(feasible, "_PATH_OK", bytes(planted))
        assert path_failures(write_graph6(g), monkeypatch) != path_reference([g])


class TestTripleVerdicts:
    # the reports cannot catch a wrong memo: strong_form_failures is 0 at
    # every order, so a memo answering "equalizable" throughout would
    # leave every report unchanged.  Hence the triple-by-triple check,
    # and the check that a signature fixes the answer at every
    # allowance, not only at the budget the memo is asked about.

    def test_signature_exact_through_order_7(self, graphs_by_n, monkeypatch):
        monkeypatch.setattr(feasible, "_VERDICTS", {})
        check_signature_exactness(g for n in range(1, 8) for g in graphs_by_n(n))

    @pytest.mark.extended
    def test_signature_exact_order_8(self, monkeypatch):
        monkeypatch.setattr(feasible, "_VERDICTS", {})
        check_signature_exactness(enumerate_graphs(8))


class TestBudget:
    def test_values(self):
        k3 = classify_triple(helpers.k3(), (0, 1, 2))
        assert budget(k3) == 0
        paw = classify_triple(helpers.paw(), (0, 1, 2))
        assert budget(paw) == 2  # p=1, q=0

    def test_gap_pair(self):
        # independent triple with degrees 1, 2, 4
        g = from_edge_list(7, [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6)])
        tc = classify_triple(g, (0, 1, 2))
        assert tc.condition == "C1"
        assert (tc.p, tc.q) == (2, 1)
        assert budget(tc) == 5

    def test_infeasible_rejected(self):
        tc = classify_triple(helpers.p4(), (0, 1, 2))
        with pytest.raises(errors.NotFeasible):
            budget(tc)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_direct_substitution(self, p, q):
        tc = TripleClassification("C1", (0, 1, 2), True, p, q)
        assert budget(tc) == p + q + max(p, q)


class TestEqualize:
    def test_already_equal(self):
        assert equalize_triple(helpers.k3(), (0, 1, 2), 0) == ()

    def test_paw(self):
        assert equalize_triple(helpers.paw(), (0, 1, 2), 2) == (3,)

    def test_antiregular5(self):
        assert equalize_triple(helpers.antiregular5(), (2, 3, 4), 2) == (1,)

    def test_none_within_budget(self):
        assert equalize_triple(helpers.p4(), (0, 1, 2), 1) is None

    def test_allowance_capped_at_survivors(self):
        # order 4 leaves one deletable vertex however large the ask
        assert equalize_triple(helpers.p4(), (0, 1, 2), 3) is None
        g = helpers.antiregular5()
        assert equalize_triple(g, (2, 3, 4), 99) == (1,)

    def test_deletion_avoids_triple(self):
        g = helpers.antiregular5()
        d = equalize_triple(g, (2, 3, 4), 2)
        assert set(d).isdisjoint({2, 3, 4})

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_result_equalizes(self, n, data):
        from rep3.graphcore import delete_vertices

        g = random_graph(n, data)
        s = data.draw(
            st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        )
        d = equalize_triple(g, s, n - 3)
        if d is not None:
            h, remap = delete_vertices(g, d)
            a, b, c = (remap[v] for v in s)
            assert h.degrees[a] == h.degrees[b] == h.degrees[c]


def cover_bit(g, x):
    """The bit of the set x of g (a 4-set or a 5-set) in the cover
    lanes _lemma_scan builds on g relabeled by (degree, index), and
    whether x failed the induced-path test.  The scan reports a 5-set
    when its bit is clear and a 4-set when its bit is clear and its path
    lane fails, so the 4-set's bit is read from a scan with every path
    lane failing, which reports exactly the 4-sets whose bit is clear."""
    h, order = helpers.degree_sorted(g)
    y = tuple(sorted(order.index(v) for v in x))
    _, paths, _, medians, _ = scan(h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasible, "_PATH_OK", bytes(512))
        uncovered = scan(h)[1]
    if len(y) == 4:
        return int(y not in uncovered), y in paths
    return int(y not in medians), False


def median_covered(g, u):
    """Whether the cover masks mark the 5-set u of g as holding a
    feasible 3-subset through its median-degree vertex."""
    return cover_bit(g, u)[0] == 1


def feasible_through_median(g, u):
    """The classifier's answer to the same question, in g's labels."""
    m = sorted(u, key=lambda v: (g.degrees[v], v))[2]
    return any(
        classify_triple(g, s).feasible
        for s in itertools.combinations(sorted(u), 3)
        if m in s
    )


def p4_kind(g, x):
    """The structure kind of the 4-set x of g, as the lemma worker reads
    it: covered by a balanceable 3-subset, or else the induced-path test
    on the relabeled graph."""
    bit, failed = cover_bit(g, x)
    if bit:
        return "has_balanceable"
    return "violation" if failed else "induced_path_ok"


class TestFindFeasibleInFive:
    # the cover masks say whether a feasible triple through the median
    # exists, not which one; each graph keeps its witness triple, checked
    # with the classifier
    def test_antiregular5(self):
        g = helpers.antiregular5()
        assert median_covered(g, range(5))
        # vertex 3 is the median of the degree sort
        assert classify_triple(g, (2, 3, 4)).condition == "C1"

    def test_c5(self):
        g = helpers.c5()
        assert median_covered(g, range(5))
        assert classify_triple(g, (0, 1, 2)).condition == "C4"

    def test_star4_leaves(self):
        g = helpers.star(4)
        assert median_covered(g, range(5))
        assert classify_triple(g, (1, 2, 3)).condition == "C1"

    def test_median_always_inside(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        u = [0, 1, 2, 3, 4]
        assert median_covered(g, u)
        assert feasible_through_median(g, u)

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_never_fails_and_contains_median(self, n, data):
        g = random_graph(n, data)
        u = data.draw(
            st.lists(st.integers(0, n - 1), min_size=5, max_size=5, unique=True)
        )
        assert median_covered(g, u)
        assert feasible_through_median(g, u)


class TestP4Structure:
    def test_p4_is_induced_path(self):
        assert p4_kind(helpers.p4(), range(4)) == "induced_path_ok"

    def test_k4(self):
        assert p4_kind(helpers.k4(), range(4)) == "has_balanceable"

    def test_c4(self):
        assert p4_kind(helpers.c4(), range(4)) == "has_balanceable"

    def test_inside_larger_graph(self):
        # C6 restricted to four consecutive vertices: induced path, but
        # the whole 4-set is regular so a balanceable triple exists
        g = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        assert p4_kind(g, (0, 1, 2, 3)) == "has_balanceable"

    @given(st.integers(4, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_never_violation(self, n, data):
        g = random_graph(n, data)
        x = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        assert p4_kind(g, x) != "violation"

    @given(st.integers(4, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_balanceable_verdict_matches_classifier(self, n, data):
        g = random_graph(n, data)
        x = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        found = any(
            classify_triple(g, s).balanceable
            for s in itertools.combinations(sorted(x), 3)
        )
        assert (p4_kind(g, x) == "has_balanceable") == found
