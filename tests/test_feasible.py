import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rep3 import errors, feasible
from rep3.enumeration import enumerate_graphs
from rep3.feasible import (
    TripleVerdict,
    _triple_signatures,
    _triple_verdicts,
    budget,
    classify_triple,
    equalize_triple,
    find_feasible_in_five,
    p4_structure,
)
from rep3.graphcore import from_edge_list

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
    nbr = [set(g.neighbors(v)) for v in range(g.n)]
    closed = [nbr[v] | {v} for v in range(g.n)]

    def holds(cond, x, y, z):
        edges = {
            frozenset(e)
            for e in [(x, y), (x, z), (y, z)]
            if g.has_edge(*e)
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
            if not (g.degree(x) <= g.degree(y) <= g.degree(z)):
                continue
            if holds(cond, x, y, z):
                return f"C{cond}", perm
    return None, None


class TestClassify:
    def test_k3_clique(self):
        tc = classify_triple(helpers.k3(), (0, 1, 2))
        assert tc.condition == "C2"
        assert tc.balanceable and not tc.accessible
        assert (tc.p, tc.q) == (0, 0)
        assert tc.labeling == (0, 1, 2)

    def test_p4_infeasible_triple(self):
        tc = classify_triple(helpers.p4(), (0, 1, 2))
        assert tc.condition is None
        assert tc.labeling is None
        assert not tc.balanceable and not tc.accessible
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
        assert tc.accessible and not tc.balanceable
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


def check_signature_exactness(graphs):
    """The table's signature and the region signature fix each other;
    triples sharing a signature get the same direct answers, at every
    allowance 0..n-3; and the verdict table equals the direct answer for
    every triple."""
    region_of, key_of, answer_of = {}, {}, {}
    for g in graphs:
        nbr = [set(g.neighbors(v)) for v in range(g.n)]
        keys = dict(_triple_signatures(g))
        table = _triple_verdicts(g)
        assert list(table) == list(keys) == list(itertools.combinations(range(g.n), 3))
        for s, verdict in table.items():
            key, region = keys[s], region_signature(g, nbr, s)
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
            assert verdict == TripleVerdict(tc.condition, tc.balanceable, b, strong_fail)


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
        from rep3.feasible import TripleClassification

        tc = TripleClassification("C1", (0, 1, 2), True, False, p, q)
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
            assert h.degree(a) == h.degree(b) == h.degree(c)


class TestFindFeasibleInFive:
    def test_antiregular5(self):
        g = helpers.antiregular5()
        triple, tc = find_feasible_in_five(g, range(5))
        assert triple == (2, 3, 4)
        assert tc.condition == "C1"
        assert 3 in triple  # median of the degree sort

    def test_c5(self):
        g = helpers.c5()
        triple, tc = find_feasible_in_five(g, range(5))
        assert triple == (0, 1, 2)
        assert tc.condition == "C4"
        assert 2 in triple

    def test_star4_leaves(self):
        g = helpers.star(4)
        triple, tc = find_feasible_in_five(g, range(5))
        assert triple == (1, 2, 3)
        assert tc.condition == "C1"

    def test_median_always_inside(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        u = [0, 1, 2, 3, 4]
        order = sorted(u, key=lambda v: (g.degree(v), v))
        triple, tc = find_feasible_in_five(g, u)
        assert order[2] in triple
        assert tc.condition is not None

    def test_wrong_size(self):
        with pytest.raises(errors.WrongSetSize):
            g = helpers.c5()
            find_feasible_in_five(g, (0, 1, 2))

    @given(st.integers(5, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_never_fails_and_contains_median(self, n, data):
        g = random_graph(n, data)
        u = data.draw(
            st.lists(st.integers(0, n - 1), min_size=5, max_size=5, unique=True)
        )
        triple, tc = find_feasible_in_five(g, u)
        order = sorted(u, key=lambda v: (g.degree(v), v))
        assert order[2] in triple
        assert set(triple) <= set(u)
        assert tc.condition is not None


class TestP4Structure:
    def test_p4_is_induced_path(self):
        g = helpers.p4()
        verdict = p4_structure(g, range(4))
        assert verdict.kind == "induced_path_ok"
        assert verdict.triple is None

    def test_k4(self):
        g = helpers.k4()
        verdict = p4_structure(g, range(4))
        assert verdict.kind == "has_balanceable"
        assert verdict.triple == (0, 1, 2)

    def test_c4(self):
        g = helpers.c4()
        verdict = p4_structure(g, range(4))
        assert verdict.kind == "has_balanceable"

    def test_inside_larger_graph(self):
        # C6 restricted to four consecutive vertices: induced path, but
        # the whole 4-set is regular so a balanceable triple exists
        g = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        assert p4_structure(g, (0, 1, 2, 3)).kind == "has_balanceable"

    def test_wrong_size(self):
        with pytest.raises(errors.WrongSetSize):
            g = helpers.p4()
            p4_structure(g, (0, 1, 2))

    @given(st.integers(4, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_never_violation(self, n, data):
        g = random_graph(n, data)
        x = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        assert p4_structure(g, x).kind != "violation"

    @given(st.integers(4, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_balanceable_verdict_matches_classifier(self, n, data):
        g = random_graph(n, data)
        x = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        verdict = p4_structure(g, x)
        found = any(
            classify_triple(g, s).balanceable
            for s in itertools.combinations(sorted(x), 3)
        )
        assert (verdict.kind == "has_balanceable") == found
