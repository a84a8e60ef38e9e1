"""alpha / maximum-independent-set enumeration / reductions around a
max-degree vertex that lies in every maximum independent set."""

import random

import pytest

import oracles
from reslab.graphs import Graph, enumerate_labeled, induced, isomorphism_classes
from reslab.independence import (
    all_mis,
    alpha,
    mdi_vertices,
    prune_outside,
    reduce_to_unique_mis,
    reduction_pipeline,
)
from reslab.patterns import cycle, path

P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestAlpha:
    def test_exhaustive_small(self):
        for n in range(6):
            for g in enumerate_labeled(n):
                assert alpha(g) == oracles.brute_alpha(g)

    def test_class_reps_n7(self):
        for m in isomorphism_classes(7):
            g = Graph.from_mask(7, m)
            assert alpha(g) == oracles.brute_alpha(g)

    def test_examples(self):
        assert alpha(P5) == 3
        assert alpha(C4) == 2
        assert alpha(Graph(5)) == 5
        assert alpha(Graph(0)) == 0


def paths_and_cycles_alpha(parts) -> int:
    # ceil(k/2) for the path P_k, floor(k/2) for the cycle C_k
    return sum((g.n + (g.edge_count < g.n)) // 2 for g in parts)


def path_mdi(k: int) -> set[int]:
    # P_1 is one vertex; an odd path has one maximum independent set, its
    # even positions, whose interior ones have maximum degree; an even
    # path has two maximum independent sets with no common vertex
    if k == 1:
        return {0}
    return set(range(2, k - 2, 2)) if k % 2 else set()


PATHS_AND_CYCLES = [
    (cycle(3), path(4)),
    (cycle(5), cycle(6)),
    (path(2), path(7), cycle(4)),
    (path(1), path(1), cycle(3), path(3)),
    (cycle(4), cycle(4), cycle(4)),
    (path(3), cycle(5), path(6)),
    (cycle(7), path(9)),
    (path(5), path(5), path(1)),
]


class TestAlphaPathsAndCycles:
    """alpha finishes in closed form once the maximum degree is at most 2."""

    @pytest.mark.parametrize(
        "parts",
        PATHS_AND_CYCLES,
        ids=lambda parts: "+".join(
            f"{'C' if g.edge_count == g.n > 2 else 'P'}{g.n}" for g in parts
        ),
    )
    def test_relabeled_unions(self, parts):
        g = oracles.disjoint_union(*parts)
        perm = list(range(g.n))
        random.Random(g.n * 31 + len(parts)).shuffle(perm)
        g = oracles.relabel(g, perm)
        assert alpha(g) == paths_and_cycles_alpha(parts) == oracles.brute_alpha(g)
        assert mdi_vertices(g) == oracles.brute_mdi(g)

    @pytest.mark.parametrize("k", range(1, 33))
    def test_paths(self, k):
        g = path(k)
        assert alpha(g) == (k + 1) // 2
        assert mdi_vertices(g) == path_mdi(k)
        if k <= 12:
            assert path_mdi(k) == oracles.brute_mdi(g)

    @pytest.mark.parametrize("k", range(3, 33))
    def test_cycles(self, k):
        g = cycle(k)
        assert alpha(g) == k // 2
        # every vertex misses some maximum independent set
        assert mdi_vertices(g) == frozenset()
        if k <= 12:
            assert oracles.brute_mdi(g) == frozenset()


class TestAllMIS:
    def test_exhaustive_small(self):
        for n in range(6):
            for g in enumerate_labeled(n):
                rep = all_mis(g)
                assert rep.alpha == oracles.brute_alpha(g)
                assert list(rep.sets) == oracles.brute_all_mis(g)

    def test_sorted_lexicographically(self):
        rep = all_mis(C4)
        assert [sorted(s) for s in rep.sets] == [[0, 2], [1, 3]]

    def test_empty_graph(self):
        rep = all_mis(Graph(0))
        assert rep.alpha == 0 and rep.sets == (frozenset(),)

    def test_cap(self):
        with pytest.raises(ValueError):
            all_mis(Graph(33))


class TestMDIVertices:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                assert mdi_vertices(g) == oracles.brute_mdi(g)

    def test_frozen_examples(self):
        assert mdi_vertices(P5) == {2}
        assert mdi_vertices(C4) == frozenset()
        assert mdi_vertices(Graph(4, [(0, 1), (0, 2), (0, 3)])) == frozenset()
        assert mdi_vertices(Graph(3)) == {0, 1, 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mdi_vertices(Graph(0))


# n=7 hosts where the reductions genuinely delete vertices; the small-n
# exhaustive loops below only exercise the identity cases because up to
# six vertices such a vertex forces the maximum independent set unique.
MULTI_MIS_HOST = Graph(7, [(0, 4), (0, 6), (1, 4), (1, 5), (2, 3)])  # v = 4
PRUNABLE_HOST = Graph(7, [(0, 4), (0, 6), (1, 3), (1, 5), (2, 3), (2, 4)])  # v = 3


class TestReduceToUniqueMIS:
    def test_identity_when_already_unique(self):
        assert reduce_to_unique_mis(P5, 2) == P5

    def test_multi_mis_host(self):
        sets = [sorted(s) for s in all_mis(MULTI_MIS_HOST).sets]
        assert sets == [[2, 4, 5, 6], [3, 4, 5, 6]]
        assert mdi_vertices(MULTI_MIS_HOST) == {4}
        g1 = reduce_to_unique_mis(MULTI_MIS_HOST, 4)
        # vertex 3 (the swappable set member) goes; 4 lands at index 3
        assert g1 == Graph(6, [(0, 3), (0, 5), (1, 3), (1, 4)])
        assert [sorted(s) for s in all_mis(g1).sets] == [[2, 3, 4, 5]]

    def test_rejects_non_qualifying_vertex(self):
        with pytest.raises(ValueError):
            reduce_to_unique_mis(P5, 0)  # not max degree
        with pytest.raises(ValueError):
            reduce_to_unique_mis(C4, 0)  # in some but not all sets

    def test_keeps_lexicographically_least_set(self):
        # the edge 0-2 beside the path 5-1-4-3-6: the sets {0,4,5,6} and
        # {2,4,5,6} tie, and keeping the least one deletes 2, not 0
        g = Graph(7, [(0, 2), (1, 4), (1, 5), (3, 4), (3, 6)])
        assert [sorted(s) for s in all_mis(g).sets] == [[0, 4, 5, 6], [2, 4, 5, 6]]
        assert reduce_to_unique_mis(g, 4) == induced(g, [0, 1, 3, 4, 5, 6])
        assert reduce_to_unique_mis(g, 4) != induced(g, [1, 2, 3, 4, 5, 6])

    def test_exhaustive_invariants(self):
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                for v in mdi_vertices(g):
                    g1 = reduce_to_unique_mis(g, v)
                    assert g1 == g  # unique already at this size
                    assert len(all_mis(g1).sets) == 1


class TestPruneOutside:
    def test_prunable_host(self):
        assert mdi_vertices(PRUNABLE_HOST) == {3, 4}
        # already unique, so the first reduction is the identity
        assert reduce_to_unique_mis(PRUNABLE_HOST, 3) == PRUNABLE_HOST
        g2 = prune_outside(PRUNABLE_HOST, 3)
        # vertex 0 sits outside N(3) and the set {3,4,5,6}
        assert g2 == Graph(6, [(0, 2), (0, 4), (1, 2), (1, 3)])

    def test_requires_unique_mis(self):
        with pytest.raises(ValueError):
            prune_outside(MULTI_MIS_HOST, 4)

    def test_requires_qualifying_vertex(self):
        with pytest.raises(ValueError):
            prune_outside(P5, 0)


class TestReductionPipeline:
    def test_tracks_vertex(self):
        g2, v2 = reduction_pipeline(MULTI_MIS_HOST, 4)
        assert (g2, v2) == (Graph(6, [(0, 3), (0, 5), (1, 3), (1, 4)]), 3)
        g2, v2 = reduction_pipeline(PRUNABLE_HOST, 3)
        assert (g2, v2) == (Graph(6, [(0, 2), (0, 4), (1, 2), (1, 3)]), 2)

    def test_invariants_on_class_reps(self):
        # degree of v preserved, output fits N[v] union the set exactly,
        # v still max-degree and in the now-unique maximum independent set
        for n in (6, 7):
            for m in isomorphism_classes(n):
                g = Graph.from_mask(n, m)
                for v in mdi_vertices(g):
                    g2, v2 = reduction_pipeline(g, v)
                    assert g2.degree(v2) == g.degree(v)
                    assert alpha(g2) == alpha(g)
                    rep = all_mis(g2)
                    assert len(rep.sets) == 1
                    assert v2 in rep.sets[0]
                    assert g2.n == g.degree(v) + rep.alpha
                    assert v2 in oracles.brute_mdi(g2)


class TestPartitionNeighborhood:
    def test_classes_cover_neighborhood(self):
        # after the reductions every neighbor of v touches the set minus v,
        # so grouping N(v) by how many of those it touches leaves none out
        for n in (5, 6):
            for m in isomorphism_classes(n):
                g = Graph.from_mask(n, m)
                for v in mdi_vertices(g):
                    g2, v2 = reduction_pipeline(g, v)
                    (iset,) = all_mis(g2).sets
                    iprime = iset - {v2}
                    classes = {}
                    for x in g2.neighbors(v2):
                        classes.setdefault(len(g2.neighbors(x) & iprime), set()).add(x)
                    assert 0 not in classes
                    assert set().union(*classes.values()) == g2.neighbors(v2)
