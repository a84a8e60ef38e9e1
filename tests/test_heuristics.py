"""Maxine runs, exhaustive tie-break sweeps, and degree-dominating deletions."""

import os
import random

import pytest

import oracles
from reslab.degseq import residue
from reslab.graphs import Graph, enumerate_labeled, from_graph6
from reslab.heuristics import (
    NoHHVertexError,
    _hh_vertices_mask,
    _maximal_independent_sets,
    _paths_and_cycles_sizes,
    hh_property_vertices,
    max_degree_vertices,
    maxine_all,
    maxine_hh,
    maxine_hh_sizes,
    maxine_run,
)
from reslab.independence import alpha
from reslab.patterns import cycle, path
from reslab.verify import GraphFacts

CORPUS8 = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")

P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestMaxDegreeVertices:
    def test_examples(self):
        assert max_degree_vertices(P5) == {1, 2, 3}
        assert max_degree_vertices(C4) == {0, 1, 2, 3}
        assert max_degree_vertices(Graph(3)) == {0, 1, 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            max_degree_vertices(Graph(0))


class TestHHPropertyVertices:
    def test_frozen_examples(self):
        # in P5 only the middle vertex has neighbor degrees dominating
        assert hh_property_vertices(P5) == {2}
        assert hh_property_vertices(C4) == {0, 1, 2, 3}

    def test_edgeless_all_qualify(self):
        assert hh_property_vertices(Graph(3)) == {0, 1, 2}

    @staticmethod
    def by_definition(g: Graph, mask: int) -> tuple[int, int]:
        # inside mask: max degree, and min neighbor degree >= max
        # non-neighbor degree; -1 and nothing for the empty mask
        inside = [v for v in range(g.n) if mask >> v & 1]
        deg = {v: len(g.neighbors(v) & set(inside)) for v in inside}
        maxdeg = max(deg.values(), default=-1)
        expect = 0
        for v in inside:
            if deg[v] != maxdeg:
                continue
            nbrs = g.neighbors(v)
            lo = min((deg[u] for u in inside if u in nbrs), default=maxdeg)
            hi = max((deg[u] for u in inside if u != v and u not in nbrs), default=0)
            if lo >= hi:
                expect |= 1 << v
        return maxdeg, expect

    def test_definition_brute_force(self):
        for g in enumerate_labeled(6):
            _, expect = self.by_definition(g, 63)
            assert hh_property_vertices(g) == {v for v in range(6) if expect >> v & 1}, g

    def test_definition_every_mask(self):
        # the guided run asks on shrinking vertex sets
        for g in enumerate_labeled(5):
            for mask in range(32):
                assert _hh_vertices_mask(g.adj, mask) == self.by_definition(g, mask), (g, mask)

    def test_definition_corpus8(self):
        with open(CORPUS8, encoding="ascii") as fh:
            for line in fh:
                if line.strip():
                    g = from_graph6(line.strip())
                    assert _hh_vertices_mask(g.adj, 255) == self.by_definition(g, 255), line


class TestMaxineRun:
    def test_policies_on_p5(self):
        # low deletes 1, leaving 3 as the unique max-degree vertex
        low = maxine_run(P5, "low")
        assert low.deletions == (1, 3) and low.survivors == {0, 2, 4}
        assert low.size == 3
        high = maxine_run(P5, "high")
        assert high.deletions == (3, 1) and high.survivors == {0, 2, 4}

    def test_survivors_always_independent(self):
        for g in enumerate_labeled(5):
            for policy in ("low", "high"):
                out = maxine_run(g, policy)
                assert oracles.is_independent(g, out.survivors)
                assert len(out.deletions) + out.size == g.n

    def test_random_policy_reproducible(self):
        a = maxine_run(C4, "random", seed=7)
        b = maxine_run(C4, "random", seed=7)
        assert a == b

    def test_random_policy_within_achievable(self):
        for seed in range(10):
            out = maxine_run(P5, "random", seed=seed)
            assert out.size in maxine_all(P5).achievable_sizes

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            maxine_run(P5, "middle")

    def test_empty_graph(self):
        out = maxine_run(Graph(0))
        assert out.deletions == () and out.survivors == frozenset()


class TestMaxineAll:
    def test_frozen_examples(self):
        assert maxine_all(P5).achievable_sizes == {2, 3}
        assert maxine_all(C4).achievable_sizes == {2}
        assert maxine_all(Graph(3)).achievable_sizes == {3}

    def test_min_max_accessors(self):
        s = maxine_all(P5)
        assert s.min_size == 2 and s.max_size == 3

    def test_matches_explicit_tree_walk(self):
        # independent recursive enumeration of every tie-break choice
        def walk(g: Graph) -> set[int]:
            maxdeg = max((g.degree(v) for v in range(g.n)), default=0)
            if maxdeg == 0:
                return {g.n}
            out: set[int] = set()
            from reslab.graphs import delete_vertex

            for v in range(g.n):
                if g.degree(v) == maxdeg:
                    out |= walk(delete_vertex(g, v))
            return out

        for g in enumerate_labeled(5):
            assert maxine_all(g).achievable_sizes == walk(g), g

    def test_sandwich_small_n(self):
        # residue <= every achievable size <= independence number
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                r, a = residue(g), alpha(g)
                for m in maxine_all(g).achievable_sizes:
                    assert r <= m <= a, g

    def test_cap(self):
        with pytest.raises(ValueError):
            maxine_all(Graph(33))


def regular(n: int, d: int, seed: int) -> Graph:
    """A seeded simple d-regular graph on n vertices (pairing model with
    rejection), relabeled by a seeded permutation."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges):
            perm = rng.sample(range(n), n)
            return Graph(n, [(perm[a], perm[b]) for a, b in edges])


class TestMaxineAllOracle:
    """The degree-1 and degree-2 base cases and the phase step against the
    plain recurrence."""

    def test_every_labeled_graph_to_n6(self):
        for n in range(7):
            for g in enumerate_labeled(n):
                assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g), g

    def test_corpus8(self):
        with open(CORPUS8, encoding="ascii") as fh:
            for line in fh:
                if line.strip():
                    g = from_graph6(line.strip())
                    assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g), line

    @pytest.mark.parametrize(
        "parts",
        [
            (cycle(3), path(4)),
            (cycle(5), cycle(6)),
            (path(2), path(7), cycle(4)),
            (path(1), path(1), cycle(3), path(3)),
            (cycle(4), cycle(4), cycle(4), cycle(4)),
            (path(3), cycle(5), path(8)),
            (cycle(7), path(9)),
            (path(16),),
            (cycle(16),),
        ],
        ids=lambda parts: "+".join(
            f"{'C' if g.edge_count == g.n > 2 else 'P'}{g.n}" for g in parts
        ),
    )
    def test_relabeled_paths_and_cycles(self, parts):
        g = oracles.disjoint_union(*parts)
        perm = list(range(g.n))
        random.Random(g.n * 31 + len(parts)).shuffle(perm)
        g = oracles.relabel(g, perm)
        assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g)

    @pytest.mark.parametrize("k", range(12, 21))
    def test_cycles(self, k):
        assert maxine_all(cycle(k)).achievable_sizes == oracles.brute_maxine_sizes(cycle(k))

    def test_cycle_32_returns(self):
        # the recurrence was exponential in k on cycles; no timing asserted
        assert maxine_all(cycle(32)).achievable_sizes == set(range(11, 17))

    @pytest.mark.parametrize(
        "n,d", [(12, 3), (14, 3), (16, 3), (10, 4), (12, 4), (14, 4), (10, 3)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_relabeled_regular(self, n, d, seed):
        # every vertex ties at the start, so the first phase branches on
        # the maximal independent sets of the whole graph
        g = regular(n, d, seed * 100 + n)
        assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g)

    @pytest.mark.parametrize(
        "sizes", [(6, 8), (8, 8), (8, 10), (4, 6), (4, 8), (6, 6), (4, 10)]
    )
    def test_union_of_two_cubic_graphs(self, sizes):
        a, b = (regular(k, 3, 7 * k) for k in sizes)
        g = oracles.disjoint_union(a, b)
        perm = random.Random(sum(sizes)).sample(range(g.n), g.n)
        g = oracles.relabel(g, perm)
        assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g)

    @pytest.mark.parametrize(
        "parts",
        [
            (6, cycle(4), path(3), path(1)),
            (8, cycle(5), path(2), path(1)),
            (10, cycle(3), path(4), path(1)),
        ],
        ids=["Q6+C4+P3+K1", "Q8+C5+P2+K1", "Q10+C3+P4+K1"],
    )
    def test_union_of_cubic_paths_and_cycles(self, parts):
        # the components are split at the entry; each keeps its own memo
        g = oracles.disjoint_union(regular(parts[0], 3, 11 * parts[0]), *parts[1:])
        perm = random.Random(g.n).sample(range(g.n), g.n)
        g = oracles.relabel(g, perm)
        assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g)

    def test_graph_facts_share_the_entry(self):
        # GraphFacts.maxine_sizes and maxine_all on the families of the
        # sparse benchmark corpus: cycles, cycle unions, cubic graphs and
        # unions of two cubic graphs
        families = [
            *(cycle(k) for k in (12, 17, 24)),
            oracles.disjoint_union(cycle(3), cycle(4), cycle(5), cycle(6)),
            oracles.disjoint_union(cycle(10), cycle(11)),
            *(regular(n, 3, n) for n in (12, 18, 24)),
            oracles.disjoint_union(regular(8, 3, 1), regular(10, 3, 2)),
        ]
        for i, g in enumerate(families):
            g = oracles.relabel(g, random.Random(i).sample(range(g.n), g.n))
            sizes = GraphFacts(g).maxine_sizes
            assert {s for s in range(g.n + 1) if sizes >> s & 1} == maxine_all(g).achievable_sizes

    def test_cubic_32_returns(self):
        # the recurrence was exponential on tied degrees >= 3; no timing asserted
        g = regular(32, 3, 32)
        r, a = residue(g), alpha(g)
        sizes = maxine_all(g).achievable_sizes
        assert sizes and all(r <= m <= a for m in sizes)


def subcubic(n: int, seed: int) -> Graph:
    """A seeded graph of maximum degree 3 that mixes degree-3, degree-2
    and isolated vertices, so that a degree-3 phase ties on only some of
    the vertices."""
    rng = random.Random(seed)
    while True:
        deg = [0] * n
        edges = set()
        live = rng.sample(range(n), n - rng.randint(1, 2))  # the rest stay isolated
        for _ in range(rng.randint(n, 2 * n)):
            a, b = rng.sample(live, 2)
            if deg[a] < 3 and deg[b] < 3 and (min(a, b), max(a, b)) not in edges:
                edges.add((min(a, b), max(a, b)))
                deg[a] += 1
                deg[b] += 1
        if 3 in deg and 2 in deg:
            return Graph(n, edges)


def size_mask(sizes) -> int:
    return sum(1 << s for s in sizes)


class TestPathsAndCyclesIntervals:
    """S(P_k) = [k // 3 + 1, ceil(k / 2)] and S(C_k) = S(P_(k-1)) against
    the deletion recurrence; and the degree-3 phase that skips children
    whose sizes it already holds."""

    @staticmethod
    def sizes(adj) -> int:
        deg2 = sum(1 << v for v, row in enumerate(adj) if row.bit_count() == 2)
        return _paths_and_cycles_sizes(adj, (1 << len(adj)) - 1, deg2)

    @staticmethod
    def ring(k: int, closed: bool) -> list[int]:
        # adjacency rows of P_k, or of C_k when closed; k may pass MAX_VERTICES
        adj = [0] * k
        for i in range(k - 1 + closed):
            j = (i + 1) % k
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    def test_paths_to_64(self):
        for k in range(1, 65):
            assert self.sizes(self.ring(k, False)) == size_mask(oracles.path_sizes(k)), k

    def test_cycles_to_64(self):
        for k in range(3, 65):
            assert self.sizes(self.ring(k, True)) == size_mask(oracles.path_sizes(k - 1)), k

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_subcubic(self, seed):
        g = subcubic(8 + seed % 7, seed)
        assert maxine_all(g).achievable_sizes == oracles.brute_maxine_sizes(g), g

    @pytest.mark.parametrize(
        "n,seed,sizes",
        [
            (16, 1, {5, 6, 7}),
            (16, 2, {4, 5, 6, 7}),
            (18, 1, {5, 6, 7, 8}),
            (18, 2, {5, 6, 7, 8}),
            (20, 1, {6, 7, 8}),
            (20, 2, {6, 7, 8, 9}),
            (22, 1, {6, 7, 8, 9}),
            (22, 2, {6, 7, 8, 9, 10}),
            (24, 1, {7, 8, 9, 10}),
            (24, 2, {7, 8, 9, 10}),
        ],
    )
    def test_cubic_16_to_24_pinned(self, n, seed, sizes):
        # the sizes the sweep gave before the walk dropped covered subtrees
        assert maxine_all(regular(n, 3, 1000 * seed + n)).achievable_sizes == sizes

    @pytest.mark.parametrize(
        "a,b,sizes", [(6, 10, {5, 6}), (8, 8, {5, 6}), (10, 12, {7, 8, 9}), (12, 12, {8, 9, 10})]
    )
    def test_two_cubic_pinned(self, a, b, sizes):
        g = oracles.disjoint_union(regular(a, 3, 50 + a), regular(b, 3, 60 + b))
        g = oracles.relabel(g, random.Random(a * b).sample(range(g.n), g.n))
        assert maxine_all(g).achievable_sizes == sizes

    def test_cubic_24_skips_covered_children(self, monkeypatch):
        # every vertex ties, so the phase has one child per maximal
        # independent set; most of them are skipped without a walk, and
        # the walk drops the subtrees that reach only skipped sizes
        g = regular(24, 3, 124)
        sets = sum(1 for _ in _maximal_independent_sets(g.adj, (1 << 24) - 1))
        calls, leaves = [], []

        def counted(adj, mask, deg2):
            calls.append(mask)
            return _paths_and_cycles_sizes(adj, mask, deg2)

        def walk(adj, p, *args, **kwargs):
            if not p & p - 1:
                leaves.append(p)
            return _maximal_independent_sets(adj, p, *args, **kwargs)

        monkeypatch.setattr("reslab.heuristics._paths_and_cycles_sizes", counted)
        monkeypatch.setattr("reslab.heuristics._maximal_independent_sets", walk)
        assert maxine_all(g).achievable_sizes == set(range(7, 12))
        # 10 children and 41 leaves; the walk without the prune reaches
        # a leaf for each of the 606 sets
        assert sets == 606 and len(calls) <= 15 and len(leaves) <= 60


class TestMaximalIndependentSets:
    def test_every_subset_of_small_graphs(self):
        # against the definition: independent, and no other vertex of p
        # can join; p runs over every vertex subset
        for n in range(6):
            for g in enumerate_labeled(n):
                for p in range(1 << n):
                    expected = {
                        s
                        for s in range(1 << n)
                        if s & p == s
                        and not any(g.adj[v] & s for v in range(n) if s >> v & 1)
                        and all(g.adj[v] & s for v in range(n) if (p & ~s) >> v & 1)
                    }
                    got = list(_maximal_independent_sets(g.adj, p))
                    assert len(got) == len(expected) and set(got) == expected, (g, p)

    def test_prune_that_never_fires(self):
        # the walk asks at its inner nodes and, told no, yields what it
        # yields without a predicate, in the same order
        asked = []

        def never(r, p):
            asked.append(p)
            return False

        for n in range(6):
            for g in enumerate_labeled(n):
                for p in range(1 << n):
                    got = list(_maximal_independent_sets(g.adj, p, prune=never))
                    assert got == list(_maximal_independent_sets(g.adj, p)), (g, p)
        assert asked

    def test_prune_on_size_keeps_sets_maximal(self):
        # dropping every subtree that has taken an odd number of vertices
        # loses sets, but each set yielded is still maximal independent
        def odd(r, p):
            return r.bit_count() % 2 == 1

        dropped = 0
        for n in range(6):
            for g in enumerate_labeled(n):
                for p in range(1 << n):
                    full = list(_maximal_independent_sets(g.adj, p))
                    got = list(_maximal_independent_sets(g.adj, p, prune=odd))
                    assert len(set(got)) == len(got) and set(got) <= set(full), (g, p)
                    for s in got:
                        assert not any(g.adj[v] & s for v in range(n) if s >> v & 1)
                        assert all(g.adj[v] & s for v in range(n) if (p & ~s) >> v & 1)
                    dropped += len(full) - len(got)
        assert dropped


class TestMaxineHH:
    def test_p5_guided_run(self):
        out = maxine_hh(P5)
        assert out.deletions == (2, 0) or out.deletions[0] == 2
        assert out.size == residue(P5) == 2

    def test_matches_residue_when_it_completes(self):
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                try:
                    out = maxine_hh(g)
                except NoHHVertexError:
                    continue
                assert out.size == residue(g), g

    @staticmethod
    def recounted(g: Graph) -> tuple[tuple[int, ...], int | None]:
        # the guided run with every degree recounted at each step: the
        # deletions, and the step where it strands (None if it completes)
        mask = (1 << g.n) - 1
        deletions = []
        while mask:
            best, hh = _hh_vertices_mask(g.adj, mask)
            if best == 0:
                break
            if not hh:
                return tuple(deletions), len(deletions)
            v = (hh & -hh).bit_length() - 1
            deletions.append(v)
            mask ^= 1 << v
        return tuple(deletions), None

    def assert_recounted(self, g: Graph) -> int | None:
        deletions, step = self.recounted(g)
        if step is None:
            out = maxine_hh(g)
            assert out.deletions == deletions, g
            assert out.survivors == set(range(g.n)) - set(deletions), g
        else:
            with pytest.raises(NoHHVertexError) as ei:
                maxine_hh(g)
            assert ei.value.step == step, g
        return step

    def test_kept_degrees_match_recount_to_n6(self):
        for n in range(7):
            for g in enumerate_labeled(n):
                self.assert_recounted(g)

    def test_kept_degrees_match_recount_corpus8(self):
        with open(CORPUS8, encoding="ascii") as fh:
            for line in fh:
                if line.strip():
                    self.assert_recounted(from_graph6(line.strip()))

    def test_kept_degrees_match_recount_sparse(self):
        # seeded cubic graphs to 24 vertices, unions of two of them, and
        # subcubic graphs, on which the run often strands
        rng = random.Random(46)
        strands = 0
        for n in range(4, 25, 2):
            for seed in range(4):
                graphs = [regular(n, 3, 300 * seed + n), subcubic(n + 4, 31 * seed + n)]
                if n >= 8:
                    a = rng.choice(range(4, n - 3, 2))
                    two = oracles.disjoint_union(regular(a, 3, seed), regular(n - a, 3, n + seed))
                    graphs.append(oracles.relabel(two, rng.sample(range(n), n)))
                for g in graphs:
                    strands += self.assert_recounted(g) is not None
        assert strands

    def test_stranding_raises_with_step(self):
        # unique max-degree vertex 0 has a pendant neighbor (degree 1)
        # while non-neighbor 1 has degree 2, so nothing qualifies
        fork = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        assert hh_property_vertices(fork) == frozenset()
        with pytest.raises(NoHHVertexError) as ei:
            maxine_hh(fork)
        assert ei.value.step == 0

    def test_hh_sizes_subset_of_residue(self):
        # any completed degree-dominating run lands exactly on the residue
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                sizes = maxine_hh_sizes(g)
                assert sizes <= {residue(g)}, g

    def test_hh_sizes_examples(self):
        assert maxine_hh_sizes(P5) == {2}
        assert maxine_hh_sizes(C4) == {2}
        fork = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
        assert maxine_hh_sizes(fork) == frozenset()

    def test_hh_sizes_on_paths_and_cycles(self):
        # at degree <= 2 the sweep memoises on component shapes
        for k in range(1, 17):
            assert maxine_hh_sizes(path(k)) == oracles.brute_hh_sizes(path(k)), k
            if k >= 3:
                assert maxine_hh_sizes(cycle(k)) == oracles.brute_hh_sizes(cycle(k)), k
        rng = random.Random(44)
        for _ in range(40):
            parts = [
                rng.choice((path, cycle))(rng.randint(3, 6)) for _ in range(rng.randint(2, 3))
            ]
            parts.append(path(rng.randint(0, 3)))
            g = oracles.disjoint_union(*parts)
            g = oracles.relabel(g, rng.sample(range(g.n), g.n))
            assert maxine_hh_sizes(g) == oracles.brute_hh_sizes(g), g

    def test_hh_sizes_match_oracle_on_seeded_graphs(self):
        # denser graphs reach the shape-keyed states mid-sweep, several
        # of them at one depth
        rng = random.Random(45)
        for _ in range(3000):
            n = rng.randint(7, 10)
            g = Graph.from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            assert maxine_hh_sizes(g) == oracles.brute_hh_sizes(g), g

    def test_hh_sizes_finish_on_long_cycles(self):
        assert maxine_hh_sizes(cycle(32)) == maxine_hh_sizes(path(32)) == {11}
