"""Catalog constructors, role bookkeeping, and induced-subgraph search."""

from itertools import permutations

import pytest

import oracles
from reslab.graphs import (
    Graph,
    complement,
    enumerate_labeled,
    from_graph6,
    isomorphism_classes,
)
from reslab.patterns import (
    Embedding,
    FMember,
    complement_cycle,
    complement_path,
    complete,
    cycle,
    empty,
    f_catalog,
    find_induced,
    gen_f_member,
    has_p5_star,
    path,
)

P5 = path(5)
C4 = cycle(4)
C5 = cycle(5)


class TestConstructors:
    def test_path_cycle_complete_empty(self):
        assert sorted(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]
        assert sorted(cycle(4).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert complete(4).edge_count == 6
        assert empty(4).edge_count == 0
        assert path(1) == Graph(1)
        assert path(0) == Graph(0)
        with pytest.raises(ValueError):
            cycle(2)

    def test_complement_constructors_match_complement(self):
        for n in range(3, 8):
            assert complement_cycle(n) == complement(cycle(n))
        for n in range(1, 8):
            assert complement_path(n) == complement(path(n))

    def test_complement_path_3(self):
        assert sorted(complement_path(3).edges()) == [(0, 2)]

    def test_complement_cycle_small(self):
        assert complement_cycle(3) == Graph(3)
        assert sorted(complement_cycle(4).edges()) == [(0, 2), (1, 3)]
        with pytest.raises(ValueError):
            complement_cycle(2)


class TestFMembers:
    def test_a3_is_k33(self):
        m = gen_f_member("A", 3)
        assert m.label == "A3"
        assert m.graph.edge_count == 9
        assert all(m.graph.has_edge(a, b) for a in (0, 1, 2) for b in (3, 4, 5))
        # two maximum independent sets (each side), so the center check fails
        assert not m.mdi_verified

    def test_b3_not_verified(self):
        assert not gen_f_member("B", 3).mdi_verified

    def test_a4_roles_and_mdi(self):
        m = gen_f_member("A", 4)
        assert m.mdi_verified
        assert (m.v_vertex, m.u_vertex, m.w_vertex) == (0, 1, 2)
        assert m.q_vertices == ()
        assert m.core_vertices == (3, 4, 5, 6)
        assert m.graph.degree(0) == 4

    def test_b4_one_sided_vertex(self):
        m = gen_f_member("B", 4)
        assert m.q_vertices == (3,)
        g = m.graph
        assert g.has_edge(3, 1) and not g.has_edge(3, 2)

    def test_c3_opposite_endpoints(self):
        m = gen_f_member("C", 3, "opposite")
        assert m.label == "C3-opposite"
        assert m.mdi_verified
        g = m.graph
        q1, q2 = m.q_vertices
        assert g.has_edge(q1, 1) and not g.has_edge(q1, 2)
        assert g.has_edge(q2, 2) and not g.has_edge(q2, 1)
        # complement-path endpoints are adjacent in the member for n = 3
        assert g.has_edge(q1, q2)

    def test_c_same_both_on_u(self):
        m = gen_f_member("C", 4, "same")
        q1, q2 = m.q_vertices
        g = m.graph
        assert g.has_edge(q1, 1) and g.has_edge(q2, 1)
        assert not g.has_edge(q1, 2) and not g.has_edge(q2, 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            gen_f_member("D", 3)
        with pytest.raises(ValueError):
            gen_f_member("A", 2)
        with pytest.raises(ValueError):
            gen_f_member("C", 3)
        with pytest.raises(ValueError):
            gen_f_member("A", 3, "same")
        with pytest.raises(ValueError):
            gen_f_member("C", 3, "sideways")

    def test_mdi_flag_matches_library(self):
        from reslab.independence import mdi_vertices

        for m in f_catalog(9, mdi_filter=False):
            assert m.mdi_verified == (0 in mdi_vertices(m.graph))

    def test_role_string_and_serialize_roundtrip(self):
        m = gen_f_member("B", 4)
        assert m.role_string() == "v=0;u=1;w=2;Q'=3;N'=4,5,6"
        record, _, roles = m.serialize().partition(" ")
        assert from_graph6(record) == m.graph
        assert roles == m.role_string()


class TestCatalog:
    def test_order_and_filtering(self):
        raw = f_catalog(10, mdi_filter=False)
        assert [m.label for m in raw[:4]] == ["A3", "B3", "C3-same", "C3-opposite"]
        assert len(raw) == 20  # core sizes 3..7, four shapes each
        filtered = f_catalog(10)
        assert len(filtered) == 18
        assert {m.label for m in raw} - {m.label for m in filtered} == {"A3", "B3"}

    def test_sizes_respect_bound(self):
        for m in f_catalog(8, mdi_filter=False):
            assert m.graph.n <= 8

    def test_every_member_holds_induced_c4(self):
        # u and v are non-adjacent with two non-adjacent common neighbours;
        # the scan's catalog searches skip C4-free hosts on this ground
        for m in f_catalog(10, mdi_filter=False):
            assert oracles.brute_induced_exists(m.graph, cycle(4)), m.label

    def test_minimum_bound(self):
        assert [m.label for m in f_catalog(6, mdi_filter=False)] == [
            "A3",
            "B3",
            "C3-same",
            "C3-opposite",
        ]
        with pytest.raises(ValueError):
            f_catalog(5)


def brute_embeddings(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    out = []
    for mapping in permutations(range(host.n), pattern.n):
        if all(
            pattern.has_edge(a, b) == host.has_edge(mapping[a], mapping[b])
            for a in range(pattern.n)
            for b in range(a + 1, pattern.n)
        ):
            out.append(mapping)
    return out


class TestFindInduced:
    def test_frozen_examples(self):
        assert find_induced(P5, path(3)) == Embedding((0, 1, 2))
        assert find_induced(C5, path(4)) == Embedding((0, 1, 2, 3))
        assert find_induced(C4, cycle(4)) == Embedding((0, 1, 2, 3))
        assert find_induced(P5, cycle(4)) is None
        assert find_induced(C4, complete(3)) is None
        assert find_induced(C5, path(5)) is None  # the fifth vertex closes the ring

    def test_pattern_larger_than_host(self):
        assert find_induced(path(3), P5) is None

    def test_empty_pattern(self):
        assert find_induced(P5, Graph(0)) == Embedding(())

    def test_returns_lexicographic_minimum(self):
        for host, pattern in [(C5, path(4)), (P5, path(3)), (C4, path(3))]:
            got = find_induced(host, pattern)
            assert got.mapping == min(brute_embeddings(host, pattern))

    def test_existence_matches_oracle_exhaustive_n5(self):
        patterns = [path(3), path(4), cycle(3), cycle(4), complement_path(4)]
        for g in enumerate_labeled(5):
            for pat in patterns:
                found = find_induced(g, pat) is not None
                assert found == oracles.brute_induced_exists(g, pat)

    def test_existence_matches_oracle_reps_n6(self):
        patterns = [path(5), cycle(5), complete(4), complement_cycle(5)]
        for m in isomorphism_classes(6):
            g = Graph.from_mask(6, m)
            for pat in patterns:
                found = find_induced(g, pat) is not None
                assert found == oracles.brute_induced_exists(g, pat)

    def test_anchor_pins_assignment(self):
        assert find_induced(P5, P5, anchor={2: 2}).mapping == (0, 1, 2, 3, 4)
        assert find_induced(P5, P5, anchor={2: 0}) is None
        got = find_induced(C5, path(4), anchor={0: 2})
        assert got is not None and got[0] == 2

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            find_induced(P5, path(3), anchor={0: 0, 1: 0})
        with pytest.raises(ValueError):
            find_induced(P5, path(3), anchor={0: 9})
        with pytest.raises(ValueError):
            find_induced(P5, path(3), anchor={7: 0})

    def test_invariant_under_host_relabeling(self):
        host = gen_f_member("A", 4).graph
        for perm in [(3, 1, 4, 0, 6, 2, 5), (6, 5, 4, 3, 2, 1, 0)]:
            relabeled = oracles.relabel(host, perm)
            for pat in (C4, P5):
                found = find_induced(relabeled, pat) is not None
                assert found == (find_induced(host, pat) is not None)


class TestP5Star:
    def test_examples(self):
        assert has_p5_star(P5)
        assert has_p5_star(path(7))
        assert not has_p5_star(C4)
        assert not has_p5_star(cycle(6))  # no vertex is in every MIS
        assert not has_p5_star(path(4))
        assert not has_p5_star(empty(6))

    def test_requires_center_in_every_mis(self):
        # C5 contains induced 5-paths... it does not (closing edge), and
        # it has no qualifying center either; both reasons give False
        assert not has_p5_star(C5)

    def test_definition_brute_force_reps_n6(self):
        from reslab.independence import mdi_vertices

        p5 = path(5)
        for m in isomorphism_classes(6):
            g = Graph.from_mask(6, m)
            expect = False
            for emb in brute_embeddings(g, p5):
                if emb[2] in mdi_vertices(g):
                    expect = True
                    break
            assert has_p5_star(g) == expect, g

