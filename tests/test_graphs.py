"""Graph container, enumeration/canonicalization, and the graph6 codec."""

import copy
import itertools
import os
import pickle
import random

import pytest

import oracles
from reslab.graphs import (
    ENUM_CAP,
    Graph,
    Graph6Error,
    _certificate,
    _graph6_mask,
    canonical_form,
    complement,
    degree_sequence,
    delete_vertex,
    enumerate_labeled,
    from_graph6,
    induced,
    isomorphism_class_count,
    isomorphism_classes,
    pair_order,
    to_graph6,
)

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.edge_count == 0
        assert list(g.edges()) == []

    def test_edges_and_degrees(self):
        assert sorted(P5.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert [P5.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]
        assert P5.neighbors(2) == frozenset({1, 3})
        assert P5.has_edge(1, 2) and P5.has_edge(2, 1)
        assert not P5.has_edge(0, 4)
        assert P5.edge_count == 4

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_immutable_and_hashable(self):
        with pytest.raises(AttributeError):
            K3.n = 5
        assert Graph(3, [(0, 1), (0, 2), (1, 2)]) == K3
        assert len({K3, Graph(3, [(0, 1), (0, 2), (1, 2)]), C4}) == 2
        # the hash is kept after the first call, and stays read-only
        assert hash(K3) == hash(K3) == hash(Graph.from_mask(3, 0b111))
        with pytest.raises(AttributeError):
            K3._hash = 0
        assert hash(K3) == hash(Graph(3, [(0, 1), (0, 2), (1, 2)]))

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy(self, clone):
        for g in (Graph(0), Graph(3, [(0, 1)]), P5):
            h = clone(g)
            assert type(h) is Graph and h == g and hash(h) == hash(g)
            assert (h.n, h.adj) == (g.n, g.adj)
            with pytest.raises(AttributeError):
                h._hash = 0
            assert hash(h) == hash(g)

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(63)
        with pytest.raises(ValueError):
            Graph(-1)

    def test_mask_roundtrip(self):
        for g in enumerate_labeled(4):
            assert Graph.from_mask(4, g.mask()) == g
        with pytest.raises(ValueError):
            Graph.from_mask(3, 1 << 3)

    def test_pair_order_is_column_major(self):
        assert pair_order(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


class TestTransforms:
    def test_complement_involution(self):
        for n in range(5):
            for g in enumerate_labeled(n):
                assert complement(complement(g)) == g

    def test_complement_example(self):
        assert complement(K3).edge_count == 0
        assert sorted(complement(P5).edges()) == [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 3),
            (1, 4),
            (2, 4),
        ]

    def test_c5_self_complementary(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert canonical_form(complement(c5)) == canonical_form(c5)

    def test_induced_relabels_densely(self):
        sub = induced(P5, {1, 3, 4})
        assert sub.n == 3
        assert sorted(sub.edges()) == [(1, 2)]  # old 3-4 edge

    def test_induced_validates(self):
        with pytest.raises(ValueError):
            induced(P5, {1, 5})

    def test_delete_vertex(self):
        assert delete_vertex(P5, 2) == Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            delete_vertex(P5, 5)

    def test_degree_sequence_sorted(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_sequence(star) == (3, 1, 1, 1)
        assert degree_sequence(Graph(3)) == (0, 0, 0)


class TestEnumeration:
    def test_labeled_counts(self):
        # 2^C(n,2) labeled graphs
        for n, want in [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)]:
            assert sum(1 for _ in enumerate_labeled(n)) == want

    def test_mask_counting_order(self):
        for k, g in enumerate(enumerate_labeled(3)):
            assert g.mask() == k
        graphs = list(enumerate_labeled(4))
        assert graphs[0].edge_count == 0
        assert graphs[-1].edge_count == 6

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_labeled(ENUM_CAP + 1))


class TestCanonicalForm:
    def test_matches_brute_force_isomorphism(self):
        # all-pairs agreement on the 34 five-vertex class representatives
        reps = [Graph.from_mask(5, m) for m in isomorphism_classes(5)]
        assert len(reps) == 34
        forms = [canonical_form(g) for g in reps]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                same = forms[i] == forms[j]
                assert same == oracles.brute_isomorphic(reps[i], reps[j])
                assert not same  # representatives are pairwise non-isomorphic

    def test_invariant_under_relabeling(self):
        for perm in itertools.permutations(range(5)):
            assert canonical_form(oracles.relabel(P5, perm)) == canonical_form(P5)

    def test_separates_same_degree_sequence(self):
        # C4 +K1 vs K3 + K2: both have degree sequence (2,2,2,2,... ) variants;
        # use a classic pair with equal degree sequences
        g1 = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # 2 triangles
        g2 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])  # hexagon
        assert degree_sequence(g1) == degree_sequence(g2)
        assert canonical_form(g1) != canonical_form(g2)

    def test_corpus8_relabelings_keep_certificate(self):
        path = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")
        with open(path, encoding="ascii") as fh:
            records = [from_graph6(line) for line in fh]
        rng = random.Random(19)
        for g in rng.sample(records, 2000):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_form(oracles.relabel(g, perm)) == canonical_form(g), g

    def test_size_cap(self):
        with pytest.raises(ValueError):
            canonical_form(Graph(9))


class TestIsomorphismClasses:
    def test_counts_small(self):
        # unlabeled graph counts
        for n, want in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
            assert isomorphism_class_count(n) == want

    def test_representatives_are_certificates(self):
        for n in range(7):
            masks = list(isomorphism_classes(n))
            assert masks == sorted(set(masks))
            for m in masks:
                assert _certificate(n, Graph.from_mask(n, m).adj) == m

    def test_certificate_classes_are_relabeling_orbits(self):
        # every labeled graph with n <= 6: each certificate's group is the
        # orbit of its first mask under all n! relabelings
        for n in range(7):
            groups = {}
            for g in enumerate_labeled(n):
                groups.setdefault(_certificate(n, g.adj), set()).add(g.mask())
            assert len(groups) == isomorphism_class_count(n)
            for group in groups.values():
                g = Graph.from_mask(n, min(group))
                orbit = {
                    oracles.relabel(g, perm).mask()
                    for perm in itertools.permutations(range(n))
                }
                assert group == orbit, (n, g)

    def test_classes_cover_everything(self):
        reps = {canonical_form(Graph.from_mask(4, m)) for m in isomorphism_classes(4)}
        everything = {canonical_form(g) for g in enumerate_labeled(4)}
        assert reps == everything


class TestGraph6:
    def test_frozen_examples(self):
        assert to_graph6(K3) == "Bw"
        assert to_graph6(C4) == "Cl"
        assert to_graph6(Graph(4)) == "C?"
        assert to_graph6(Graph(1)) == "@"
        assert to_graph6(Graph(0)) == "?"
        assert from_graph6("Bw") == K3
        assert from_graph6("Cl") == C4
        assert from_graph6("C?") == Graph(4)
        assert from_graph6("@") == Graph(1)

    def test_roundtrip_exhaustive_small(self):
        for n in range(6):
            for g in enumerate_labeled(n):
                assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_boundary_n62(self):
        ring = Graph(62, [(v, (v + 1) % 62) for v in range(62)])
        assert from_graph6(to_graph6(ring)) == ring

    def test_mask_codec_roundtrip(self):
        # the payload is the edge mask over pair_order(n): every labeled
        # graph with n <= 6, and seeded masks up to n = 62
        rng = random.Random(62)
        cases = [(n, m) for n in range(7) for m in range(1 << n * (n - 1) // 2)]
        cases += [
            (n, rng.getrandbits(n * (n - 1) // 2)) for n in range(7, 63) for _ in range(8)
        ]
        for n, m in cases:
            assert _graph6_mask(to_graph6(Graph.from_mask(n, m))) == (n, m)

    def test_header_tolerated_on_input_only(self):
        assert from_graph6(">>graph6<<Bw") == K3
        assert not to_graph6(K3).startswith(">>")

    def test_newline_stripped(self):
        assert from_graph6("Bw\n") == K3
        assert from_graph6("Bw\r\n") == K3

    def test_empty_record(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6("")
        assert ei.value.offset == 0

    def test_malformed_length_byte(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6("\x1fBw")
        assert ei.value.offset == 0

    def test_multibyte_length_rejected(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6("~??")
        assert ei.value.offset == 0

    def test_truncated_record(self):
        # n=5 needs ceil(10/6)=2 payload bytes
        with pytest.raises(Graph6Error) as ei:
            from_graph6("D")
        assert "truncated" in str(ei.value)
        assert ei.value.offset == 1

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6("Bw?")
        assert "trailing" in str(ei.value)
        assert ei.value.offset == 2

    def test_nonprintable_payload(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6("B\x1e")
        assert ei.value.offset == 1

    def test_nonzero_padding(self):
        # K3 payload uses 3 bits; 'x' = 0b111001 sets a padding bit
        with pytest.raises(Graph6Error) as ei:
            from_graph6("Bx")
        assert "padding" in str(ei.value)
        assert ei.value.offset == 1

    def test_every_padding_bit_rejected(self):
        # K3's payload byte holds its 3 edge bits, then 3 padding bits
        for pad in range(3):
            with pytest.raises(Graph6Error, match="padding"):
                from_graph6("B" + chr(63 + (0b111000 | 1 << pad)))

    def test_header_offsets_shift(self):
        with pytest.raises(Graph6Error) as ei:
            from_graph6(">>graph6<<")
        assert ei.value.offset == 10

    def test_error_is_value_error(self):
        with pytest.raises(ValueError):
            from_graph6("")
