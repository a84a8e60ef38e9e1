"""Havel-Hakimi elimination: graphicality, traces, residue, realization."""

import os
import random

import pytest

import oracles
from reslab.degseq import (
    NonGraphicError,
    hh_realization,
    hh_step,
    hh_trace,
    is_graphic,
    normalized,
    parse_degree_sequence,
    residue,
    residue_seq,
)
from reslab.graphs import Graph, degree_sequence, from_graph6

CORPUS8 = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")


def lambda_key_realization(entries) -> tuple[int, ...]:
    """The adjacency rows of hh_realization as built with the vertices
    ordered by the key (-residual, id), raising as it raised."""
    seq = normalized(entries)
    n = len(seq)
    residual = list(seq)
    adj = [0] * n
    step = 0
    while any(residual):
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        v0 = order[0]
        r0 = residual[v0]
        targets = [v for v in order[1:] if not adj[v0] >> v & 1]
        if r0 > len(targets):
            raise NonGraphicError(
                f"entry {r0} exceeds remaining attachable vertices", step
            )
        residual[v0] = 0
        for v in targets[:r0]:
            residual[v] -= 1
            if residual[v] < 0:
                raise NonGraphicError("decrement drives an entry negative", step)
            adj[v0] |= 1 << v
            adj[v] |= 1 << v0
        step += 1
    return tuple(adj)


def outcome(build, seq):
    """build(seq), or the message and step of its NonGraphicError."""
    try:
        return build(seq)
    except NonGraphicError as exc:
        return str(exc), exc.step


class TestNormalizeAndParse:
    def test_normalized_sorts_descending(self):
        assert normalized([1, 3, 2]) == (3, 2, 1)
        assert normalized(()) == ()

    def test_normalized_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            normalized([2, -1])
        with pytest.raises(ValueError):
            normalized([2.0, 1])

    def test_parse(self):
        assert parse_degree_sequence("2,2,2,2") == (2, 2, 2, 2)
        assert parse_degree_sequence("3 1 1 1") == (3, 1, 1, 1)
        assert parse_degree_sequence("1, 2, 3") == (3, 2, 1)
        assert parse_degree_sequence("") == ()

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_degree_sequence("2,a,1")
        with pytest.raises(ValueError):
            parse_degree_sequence("2,-1")


class TestHHStep:
    def test_single_steps(self):
        assert hh_step((2, 2, 2, 2)) == (2, 1, 1)
        assert hh_step((3, 1, 1, 1)) == (0, 0, 0)
        assert hh_step((2, 1, 1)) == (0, 0)

    def test_resorts_input(self):
        assert hh_step((1, 2, 2, 2)) == hh_step((2, 2, 2, 1))

    def test_needs_positive_maximum(self):
        with pytest.raises(ValueError):
            hh_step((0, 0))
        with pytest.raises(ValueError):
            hh_step(())

    def test_nongraphic_too_long(self):
        with pytest.raises(NonGraphicError) as ei:
            hh_step((3, 2, 1))
        assert ei.value.step == 0

    def test_step_index_propagates(self):
        # (3,3,3,1): step 0 fine -> (2,2,0); step 1 drives an entry negative
        with pytest.raises(NonGraphicError) as ei:
            hh_trace((3, 3, 3, 1))
        assert ei.value.step == 1


class TestTraceAndResidue:
    def test_c4_trace(self):
        t = hh_trace((2, 2, 2, 2))
        assert t.steps == ((2, 2, 2, 2), (2, 1, 1), (0, 0))
        assert t.terminal == (0, 0)
        assert t.terminal_zero_count == 2

    def test_p5_trace(self):
        t = hh_trace((2, 2, 2, 1, 1))
        assert t.steps == ((2, 2, 2, 1, 1), (1, 1, 1, 1), (1, 1, 0), (0, 0))
        assert t.terminal_zero_count == 2

    def test_star_trace(self):
        assert hh_trace((3, 1, 1, 1)).steps == ((3, 1, 1, 1), (0, 0, 0))

    def test_zero_and_empty_sequences(self):
        assert hh_trace(()).steps == ((),)
        assert residue_seq(()) == 0
        assert hh_trace((0, 0, 0)).steps == ((0, 0, 0),)
        assert residue_seq((0, 0, 0)) == 3

    def test_frozen_residues(self):
        assert residue_seq((2, 2, 2, 2)) == 2  # C4
        assert residue_seq((2, 2, 2, 1, 1)) == 2  # P5
        assert residue_seq((3, 1, 1, 1)) == 3  # K1,3
        assert residue_seq((2, 2, 2)) == 1  # K3

    def test_residue_of_graph(self):
        assert residue(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 2
        assert residue(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 2
        assert residue(Graph(3)) == 3


class TestGraphicality:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_labeled_enumeration(self, n):
        realizable = oracles.brute_graphic_sequences(n)
        for seq in oracles.nonincreasing_sequences(n, max(n - 1, 0)):
            assert is_graphic(seq) == (seq in realizable), seq

    def test_degree_too_large_never_graphic(self):
        assert not is_graphic((4, 1, 1, 1))
        assert not is_graphic((3, 2, 1))
        assert not is_graphic((1,))


class TestRealization:
    def test_realizes_every_graphic_sequence(self):
        for n in range(7):
            for seq in oracles.brute_graphic_sequences(n):
                g = hh_realization(seq)
                assert degree_sequence(g) == seq

    def test_rejects_nongraphic(self):
        with pytest.raises(NonGraphicError):
            hh_realization((3, 2, 1))
        with pytest.raises(NonGraphicError):
            hh_realization((3, 3, 3, 1))

    def test_two_regular_on_four_is_c4(self):
        g = hh_realization((2, 2, 2, 2))
        assert g.n == 4 and g.edge_count == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_first_vertex_gets_max_degree_and_hh_property(self):
        from reslab.heuristics import hh_property_vertices

        for n in range(2, 7):
            for seq in oracles.brute_graphic_sequences(n):
                g = hh_realization(seq)
                if seq[0] == 0:
                    continue
                assert g.degree(0) == seq[0]
                assert 0 in hh_property_vertices(g), seq

    def test_empty_inputs(self):
        assert hh_realization(()) == Graph(0)
        assert hh_realization((0, 0)) == Graph(2)

    def test_matches_lambda_key_order(self):
        # every sequence of n <= 7 entries below n (the degree sequences of
        # the labeled graphs with n <= 7, and the non-graphic ones with
        # their errors), corpus8's and those of seeded random graphs
        seqs = set()
        for n in range(8):
            seqs.update(oracles.nonincreasing_sequences(n, max(n - 1, 0)))
        with open(CORPUS8) as fh:
            seqs.update(degree_sequence(from_graph6(r)) for r in fh if r.strip())
        rng = random.Random(25)
        for _ in range(3000):
            n = rng.randrange(21)
            p = rng.random()
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            seqs.add(degree_sequence(Graph(n, edges)))
        for seq in seqs:
            got = outcome(lambda s: hh_realization(s).adj, seq)
            assert got == outcome(lambda_key_realization, seq), seq
