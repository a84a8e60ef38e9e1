"""Hand-known values for the benchmark's reference computations.

    python3 -m pytest -q scanbench

Graphs are built here from edge lists, so these tests need no reslab.
"""

import json
import random
from pathlib import Path

import pytest

import gen_sparse
import reference
import replay


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def cycle(k):
    return adjacency(k, [(i, (i + 1) % k) for i in range(k)])


def path(k):
    return adjacency(k, [(i, i + 1) for i in range(k - 1)])


def complete(k):
    return adjacency(k, [(i, j) for j in range(k) for i in range(j)])


def empty(k):
    return (0,) * k


def union(*graphs):
    adj, shift = [], 0
    for g in graphs:
        adj += [m << shift for m in g]
        shift += len(g)
    return tuple(adj)


ALPHA = [
    (cycle(3), 1),
    (cycle(4), 2),
    (cycle(5), 2),
    (cycle(7), 3),
    (cycle(8), 4),
    (path(1), 1),
    (path(2), 1),
    (path(5), 3),
    (path(8), 4),
    (complete(1), 1),
    (complete(6), 1),
    (empty(0), 0),
    (empty(8), 8),
    (union(cycle(3), cycle(5)), 3),
    (union(path(2), path(2), empty(2)), 4),
]


@pytest.mark.parametrize("adj, want", ALPHA)
def test_alpha_subsets(adj, want):
    assert reference.alpha_subsets(adj) == want


@pytest.mark.parametrize("adj, want", ALPHA)
def test_alpha_branching(adj, want):
    assert reference.alpha_branching(adj) == want


@pytest.mark.parametrize(
    "adj, want",
    [
        (cycle(24), 12),
        (cycle(25), 12),
        (union(cycle(7), cycle(7), cycle(7)), 9),
        (union(cycle(6), cycle(6), cycle(6), cycle(6)), 12),
        (union(complete(4), path(9), empty(3)), 1 + 5 + 3),
    ],
)
def test_alpha_branching_large(adj, want):
    assert reference.alpha_branching(adj) == want


@pytest.mark.parametrize(
    "adj, want",
    [
        (cycle(3), 1),
        (cycle(4), 2),
        (cycle(5), 2),
        (cycle(6), 2),
        (cycle(7), 3),
        (path(3), 2),
        (path(4), 2),
        (path(5), 2),
        (complete(5), 1),
        (empty(4), 4),
        (union(path(2), path(2)), 2),
        (union(cycle(3), empty(1)), 2),
    ],
)
def test_hh_residue(adj, want):
    assert reference.hh_residue(reference.degrees(adj)) == want


@pytest.mark.parametrize(
    "adj, c4, p5",
    [
        (cycle(4), True, False),
        (cycle(5), False, False),
        (cycle(6), False, True),
        (path(4), False, False),
        (path(5), False, True),
        (complete(5), False, False),
        (empty(5), False, False),
        # a triangle plus a disjoint edge has the degrees of P5 but is no path
        (union(cycle(3), path(2)), False, False),
        (union(cycle(4), path(5)), True, True),
    ],
)
def test_induced_c4_p5(adj, c4, p5):
    assert reference.has_induced_c4(adj) == c4
    assert reference.has_induced_p5(adj) == p5


@pytest.mark.parametrize(
    "adj, want",
    [
        (cycle(4), {2}),
        (cycle(5), {2}),
        (path(3), {2}),
        (path(4), {2}),
        (path(5), {2, 3}),
        (complete(6), {1}),
        (empty(3), {3}),
        (union(path(2), path(2)), {2}),
        (union(cycle(4), empty(1)), {3}),
    ],
)
def test_maxine_sizes_plain(adj, want):
    assert reference.maxine_sizes_plain(adj) == want


def test_c4_p5_free_count_small():
    # n = 4: every labeled graph except the three labeled 4-cycles
    assert reference.count_c4_p5_free_labeled(4) == 64 - 3


def test_graph6_decode():
    assert reference.decode_graph6("DhC") == path(5)
    assert reference.mask_adjacency(3, 0b101) == adjacency(3, [(0, 1), (1, 2)])


def test_generator_makeup_fixed_and_wiring_seeded():
    a, b = gen_sparse.corpus(1), gen_sparse.corpus(2)
    assert [(f, p) for f, p, _ in a] == [(f, p) for f, p, _ in b] == list(gen_sparse.MAKEUP)
    assert [r for _, _, r in a] != [r for _, _, r in b]
    assert a == gen_sparse.corpus(1)
    for (family, parts, record) in a:
        adj = reference.decode_graph6(record)
        assert len(adj) == sum(parts) <= gen_sparse.MAX_VERTICES
        want = 2 if family.startswith("cycle") else 3
        assert all(m.bit_count() == want for m in adj)
        if family.startswith("cycle"):
            assert reference.alpha_branching(adj) == sum(k // 2 for k in parts)


def test_generator_refuses_over_32_vertices():
    with pytest.raises(ValueError):
        gen_sparse.make_graph("cycles", (17, 16), random.Random(0))
    assert gen_sparse.graph6(*gen_sparse.make_graph("cycle", (32,), random.Random(0)))


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [tuple(m) for m in replay.LAYER_METRICS]
