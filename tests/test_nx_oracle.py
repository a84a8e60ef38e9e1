"""A second oracle, independent of tests/oracles.py: networkx's VF2
matcher decides the forbidden-structure facts, and its clique search
the independence numbers, that labeled and corpus scans read from their
layered tables.  Skipped when networkx is not installed."""

import os
import random

import pytest

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from reslab import facts, tablefacts, verify  # noqa: E402
from reslab.graphs import Graph, from_graph6, pair_order, to_graph6  # noqa: E402
from reslab.patterns import f_catalog  # noqa: E402


CORPUS8 = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")


def nx_graph(n: int, edges) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def holds_induced(host, pattern) -> bool:
    # GraphMatcher's subgraph isomorphism is node-induced
    return GraphMatcher(host, pattern).subgraph_is_isomorphic()


def passes_mdi(g, v) -> bool:
    """v has maximum degree and lies in every maximum independent set,
    found as the maximum cliques of the complement."""
    if g.degree(v) < max(d for _, d in g.degree()):
        return False
    cliques = list(nx.find_cliques(nx.complement(g)))
    top = max(map(len, cliques))
    return all(v in c for c in cliques if len(c) == top)


def catalog(max_vertices: int):
    """(member graph, passes its own MDI test) for every catalog member."""
    out = []
    for m in f_catalog(max_vertices, mdi_filter=False):
        g = nx_graph(m.graph.n, m.graph.edges())
        out.append((g, passes_mdi(g, m.v_vertex)))
    return out


def nx_flags(host, members) -> tuple:
    """C4, P5, filtered-member and raw-member presence in host."""
    c4, p5 = nx.cycle_graph(4), nx.path_graph(5)
    found = [holds_induced(host, m) for m, _ in members]
    return (
        holds_induced(host, c4),
        holds_induced(host, p5),
        any(hit for hit, (_, mdi) in zip(found, members) if mdi),
        any(found),
    )


def reslab_flags(f) -> tuple:
    bits = (facts._C4_FLAG, facts._P5_FLAG, facts._MEMBER_FLAG, facts._RAW_MEMBER_FLAG)
    return tuple(bool(f.flags & bit) for bit in bits)


@pytest.mark.parametrize("n", [6, 7])
def test_layer_flags_match_networkx(n):
    members = catalog(n)
    pairs = pair_order(n)
    for mask in random.Random(1000 + n).sample(range(1 << len(pairs)), 512):
        (f,) = tablefacts._layer_facts(n, mask, mask + 1)
        host = nx_graph(n, (e for k, e in enumerate(pairs) if mask >> k & 1))
        assert reslab_flags(f) == nx_flags(host, members), (n, mask)


def test_corpus8_flags_match_networkx():
    members = catalog(8)
    with open(CORPUS8) as fh:
        records = [line.strip() for line in fh if line.strip()]
    for record in random.Random(1008).sample(records, 256):
        g = from_graph6(record)
        f = tablefacts._corpus_facts(g.n, g.mask())
        assert reslab_flags(f) == nx_flags(nx_graph(g.n, g.edges()), members), record


def test_corpus8_alpha_matches_networkx():
    # the corpus scan reads alpha through two deletions into _level(6);
    # networkx finds it as the largest clique of the complement
    with open(CORPUS8) as fh:
        records = [line.strip() for line in fh if line.strip()]
    assert len(records) == 12346
    for record in records:
        h = nx.complement(nx.from_graph6_bytes(record.encode()))
        g = from_graph6(record)
        f = tablefacts._corpus_facts(g.n, g.mask())
        assert f.alpha == max(map(len, nx.find_cliques(h))), record


def test_graph6_decode_matches_networkx():
    with open(CORPUS8) as fh:
        records = [line.strip() for line in fh if line.strip()]
    assert len(records) == 12346
    for record in records:
        h = nx.from_graph6_bytes(record.encode())
        g = from_graph6(record)
        assert g.n == h.number_of_nodes(), record
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in h.edges()), record


def test_graph6_encode_matches_networkx():
    rng = random.Random(1062)
    for n in range(63):
        for _ in range(20):
            g = Graph.from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            h = nx_graph(n, g.edges())
            assert nx.to_graph6_bytes(h, header=False).decode() == to_graph6(g) + "\n"


def test_graph_facts_flags_match_networkx():
    # the per-graph search path: the 9-vertex catalog members, relabelings
    # of them, and seeded 9-vertex graphs of three densities
    members = catalog(9)
    rng = random.Random(1009)
    hosts = []
    for m in f_catalog(9, mdi_filter=False):
        if m.graph.n == 9:
            hosts.append(m.graph)
            for _ in range(3):
                perm = rng.sample(range(9), 9)
                hosts.append(Graph(9, [(perm[u], perm[v]) for u, v in m.graph.edges()]))
    for _ in range(50):
        p = rng.choice((0.25, 0.5, 0.75))
        hosts.append(Graph(9, [e for e in pair_order(9) if rng.random() < p]))
    seen = []
    for g in hosts:
        got = reslab_flags(verify.GraphFacts(g))
        assert got == nx_flags(nx_graph(9, g.edges()), members), to_graph6(g)
        seen.append(got)
    # every flag is seen both set and clear
    assert all(0 < sum(col) < len(seen) for col in zip(*seen))
