"""Per-graph facts shared by the checks of a scan: GraphFacts and its
lazy attributes, the flag bits and the catalog's flagged patterns."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .degseq import hh_realization, residue_seq
from .graphs import Graph, degree_sequence
from .heuristics import NoHHVertexError, _hh_vertices_mask, _maxine_sizes, maxine_hh
from .independence import (
    _alpha_mask,
    _mdi_mask,
    _reduction_pipeline,
    _unique_mis_mask,
)
from .patterns import _P5, _has_p5_star, cycle, f_catalog, find_induced


_C4 = cycle(4)
# bits of GraphFacts.flags
_C4_FLAG, _P5_FLAG, _MEMBER_FLAG, _RAW_MEMBER_FLAG = 1, 2, 4, 8
# (pattern, flag, edge count) of the flagged patterns outside the catalog
_C4_ENTRY, _P5_ENTRY = (_C4, _C4_FLAG, 4), (_P5, _P5_FLAG, 4)


@lru_cache(maxsize=4096)
def _residue_of_sequence(seq: tuple[int, ...]) -> int:
    return residue_seq(seq)


@lru_cache(maxsize=4096)
def _sequence_realization_has_hh_vertex(seq: tuple[int, ...]) -> bool:
    g = hh_realization(seq)
    if g.n == 0:
        return False
    return bool(_hh_vertices_mask(g.adj, (1 << g.n) - 1)[1])


@lru_cache(maxsize=64)
def _catalog_upto(n: int) -> tuple:
    """The raw catalog members with at most n vertices, each relabeled v,
    core, u, w.  Every vertex after v then has an earlier neighbour, so an
    induced search draws its candidates from neighbourhoods instead of
    from the many independent triples of a sparse host."""
    if n < 6:
        return ()
    members = []
    for m in f_catalog(n, mdi_filter=False):
        order = (m.v_vertex, *m.core_vertices, m.u_vertex, m.w_vertex)
        new = {x: i for i, x in enumerate(order)}
        g = Graph(m.graph.n, [(new[a], new[b]) for a, b in m.graph.edges()])
        roles = {new[x]: role for x, role in m.roles.items()}
        members.append(replace(m, graph=g, roles=roles))
    return tuple(members)


@lru_cache(maxsize=64)
def _flagged_patterns(n: int) -> tuple[tuple[Graph, int, int], ...]:
    """(pattern, flag, edge count) of C4, P5 and then the catalog members
    with at most n vertices, from one catalog build; a member is flagged
    raw and, if it passes its own MDI test, filtered."""
    members = [
        (m.graph, _RAW_MEMBER_FLAG | (_MEMBER_FLAG if m.mdi_verified else 0))
        for m in _catalog_upto(n)
    ]
    return (_C4_ENTRY, _P5_ENTRY, *((g, flag, g.edge_count) for g, flag in members))


@lru_cache(maxsize=None)
def _spanning_patterns(k: int) -> tuple[tuple[Graph, int, int], ...]:
    """The _flagged_patterns(k) with exactly k vertices."""
    return tuple(p for p in _flagged_patterns(k) if p[0].n == k)


def _searched_flags(f: GraphFacts, patterns, out: int = 0) -> int:
    """`out` with the flag added of each (pattern, flag, edge count) of
    `patterns` that f.graph holds induced.  A flag already set is not
    searched for again, nor a pattern with as many vertices as f and
    another edge count, which cannot be a relabeling of f.graph."""
    edges = f.edge_count
    for pattern, flag, pattern_edges in patterns:
        if (
            flag & ~out
            and (pattern.n < f.n or pattern_edges == edges)
            and find_induced(f.graph, pattern) is not None
        ):
            out |= flag
    return out


class _lazy:
    """Compute-once attribute, like functools.cached_property without the
    lock that Python 3.11 takes on every first access."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class GraphFacts:
    """Per-graph lazy cache shared by all checks in a scan."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.graph = g
        self._pipelines: dict[int, tuple[Graph, int, int]] = {}

    @_lazy
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return degree_sequence(self.graph)

    @_lazy
    def residue(self) -> int:
        return _residue_of_sequence(self.degrees)

    @_lazy
    def alpha(self) -> int:
        return _alpha_mask(self.graph.adj, self.full_mask)

    @_lazy
    def maxine_sizes(self) -> int:
        return _maxine_sizes(self.graph.adj, self.full_mask)

    @property
    def maxine_min(self) -> int:
        s = self.maxine_sizes
        return (s & -s).bit_length() - 1

    @property
    def maxine_max(self) -> int:
        return self.maxine_sizes.bit_length() - 1

    @_lazy
    def mdi_mask(self) -> int:
        return _mdi_mask(self.graph.adj, self.n, self.alpha)

    @_lazy
    def edge_count(self) -> int:
        return self.graph.edge_count

    @_lazy
    def p5_star(self) -> bool:
        return _has_p5_star(self.graph, self.mdi_mask)

    @_lazy
    def hh_size(self) -> int | None:
        """Survivor count of the guided run (maxine_hh); None if it strands."""
        try:
            return maxine_hh(self.graph).size
        except NoHHVertexError:
            return None

    @_lazy
    def c4(self) -> int:
        """The C4 bit of flags, searched without the catalog; _MaskFacts
        reads it, and the P5 bit, from its flags byte."""
        return _searched_flags(self, [_C4_ENTRY])

    @_lazy
    def p5(self) -> int:
        return _searched_flags(self, [_P5_ENTRY])

    @_lazy
    def flags(self) -> int:
        """Which of C4, P5, a filtered catalog member and a raw member
        G holds induced, as the bits _C4_FLAG .. _RAW_MEMBER_FLAG.

        Every member holds an induced C4 (u and v are non-adjacent with
        two non-adjacent common neighbours in the core), so a C4-free
        host is answered without a catalog search.
        """
        out = self.c4 | self.p5
        if out & _C4_FLAG:
            out = _searched_flags(self, _flagged_patterns(self.n)[2:], out)
        return out

    def pipeline(self, v: int) -> tuple[Graph, int, int]:
        """(g2, v2, iset): the reduced graph, where v lands in it, and its
        one maximum independent set as a bitmask; ValueError if the
        reductions do not leave exactly one such set holding max-degree v2."""
        out = self._pipelines.get(v)
        if out is None:
            # both reductions keep alpha, so the host's serves every stage
            g2, v2 = _reduction_pipeline(self.graph, v, self.alpha)
            out = self._pipelines[v] = (g2, v2, _unique_mis_mask(g2, v2, self.alpha))
        return out
