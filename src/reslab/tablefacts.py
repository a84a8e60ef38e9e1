"""GraphFacts read from the labeled tables of reslab.levels instead of
searched: every labeled graph, and corpus records with at most 8 vertices."""

from __future__ import annotations

from functools import lru_cache
from struct import Struct

from .facts import (
    _C4_FLAG,
    _P5_FLAG,
    GraphFacts,
    _lazy,
    _residue_of_sequence,
    _searched_flags,
    _spanning_patterns,
)
from .graphs import ENUM_CAP, Graph, _pairs
from .levels import (
    _CHUNK_MASK,
    _blocks,
    _chunk_table,
    _chunk_tables,
    _degree_class,
    _degree_classes,
    _dominating,
    _flag_level,
    _hh_level,
    _kept_bit,
    _level,
    _relabeled_flags,
    _stars,
    _unpacked,
)
from .patterns import _has_p5_star


class _MaskFacts(GraphFacts):
    """GraphFacts of a graph given by its edge mask over pair_order(n),
    whose C4 and P5 bits are read from its flags byte, and whose P5* is
    searched for only when it holds a P5; `graph` is built only when a
    check asks for it.  Each subclass sets n, mask and _pipelines itself."""

    @_lazy
    def graph(self) -> Graph:
        return Graph.from_mask(self.n, self.mask)

    @_lazy
    def edge_count(self) -> int:
        return self.mask.bit_count()

    c4 = property(lambda self: self.flags & _C4_FLAG)
    p5 = property(lambda self: self.flags & _P5_FLAG)

    @_lazy
    def p5_star(self) -> bool:
        # an induced P5 centred on an MDI vertex is an induced P5
        return bool(self.p5) and _has_p5_star(self.graph, self.mdi_mask)


# _SIX_INDEX[v][x]: the index into _FlagFacts.sixes of G - v - x, for x a
# vertex of G - v
_SIX_INDEX = [
    [x * (x + 1) // 2 + v if x >= v else v * (v - 1) // 2 + x for x in range(7)]
    for v in range(8)
]


@lru_cache(maxsize=None)
def _induced_tables(n: int):
    """Lookups for an n-vertex edge mask, n <= 8, read in four 7-bit
    chunks: chunk tables whose four lookups give all its induced
    subgraphs one and two vertices smaller at once, G - v over
    pair_order(n - 1) in the 32 bits from 32 v, and G - v - x over
    pair_order(n - 2) in the 16 bits from 16 times the position of the
    pair (x, v) in pair_order(n); a Struct to unpack each; and G - v's
    degree-vector chunk tables and (max-degree vertices, band) cache."""
    pairs, less = _pairs(n), max(n - 1, 0)

    def sevens(i, j):
        return sum(_kept_bit((v,), i, j) << 32 * v for v in range(n))

    def sixes(i, j):
        return sum(_kept_bit(p, i, j) << 16 * k for k, p in enumerate(pairs))

    def padded(tables, size):
        return (*tables, *[[0]] * (size - len(tables)))

    tables = padded(_chunk_table(n, sevens), 4), padded(_chunk_table(n, sixes), 4)
    structs = Struct(f"<{n}I"), Struct(f"<{len(pairs)}H")
    less_class = lru_cache(maxsize=1 << 12)(
        lambda packed: _degree_class(_unpacked(less, packed))[:2]
    )
    return (*tables, *structs, padded(_chunk_tables(less)[0], 3), less_class)


class _FlagFacts(_MaskFacts):
    """Facts of an n-vertex graph, n <= 8, read from the (n - 2)-vertex
    tables through its induced subgraphs instead of searched.  One pass
    at construction finds the edge masks of each G - v and G - v - x, the
    degree class, and from _level(n - 2) alpha, the Maxine sizes and the
    MDI mask, by the rules of the "Labeled scans" comment.  C4, P5 and
    catalog-member presence (the flags byte) and the guided run, which
    _hh_level(n - 2) ends after its first two deletions, are read when a
    check asks.  `graph` is built only for the checks that need the graph
    itself and for a spanning pattern's search."""

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        self._pipelines = {}
        (a0, a1, a2, a3), (b0, b1, b2, b3), seven, six, deg, less_class = (
            _induced_tables(n)
        )
        x0, x1, x2, x3 = mask & 127, mask >> 7 & 127, mask >> 14 & 127, mask >> 21
        # the edge mask of G - v for each vertex v, over pair_order(n - 1)
        self.deletions = sevens = seven.unpack(
            (a0[x0] | a1[x1] | a2[x2] | a3[x3]).to_bytes(seven.size, "little")
        )
        # the (n - 2)-vertex induced subgraphs, each once: G - v - x for
        # the pair (x, v) at its position in pair_order(n)
        self.sixes = sixes = six.unpack(
            (b0[x0] | b1[x1] | b2[x2] | b3[x3]).to_bytes(six.size, "little")
        )
        self.edge_count = e = mask.bit_count()
        # v has degree |E(G)| - |E(G - v)|
        tops, self._band, seq = _degree_class([e - m.bit_count() for m in sevens])
        self._tops, self.degrees = tops, seq
        self.residue = _residue_of_sequence(seq)
        self._less = less = {}  # (max-degree vertices, band) of G - v
        if not mask:
            self.alpha, self.maxine_sizes, self.mdi_mask = n, 1 << n, (1 << n) - 1
            return
        alphas, sizes = _level(n - 2)
        (d0, d1, d2), pairs7 = deg, _pairs(n - 1)
        # alpha(G) = max(alpha(G - v0), alpha(G - y)) for the edge v0-y, v0
        # the first max-degree vertex and y its first neighbour
        v0 = tops[0]
        star = mask & _stars(n)[v0][-1]
        p, q = _pairs(n)[(star & -star).bit_length() - 1]
        y = p + q - v0
        # alpha of each G - v, v of maximum degree, through an edge of
        # G - v; the Maxine sizes, the union over those v of the sizes of
        # G - v - x over the max-degree vertices x of G - v
        less_alphas, got = [], 0
        for v in tops:
            m = sevens[v]
            if not m:
                less_alphas.append(n - 1)
                got |= 1 << (n - 1)
                continue
            index = _SIX_INDEX[v]
            p, q = pairs7[(m & -m).bit_length() - 1]
            ap, aq = alphas[sixes[index[p]]], alphas[sixes[index[q]]]
            less_alphas.append(ap if ap > aq else aq)
            less[v] = cls = less_class(d0[m & 127] + d1[m >> 7 & 127] + d2[m >> 14])
            for x in cls[0]:
                got |= sizes[sixes[index[x]]]
        alpha = max(less_alphas)
        if y not in tops:  # so G - y has an edge, as a vertex meeting all is a top
            m, index = sevens[y], _SIX_INDEX[y]
            p, q = pairs7[(m & -m).bit_length() - 1]
            alpha = max(alpha, alphas[sixes[index[p]]], alphas[sixes[index[q]]])
        self.alpha, self.maxine_sizes = alpha, got
        mdi = 0
        for v, less_alpha in zip(tops, less_alphas):
            if less_alpha < alpha:
                mdi |= 1 << v
        self.mdi_mask = mdi

    @_lazy
    def hh_size(self) -> int | None:
        """The guided run's first deletion v, and its second, w in G - v;
        the run then ends as that of G - v - w does."""
        n = self.n
        if not self.mask:
            return n
        v = _dominating(n, self.mask, self._tops, self._band)
        if v is None:
            return None
        if not self.deletions[v]:
            return n - 1
        w = _dominating(n - 1, self.deletions[v], *self._less[v])
        code = 0 if w is None else _hh_level(n - 2)[self.sixes[_SIX_INDEX[v][w]]]
        return code - 1 if code else None

    @_lazy
    def flags(self) -> int:
        """Each (n - 1)-vertex induced subgraph gives its relabeling bit,
        and each (n - 2)-vertex one its _flag_level(n - 2) entry.  A
        pattern with n vertices can only be a relabeling of G, so it is
        searched for, and G built, only when its edge count is G's."""
        if not self.mask:
            return 0
        n = self.n
        seven, six = _relabeled_flags(n - 1), _flag_level(n - 2)
        out = 0
        for m in self.deletions:
            out |= seven.get(m, 0)
        for m in self.sixes:
            out |= six[m]
        # every catalog member holds an induced C4, but C4 and P5 are the
        # patterns that span 4- and 5-vertex graphs, which the bit cannot gate
        if out & _C4_FLAG or n < 6:
            out = _searched_flags(self, _spanning_patterns(n), out)
        return out


def _corpus_facts(n: int, mask: int) -> GraphFacts:
    """The facts of a corpus record's edge mask: read from the tables two
    vertices smaller up to 8 vertices, searched per graph beyond."""
    return _FlagFacts(n, mask) if n <= ENUM_CAP else GraphFacts(Graph.from_mask(n, mask))


class _LayerFacts(_MaskFacts):
    """Facts of a labeled graph, seeded from the tables."""

    def __init__(self, n, mask, alpha, sizes, mdi, degclass, high_subs, packed):
        self.n = n
        self.mask = mask
        self.alpha = alpha
        self.maxine_sizes = sizes
        self.mdi_mask = mdi
        self.degrees = degclass[1]
        self.residue = degclass[2]
        self._tops = degclass[0]
        self._high_subs = high_subs
        self._packed = packed  # degree vector, see _chunk_tables
        self._pipelines = {}

    @_lazy
    def hh_size(self) -> int | None:
        n, mask = self.n, self.mask
        if not mask:
            return n
        classes = _degree_classes(n)
        band = classes.bands[self._packed] or classes.band(self._packed)
        v = _dominating(n, mask, self._tops, band)
        if v is None:
            return None
        sub = _chunk_tables(n)[1][v][0][mask & _CHUNK_MASK]
        code = _hh_level(n - 1)[self._high_subs[v] | sub]
        return code - 1 if code else None

    @_lazy
    def flags(self) -> int:
        n = self.n
        out = _relabeled_flags(n).get(self.mask, 0)
        if n:
            table = _flag_level(n - 1)
            x = self.mask & _CHUNK_MASK
            for high, sub in zip(self._high_subs, _chunk_tables(n)[1]):
                out |= table[high | sub[0][x]]
        return out


def _layer_facts(n: int, lo: int, hi: int):
    """Facts of the labeled n-vertex graphs with edge masks lo..hi-1, in
    counting order."""
    pairs = _pairs(n)
    deg, sub = _chunk_tables(n)
    alphas, sizes = _level(n - 1) if n else (None, None)
    degree_classes = _degree_classes(n)
    ids, classes = degree_classes.ids, degree_classes.classes
    low_deg = deg[0]
    low_sub = [s[0] for s in sub]
    edgeless = (n, 1 << n, (1 << n) - 1)
    for base, xs, high_deg, high_subs in _blocks(n, lo, hi):
        for x in xs:
            mask = base | x
            packed = high_deg + low_deg[x]
            degclass = classes[ids[packed] or degree_classes.add(packed)]
            if mask:
                low = mask & -mask
                u, w = pairs[low.bit_length() - 1]
                a = alphas[high_subs[u] | low_sub[u][x]]
                b = alphas[high_subs[w] | low_sub[w][x]]
                alpha = a if a > b else b
                size_mask = mdi = 0
                for v in degclass[0]:
                    s = high_subs[v] | low_sub[v][x]
                    size_mask |= sizes[s]
                    if alphas[s] < alpha:
                        mdi |= 1 << v
                yield _LayerFacts(
                    n, mask, alpha, size_mask, mdi, degclass, high_subs, packed
                )
            else:
                yield _LayerFacts(n, 0, *edgeless, degclass, high_subs, packed)
