"""Small undirected graphs as adjacency bitmasks, plus the graph6 codec.

Vertices are integers 0..n-1 and each vertex's neighborhood is one Python
int used as a bitmask, which keeps the exhaustive scans cheap.  Everything
here is deliberately sized for n <= 62 (the single-byte graph6 range); the
enumeration and canonicalization helpers are only meant for n <= 8.
"""

from __future__ import annotations

from functools import lru_cache
from operator import or_
from typing import Iterable, Iterator

MAX_VERTICES = 62
ENUM_CAP = 8


def pair_order(n: int) -> list[tuple[int, int]]:
    """Fixed ordering of vertex pairs: (0,1),(0,2),(1,2),(0,3),...

    This is the column-major order graph6 uses for its bit vector.  Edge
    masks, labeled enumeration and canonical forms all use the same order
    so the representations line up.
    """
    return [(i, j) for j in range(1, n) for i in range(j)]


@lru_cache(maxsize=MAX_VERTICES + 1)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """pair_order(n), built once per n for the hot codec and enumeration paths."""
    return tuple(pair_order(n))


class Graph:
    """Immutable undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_hash")  # _hash: set on first hash()

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def _make(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # fast path for internal callers that guarantee a valid adjacency
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Graph whose edge set is the given bitmask over pair_order(n)."""
        pairs = _pairs(n)
        if mask < 0 or mask >> len(pairs):
            raise ValueError("edge mask out of range for %d vertices" % n)
        return cls._make(n, _mask_adj(n, pairs, mask))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _make, not the refused __setattr__
        return Graph._make, (self.n, self.adj)

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.adj))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Graph({self.n}, {sorted(self.edges())})"

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return _mask_to_set(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in _bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + w)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def mask(self) -> int:
        """Edge set encoded as a bitmask over pair_order(n)."""
        # pair (i, j), i < j, is bit j * (j - 1) // 2 + i: row j below the diagonal
        out = 0
        for j, m in enumerate(self.adj):
            out |= (m & ((1 << j) - 1)) << (j * (j - 1) // 2)
        return out


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, as indices, lowest first."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _components(adj, mask: int) -> Iterator[int]:
    """The connected components of the subgraph `mask` induces, as
    vertex bitmasks, in order of their lowest vertex."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
            if comp == mask:
                break  # the last component: nothing left to reach
        mask ^= comp
        yield comp


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._make(g.n, tuple((full & ~m) & ~(1 << v) for v, m in enumerate(g.adj)))


def induced(g: Graph, keep: Iterable[int]) -> Graph:
    """Induced subgraph on `keep`, relabeled densely in ascending order."""
    kept = sorted(set(keep))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError("kept vertices outside 0..%d" % (g.n - 1))
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        for w in _bits(g.adj[v]):
            j = pos.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph._make(len(kept), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    return induced(g, (u for u in range(g.n) if u != v))


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees sorted non-increasing."""
    return tuple(sorted((m.bit_count() for m in g.adj), reverse=True))


def _mask_adj(n: int, pairs, mask: int) -> tuple[int, ...]:
    """Adjacency bitmasks of the edge set `mask` over `pairs`."""
    adj = [0] * n
    m = mask
    while m:
        b = m & -m
        m ^= b
        i, j = pairs[b.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def _enum_range(n: int, lo: int, hi: int) -> Iterator[Graph]:
    """Labeled graphs whose edge masks are lo..hi-1, in counting order.

    The low 8 bits of the mask go through a decoded table, so each graph
    costs one elementwise OR of two adjacency tuples.
    """
    pairs = _pairs(n)
    low_bits = min(len(pairs), 8)
    low = [_mask_adj(n, pairs, m) for m in range(1 << low_bits)]
    make = Graph._make
    for high in range(lo >> low_bits, ((hi - 1) >> low_bits) + 1):
        base = high << low_bits
        hadj = _mask_adj(n, pairs, base)
        for ladj in low[max(lo - base, 0) : hi - base]:
            yield make(n, tuple(map(or_, hadj, ladj)))


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices, in edge-mask counting order."""
    if not 0 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration limited to 0..{ENUM_CAP} vertices, got {n}")
    return _enum_range(n, 0, 1 << len(pair_order(n)))


def _certificate(n: int, adj) -> int:
    """The least edge mask over the leaves of a refine-and-individualise
    search (McKay & Piperno, "Practical graph isomorphism, II", 2014), so
    equal exactly on isomorphic graphs.

    Refinement ranks each vertex by (its colour, its neighbours' sorted
    colours) until no class splits, keeping the order of the old classes.
    Each vertex of the first smallest class with more than one vertex is
    then individualised in turn (colour 2c, the rest of its class 2c + 1,
    other classes 2c'); x alone when the class is all twins of its first
    vertex x, since swapping twins is an automorphism.  A leaf's colours
    are distinct and relabel the graph.
    """
    nbrs = [list(_bits(m)) for m in adj]
    edges = [(i, j) for j in range(n) for i in nbrs[j] if i < j]
    best = 1 << n * (n - 1) // 2  # above every edge mask

    def search(colour: list[int], count: int) -> None:
        nonlocal best
        while True:
            keys = [
                (colour[v], tuple(sorted([colour[w] for w in nb])))
                for v, nb in enumerate(nbrs)
            ]
            rank = {key: r for r, key in enumerate(sorted(set(keys)))}
            colour = [rank[key] for key in keys]
            if len(rank) == count:
                break
            count = len(rank)
        if count == n:
            out = 0
            for i, j in edges:
                a, b = sorted((colour[i], colour[j]))
                out |= 1 << b * (b - 1) // 2 + a
            best = min(best, out)
            return
        cells = [[] for _ in range(count)]
        for v, c in enumerate(colour):
            cells[c].append(v)
        cell = min((c for c in cells if len(c) > 1), key=len)
        x = cell[0]
        if all(adj[v] | 1 << x | 1 << v == adj[x] | 1 << x | 1 << v for v in cell):
            cell = [x]
        base = [2 * c + (c == colour[x]) for c in colour]
        for v in cell:
            base[v] -= 1
            search(base, count + 1)
            base[v] += 1

    degrees = [len(nb) for nb in nbrs]  # the first refinement of one colour
    search(degrees, len(set(degrees)))
    return best


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte string: the vertex count, then the
    `_certificate` edge mask, big-endian.  Capped at n <= 8: the search
    prunes no automorphisms, so large symmetric graphs take exponential
    time."""
    if g.n > ENUM_CAP:
        raise ValueError(f"canonical_form limited to n <= {ENUM_CAP}, got {g.n}")
    width = (len(_pairs(g.n)) + 7) // 8
    return bytes([g.n]) + _certificate(g.n, g.adj).to_bytes(width, "big")


@lru_cache(maxsize=ENUM_CAP + 1)
def _class_level(n: int) -> tuple[int, ...]:
    # a class on n vertices is one on n - 1 plus a vertex joined to a
    # subset s, whose edges (i, n - 1) are the top n - 1 mask bits
    if n <= 1:
        return (0,)
    shift = (n - 1) * (n - 2) // 2
    pairs = _pairs(n)
    level = {
        _certificate(n, _mask_adj(n, pairs, m | s << shift))
        for m in _class_level(n - 1)
        for s in range(1 << n - 1)
    }
    return tuple(sorted(level))


def isomorphism_classes(n: int) -> Iterator[int]:
    """The `_certificate` of every isomorphism class on n vertices, in
    increasing order, built level by level from the classes on n - 1
    vertices: n = 7 takes about a second, n = 8 under half a minute."""
    if not 0 <= n <= ENUM_CAP:
        raise ValueError(f"classes limited to 0..{ENUM_CAP} vertices, got {n}")
    return iter(_class_level(n))


def isomorphism_class_count(n: int) -> int:
    return sum(1 for _ in isomorphism_classes(n))


class Graph6Error(ValueError):
    """Malformed graph6 record; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 record (no header, no trailing newline)."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph6 single-byte encoding requires n <= {MAX_VERTICES}")
    # the payload is the edge mask written from its first pair_order bit
    # to its last, six bits a byte, zero-padded at the end
    ngroups = (g.n * (g.n - 1) // 2 + 5) // 6
    bits = int(f"{g.mask():0{6 * ngroups}b}"[::-1], 2)
    return chr(g.n + 63) + "".join(
        [chr((bits >> 6 * k & 63) + 63) for k in range(ngroups - 1, -1, -1)]
    )


def _graph6_mask(text: str) -> tuple[int, int]:
    """(n, edge mask over pair_order(n)) of one graph6 record; tolerates
    the optional >>graph6<< header."""
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(_HEADER):
        base = len(_HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("empty record", base)
    c0 = ord(s[0])
    if c0 == 126:
        raise Graph6Error("multi-byte vertex count (n > 62) not supported", base)
    if not 63 <= c0 <= 125:
        raise Graph6Error(f"malformed length byte {s[0]!r}", base)
    n = c0 - 63
    npairs = n * (n - 1) // 2
    ngroups = (npairs + 5) // 6
    payload = s[1 : 1 + ngroups]
    if len(payload) < ngroups:
        raise Graph6Error(
            f"record truncated: expected {ngroups} payload bytes, got {len(payload)}",
            base + len(s),
        )
    if len(s) > 1 + ngroups:
        raise Graph6Error("trailing garbage after record", base + 1 + ngroups)
    bits = 0
    for gi, ch in enumerate(payload):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"non-printable payload byte {ch!r}", base + 1 + gi)
        bits = bits << 6 | (c - 63)
    # the first payload bit is the first pair's: read the bits last to first
    mask = int(f"{bits:0{6 * ngroups}b}"[::-1], 2)
    if mask >> npairs:
        raise Graph6Error("nonzero padding bits", base + ngroups)
    return n, mask


def from_graph6(text: str) -> Graph:
    """Decode one graph6 record; tolerates the optional >>graph6<< header."""
    return Graph.from_mask(*_graph6_mask(text))
