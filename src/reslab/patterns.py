"""Forbidden-structure catalog and induced-subgraph search.

The catalog members are the fully determined graphs built from an
independent triple {u, v, w} plus a core wired entirely to v: the core is
a complement of a cycle sitting inside the two-sided neighbor class (case
A), the same with exactly one one-sided vertex absorbed into it (case B),
or a complement of a path whose two complement-endpoints are the one-sided
vertices (case C, with both same-side and opposite-side wirings).  Members
whose own maximum independent set is unique with v on top (the MDI check)
form the filtered family used in freeness tests; the raw list is what the
structure checks search for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .graphs import Graph, _bits, to_graph6
from .independence import _mdi_mask, alpha, mdi_vertices

ROLE_V = "v"
ROLE_U = "u"
ROLE_W = "w"
ROLE_Q = "Q'"
ROLE_N = "N'"


def path(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, ((i, j) for j in range(n) for i in range(j)))


def empty(n: int) -> Graph:
    return Graph(n)


def complement_cycle(n: int) -> Graph:
    """Complement of the n-cycle: i ~ j unless they are cyclically adjacent."""
    if n < 3:
        raise ValueError(f"complement_cycle needs n >= 3, got {n}")
    return Graph(
        n,
        (
            (i, j)
            for j in range(n)
            for i in range(j)
            if (j - i) % n not in (1, n - 1)
        ),
    )


def complement_path(n: int) -> Graph:
    """Complement of the n-path 0-1-...-(n-1): i ~ j iff |i - j| >= 2."""
    if n < 1:
        raise ValueError(f"complement_path needs n >= 1, got {n}")
    return Graph(n, ((i, j) for j in range(n) for i in range(j) if j - i >= 2))


@dataclass(frozen=True)
class FMember:
    """One catalog member with its role labeling.

    kind 'A': core = complement_cycle(n) of two-sided vertices.
    kind 'B': core = complement_cycle(n) with one one-sided vertex (on the
              u side; the w side is the mirror image) at cycle position 0.
    kind 'C': core = complement_path(n); the complement-path endpoints are
              the two one-sided vertices, wired both to u ('same') or one
              to u and one to w ('opposite').
    Vertex layout: v=0, u=1, w=2, core = 3..n+2 in constructor order.
    """

    kind: str
    core_size: int
    variant: str | None
    graph: Graph
    roles: Mapping[int, str]
    mdi_verified: bool

    @property
    def label(self) -> str:
        var = f"-{self.variant}" if self.variant else ""
        return f"{self.kind}{self.core_size}{var}"

    @property
    def v_vertex(self) -> int:
        return self._role_vertices(ROLE_V)[0]

    @property
    def u_vertex(self) -> int:
        return self._role_vertices(ROLE_U)[0]

    @property
    def w_vertex(self) -> int:
        return self._role_vertices(ROLE_W)[0]

    @property
    def q_vertices(self) -> tuple[int, ...]:
        return self._role_vertices(ROLE_Q)

    @property
    def core_vertices(self) -> tuple[int, ...]:
        return tuple(
            x for x in sorted(self.roles) if self.roles[x] in (ROLE_Q, ROLE_N)
        )

    def _role_vertices(self, role: str) -> tuple[int, ...]:
        return tuple(x for x in sorted(self.roles) if self.roles[x] == role)

    def role_string(self) -> str:
        qs = ",".join(str(x) for x in self.q_vertices)
        ns = ",".join(
            str(x) for x in sorted(self.roles) if self.roles[x] == ROLE_N
        )
        return f"v={self.v_vertex};u={self.u_vertex};w={self.w_vertex};Q'={qs};N'={ns}"

    def serialize(self) -> str:
        return f"{to_graph6(self.graph)} {self.role_string()}"


def _validate_member(m: FMember) -> None:
    g = m.graph
    v, u, w = m.v_vertex, m.u_vertex, m.w_vertex
    core = m.core_vertices
    assert sorted(m.roles) == list(range(g.n))
    assert not (g.has_edge(u, v) or g.has_edge(u, w) or g.has_edge(v, w))
    for x in core:
        assert g.has_edge(v, x)
        touches = int(g.has_edge(x, u)) + int(g.has_edge(x, w))
        if m.roles[x] == ROLE_N:
            assert touches == 2
        else:
            assert touches == 1
    # the core itself must be the advertised complement graph
    expected = (
        complement_path(len(core)) if m.kind == "C" else complement_cycle(len(core))
    )
    for a in range(len(core)):
        for b in range(a + 1, len(core)):
            assert g.has_edge(core[a], core[b]) == expected.has_edge(a, b)
    # every two-sided core vertex keeps at least two core non-neighbors,
    # which is what keeps v's degree maximal in the member
    for x in core:
        if m.roles[x] == ROLE_N:
            non = sum(
                1 for y in core if y != x and not g.has_edge(x, y)
            )
            assert non >= 2


def gen_f_member(kind: str, n: int, variant: str | None = None) -> FMember:
    """Construct one catalog member; n is the core size (n >= 3).

    kind 'C' needs variant 'same' or 'opposite'; kinds 'A' and 'B' take
    none.  The member's own MDI status is computed and recorded.
    """
    if kind not in ("A", "B", "C"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 3:
        raise ValueError(f"core size must be >= 3, got {n}")
    if kind == "C":
        if variant not in ("same", "opposite"):
            raise ValueError("kind C needs variant 'same' or 'opposite'")
    elif variant is not None:
        raise ValueError(f"kind {kind} takes no variant")
    v, u, w = 0, 1, 2
    core = list(range(3, n + 3))
    edges: list[tuple[int, int]] = []
    roles: dict[int, str] = {v: ROLE_V, u: ROLE_U, w: ROLE_W}
    for x in core:
        edges.append((v, x))
    if kind == "C":
        inner = complement_path(n)
        q1, q2 = core[0], core[-1]
        roles[q1] = ROLE_Q
        roles[q2] = ROLE_Q
        for x in core[1:-1]:
            roles[x] = ROLE_N
            edges.append((u, x))
            edges.append((w, x))
        edges.append((u, q1))
        edges.append((u, q2) if variant == "same" else (w, q2))
    else:
        inner = complement_cycle(n)
        qs = [core[0]] if kind == "B" else []
        for x in core:
            if x in qs:
                roles[x] = ROLE_Q
                edges.append((u, x))
            else:
                roles[x] = ROLE_N
                edges.append((u, x))
                edges.append((w, x))
    for a in range(n):
        for b in range(a + 1, n):
            if inner.has_edge(a, b):
                edges.append((core[a], core[b]))
    g = Graph(n + 3, edges)
    member = FMember(
        kind, n, variant, g, MappingProxyType(roles), v in mdi_vertices(g)
    )
    _validate_member(member)
    return member


def f_catalog(max_vertices: int, mdi_filter: bool = True) -> list[FMember]:
    """Every member with at most max_vertices vertices, smallest first.

    mdi_filter=True keeps only members that pass their own MDI check (the
    family used in freeness hypotheses); False gives the raw list the
    structure checks search for.
    """
    if max_vertices < 6:
        raise ValueError(f"catalog needs max_vertices >= 6, got {max_vertices}")
    return [m for m in _catalog_cached(max_vertices) if m.mdi_verified or not mdi_filter]


@lru_cache(maxsize=None)
def _catalog_cached(max_vertices: int) -> tuple[FMember, ...]:
    """The members up to max_vertices, extending those one vertex
    smaller, so that each member is built once whatever bounds are asked."""
    n = max_vertices - 3  # core size of the largest members
    if n < 3:
        return ()
    return _catalog_cached(max_vertices - 1) + (
        gen_f_member("A", n),
        gen_f_member("B", n),
        gen_f_member("C", n, "same"),
        gen_f_member("C", n, "opposite"),
    )


@dataclass(frozen=True)
class Embedding:
    """Injective induced embedding; mapping[i] = host vertex of pattern i."""

    mapping: tuple[int, ...]

    def __getitem__(self, pattern_vertex: int) -> int:
        return self.mapping[pattern_vertex]


def find_induced(
    host: Graph, pattern: Graph, anchor: Mapping[int, int] | None = None
) -> Embedding | None:
    """Lexicographically least induced embedding of pattern in host, if any.

    anchor pins pattern vertices to host vertices (checked for injectivity
    and range).  Assignment explores pattern vertices in id order and host
    candidates in ascending order, with degree and partial-adjacency
    pruning, so the result is deterministic.
    """
    p, h = pattern.n, host.n
    if anchor:
        fixed = dict(anchor)
        if len(set(fixed.values())) != len(fixed):
            raise ValueError("anchor maps two pattern vertices to one host vertex")
        for pv, hv in fixed.items():
            if not (0 <= pv < p and 0 <= hv < h):
                raise ValueError(f"anchor pair {pv}->{hv} out of range")
    else:
        fixed = {}
    if p > h:
        return None
    pdeg, links, pedges = _pattern_plan(pattern)
    hadj = host.adj
    hdeg = [m.bit_count() for m in hadj]
    # an induced copy needs at least as many edges and non-edges as the
    # pattern, and the whole degree sequence when it spans the host
    hedges = sum(hdeg) // 2
    if pedges > hedges or p * (p - 1) // 2 - pedges > h * (h - 1) // 2 - hedges:
        return None
    if p == h and sorted(hdeg) != sorted(pdeg):
        return None
    # by_deg[d]: host vertices of degree d, as a bitmask
    by_deg = [0] * h
    for hv, d in enumerate(hdeg):
        by_deg[d] |= 1 << hv
    # allowed[x]: host vertices that pass the degree test for pattern
    # vertex x (and its anchor, if pinned): at least as many neighbors
    # and at least as many non-neighbors as x has in the pattern
    allowed = []
    for x, dx in enumerate(pdeg):
        ok = 0
        for d in range(dx, h - p + dx + 1):
            ok |= by_deg[d]
        want = fixed.get(x)
        if want is not None:
            ok &= 1 << want
        if not ok:
            return None
        allowed.append(ok)
    # nonadj[hv]: host vertices other than hv that are not adjacent to it
    full = (1 << h) - 1
    nonadj = [full & ~m & ~(1 << hv) for hv, m in enumerate(hadj)]
    mapping = [-1] * p

    def assign(x: int, used: int) -> bool:
        if x == p:
            return True
        cands = allowed[x] & ~used
        adj_to, apart_from = links[x]
        for y in adj_to:
            cands &= hadj[mapping[y]]
        for y in apart_from:
            cands &= nonadj[mapping[y]]
        while cands:
            b = cands & -cands
            cands ^= b
            mapping[x] = b.bit_length() - 1
            if assign(x + 1, used | b):
                return True
        return False

    if assign(0, 0):
        return Embedding(tuple(mapping))
    return None


@lru_cache(maxsize=1024)
def _pattern_plan(pattern: Graph):
    """(degrees, per-vertex earlier neighbors / non-neighbors, edge count)."""
    padj = pattern.adj
    links = tuple(
        (
            tuple(y for y in range(x) if padj[x] >> y & 1),
            tuple(y for y in range(x) if not padj[x] >> y & 1),
        )
        for x in range(pattern.n)
    )
    return tuple(m.bit_count() for m in padj), links, pattern.edge_count


def has_p5_star(g: Graph) -> bool:
    """Induced 5-path whose middle vertex is max-degree and lies in every
    maximum independent set of g."""
    return _has_p5_star(g, _mdi_mask(g.adj, g.n, alpha(g)))


_P5 = path(5)


def _has_p5_star(g: Graph, mdi: int) -> bool:
    """has_p5_star with the MDI vertices of g given as a bitmask."""
    return any(find_induced(g, _P5, anchor={2: v}) is not None for v in _bits(mdi))
