"""Exact independence tools: alpha, all maximum independent sets, vertices
that lie in every one of them, and the reductions that shrink a graph
around such a vertex.

A vertex "dominates independence" here when it has maximum degree and
belongs to every maximum independent set; graphs carrying one are the
interesting hosts for the structure checks, and the two reductions below
cut such a host down to a canonical core (unique maximum independent set,
nothing outside the closed neighborhood of the vertex union the set).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _mask_to_set, induced

ALL_MIS_CAP = 32


def _greedy_lower_bound(adj, mask: int) -> int:
    count = 0
    while mask:
        best_v = -1
        best_d = 1 << 62
        m = mask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        count += 1
        mask &= ~(adj[best_v] | (1 << best_v))
    return count


def _alpha_bb(adj, mask: int, size: int, best: int) -> int:
    """Branch and bound on a maximum-degree vertex, in/out."""
    if mask == 0:
        return size if size > best else best
    if size + mask.bit_count() <= best:
        return best
    maxd = -1
    maxv = -1
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d > maxd:
            maxd = d
            maxv = v
    if maxd == 0:
        size += mask.bit_count()
        return size if size > best else best
    bit = 1 << maxv
    best = _alpha_bb(adj, mask & ~(adj[maxv] | bit), size + 1, best)
    return _alpha_bb(adj, mask ^ bit, size, best)


def _alpha_mask(adj, mask: int) -> int:
    return _alpha_bb(adj, mask, 0, _greedy_lower_bound(adj, mask) - 1)


def alpha(g: Graph) -> int:
    """Independence number."""
    return _alpha_mask(g.adj, (1 << g.n) - 1)


def _all_mis_masks(g: Graph, cap: int = ALL_MIS_CAP) -> tuple[int, list[int]]:
    """alpha and every maximum independent set, as bitmasks.

    Generated in ascending lexicographic order of the member lists.
    """
    if g.n > cap:
        raise ValueError(f"all_mis limited to n <= {cap}, got {g.n}")
    adj = g.adj
    target = alpha(g)
    results: list[int] = []
    if target == 0:
        return target, [0]

    def rec(chosen: int, count: int, cands: int):
        c = cands
        while c:
            if count + c.bit_count() < target:
                return
            b = c & -c
            c ^= b
            v = b.bit_length() - 1
            if count + 1 == target:
                results.append(chosen | b)
            else:
                rec(chosen | b, count + 1, c & ~adj[v])

    rec(0, 0, (1 << g.n) - 1)
    return target, results


@dataclass(frozen=True)
class MISReport:
    """alpha plus every maximum independent set, lexicographically sorted."""

    alpha: int
    sets: tuple[frozenset[int], ...]


def all_mis(g: Graph, cap: int = ALL_MIS_CAP) -> MISReport:
    """Enumerate every maximum independent set."""
    a, masks = _all_mis_masks(g, cap)
    sets = tuple(_mask_to_set(m) for m in masks)
    return MISReport(a, tuple(sorted(sets, key=sorted)))


def _mdi_mask(adj, n: int, a: int) -> int:
    """Max-degree vertices present in every maximum independent set.

    `a` is alpha of the graph.  A vertex lies in every maximum independent
    set exactly when deleting it leaves no independent set of size `a`,
    so each max-degree vertex costs one bounded search.
    """
    full = (1 << n) - 1
    best = max((m.bit_count() for m in adj), default=0)
    out = 0
    for v in range(n):
        if adj[v].bit_count() == best:
            bit = 1 << v
            if _alpha_bb(adj, full ^ bit, 0, a - 1) < a:
                out |= bit
    return out


def mdi_vertices(g: Graph) -> frozenset[int]:
    """Vertices of maximum degree that lie in every maximum independent set."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    return _mask_to_set(_mdi_mask(g.adj, g.n, alpha(g)))


def _unique_mis_keep(g: Graph, v: int) -> frozenset[int]:
    """Vertices kept by the collapse to a single maximum independent set."""
    report = all_mis(g)
    mdi = _mdi_mask(g.adj, g.n, report.alpha)
    if not mdi >> v & 1:
        raise ValueError(
            f"vertex {v} is not a max-degree vertex lying in every maximum independent set"
        )
    keep_set = report.sets[0]  # lexicographically least maximum independent set
    drop = frozenset().union(*report.sets) - keep_set
    return frozenset(range(g.n)) - drop


def reduce_to_unique_mis(g: Graph, v: int) -> Graph:
    """Delete every vertex that sits in some other maximum independent set.

    Keeps the lexicographically least maximum independent set; the output
    has exactly one maximum independent set (same alpha) and v keeps its
    degree, maximum-degree status and membership.  Vertices are relabeled
    densely; track positions via sorted kept order if needed.
    """
    return induced(g, _unique_mis_keep(g, v))


def _unique_mis_mask(g: Graph, v: int) -> int:
    """The one maximum independent set of g, as a bitmask.

    Raises ValueError unless g has exactly one maximum independent set and
    it holds v, a vertex of maximum degree.
    """
    _, masks = _all_mis_masks(g)
    if len(masks) != 1:
        raise ValueError("graph does not have a unique maximum independent set")
    iset = masks[0]
    if not iset >> v & 1 or g.degree(v) != max(g.degree(u) for u in range(g.n)):
        raise ValueError(
            f"vertex {v} is not a max-degree vertex lying in every maximum independent set"
        )
    return iset


def _prune_keep(g: Graph, v: int) -> frozenset[int]:
    iset = _unique_mis_mask(g, v)
    iprime_mask = iset & ~(1 << v)
    keep = g.adj[v] | iset
    # drop neighbors with no neighbor inside the independent set minus v,
    # repeatedly (each would re-seat the set elsewhere, so they are dead)
    changed = True
    while changed:
        changed = False
        for x in _bits(keep & g.adj[v]):
            if not g.adj[x] & iprime_mask:
                keep ^= 1 << x
                changed = True
    return _mask_to_set(keep)


def prune_outside(g: Graph, v: int) -> Graph:
    """Cut down to the closed neighborhood of v union its independent set.

    Requires a unique maximum independent set containing max-degree v.
    Also discards neighbors of v with no neighbor in the rest of the set,
    iterated to a fixed point (vacuous when the set is truly unique, kept
    for parity with the construction this mirrors).
    """
    return induced(g, _prune_keep(g, v))


def reduction_pipeline(g: Graph, v: int) -> tuple[Graph, int]:
    """reduce_to_unique_mis then prune_outside, tracking where v lands."""
    keep1 = sorted(_unique_mis_keep(g, v))
    g1 = induced(g, keep1)
    v1 = keep1.index(v)
    keep2 = sorted(_prune_keep(g1, v1))
    g2 = induced(g1, keep2)
    return g2, keep2.index(v1)


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Classes of N(center) by how many set members (besides center) they touch.

    classes[i] holds the neighbors adjacent to exactly i+1 members of
    iprime = iset - {center}.  With alpha = 3, iprime is a pair {u, w}
    (u the lower id): q_u / q_w are the one-sided neighbors, n_both the
    two-sided ones, q their union (classes[0]).
    """

    graph: Graph
    center: int
    iset: frozenset[int]
    iprime: frozenset[int]
    classes: tuple[frozenset[int], ...]

    def _uw(self) -> tuple[int, int]:
        if len(self.iprime) != 2:
            raise ValueError("q_u / q_w / n_both need alpha = 3")
        u, w = sorted(self.iprime)
        return u, w

    @property
    def q(self) -> frozenset[int]:
        return self.classes[0] if self.classes else frozenset()

    @property
    def q_u(self) -> frozenset[int]:
        u, _ = self._uw()
        return frozenset(x for x in self.q if self.graph.has_edge(x, u))

    @property
    def q_w(self) -> frozenset[int]:
        _, w = self._uw()
        return frozenset(x for x in self.q if self.graph.has_edge(x, w))

    @property
    def n_both(self) -> frozenset[int]:
        self._uw()
        return self.classes[1]


def partition_neighborhood(g: Graph, v: int) -> NeighborhoodPartition:
    """Split N(v) by adjacency count into iset - {v}.

    Expects the output of the two reductions: unique maximum independent
    set containing max-degree v, every vertex in N(v) union the set, and
    every neighbor touching the set somewhere besides v.
    """
    iset_mask = _unique_mis_mask(g, v)
    nbrs = g.adj[v]
    outside = ((1 << g.n) - 1) & ~nbrs & ~iset_mask
    if outside:
        raise ValueError("graph has vertices outside N(v) and the independent set")
    iprime_mask = iset_mask & ~(1 << v)
    iset = _mask_to_set(iset_mask)
    iprime = iset - {v}
    k = len(iset)
    buckets: list[list[int]] = [[] for _ in range(max(k - 1, 0))]
    for x in _bits(nbrs):
        c = (g.adj[x] & iprime_mask).bit_count()
        if c == 0:
            raise ValueError(
                f"neighbor {x} touches the independent set only at {v}; prune first"
            )
        buckets[c - 1].append(x)
    return NeighborhoodPartition(
        g, v, iset, iprime, tuple(frozenset(b) for b in buckets)
    )
