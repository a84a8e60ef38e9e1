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

from .graphs import Graph, _bits, _components, _mask_to_set, induced

ALL_MIS_CAP = 32


def _alpha_bb(adj, mask: int, size: int, best: int) -> int:
    """max(best, size + alpha of the subgraph `mask` induces), by branch
    and bound on a maximum-degree vertex, in/out; `best` comes back as
    soon as the sum cannot beat it.

    Once the maximum degree is at most 2 the subgraph is a disjoint union
    of paths and cycles, E edges in all, and finishes in closed form:
    ceil(k/2) for the path P_k, which has a vertex of degree <= 1, and
    floor(k/2) for the cycle C_k (k >= 3), which has none.  That sum is
    |mask| - E when the maximum degree is at most 1, and otherwise at most
    |mask| - E/2 (half a vertex more per path), so the components are
    walked only when this bound beats `best`.
    """
    if size + mask.bit_count() <= best:
        return best
    maxd = -1
    maxv = -1
    dsum = 0
    ends = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        dsum += d
        if d > maxd:
            maxd = d
            maxv = v
        if d < 2:
            ends |= b
    if maxd <= 1:
        size += mask.bit_count() - dsum // 2  # one vertex per edge goes
        return size if size > best else best
    if maxd == 2:
        if size + mask.bit_count() - (dsum + 3) // 4 <= best:  # dsum = 2E
            return best
        for comp in _components(adj, mask):
            k = comp.bit_count()
            size += (k + 1) // 2 if comp & ends else k // 2
        return size if size > best else best
    bit = 1 << maxv
    best = _alpha_bb(adj, mask & ~(adj[maxv] | bit), size + 1, best)
    return _alpha_bb(adj, mask ^ bit, size, best)


def _alpha_mask(adj, mask: int) -> int:
    return _alpha_bb(adj, mask, 0, -1)


def alpha(g: Graph) -> int:
    """Independence number."""
    return _alpha_mask(g.adj, (1 << g.n) - 1)


def _all_mis_masks(g: Graph, a: int | None) -> tuple[int, list[int]]:
    """alpha and every maximum independent set, as bitmasks.

    `a` is alpha of g, worked out here when None.  Generated in ascending
    lexicographic order of the member lists.
    """
    if g.n > ALL_MIS_CAP:
        raise ValueError(f"all_mis limited to n <= {ALL_MIS_CAP}, got {g.n}")
    adj = g.adj
    target = alpha(g) if a is None else a
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


def all_mis(g: Graph) -> MISReport:
    """Enumerate every maximum independent set."""
    a, masks = _all_mis_masks(g, None)
    return MISReport(a, tuple(map(_mask_to_set, masks)))


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


def _require_mdi(g: Graph, v: int, common: int) -> None:
    """Raise unless v has maximum degree and lies in `common`, the
    intersection of every maximum independent set."""
    if not common >> v & 1 or g.adj[v].bit_count() != max(map(int.bit_count, g.adj)):
        raise ValueError(
            f"vertex {v} is not a max-degree vertex lying in every maximum independent set"
        )


def _unique_mis_keep(g: Graph, v: int, a: int) -> int:
    """Vertices kept by the collapse to a single maximum independent set:
    all but those in some maximum independent set other than the
    lexicographically least one (the first mask).  `a` is alpha of g."""
    _, masks = _all_mis_masks(g, a)
    common = union = masks[0]
    for m in masks:
        common &= m
        union |= m
    _require_mdi(g, v, common)
    return ((1 << g.n) - 1) & ~(union ^ masks[0])


def reduce_to_unique_mis(g: Graph, v: int) -> Graph:
    """Delete every vertex that sits in some other maximum independent set.

    Keeps the lexicographically least maximum independent set; the output
    has exactly one maximum independent set (same alpha) and v keeps its
    degree, maximum-degree status and membership.  Vertices are relabeled
    densely; track positions via sorted kept order if needed.
    """
    return induced(g, _bits(_unique_mis_keep(g, v, alpha(g))))


def _unique_mis_mask(g: Graph, v: int, a: int) -> int:
    """The one maximum independent set of g, as a bitmask; `a` is alpha
    of g.

    Raises ValueError unless g has exactly one maximum independent set and
    it holds v, a vertex of maximum degree.
    """
    _, masks = _all_mis_masks(g, a)
    if len(masks) != 1:
        raise ValueError("graph does not have a unique maximum independent set")
    _require_mdi(g, v, masks[0])
    return masks[0]


def _prune_keep(g: Graph, v: int, a: int) -> int:
    """N[v] union the unique maximum independent set, as a bitmask."""
    return g.adj[v] | _unique_mis_mask(g, v, a)


def prune_outside(g: Graph, v: int) -> Graph:
    """Cut down to the closed neighborhood of v union its independent set.

    Requires a unique maximum independent set I containing max-degree v.
    Every neighbor x of v then has a neighbor in I - v, since otherwise
    (I - v) + x would be a second maximum independent set.
    """
    return induced(g, _bits(_prune_keep(g, v, alpha(g))))


def reduction_pipeline(g: Graph, v: int) -> tuple[Graph, int]:
    """reduce_to_unique_mis then prune_outside, tracking where v lands."""
    return _reduction_pipeline(g, v, alpha(g))


def _reduction_pipeline(g: Graph, v: int, a: int) -> tuple[Graph, int]:
    """reduction_pipeline with alpha of g given; both reductions keep it.
    A stage that keeps every vertex hands on g and v unchanged."""
    for stage_keep in (_unique_mis_keep, _prune_keep):
        keep = stage_keep(g, v, a)
        if keep != (1 << g.n) - 1:
            g, v = induced(g, _bits(keep)), (keep & ((1 << v) - 1)).bit_count()
    return g, v
