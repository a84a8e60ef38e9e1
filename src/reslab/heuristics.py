"""The Maxine heuristic: repeatedly delete a maximum-degree vertex.

When the surviving graph is edgeless the survivors form an independent
set; its size M depends on how ties among maximum-degree vertices are
broken, so alongside single runs there is an exhaustive sweep over every
tie-break (maxine_all) and a guided variant that only deletes vertices
whose closed neighborhood dominates the remaining degrees (maxine_hh).

The sweep stops recursing once the maximum degree is 2: the surviving
graph is then a disjoint union of paths and cycles, and its achievable
sizes are the sumset of its components' sizes.  Restricted to one
component, a Maxine run is a valid Maxine run on that component; and
since the degree of the deleted vertex never increases along a run,
any choice of per-component runs merges into one global run by always
taking the largest degree next.  Deleting any vertex of the cycle C_k
(k >= 3) leaves the path P_{k-1}, and deleting the interior vertex i+1
of P_k leaves P_i + P_{k-1-i}, so with S(P_1) = S(P_2) = {1}:

    S(C_k) = S(P_{k-1}),  S(P_k) = U_{i=1..k-2} S(P_i) + S(P_{k-1-i}).

Each is an interval: for k >= 1, S(P_k) = [L(k), H(k)] with
L(k) = floor(k/3) + 1 = ceil((k+1)/3) and H(k) = ceil(k/2) =
floor((k+1)/2).  By induction on k >= 3, the term at i of the union is
the interval [L(i) + L(j), H(i) + H(j)], j = k-1-i.  Its top is at most
(i+1)/2 + (j+1)/2 = (k+1)/2 and its bottom at least (i+1)/3 + (j+1)/3 =
(k+1)/3, so every term lies in [L(k), H(k)].  The term at i = 1 runs
from L(k-2) + 1 to H(k), and the term at i = 2 from L(k) to H(k-3) + 1;
since L(k-2) <= H(k-3) + 1 the two leave no gap (at k = 3 the first
alone is {2}).  A sumset of intervals is the interval of the summed
ends, so a union of paths and cycles takes one pass over its components.

Above degree 2 the sweep takes a whole phase per step.  Let d >= 3 be
the maximum degree and T the vertices of degree d.  A vertex outside T
never gains degree, and one of T drops below d once a neighbour goes, so
the deletions made at degree d form an independent set of G[T], in any
order, and the phase ends exactly when that set is maximal in G[T]:

    S(G) = U S(G - I)  over the maximal independent sets I of G[T].

At d = 3 every child G - I is paths and cycles: a vertex of T is in I or
loses a neighbour to it, and no vertex gains degree.  So the children go
straight to the intervals above, their degree-2 vertices read off from
those of G and from how many neighbours each vertex of T has in I.

Most of those children need no walk.  With n vertices, e edges and
s = |I|, the child has n - s vertices and e - 3s edges, since I is
independent and each of its vertices had degree 3.  A path P_k has
k - 1 edges and a cycle k, so the child has p = n - e + 2s paths.
L(k) >= (k+1)/3 and H(k) <= (k+1)/2 on a path, and L(k-1) >= k/3 and
H(k-1) <= k/2 on a cycle, so with t = (n - s) + p = 2n - e + s the
child's sizes lie in [ceil(t/3), floor(t/2)], which depends on s alone.
Once the union so far holds that interval, no later child with |I| = s
can add a size, and the sweep skips it.

The walk that lists the sets I skips whole subtrees by the same rule.
A node of the walk has taken a set r and may still take vertices of p,
a subset of T with no neighbour in r; each set it yields is r | D with D
a subset of p.  A vertex of p outside D is not in I and has no
neighbour in r, so it has one in D: D dominates G[p].  Each vertex of D
dominates itself and at most 3 others, so |D| >= ceil(|p|/4).  D is
independent, so it holds at most one end of each edge of a matching M
of G[p], and |D| <= |p| - |M|; a greedy M will do.  Once every s in
[|r| + ceil(|p|/4), |r| + |p| - |M|] is skipped, no set below the node
can add a size, and the walk leaves it.

The merge argument above holds for any components, so the sweep starts
with one run per component of G and takes the sumset of their S.  It
splits there only: testing connectivity at every state costs more than
it saves on small graphs.

The guided run deletes a maximum-degree vertex v whose neighbours'
smallest degree is at least its non-neighbours' largest.  With
D = deg(v), that holds exactly when the degrees over N(v) sum to the D
largest degrees of the other vertices: any D of those degrees sum to at
most the D largest, with equality only when no degree left out exceeds
one taken.  So one degree pass serves every candidate v, and the run
keeps those degrees from one deletion to the next: deleting v lowers
each of its neighbours' by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, _bits, _components, _mask_to_set

MAXINE_ALL_CAP = 32


class NoHHVertexError(ValueError):
    """Raised when no degree-dominating vertex exists; `step` is the round."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (at step {step})")
        self.step = step


@dataclass(frozen=True)
class MaxineOutcome:
    """One full run: the deletion order and the surviving independent set."""

    deletions: tuple[int, ...]
    survivors: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.survivors)


@dataclass(frozen=True)
class MaxineSummary:
    """Every survivor count achievable over all tie-breaking choices."""

    achievable_sizes: frozenset[int]

    @property
    def min_size(self) -> int:
        return min(self.achievable_sizes)

    @property
    def max_size(self) -> int:
        return max(self.achievable_sizes)


def _max_degree_mask(adj, mask: int) -> tuple[int, int]:
    """(max degree, bitmask of max-degree vertices) within `mask`."""
    best = -1
    cands = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        d = (adj[b.bit_length() - 1] & mask).bit_count()
        if d > best:
            best = d
            cands = b
        elif d == best:
            cands |= b
    return best, cands


def max_degree_vertices(g: Graph) -> frozenset[int]:
    if g.n == 0:
        raise ValueError("graph has no vertices")
    _, cands = _max_degree_mask(g.adj, (1 << g.n) - 1)
    return _mask_to_set(cands)


def _hh_vertices_mask(adj, mask: int) -> tuple[int, int]:
    """(max degree, bitmask of max-degree vertices whose neighbor degrees
    dominate) within `mask`.

    A vertex qualifies when, inside `mask`, it has maximum degree and the
    smallest degree over its neighbors is >= the largest degree over the
    non-neighbors (ties allowed), i.e. when its neighbor degrees sum to
    the `best` largest degrees of the other vertices (module docstring).
    Deleting such a vertex tracks one Havel-Hakimi elimination step on
    the degree sequence.
    """
    degs = [0] * len(adj)  # degree inside `mask`, 0 outside it
    best = -1
    cands = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = degs[v] = (adj[v] & mask).bit_count()
        if d > best:
            best = d
            cands = b
        elif d == best:
            cands |= b
    if best <= 0:
        return best, cands  # edgeless: every vertex qualifies
    # the top best + 1 degrees of `mask`: at least best + 1 vertices lie
    # in it, so the zeros of the vertices outside change no sum
    want = sum(sorted(degs, reverse=True)[1 : best + 1])
    out = 0
    c = cands
    while c:
        b = c & -c
        c ^= b
        got = 0
        m = adj[b.bit_length() - 1] & mask
        while m:
            nb = m & -m
            m ^= nb
            got += degs[nb.bit_length() - 1]
        if got == want:
            out |= b
    return best, out


def hh_property_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose deletion mirrors a Havel-Hakimi step; may be empty."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    return _mask_to_set(_hh_vertices_mask(g.adj, (1 << g.n) - 1)[1])


def maxine_run(g: Graph, policy: str = "low", seed: int = 0) -> MaxineOutcome:
    """One Maxine application under a fixed tie-breaking policy.

    policy 'low' deletes the lowest-id maximum-degree vertex, 'high' the
    highest, 'random' draws uniformly using `seed` (default 0, so repeat
    invocations reproduce the run).
    """
    if policy not in ("low", "high", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed) if policy == "random" else None
    adj = g.adj
    mask = (1 << g.n) - 1
    deletions = []
    while mask:
        best, cands = _max_degree_mask(adj, mask)
        if best == 0:
            break
        if policy == "low":
            v = (cands & -cands).bit_length() - 1
        elif policy == "high":
            v = cands.bit_length() - 1
        else:
            v = rng.choice(list(_bits(cands)))
        deletions.append(v)
        mask ^= 1 << v
    return MaxineOutcome(tuple(deletions), _mask_to_set(mask))


def _sumset(a: int, b: int) -> int:
    """{x + y : x in a, y in b} for size bitmasks a and b."""
    out = 0
    while a:
        low = a & -a
        a ^= low
        out |= b * low
    return out


def _paths_and_cycles_sizes(adj, mask: int, deg2: int) -> int:
    """Achievable counts when `mask` induces maximum degree at most 2;
    `deg2` holds its degree-2 vertices.  The interval of the summed
    component ends (module docstring)."""
    lo = hi = 0
    for comp in _components(adj, mask):
        k = comp.bit_count()
        if comp & deg2 == comp:
            k -= 1  # a cycle: every deletion leaves P_{k-1}
        lo += k // 3 + 1
        hi += (k + 1) // 2
    return (1 << hi + 1) - (1 << lo)


def _maximal_independent_sets(adj, p: int, x: int = 0, r: int = 0, prune=None):
    """Yield r | D for each independent set D of the graph `adj` induces
    on p that is maximal there and that no vertex of x could extend.

    Bron-Kerbosch with Tomita's pivot, on the complement's cliques: for
    any u of p | x, a yielded D holds a vertex of p & N[u], else u could
    join it, so only those start a branch.  u is the vertex with the
    fewest, or the first with at most 2 (scanning on cost more than it
    saved); an x vertex with none ends the subtree.  x collects the
    vertices already branched on, which later sets must not admit.  The
    walk leaves an inner node when prune(r, p) is true.
    """
    if not p & p - 1:
        # at most one vertex left, which must join: r | p is maximal
        # unless some vertex of x has no neighbour in p
        if not x & ~(adj[p.bit_length() - 1] if p else 0):
            yield r | p
        return
    if prune is not None and prune(r, p):
        return
    branch, most = p, p.bit_count()
    m = p | x
    while m:
        b = m & -m
        m ^= b
        nb = p & (adj[b.bit_length() - 1] | b)
        k = nb.bit_count()
        if k < most:
            branch, most = nb, k
            if k <= 2:
                break
    while branch:
        b = branch & -branch
        branch ^= b
        keep = ~(adj[b.bit_length() - 1] | b)
        yield from _maximal_independent_sets(adj, p & keep, x & keep, r | b, prune)
        p ^= b
        x |= b


def _maxine_sizes_mask(adj, mask: int, memo: dict) -> int:
    """Achievable survivor counts from `mask`, encoded as a size bitmask."""
    out = memo.get(mask)
    if out is not None:
        return out
    best, cands = _max_degree_mask(adj, mask)
    if best <= 0:
        out = 1 << mask.bit_count()
    elif best == 1:
        # a matching plus isolated vertices: every order deletes one end
        # of each edge, so the survivor count is forced
        out = 1 << (mask.bit_count() - cands.bit_count() // 2)
    elif best == 2:
        # paths and cycles: an interval (module docstring)
        out = _paths_and_cycles_sizes(adj, mask, cands)
    elif best == 3:
        # one phase at degree 3 leaves paths and cycles (module docstring):
        # the degree-2 vertices of a child are those of `mask` that lose
        # no neighbour and those of `cands` that lose exactly one
        deg2 = degsum = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            deg = (adj[b.bit_length() - 1] & mask).bit_count()
            degsum += deg
            if deg == 2:
                deg2 |= b
        # every child with |d| = s has its sizes in the interval of
        # t = base + s (module docstring); `covered` holds the s whose
        # interval `out` already holds: their children are skipped, and
        # so is every subtree of the walk that reaches no other s
        base = 2 * mask.bit_count() - degsum // 2
        out = covered = 0

        def prune(r: int, p: int) -> bool:
            k, left = r.bit_count(), p.bit_count()
            lo = k + (left + 3) // 4
            if not covered >> lo & 1:
                return False
            hi = k + left
            m = p  # less one per edge of a greedy matching of G[p]
            while m:
                b = m & -m
                m ^= b
                nb = adj[b.bit_length() - 1] & m
                if nb:
                    m ^= nb & -nb
                    hi -= 1
            span = (1 << hi + 1) - (1 << lo)
            return covered & span == span

        for d in _maximal_independent_sets(adj, cands, prune=prune):
            s = d.bit_count()
            if covered >> s & 1:
                continue
            child = mask ^ d
            got = memo.get(child)
            if got is None:
                once = twice = 0  # neighbours of d, and those with two in d
                m = d
                while m:
                    b = m & -m
                    m ^= b
                    a = adj[b.bit_length() - 1]
                    twice |= once & a
                    once |= a
                child2 = (deg2 & ~once | cands & ~twice) & child
                if child2:
                    got = _paths_and_cycles_sizes(adj, child, child2)
                else:
                    # a matching: one end of each edge goes, and d took
                    # three edges with each of its vertices
                    got = 1 << (child.bit_count() - degsum // 2 + 3 * s)
                memo[child] = got
            if got & ~out:
                out |= got
                # anew: the interval of t (t >= 2, so not empty) lies in
                # a run [a, b] of out exactly when 3a - 2 <= t <= 2b + 1
                covered = 0
                o = out
                while o:
                    low = o & -o
                    run = o & ~(o + low)
                    o ^= run
                    lo = max(3 * low.bit_length() - 5 - base, 0)
                    hi = 2 * run.bit_length() - 1 - base
                    if hi >= lo:
                        covered |= (1 << hi + 1) - (1 << lo)
    else:
        # one whole phase at degree `best`: delete a maximal independent
        # set of the max-degree vertices (module docstring)
        out = 0
        for d in _maximal_independent_sets(adj, cands):
            out |= _maxine_sizes_mask(adj, mask ^ d, memo)
    memo[mask] = out
    return out


def _maxine_sizes(adj, mask: int) -> int:
    """Achievable survivor counts of the graph `mask` induces, as a size
    bitmask: the sumset over its components (module docstring)."""
    out = 1
    memo: dict[int, int] = {}
    for comp in _components(adj, mask):
        out = _sumset(out, _maxine_sizes_mask(adj, comp, memo))
    return out


def maxine_all(g: Graph) -> MaxineSummary:
    """Exhaust every tie-breaking choice (memoized on surviving sets)."""
    if g.n > MAXINE_ALL_CAP:
        raise ValueError(f"maxine_all limited to n <= {MAXINE_ALL_CAP}, got {g.n}")
    return MaxineSummary(_mask_to_set(_maxine_sizes(g.adj, (1 << g.n) - 1)))


def maxine_hh(g: Graph) -> MaxineOutcome:
    """Maxine restricted to degree-dominating vertices (lowest id on ties).

    Raises NoHHVertexError if some round has no qualifying vertex before
    the surviving graph is edgeless.
    """
    adj = g.adj
    nbrs = [list(_bits(row)) for row in adj]
    degs = [row.bit_count() for row in adj]  # 0 once deleted
    deletions = []
    while True:
        best = max(degs, default=0)
        if best == 0:
            break
        # the test of _hh_vertices_mask; a deleted vertex adds 0
        want = sum(sorted(degs, reverse=True)[1 : best + 1])
        for v, d in enumerate(degs):
            if d == best and sum([degs[u] for u in nbrs[v]]) == want:
                break
        else:
            raise NoHHVertexError("no degree-dominating vertex available", len(deletions))
        deletions.append(v)
        degs[v] = 0
        for u in nbrs[v]:
            if degs[u]:  # still there: a neighbour of v has degree >= 1
                degs[u] -= 1
    return MaxineOutcome(tuple(deletions), frozenset(range(g.n)).difference(deletions))


def maxine_hh_sizes(g: Graph) -> frozenset[int]:
    """Survivor counts over every choice of degree-dominating deletions.

    Choice sequences that strand (no qualifying vertex mid-run) contribute
    nothing; the result is empty when no sequence completes.
    """
    if g.n > MAXINE_ALL_CAP:
        raise ValueError(f"maxine_hh_sizes limited to n <= {MAXINE_ALL_CAP}, got {g.n}")
    adj = g.adj
    memo: dict = {}  # by mask, and at degree <= 2 by component shapes

    def shape(comp: int) -> tuple[int, bool]:
        k = comp.bit_count()  # and whether it is a cycle: k edges
        return k, sum((adj[v] & comp).bit_count() for v in _bits(comp)) == 2 * k

    def rec(mask: int) -> int:
        out = memo.get(mask)
        if out is not None:
            return out
        best, hh = _hh_vertices_mask(adj, mask)
        if best <= 0:
            out = 1 << mask.bit_count()
        elif best == 1:
            # a matching: every degree-1 vertex qualifies, and each
            # deletion takes one end of an edge
            out = 1 << (mask.bit_count() - hh.bit_count() // 2)
        else:
            key = mask
            if best == 2:
                # paths and cycles: isomorphic graphs have the same
                # outcomes, so the sorted shapes of the components key them
                key = tuple(sorted(map(shape, _components(adj, mask))))
            out = memo.get(key)
            if out is None:
                out = 0
                for v in _bits(hh):
                    out |= rec(mask ^ 1 << v)
                memo[key] = out
        memo[mask] = out
        return out

    return _mask_to_set(rec((1 << g.n) - 1))
