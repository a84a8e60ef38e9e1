"""Reference computations the benchmark checks reslab's outputs against.

None of these shares an algorithm with reslab: alpha comes from a subset
table (n <= 8) or an unbounded memoised branching, the residue from a
plain list-based Havel-Hakimi loop, induced C4 and P5 from 4- and
5-subsets, and Maxine outcomes from an unmemoised walk over every
tie-break.  They read a graph only as adjacency bitmasks (`Graph.adj`,
or the tuple `decode_graph6` returns), so this module imports nothing
from reslab.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def decode_graph6(record: str) -> tuple[int, ...]:
    """Adjacency bitmasks of a single-byte-length graph6 record."""
    n = ord(record[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 length byte {record[0]!r}")
    bits = []
    for ch in record[1:]:
        value = ord(ch) - 63
        bits.extend(value >> (5 - k) & 1 for k in range(6))
    adj = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            t += 1
    return tuple(adj)


def mask_adjacency(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency bitmasks of edge mask `mask` over pairs (0,1),(0,2),(1,2),(0,3),..."""
    adj = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> t & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            t += 1
    return tuple(adj)


def alpha_subsets(adj) -> int:
    """Independence number from a table over all vertex subsets (n <= 8)."""
    n = len(adj)
    if n > 8:
        raise ValueError(f"subset table limited to n <= 8, got {n}")
    independent = [True] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        independent[s] = independent[rest] and not adj[low] & rest
        if independent[s]:
            best = max(best, s.bit_count())
    return best


def alpha_branching(adj) -> int:
    """alpha(G) = max(alpha(G - v), 1 + alpha(G - N[v])), memoised on the
    vertex set; a vertex of degree <= 1 is always taken."""
    memo: dict[int, int] = {}

    def rec(s: int) -> int:
        if s == 0:
            return 0
        hit = memo.get(s)
        if hit is not None:
            return hit
        verts = [v for v in range(len(adj)) if s >> v & 1]
        degree = {v: (adj[v] & s).bit_count() for v in verts}
        v = min(verts, key=lambda u: (degree[u], u))
        if degree[v] <= 1:
            out = 1 + rec(s & ~adj[v] & ~(1 << v))
        else:
            v = max(verts, key=lambda u: (degree[u], -u))
            out = max(rec(s & ~(1 << v)), 1 + rec(s & ~adj[v] & ~(1 << v)))
        memo[s] = out
        return out

    return rec((1 << len(adj)) - 1)


def degrees(adj) -> list[int]:
    return [m.bit_count() for m in adj]


def hh_residue(seq) -> int:
    """Zeros left when Havel-Hakimi elimination ends (sequence assumed graphic)."""
    d = sorted(seq, reverse=True)
    while d and d[0] > 0:
        first = d.pop(0)
        for i in range(first):
            d[i] -= 1
        d.sort(reverse=True)
    return len(d)


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every k-subset of range(n) with its bitmask."""
    return tuple((q, sum(1 << v for v in q)) for q in combinations(range(n), k))


def _induced_degrees(adj, subset, s: int) -> list[int]:
    return sorted((adj[v] & s).bit_count() for v in subset)


def _connected(adj, subset, s: int) -> bool:
    reach = 1 << subset[0]
    while True:
        grown = reach
        for v in subset:
            if reach >> v & 1:
                grown |= adj[v] & s
        if grown == reach:
            return reach == s
        reach = grown


def has_induced_c4(adj) -> bool:
    """Some 4 vertices induce a 4-cycle: every induced degree is 2."""
    return any(
        _induced_degrees(adj, q, s) == [2, 2, 2, 2] for q, s in _subsets(len(adj), 4)
    )


def has_induced_p5(adj) -> bool:
    """Some 5 vertices induce a 5-path: degrees 1,1,2,2,2 (so 4 edges) and
    connected, which rules out a triangle plus a disjoint edge."""
    return any(
        _induced_degrees(adj, q, s) == [1, 1, 2, 2, 2] and _connected(adj, q, s)
        for q, s in _subsets(len(adj), 5)
    )


def maxine_sizes_plain(adj) -> frozenset[int]:
    """Survivor counts over every tie-break of Maxine, by walking every
    deletion sequence without memoisation (n <= 8)."""
    n = len(adj)
    if n > 8:
        raise ValueError(f"unmemoised walk limited to n <= 8, got {n}")
    out: set[int] = set()

    def walk(alive: list[int]) -> None:
        deg = {v: sum(1 for u in alive if adj[v] >> u & 1) for v in alive}
        top = max(deg.values(), default=0)
        if top == 0:
            out.add(len(alive))
            return
        for v in alive:
            if deg[v] == top:
                walk([u for u in alive if u != v])

    walk(list(range(n)))
    return frozenset(out)


def count_c4_p5_free_labeled(n: int) -> int:
    """Labeled n-vertex graphs with neither an induced C4 nor an induced P5."""
    pairs = n * (n - 1) // 2
    return sum(
        1
        for mask in range(1 << pairs)
        if not has_induced_c4(a := mask_adjacency(n, mask)) and not has_induced_p5(a)
    )
