"""Independent brute-force oracles the tests compare the library against.

Everything here is written the dumbest defensible way (full subset loops,
permutation searches) so disagreements point at the library, not at a
shared clever trick.
"""

from itertools import combinations, permutations

from reslab.graphs import Graph


def is_independent(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(not g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


def brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        vs = [v for v in range(g.n) if mask >> v & 1]
        if is_independent(g, vs):
            best = size
    return best


def brute_all_mis(g: Graph) -> list[frozenset[int]]:
    a = brute_alpha(g)
    out = []
    for vs in combinations(range(g.n), a):
        if is_independent(g, vs):
            out.append(frozenset(vs))
    return sorted(out, key=sorted)


def brute_mdi(g: Graph) -> frozenset[int]:
    sets = brute_all_mis(g)
    inter = frozenset(range(g.n))
    for s in sets:
        inter &= s
    maxdeg = max(g.degree(v) for v in range(g.n))
    return frozenset(v for v in inter if g.degree(v) == maxdeg)


def brute_induced_exists(host: Graph, pattern: Graph) -> bool:
    """Subset + permutation search for an induced copy."""
    p = pattern.n
    if p > host.n:
        return False
    for subset in combinations(range(host.n), p):
        for perm in permutations(subset):
            if all(
                pattern.has_edge(a, b) == host.has_edge(perm[a], perm[b])
                for a in range(p)
                for b in range(a + 1, p)
            ):
                return True
    return False


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    for perm in permutations(range(g.n)):
        if all(
            g.has_edge(a, b) == h.has_edge(perm[a], perm[b])
            for a in range(g.n)
            for b in range(a + 1, g.n)
        ):
            return True
    return False


def brute_maxine_sizes(g: Graph) -> frozenset[int]:
    """Survivor counts over every order of maximum-degree deletions.

    The plain recurrence on surviving vertex sets, memoised on those sets
    only; no degree-1 or degree-2 shortcut.
    """
    memo: dict[frozenset[int], frozenset[int]] = {}

    def rec(alive: frozenset[int]) -> frozenset[int]:
        if alive in memo:
            return memo[alive]
        degree = {v: sum(g.has_edge(v, u) for u in alive) for v in alive}
        top = max(degree.values(), default=0)
        if top == 0:
            out = frozenset([len(alive)])
        else:
            out = frozenset()
            for v in alive:
                if degree[v] == top:
                    out |= rec(alive - {v})
        memo[alive] = out
        return out

    return rec(frozenset(range(g.n)))


def path_sizes(k: int) -> frozenset[int]:
    """Survivor counts of the path P_k by the deletion recurrence: deleting
    the interior vertex i + 1 leaves P_i + P_(k-1-i), and S(P_1) = S(P_2)
    = {1}.  A cycle C_k has the sizes of P_(k-1)."""
    table = [frozenset([0]), frozenset([1]), frozenset([1])]
    for m in range(3, k + 1):
        table.append(
            frozenset(
                a + b
                for i in range(1, m - 1)
                for a in table[i]
                for b in table[m - 1 - i]
            )
        )
    return table[k]


def brute_hh_sizes(g: Graph) -> frozenset[int]:
    """Survivor counts over every order of degree-dominating deletions:
    a maximum-degree vertex whose neighbours' smallest degree is at least
    its other non-neighbours' largest.  Orders that strand add nothing.
    The plain recurrence, memoised on surviving vertex sets only."""
    memo: dict[frozenset[int], frozenset[int]] = {}

    def rec(alive: frozenset[int]) -> frozenset[int]:
        if alive in memo:
            return memo[alive]
        degree = {v: sum(g.has_edge(v, u) for u in alive) for v in alive}
        top = max(degree.values(), default=0)
        if top == 0:
            out = frozenset([len(alive)])
        else:
            out = frozenset()
            for v in alive:
                near = [degree[u] for u in alive if g.has_edge(v, u)]
                far = [degree[u] for u in alive if u != v and not g.has_edge(v, u)]
                if degree[v] == top and min(near) >= max(far, default=0):
                    out |= rec(alive - {v})
        memo[alive] = out
        return out

    return rec(frozenset(range(g.n)))


def brute_graphic_sequences(n: int) -> set[tuple[int, ...]]:
    """Degree sequences realized by some labeled graph on n vertices."""
    from reslab.graphs import degree_sequence, enumerate_labeled

    return {degree_sequence(g) for g in enumerate_labeled(n)}


def nonincreasing_sequences(length: int, max_entry: int):
    """Every non-increasing sequence of the given length with entries 0..max_entry."""

    def rec(prefix, remaining, cap):
        if remaining == 0:
            yield tuple(prefix)
            return
        for d in range(min(cap, max_entry), -1, -1):
            yield from rec(prefix + [d], remaining - 1, d)

    yield from rec([], length, max_entry)


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for g in parts:
        edges.extend((a + offset, b + offset) for a, b in g.edges())
        offset += g.n
    return Graph(offset, edges)


def relabel(g: Graph, perm) -> Graph:
    """Graph with vertex v renamed perm[v]."""
    return Graph(g.n, ((perm[a], perm[b]) for a, b in g.edges()))
