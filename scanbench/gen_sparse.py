#!/usr/bin/env python3
"""Seeded graph6 corpus of large sparse graphs for the large_sparse_sandwich workload.

The make-up is fixed: the same families and vertex counts in the same
order for every seed.  The seed chooses only the wiring: the labeling of
each cycle and cycle union, and which cubic graphs are drawn.  Every
record has at most 32 vertices (MAX_VERTICES), the cap of reslab's
`maxine_all` and `all_mis`, so a replay can call them on every record.

Cycle unions have independence number sum(k // 2) over their cycle
lengths; the benchmark checks that.  Tied maximum degrees make the
Maxine recurrence exponential on all of these graphs.

    python3 scanbench/gen_sparse.py --seed 1 --out scanbench/out/sparse_1.g6

This module imports nothing from reslab: the benchmark writes inputs in
a process of its own before any reslab process starts.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

MAX_VERTICES = 32

# (family, part sizes): a cycle or cubic graph per part, parts disjoint
MAKEUP = (
    [("cycle", (k,)) for k in (12, 14, 16, 18, 20, 21, 22, 23, 24)]
    + [
        ("cycles", parts)
        for parts in (
            (5, 7),
            (3, 4, 5, 6),
            (6, 6, 6),
            (9, 9),
            (4, 4, 4, 4, 4),
            (7, 7, 7),
            (10, 11),
            (6, 6, 6, 6),
        )
    ]
    + [("cubic", (n,)) for n in (12, 14, 16, 18, 18, 20, 20, 22, 22, 24, 24)]
    + [("cubics", parts) for parts in ((6, 8), (8, 8), (8, 10), (10, 10))]
)


def cycle_edges(k: int, first: int) -> list[tuple[int, int]]:
    return [(first + i, first + (i + 1) % k) for i in range(k)]


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def cubic_edges(n: int, first: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected simple 3-regular graph on n vertices, by the pairing
    model with rejection of loops, multi-edges and disconnected draws."""
    if n % 2 or n < 4:
        raise ValueError(f"no cubic graph on {n} vertices")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            pair = (min(a, b), max(a, b))
            if a == b or pair in edges:
                break
            edges.add(pair)
        else:
            if _connected(n, edges):
                return [(first + a, first + b) for a, b in sorted(edges)]


def make_graph(family: str, parts, rng: random.Random):
    """(n, edges) for one record, vertices relabeled by a seeded permutation."""
    n = sum(parts)
    if n > MAX_VERTICES:
        raise ValueError(f"{family} {parts}: {n} vertices, more than {MAX_VERTICES}")
    edges = []
    first = 0
    for k in parts:
        if family.startswith("cycle"):
            edges += cycle_edges(k, first)
        else:
            edges += cubic_edges(k, first, rng)
        first += k
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[u], label[v]) for u, v in edges]


def graph6(n: int, edges) -> str:
    """graph6 record: length byte, then the upper triangle column by column
    (pairs (0,1),(0,2),(1,2),(0,3),...), six bits per byte, zero-padded."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = value << 1 | b
        out.append(chr(value + 63))
    return "".join(out)


def corpus(seed: int) -> list[tuple[str, tuple[int, ...], str]]:
    """(family, parts, graph6 record) for every record of the corpus."""
    rng = random.Random(seed)
    out = []
    for family, parts in MAKEUP:
        n, edges = make_graph(family, parts, rng)
        out.append((family, parts, graph6(n, edges)))
    return out


def write_corpus(seed: int, path: str) -> list[tuple[str, tuple[int, ...], str]]:
    records = corpus(seed)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(record + "\n" for _, _, record in records)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="graph6 file to write")
    args = ap.parse_args(argv)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    records = write_corpus(args.seed, args.out)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
