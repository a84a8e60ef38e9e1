#!/usr/bin/env python3
"""Write the corpus of all non-isomorphic 8-vertex graphs as graph6 lines.

Same orbit-marking idea as reslab.graphs.isomorphism_classes (yield the
least labeled edge mask of each class, then mark its whole relabeling
orbit as seen), but vectorized with numpy over the 40320 permutations so
the 2^28 mask space finishes in minutes instead of half an hour.  The
output is committed at tests/data/nonisomorphic8.g6; re-run only if that
file is lost.  Pass a different target path as the sole argument, or
--pure to use the (slow) package implementation instead.
"""

import sys
import time
from pathlib import Path

import numpy as np

from reslab.graphs import Graph, _perm_edge_tables, isomorphism_classes, to_graph6

EXPECTED_CLASSES = 12346
N = 8
NPAIRS = N * (N - 1) // 2


def class_masks_numpy():
    tables = np.array(list(_perm_edge_tables(N)), dtype=np.int8)  # (40320, 28)
    shifted = np.left_shift(np.int64(1), tables.astype(np.int64))  # bit value per slot
    seen = np.zeros(1 << NPAIRS, dtype=bool)
    chunk = 1 << 20
    out = []
    for lo in range(0, 1 << NPAIRS, chunk):
        fresh = np.nonzero(~seen[lo : lo + chunk])[0]
        for off in fresh:
            mask = lo + int(off)
            if seen[mask]:
                continue
            out.append(mask)
            bits = [k for k in range(NPAIRS) if mask >> k & 1]
            if bits:
                images = np.bitwise_or.reduce(shifted[:, bits], axis=1)
            else:
                images = np.zeros(1, dtype=np.int64)
            seen[images] = True
    return out


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--pure"]
    pure = "--pure" in sys.argv[1:]
    target = Path(
        args[0]
        if args
        else Path(__file__).resolve().parent.parent / "tests" / "data" / "nonisomorphic8.g6"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    masks = isomorphism_classes(N) if pure else class_masks_numpy()
    count = 0
    with open(target, "w", encoding="ascii") as fh:
        for mask in masks:
            fh.write(to_graph6(Graph.from_mask(N, mask)) + "\n")
            count += 1
    print(f"wrote {count} records to {target} in {time.time() - t0:.0f}s")
    if count != EXPECTED_CLASSES:
        print(f"ERROR: expected {EXPECTED_CLASSES} classes, got {count}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
