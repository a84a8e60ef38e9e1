#!/usr/bin/env python3
"""Write the corpus of all non-isomorphic 8-vertex graphs as graph6 lines.

One line per class of reslab.graphs.isomorphism_classes(8), in increasing
order of certificate.  The committed tests/data/nonisomorphic8.g6 was
written by an earlier version that kept the least labeled edge mask of
each class, so this script writes the same 12,346 classes under other
labelings; tests/test_acceptance.py checks that the two are equal as sets
of certificates.  Re-run only if that file is lost; pass a different
target path as the sole argument.
"""

import sys
import time
from pathlib import Path

from reslab.graphs import Graph, isomorphism_classes, to_graph6

EXPECTED_CLASSES = 12346
N = 8


def main() -> int:
    default = Path(__file__).resolve().parent.parent / "tests" / "data" / "nonisomorphic8.g6"
    target = Path(sys.argv[1] if len(sys.argv) > 1 else default)
    target.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    masks = list(isomorphism_classes(N))
    with open(target, "w", encoding="ascii") as fh:
        fh.writelines(to_graph6(Graph.from_mask(N, m)) + "\n" for m in masks)
    print(f"wrote {len(masks)} records to {target} in {time.time() - t0:.0f}s")
    if len(masks) != EXPECTED_CLASSES:
        print(f"ERROR: expected {EXPECTED_CLASSES} classes, got {len(masks)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
