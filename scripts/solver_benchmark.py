#!/usr/bin/env python3
"""Timing and correctness sweep for the three alignment solvers.

Small instances, with sides up to MAX_CELLS and at most MAX_CELLS cells,
are cross-checked against brute-force enumeration by ``oracle.check``, the
check ``roleproj project --oracle`` makes; the exit code is 1 if any check
fails.  Every other small instance is tie-heavy, the rest dense.  Larger
ones report wall-clock time only, on dense random similarities and on
tie-heavy ones rounded to k/d with d <= 6, as real Jaccard values are.  A
size is N (square) or NxM, such as the argument-filtered 49x7 and 116x9,
the median ``edgecover`` graphs of 20-30 and 50-70 token sentence pairs,
the median ``perfect`` graph of a 50-70 token pair (114x120), or the skewed
5001x2, whose cost must grow with the graph's n*m cells, not with the
square of its larger side.
"""

import argparse
import sys
import time

import numpy as np

from roleproj.errors import ToolkitError
from roleproj.matcher import build_graph, solve
from roleproj.oracle import MAX_CELLS, check


def random_matrix(rng, n, m, zero_frac=0.3):
    sim = rng.random((n, m))
    sim[rng.random((n, m)) < zero_frac] = 0.0
    return sim


def tie_heavy_matrix(rng, n, m):
    dense = random_matrix(rng, n, m)
    d = rng.integers(1, 7, size=(n, m))
    return np.round(dense * d) / d


def graph_of(sim):
    """The graph whose unit ids are the row and column indices."""
    return build_graph(range(sim.shape[0]), range(sim.shape[1]), sim, 1e6)


def shape(text):
    n, _, m = text.partition("x")
    return int(n), int(m or n)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--oracle-instances", type=int, default=200)
    parser.add_argument(
        "--sizes", type=shape, nargs="+",
        default=[
            (10, 10), (50, 50), (100, 100), (114, 120), (200, 200), (1000, 1000),
            (49, 7), (116, 9), (5001, 2), (2, 5001),
        ],
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)

    print(f"cross-checking {args.oracle_instances} small instances against brute force")
    disagreements = 0
    for k in range(args.oracle_instances):
        n = int(rng.integers(1, MAX_CELLS + 1))
        m = int(rng.integers(1, MAX_CELLS // n + 1))
        if rng.random() < 0.5:
            n, m = m, n
        make = tie_heavy_matrix if k % 2 else random_matrix
        g = graph_of(make(rng, n, m))
        for cls in ("perfect", "edgecover", "total"):
            try:
                check(g, cls, solve(g, cls))
            except ToolkitError as exc:
                disagreements += 1
                print(f"  {n}x{m} {cls}: {exc}")
    print(f"  disagreements with the oracle: {disagreements}")

    for n, m in args.sizes:
        for kind, make in (("dense", random_matrix), ("ties", tie_heavy_matrix)):
            g = graph_of(make(rng, n, m))
            row = [f"{n:4d}x{m:<4d} {kind:5s}"]
            for cls in ("perfect", "edgecover", "total"):
                start = time.perf_counter()
                solved = solve(g, cls)
                elapsed = time.perf_counter() - start
                row.append(f"{cls}: {elapsed * 1000:8.1f}ms (cost {solved.cost:10.3f})")
            print("  ".join(row))
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
