#!/usr/bin/env python3
"""Randomized cross-verification sweep.

Generates seeded random decomposition trees, keeps the ones whose realized
size is small enough for the exact solvers, and checks the two linear fast
paths against brute force on the squared linegraph:

  sci(t)      vs  exact chromatic number
  im(t)       vs  exact maximum independent set (witness re-verified)

It also checks strong_coloring(t) with both coloring checkers, on the
decomposition and on the realized graph.  Prints a summary and exits 1 on
any disagreement, bad witness or bad coloring.
"""

import argparse
import time

from strongedge import (
    OracleReport,
    exact_chromatic_number,
    exact_max_independent_set,
    im,
    is_induced_matching,
    is_strong_edge_coloring,
    is_strong_edge_coloring_in,
    random_tree_cograph,
    realize,
    sci,
    square_of_linegraph,
    strong_coloring,
)
from strongedge.oracle import timed


def run(args: argparse.Namespace) -> int:
    reports: list[OracleReport] = []
    bad_witness = 0
    bad_coloring = 0
    seed = args.seed
    kept = 0
    t0 = time.perf_counter()
    while kept < args.count:
        tree = random_tree_cograph(seed, args.depth, args.leaf_size)
        seed += 1
        if not 1 <= tree.n <= args.max_n:
            continue
        kept += 1
        g = realize(tree)
        sq = square_of_linegraph(g)
        desc = f"seed={seed - 1}(n={g.n},m={g.m})"

        chi, t_chi = timed(exact_chromatic_number, sq)
        reports.append(OracleReport.compare(
            desc, "strong chromatic index", sci(tree).value, chi, t_chi))

        mis, t_mis = timed(exact_max_independent_set, sq)
        result = im(tree)
        reports.append(OracleReport.compare(
            desc, "maximum induced matching", result.value, mis, t_mis))
        if len(result.witness) != result.value or not is_induced_matching(
            g, list(result.witness)
        ):
            bad_witness += 1
            print(f"BAD WITNESS {desc}: {result.witness}")
        coloring = strong_coloring(tree)
        if not (
            is_strong_edge_coloring_in(tree, coloring) and is_strong_edge_coloring(g, coloring)
        ):
            bad_coloring += 1
            print(f"BAD COLORING {desc}: {coloring.colors}")

    disagreements = [r for r in reports if not r.agree]
    for r in disagreements:
        print(f"DISAGREE {r.instance} {r.prop}: "
              f"fast={r.fast_value} oracle={r.oracle_value}")
    if args.verbose:
        for r in reports:
            print(f"{r.instance} {r.prop}: fast={r.fast_value} "
                  f"oracle={r.oracle_value} {r.verdict} ({r.elapsed:.3f}s)")

    elapsed = time.perf_counter() - t0
    print(f"{kept} instances, {len(reports)} comparisons, "
          f"{len(disagreements)} disagreements, {bad_witness} bad witnesses, "
          f"{bad_coloring} bad colorings ({elapsed:.1f}s)")
    return 0 if not disagreements and bad_witness == 0 and bad_coloring == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--leaf-size", type=int, default=6)
    parser.add_argument("--verbose", action="store_true")
    return run(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
