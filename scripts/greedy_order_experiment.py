#!/usr/bin/env python3
"""Compare greedy class-selection rules for the trapezoid sweep.

Both rules scan trapezoids in the same left-to-right order and only differ
in which compatible color class receives the current trapezoid:

  first-fit    lowest class index
  tightest-fit class whose frontier ends furthest right on the bottom line
               (ties broken by lowest index) — the rule the package ships

The experiment measures each rule against the exact chromatic number of the
squared linegraph, exhaustively for small n and on random samples above
that.  First-fit is suboptimal already at n = 7 (e.g. 1 2 4 0 6 5 3);
tightest-fit has no known counterexample.
"""

import argparse
import itertools
import random

from strongedge import (
    PermutationDiagram,
    exact_chromatic_number,
    greedy_trapezoid_coloring,
    inversions,
    permutation_graph,
    square_of_linegraph,
    trapezoid_model,
    trapezoids_intersect,
)


def first_fit_palette(traps) -> int:
    """Plain first-fit over the same sweep order the package uses."""
    order = sorted(traps, key=lambda t: (t.top_lo, t.bot_lo, t.edge_index))
    classes: list[list] = []
    for t in order:
        for members in classes:
            if all(not trapezoids_intersect(t, s) for s in members):
                members.append(t)
                break
        else:
            classes.append([t])
    return len(classes)


def evaluate(pi):
    d = PermutationDiagram(len(pi), tuple(pi))
    later = inversions(d.pi)
    g = permutation_graph(d)
    traps = trapezoid_model(d, later)
    chi = exact_chromatic_number(square_of_linegraph(g))
    ff = first_fit_palette(traps)
    tf = greedy_trapezoid_coloring(d.pi, later).palette_size
    return chi, ff, tf


def run(args: argparse.Namespace) -> int:
    ff_bad = tf_bad = total = 0
    shown = 0
    print(f"exhaustive sweep, n <= {args.max_exhaustive}")
    for n in range(args.max_exhaustive + 1):
        n_ff = n_tf = 0
        for pi in itertools.permutations(range(n)):
            chi, ff, tf = evaluate(pi)
            assert ff >= chi and tf >= chi
            total += 1
            if ff > chi:
                n_ff += 1
                if shown < args.show:
                    print(f"  first-fit counterexample: pi={' '.join(map(str, pi))}"
                          f"  first-fit={ff}  chi={chi}")
                    shown += 1
            if tf > chi:
                n_tf += 1
                print(f"  TIGHTEST-FIT counterexample: pi={' '.join(map(str, pi))}"
                      f"  tightest-fit={tf}  chi={chi}")
        ff_bad += n_ff
        tf_bad += n_tf
        print(f"  n={n}: {n_ff} first-fit / {n_tf} tightest-fit suboptimal")

    rng = random.Random(args.seed)
    print(f"random sweep, {args.samples} samples at n = {args.sample_n}")
    for _ in range(args.samples):
        pi = list(range(args.sample_n))
        rng.shuffle(pi)
        chi, ff, tf = evaluate(pi)
        total += 1
        if ff > chi:
            ff_bad += 1
        if tf > chi:
            tf_bad += 1
            print(f"  TIGHTEST-FIT counterexample: pi={' '.join(map(str, pi))}"
                  f"  tightest-fit={tf}  chi={chi}")

    print(f"total instances: {total}")
    print(f"first-fit suboptimal:    {ff_bad}")
    print(f"tightest-fit suboptimal: {tf_bad}")
    return 0 if tf_bad == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-exhaustive", type=int, default=7)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--sample-n", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show", type=int, default=5,
                        help="how many first-fit counterexamples to print")
    return run(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
