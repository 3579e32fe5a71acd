#!/usr/bin/env python3
"""Survey structural properties of squared linegraphs of labeled trees.

For each n the survey enumerates all labeled trees (exhaustively up to a
limit, by sampling above it) and classifies L(T)^2 as chordal / ptolemaic.
L(T)^2 is always chordal, and it is ptolemaic if and only if diam(T) <= 4:
the edges e0..e4 of any 6-vertex path make a gem (e2 is adjacent in L(T)^2
to all of the induced path e0-e1-e3-e4), while a tree of diameter <= 4 has
a square that is a clique joined to a disjoint union of cliques.  The
survey counts trees of diameter >= 5 next to the non-ptolemaic squares,
prints one gem witness per size so the failures can be checked by hand,
and exits 1 on any non-chordal square or any mismatch.
"""

import argparse
import itertools
import random
from collections import deque

from strongedge import random_labeled_tree, square_of_linegraph, tree_from_prufer
from strongedge.graph import adjacency
from strongedge.oracle import is_chordal, is_ptolemaic


def find_gem(rows):
    """Brute-force gem witness: (apex, 4-path) over 5-vertex subsets of
    the graph with bitset rows `rows`."""
    for sub in itertools.combinations(range(len(rows)), 5):
        for apex in sub:
            rest = [v for v in sub if v != apex]
            if any(not rows[apex] >> v & 1 for v in rest):
                continue
            for perm in itertools.permutations(rest):
                path_edges = {(min(a, b), max(a, b))
                              for a, b in zip(perm, perm[1:])}
                induced = {(min(a, b), max(a, b))
                           for a, b in itertools.combinations(rest, 2)
                           if rows[a] >> b & 1}
                if induced == path_edges:
                    return apex, perm
    return None


def tree_diameter(t):
    """Edges on a longest path: BFS to the farthest vertex, then again."""
    adj = adjacency(t)
    end = 0
    for _ in range(2):
        dist = {end: 0}
        queue = deque([end])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        end = max(dist, key=dist.get)
    return dist[end]


def iter_trees(n, args, rng):
    if n <= args.exhaustive_limit:
        for seq in itertools.product(range(n), repeat=max(0, n - 2)):
            yield tree_from_prufer(n, list(seq))
    else:
        for _ in range(args.samples):
            yield random_labeled_tree(n, rng)


def run(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failed = False
    print(f"{'n':>3} {'trees':>8} {'mode':>10} {'not chordal':>12} "
          f"{'not ptolemaic':>14} {'diam >= 5':>10} {'mismatch':>9} "
          f"{'fraction':>9}")
    for n in range(2, args.max_n + 1):
        total = bad_chordal = bad_pt = long_diam = mismatch = 0
        witness_line = None
        for t in iter_trees(n, args, rng):
            sq = square_of_linegraph(t)
            total += 1
            if not is_chordal(sq):
                bad_chordal += 1
            ptolemaic = is_ptolemaic(sq)
            short = tree_diameter(t) <= 4
            if not short:
                long_diam += 1
            if ptolemaic != short:
                mismatch += 1
            if not ptolemaic:
                bad_pt += 1
                if witness_line is None:
                    apex, p = find_gem(sq)
                    edges = " ".join(f"{u}-{v}" for u, v in t.edges)
                    witness_line = (
                        f"      e.g. tree [{edges}]: edge #{apex} dominates "
                        f"the induced path {'-'.join(f'#{i}' for i in p)}"
                    )
        failed = failed or bad_chordal > 0 or mismatch > 0
        mode = "exhaustive" if n <= args.exhaustive_limit else "sampled"
        print(f"{n:>3} {total:>8} {mode:>10} {bad_chordal:>12} "
              f"{bad_pt:>14} {long_diam:>10} {mismatch:>9} "
              f"{bad_pt / total:>9.4f}")
        if witness_line:
            print(witness_line)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--exhaustive-limit", type=int, default=7)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
