#!/usr/bin/env python3
"""Randomized cross-verification sweep.

Generates seeded random decomposition trees, keeps the ones whose realized
size is small enough for the exact solvers, and runs `strongedge oracle
--json` in-process on each one's document, which checks every certificate
and compares sci and im against brute force.  Exit code 0 agrees, 1 with
a JSON report is a disagreement, and 1 without one, or any other code
(3: inconclusive), is a failed check.  Prints a summary and exits 1 on
any disagreement or failed check.
"""

import argparse
import contextlib
import io
import json
import sys
import time

from strongedge import random_tree_cograph, serialize_decomposition
from strongedge.cli import main as strongedge_main


def oracle(text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `strongedge oracle --json` on text."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = strongedge_main(["oracle", "--json"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def run(args: argparse.Namespace) -> int:
    comparisons = disagreements = failed = 0
    seed = args.seed
    kept = 0
    t0 = time.perf_counter()
    while kept < args.count:
        tree = random_tree_cograph(seed, args.depth, args.leaf_size)
        seed += 1
        if not 1 <= tree.n <= args.max_n:
            continue
        kept += 1
        desc = f"seed={seed - 1}(n={tree.n},m={tree.m})"
        code, out, err = oracle(serialize_decomposition(tree))
        if code not in (0, 1) or not out:
            failed += 1
            print(f"FAILED {desc}: exit {code}: {err.strip()}")
            continue
        for r in json.loads(out)["reports"]:
            comparisons += 1
            line = (f"{desc} {r['prop']}: fast={r['fast_value']} "
                    f"oracle={r['oracle_value']}")
            if r["verdict"] != "agree":
                disagreements += 1
                print(f"DISAGREE {line}")
            if args.verbose:
                print(f"{line} {r['verdict']} ({r['elapsed']:.3f}s)")

    elapsed = time.perf_counter() - t0
    print(f"{kept} instances, {comparisons} comparisons, "
          f"{disagreements} disagreements, {failed} failed checks ({elapsed:.1f}s)")
    return 0 if disagreements == 0 and failed == 0 else 1


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
