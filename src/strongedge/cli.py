"""Command line front end.

Commands: sci, im, perm, oracle, gen, bench.  Exit codes: 0 success,
1 verification failure or oracle disagreement, 2 input error,
3 inconclusive (search budget exceeded).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .decomposition import (
    CotreeLeaf,
    DecompositionError,
    DecompositionTree,
    TreeLeaf,
    UnionNode,
    parse_decomposition,
    random_labeled_tree,
    random_tree_cograph,
    realize,
    serialize_decomposition,
)
from .graph import (
    GraphError,
    is_induced_matching,
    is_strong_edge_coloring,
    square_of_linegraph,
)
from .induced_matching import im, im_value
from .oracle import (
    BudgetExceededError,
    OracleReport,
    exact_chromatic_number,
    exact_max_independent_set,
    timed,
)
from .permutation import (
    PermutationError,
    parse_permutation,
    permutation_graph,
    strong_color_permutation,
)
from .strong_chromatic import sci, strong_coloring

__all__ = ["main"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _coloring_rows(g, coloring):
    return [
        {"edge": [u, v], "color": coloring.colors[i]}
        for i, (u, v) in enumerate(g.edges)
    ]


def _fail_verification(message: str) -> int:
    print(f"verification failed: {message}", file=sys.stderr)
    return 1


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_sci(args) -> int:
    tree = parse_decomposition(_read_input(args.input))
    result = sci(tree)
    out = {"command": "sci", "n": tree.n, "m": tree.m, "value": result.value}
    coloring = None
    g = None
    if args.color or args.verify:
        coloring = strong_coloring(tree)
        g = realize(tree)
    if args.verify:
        if not is_strong_edge_coloring(g, coloring):
            return _fail_verification("coloring is not a strong edge coloring")
        if coloring.palette_size != result.value:
            return _fail_verification(
                f"palette {coloring.palette_size} != index {result.value}"
            )
        out["verified"] = True
    if args.color:
        out["coloring"] = _coloring_rows(g, coloring)
    if args.json:
        print(json.dumps(out))
    else:
        print(f"strong chromatic index: {result.value}")
        if args.color:
            print(json.dumps(out["coloring"]))
        if args.verify:
            print("coloring verified: valid and palette matches the index")
    return 0


def cmd_im(args) -> int:
    tree = parse_decomposition(_read_input(args.input))
    result = im(tree)
    witness = [list(e) for e in result.witness]
    out = {
        "command": "im",
        "n": tree.n,
        "m": tree.m,
        "value": result.value,
        "witness": witness,
    }
    if args.verify:
        g = realize(tree)
        if len(result.witness) != result.value:
            return _fail_verification("witness size does not match the value")
        if not is_induced_matching(g, list(result.witness)):
            return _fail_verification("witness is not an induced matching")
        out["verified"] = True
    if args.json:
        print(json.dumps(out))
    else:
        print(f"maximum induced matching: {result.value}")
        print(f"witness: {json.dumps(witness)}")
        if args.verify:
            print("witness verified: induced matching of the stated size")
    return 0


def cmd_perm(args) -> int:
    diagram = parse_permutation(_read_input(args.input))
    g = permutation_graph(diagram)
    coloring = strong_color_permutation(diagram, g)
    out = {
        "command": "perm",
        "n": g.n,
        "m": g.m,
        "palette": coloring.palette_size,
    }
    if args.verify:
        if not is_strong_edge_coloring(g, coloring):
            return _fail_verification("coloring is not a strong edge coloring")
        out["verified"] = True
    if args.color:
        out["coloring"] = _coloring_rows(g, coloring)
    if args.json:
        print(json.dumps(out))
    else:
        print(f"palette size: {coloring.palette_size}")
        if args.color:
            print(json.dumps(out["coloring"]))
        if args.verify:
            print("coloring verified: valid strong edge coloring")
    return 0


def _oracle_decomposition(text: str, budget: int | None) -> list[OracleReport]:
    tree = parse_decomposition(text)
    g = realize(tree)
    sq = square_of_linegraph(g).graph
    desc = f"decomposition(n={g.n},m={g.m})"
    fast_sci = sci(tree).value
    chi, t_chi = timed(exact_chromatic_number, sq, budget)
    fast_im = im_value(tree)
    mis, t_mis = timed(exact_max_independent_set, sq, budget)
    return [
        OracleReport.compare(desc, "strong chromatic index", fast_sci, chi, t_chi),
        OracleReport.compare(desc, "maximum induced matching", fast_im, mis, t_mis),
    ]


def _oracle_permutation(text: str, budget: int | None) -> list[OracleReport]:
    diagram = parse_permutation(text)
    g = permutation_graph(diagram)
    sq = square_of_linegraph(g).graph
    desc = f"permutation(n={g.n},m={g.m})"
    coloring = strong_color_permutation(diagram, g)
    if not is_strong_edge_coloring(g, coloring):
        raise GraphError("greedy coloring failed verification")
    chi, t_chi = timed(exact_chromatic_number, sq, budget)
    return [
        OracleReport.compare(desc, "palette size", coloring.palette_size, chi, t_chi)
    ]


def cmd_oracle(args) -> int:
    text = _read_input(args.input)
    mode = args.mode
    if mode == "auto":
        stripped = text.lstrip()
        mode = "decomp" if stripped.startswith("{") else "perm"
    if mode == "decomp":
        reports = _oracle_decomposition(text, args.budget)
    else:
        reports = _oracle_permutation(text, args.budget)
    agree = all(r.agree for r in reports)
    if args.json:
        print(json.dumps({
            "command": "oracle",
            "mode": mode,
            "agree": agree,
            "reports": [asdict(r) for r in reports],
        }))
    else:
        for r in reports:
            print(
                f"{r.prop}: fast={r.fast_value} oracle={r.oracle_value} "
                f"{r.verdict} ({r.elapsed:.3f}s)"
            )
    return 0 if agree else 1


def cmd_gen(args) -> int:
    if args.depth < 0:
        return _input_error(f"--depth must be >= 0, got {args.depth}")
    if args.leaf_size < 1:
        return _input_error(f"--leaf-size must be >= 1, got {args.leaf_size}")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        tree = random_tree_cograph(rng.getrandbits(63), args.depth, args.leaf_size)
        print(serialize_decomposition(tree))
    return 0


def _bench_instance(total_n: int, leaf_size: int, rng: random.Random) -> DecompositionTree:
    """Union chain over moderate leaves; realized size exactly total_n, edge
    description linear in total_n (cotree leaves stay implicit)."""
    leaves = []
    remaining = total_n
    i = 0
    while remaining:
        size = min(leaf_size, remaining)
        t = random_labeled_tree(size, rng)
        leaves.append(CotreeLeaf(t) if size >= 4 and i % 10 == 9 else TreeLeaf(t))
        remaining -= size
        i += 1
    node = leaves[0]
    for leaf in leaves[1:]:
        node = UnionNode(node, leaf)
    return DecompositionTree(node)


def cmd_bench(args) -> int:
    if args.repeats < 1:
        return _input_error(f"--repeats must be >= 1, got {args.repeats}")
    rng = random.Random(args.seed)
    sizes = [10**e for e in range(4, args.max_exp + 1)]
    results = []
    for n in sizes:
        tree = _bench_instance(n, args.leaf_size, rng)
        t_sci = min(
            _time_once(sci, tree) for _ in range(args.repeats)
        )
        t_im = min(
            _time_once(im_value, tree) for _ in range(args.repeats)
        )
        results.append({"n": n, "sci_seconds": t_sci, "im_seconds": t_im})
    ratios = {
        "sci": [
            results[i]["sci_seconds"] / results[i - 1]["sci_seconds"]
            for i in range(1, len(results))
        ],
        "im": [
            results[i]["im_seconds"] / results[i - 1]["im_seconds"]
            for i in range(1, len(results))
        ],
    }
    print(json.dumps({
        "command": "bench",
        "seed": args.seed,
        "repeats": args.repeats,
        "leaf_size": args.leaf_size,
        "results": results,
        "ratios": ratios,
    }))
    return 0


def _time_once(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongedge",
        description=(
            "Strong chromatic index, optimal strong edge colorings and "
            "maximum induced matchings of tree-cographs and permutation graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, color=False):
        p.add_argument("input", nargs="?", default="-",
                       help="input file, or - for standard input")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--verify", action="store_true",
                       help="independently verify the certificate")
        if color:
            p.add_argument("--color", action="store_true",
                           help="emit the coloring")

    p_sci = sub.add_parser("sci", help="strong chromatic index of a decomposition")
    add_common(p_sci, color=True)
    p_sci.set_defaults(func=cmd_sci)

    p_im = sub.add_parser("im", help="maximum induced matching of a decomposition")
    add_common(p_im)
    p_im.set_defaults(func=cmd_im)

    p_perm = sub.add_parser("perm", help="strong edge coloring of a permutation graph")
    add_common(p_perm, color=True)
    p_perm.set_defaults(func=cmd_perm)

    p_or = sub.add_parser("oracle", help="compare fast paths with exact brute force")
    p_or.add_argument("input", nargs="?", default="-")
    p_or.add_argument("--json", action="store_true")
    p_or.add_argument("--mode", choices=["auto", "decomp", "perm"], default="auto")
    p_or.add_argument("--budget", type=int, default=10**6,
                      help="search node budget for the exact solvers")
    p_or.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate random decomposition trees")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--depth", type=int, default=3)
    p_gen.add_argument("--leaf-size", type=int, default=5)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the value-only linear paths")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--max-exp", type=int, default=6,
                         help="largest size is 10**max_exp")
    p_bench.add_argument("--leaf-size", type=int, default=512)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (
        GraphError, DecompositionError, PermutationError, OSError, UnicodeDecodeError
    ) as exc:
        return _input_error(str(exc))
