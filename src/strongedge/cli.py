"""Command line front end.

Commands: sci, im, perm, oracle, gen.  Exit codes: 0 success,
1 verification failure or oracle disagreement, 2 input error (out of
memory included), 3 inconclusive (search budget exceeded).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

from .decomposition import (
    DecompositionError,
    is_induced_matching_in,
    parse_decomposition,
    random_tree_cograph,
    realize,
    serialize_decomposition,
)
from .graph import (
    GraphError,
    is_induced_matching,  # unused here; bench/spans.py traces it by this name
    is_strong_edge_coloring,
    square_of_linegraph,
)
from .induced_matching import im
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


class _VerificationFailed(Exception):
    """A certificate failed its check inside a command; `main` exits 1."""


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
            raise _VerificationFailed("coloring is not a strong edge coloring")
        if coloring.palette_size != result.value:
            raise _VerificationFailed(
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
        if len(result.witness) != result.value:
            raise _VerificationFailed("witness size does not match the value")
        if not is_induced_matching_in(tree, result.witness):
            raise _VerificationFailed("witness is not an induced matching")
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
            raise _VerificationFailed("coloring is not a strong edge coloring")
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
    fast_im = im(tree).value
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
        raise _VerificationFailed("greedy coloring is not a strong edge coloring")
    chi, t_chi = timed(exact_chromatic_number, sq, budget)
    return [
        OracleReport.compare(desc, "palette size", coloring.palette_size, chi, t_chi)
    ]


def cmd_oracle(args) -> int:
    if args.budget < 1:
        return _input_error(f"--budget must be >= 1, got {args.budget}")
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
    if args.count < 0:
        return _input_error(f"--count must be >= 0, got {args.count}")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        try:
            tree = random_tree_cograph(rng.getrandbits(63), args.depth, args.leaf_size)
        except ValueError as exc:
            return _input_error(f"--depth {args.depth}: {exc}")
        print(serialize_decomposition(tree))
    return 0


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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        return _input_error("out of memory: the input is too large to process")
    except (
        GraphError, DecompositionError, PermutationError, OSError, UnicodeDecodeError
    ) as exc:
        return _input_error(str(exc))
