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
from functools import cache
from itertools import islice
from pathlib import Path

from .decomposition import (
    DecompositionError,
    is_induced_matching_in,
    is_strong_edge_coloring_in,
    parse_decomposition,
    random_tree_cograph,
    realize,
    serialize_decomposition,
)
from .graph import (
    GraphError,
    is_induced_matching,
    is_strong_edge_coloring,
)
from .induced_matching import im
from .oracle import (
    BudgetExceededError,
    OracleReport,
    exact_chromatic_number,
    exact_max_independent_set,
    square_of_linegraph,
    timed,
)
from . import permutation
from .permutation import (
    PermutationError,
    inversions,
    is_chain_coloring,
    parse_permutation,
    permutation_graph,
)

# The commands build the inversion lists themselves, so they run the sweep
# without strong_color_permutation's check of the lists.  They look the
# sweep up in its module, where bench/spans.py traces it, and spans.py
# still traces strong_color_permutation by this name here.
from .permutation import strong_color_permutation  # noqa: F401
from .strong_chromatic import sci, strong_coloring

__all__ = ["main"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


# rows of a listing formatted and written at a time
_ROW_BLOCK = 256


def _print_list(head: str, rows, tail: str) -> None:
    """Write ``head``, the formatted ``rows`` as one JSON list, byte for
    byte what `json.dumps` gives for the values they format, and ``tail``.
    The rows are taken and written a block at a time, so at most one
    block of them and one copy of its text are held."""
    write = sys.stdout.write
    write(head + "[")
    sep = ""
    while block := list(islice(rows, _ROW_BLOCK)):
        write(sep)
        write(", ".join(block))
        sep = ", "
    write("]" + tail)


def _print_coloring(out: dict | None, rows) -> None:
    """Print the coloring's rows on a line of their own or, given ``out``,
    as the last key of ``out``'s JSON object."""
    if out is None:
        _print_list("", rows, "\n")
    else:
        _print_list(json.dumps(out)[:-1] + ', "coloring": ', rows, "}\n")


def _rows(edges, colors):
    """The ``{"edge": [u, v], "color": c}`` rows of a coloring, formatted
    as `json.dumps` writes them."""
    return (f'{{"edge": [{u}, {v}], "color": {c}}}' for (u, v), c in zip(edges, colors))


def _inversion_rows(later, colors):
    """`_rows` of the edges that `inversions` lists, read straight from
    the lists with no tuple per edge; the text up to v is formatted once
    per u."""
    color = iter(colors)
    return (
        f'{head}{v}], "color": {next(color)}}}'
        for u, vs in enumerate(later)
        if vs
        for head in (f'{{"edge": [{u}, ',)
        for v in vs
    )


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
    if args.color or args.verify:
        coloring = strong_coloring(tree)
    if args.verify:
        if not is_strong_edge_coloring_in(tree, coloring):
            raise _VerificationFailed("coloring is not a strong edge coloring")
        if coloring.palette_size != result.value:
            raise _VerificationFailed(
                f"palette {coloring.palette_size} != index {result.value}"
            )
        out["verified"] = True
    if args.json:
        if args.color:
            _print_coloring(out, _rows(tree.edges(), coloring.colors))
        else:
            print(json.dumps(out))
    else:
        print(f"strong chromatic index: {result.value}")
        if args.color:
            _print_coloring(None, _rows(tree.edges(), coloring.colors))
        if args.verify:
            print("coloring verified: valid and palette matches the index")
    return 0


def cmd_im(args) -> int:
    tree = parse_decomposition(_read_input(args.input))
    result = im(tree)
    if args.verify:
        if len(result.witness) != result.value:
            raise _VerificationFailed("witness size does not match the value")
        if not is_induced_matching_in(tree, result.witness):
            raise _VerificationFailed("witness is not an induced matching")
    pairs = (f"[{u}, {v}]" for u, v in result.witness)
    if args.json:
        out = {"command": "im", "n": tree.n, "m": tree.m, "value": result.value}
        tail = ', "verified": true}\n' if args.verify else "}\n"
        _print_list(json.dumps(out)[:-1] + ', "witness": ', pairs, tail)
    else:
        print(f"maximum induced matching: {result.value}")
        _print_list("witness: ", pairs, "\n")
        if args.verify:
            print("witness verified: induced matching of the stated size")
    return 0


def cmd_perm(args) -> int:
    diagram = parse_permutation(_read_input(args.input))
    later = inversions(diagram.pi)
    coloring = permutation.greedy_trapezoid_coloring(diagram.pi, later)
    out = {
        "command": "perm",
        "n": diagram.n,
        "m": len(coloring),
        "palette": coloring.palette_size,
    }
    if args.verify:
        if not is_chain_coloring(diagram, later, coloring):
            raise _VerificationFailed("coloring is not a strong edge coloring")
        out["verified"] = True
    if args.json:
        if args.color:
            _print_coloring(out, _inversion_rows(later, coloring.colors))
        else:
            print(json.dumps(out))
    else:
        print(f"palette size: {coloring.palette_size}")
        if args.color:
            _print_coloring(None, _inversion_rows(later, coloring.colors))
        if args.verify:
            print("coloring verified: valid strong edge coloring")
    return 0


def _oracle_decomposition(text: str, budget: int | None) -> list[OracleReport]:
    tree = parse_decomposition(text)
    g = realize(tree)
    sq = square_of_linegraph(g)
    desc = f"decomposition(n={g.n},m={g.m})"
    coloring = strong_coloring(tree)
    # each certificate must pass both of its checkers, which keeps them in agreement
    if not (
        is_strong_edge_coloring_in(tree, coloring) and is_strong_edge_coloring(g, coloring)
    ):
        raise _VerificationFailed("coloring is not a strong edge coloring")
    matching = im(tree)
    if len(matching.witness) != matching.value:
        raise _VerificationFailed("witness size does not match the value")
    if not (
        is_induced_matching_in(tree, matching.witness)
        and is_induced_matching(g, matching.witness)
    ):
        raise _VerificationFailed("witness is not an induced matching")
    fast_sci = sci(tree).value
    chi, t_chi = timed(exact_chromatic_number, sq, budget)
    mis, t_mis = timed(exact_max_independent_set, sq, budget)
    return [
        OracleReport.compare(desc, "strong chromatic index", fast_sci, chi, t_chi),
        OracleReport.compare(desc, "maximum induced matching", matching.value, mis, t_mis),
    ]


def _oracle_permutation(text: str, budget: int | None) -> list[OracleReport]:
    diagram = parse_permutation(text)
    later = inversions(diagram.pi)
    g = permutation_graph(diagram)
    sq = square_of_linegraph(g)
    desc = f"permutation(n={g.n},m={g.m})"
    coloring = permutation.greedy_trapezoid_coloring(diagram.pi, later)
    # both verifiers must accept, so the oracle keeps them in agreement
    if not (
        is_chain_coloring(diagram, later, coloring) and is_strong_edge_coloring(g, coloring)
    ):
        raise _VerificationFailed("greedy coloring is not a strong edge coloring")
    chi, t_chi = timed(exact_chromatic_number, sq, budget)
    return [
        OracleReport.compare(desc, "palette size", coloring.palette_size, chi, t_chi)
    ]


def cmd_oracle(args) -> int:
    if args.budget < 1:
        return _input_error(f"--budget must be >= 1, got {args.budget}")
    text = _read_input(args.input)
    mode = "decomp" if text.lstrip().startswith("{") else "perm"
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
            return _input_error(
                f"--depth {args.depth} --leaf-size {args.leaf_size}: {exc}"
            )
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

    p_or = sub.add_parser("oracle", help="check every certificate and compare with brute "
                          "force; input starting with '{' is a decomposition")
    p_or.add_argument("input", nargs="?", default="-")
    p_or.add_argument("--json", action="store_true")
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process: building one takes
    about fifteen times as long as parsing with it, and parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
