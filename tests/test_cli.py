import dataclasses
import importlib.util
import inspect
import io
import json
import random
import sys
import tracemalloc

import pytest

import strongedge
from strongedge import (
    StrongEdgeColoring,
    cli,
    oracle,
    random_labeled_tree,
    random_tree_cograph,
    serialize_decomposition,
)
from strongedge.cli import build_parser, main

JOIN_K2_K2 = json.dumps({
    "type": "join",
    "children": [
        {"type": "tree", "n": 2, "edges": [[0, 1]]},
        {"type": "tree", "n": 2, "edges": [[0, 1]]},
    ],
})

UNION_P5_P5 = json.dumps({
    "type": "union",
    "children": [
        {"type": "tree", "n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        {"type": "tree", "n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    ],
})


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_sci_join_verified(monkeypatch, capsys):
    feed(monkeypatch, JOIN_K2_K2)
    code, out = run_json(capsys, ["sci", "--json", "--verify", "--color"])
    assert code == 0
    assert out["value"] == 6 and out["n"] == 4 and out["m"] == 6
    assert out["verified"] is True
    assert len(out["coloring"]) == 6
    assert sorted(row["color"] for row in out["coloring"]) == list(range(6))


def test_sci_plain_output(monkeypatch, capsys):
    feed(monkeypatch, JOIN_K2_K2)
    assert main(["sci"]) == 0
    assert capsys.readouterr().out == "strong chromatic index: 6\n"


def test_im_union_verified(monkeypatch, capsys):
    feed(monkeypatch, UNION_P5_P5)
    code, out = run_json(capsys, ["im", "--json", "--verify"])
    assert code == 0
    assert out["value"] == 4 and len(out["witness"]) == 4
    assert out["verified"] is True


def test_perm_palettes(monkeypatch, capsys):
    for line, palette in [("2 1 0", 3), ("0 1 2", 0), ("1 0 3 2", 1)]:
        feed(monkeypatch, line)
        code, out = run_json(capsys, ["perm", "--json", "--verify"])
        assert code == 0 and out["palette"] == palette and out["verified"] is True


def test_input_from_file(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(JOIN_K2_K2, encoding="utf-8")
    code, out = run_json(capsys, ["sci", str(p), "--json"])
    assert code == 0 and out["value"] == 6


def test_missing_file_is_an_input_error(capsys):
    assert main(["sci", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_is_an_input_error(tmp_path, monkeypatch, capsys):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\xff\xfe")
    assert main(["sci", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # standard input decoded strictly, and with the surrogateescape handler
    # Python uses under a C or POSIX locale
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["sci"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--leaf-size", "0"],
        ["gen", "--depth", "-1"],
        ["gen", "--depth", "2000", "--seed", "1"],
        ["gen", "--count", "-1"],
        ["oracle", "--budget", "0"],
        ["oracle", "--budget", "-1"],
        # a surviving tree grows about 1.3x per level: stopped at the node cap
        ["gen", "--depth", "60", "--seed", "1"],
        # one leaf of up to 10^9 vertices: stopped at the vertex cap
        ["gen", "--depth", "0", "--leaf-size", "1000000000"],
    ],
)
def test_bad_arguments_are_input_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + argv[1]) and captured.err.count("\n") == 1


def test_malformed_decomposition_is_an_input_error(monkeypatch, capsys):
    feed(monkeypatch, "{not json")
    assert main(["sci"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "0 0 1",
        # int() reads these as 10 and 1
        "1_0 2 0 3 4 5 6 7 8 9 1",
        "\u0661 0",  # Arabic-Indic one
        # str.split() read each of these as a permutation
        "0 1\n2\n",
        "1\u00a00",
        "\t1 0\r\n",
        "1 0\n\n",
    ],
    ids=["repeat", "underscore", "non-ascii", "two-lines", "nbsp", "tab-crlf",
         "blank-line"],
)
def test_bad_permutation_is_an_input_error(text, monkeypatch, capsys):
    feed(monkeypatch, text)
    assert main(["perm"]) == 2
    assert "error:" in capsys.readouterr().err


def test_perm_verify_rejects_a_bad_coloring(monkeypatch, capsys):
    def merged(d, g):
        # edges (0,1), (0,3), (2,3) need three colors; (0,1) and (0,3) share 0
        assert g.edges == [(0, 1), (0, 3), (2, 3)]
        return StrongEdgeColoring((0, 0, 1))

    monkeypatch.setattr("strongedge.cli.strong_color_permutation", merged)
    feed(monkeypatch, "2 0 3 1")
    assert main(["perm", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: coloring is not a strong edge coloring\n"


def test_perm_verify_needs_no_generic_checker_or_trapezoids(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("perm reached the generic checker or the trapezoid model")

    for target in (
        "strongedge.cli.is_strong_edge_coloring",
        "strongedge.graph.is_strong_edge_coloring",
        "strongedge.permutation.trapezoid_model",
    ):
        monkeypatch.setattr(target, unreachable)
    pi = list(range(300))
    random.Random(11).shuffle(pi)
    feed(monkeypatch, " ".join(map(str, pi)))
    code, out = run_json(capsys, ["perm", "--json", "--color", "--verify"])
    assert code == 0 and out["verified"] is True and out["n"] == 300


def test_oracle_agreement(monkeypatch, capsys):
    feed(monkeypatch, JOIN_K2_K2)
    code, out = run_json(capsys, ["oracle", "--json"])
    assert code == 0 and out["agree"] is True and out["mode"] == "decomp"
    assert {r["prop"] for r in out["reports"]} == {
        "strong chromatic index",
        "maximum induced matching",
    }
    assert all(r["verdict"] == "agree" for r in out["reports"])


def test_oracle_permutation_mode_autodetects(monkeypatch, capsys):
    feed(monkeypatch, "2 0 3 1")
    code, out = run_json(capsys, ["oracle", "--json"])
    assert code == 0 and out["mode"] == "perm" and out["agree"] is True


def test_oracle_disagreement_exits_one(monkeypatch, capsys):
    class FakeResult:
        value = 999

    monkeypatch.setattr("strongedge.cli.sci", lambda tree: FakeResult())
    feed(monkeypatch, JOIN_K2_K2)
    assert main(["oracle"]) == 1
    assert "disagree" in capsys.readouterr().out


def test_oracle_tiny_budget_is_inconclusive(monkeypatch, capsys):
    feed(monkeypatch, JOIN_K2_K2)
    assert main(["oracle", "--budget", "1"]) == 3
    assert capsys.readouterr().err == "inconclusive: search node budget of 1 exhausted\n"


def test_oracle_search_deeper_than_the_stack_is_inconclusive(
    shallow_stack, monkeypatch, capsys
):
    # the complement of a 14-vertex path is a cotree leaf whose square is a
    # 78-clique; beside a one-edge tree leaf the square is no clique, so
    # the clique search recurses 78 levels deep
    doc = {"type": "union", "children": [
        {"type": "cotree", "n": 14, "edges": [[i, i + 1] for i in range(13)]},
        {"type": "tree", "n": 2, "edges": [[0, 1]]},
    ]}
    feed(monkeypatch, json.dumps(doc))
    with shallow_stack():
        code = main(["oracle"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("inconclusive: search went deeper than the recursion")
    assert captured.err.count("\n") == 1


def test_oracle_settles_a_clique_square_without_search(monkeypatch, capsys):
    # the complement of a 46-vertex path: its square is a 990-clique
    doc = {"type": "cotree", "n": 46, "edges": [[i, i + 1] for i in range(45)]}
    feed(monkeypatch, json.dumps(doc))
    assert main(["oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(" agree " in line for line in lines)
    assert lines[0].startswith("strong chromatic index: fast=990 oracle=990 ")
    assert lines[1].startswith("maximum induced matching: fast=1 oracle=1 ")


def _oracle_unreachable(mp):
    """Make every public function of strongedge.oracle raise, in that module
    and in each module that binds it."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the fast path reached strongedge.oracle")

    for name, module in list(sys.modules.items()):
        if name != "strongedge" and not name.startswith("strongedge."):
            continue
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == "strongedge.oracle"
                and not value.__name__.startswith("_")
            ):
                mp.setattr(module, attr, unreachable)


# tree and cotree leaves under joins and unions
COGRAPHS = [serialize_decomposition(random_tree_cograph(seed, 3, 5)) for seed in (6, 10)]


@pytest.mark.parametrize(
    "argv, texts",
    [
        (["sci", "--json", "--color", "--verify"], COGRAPHS),
        (["im", "--json", "--verify"], COGRAPHS),
        (["perm", "--json", "--color", "--verify"], ["5 2 7 0 3 6 1 4"]),
    ],
    ids=["sci", "im", "perm"],
)
def test_fast_path_never_reaches_the_oracle(argv, texts, monkeypatch, capsys):
    for text in texts:
        feed(monkeypatch, text)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with pytest.MonkeyPatch.context() as mp:
            _oracle_unreachable(mp)
            feed(monkeypatch, text)
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
            feed(monkeypatch, text)
            with pytest.raises(AssertionError, match="reached strongedge.oracle"):
                main(["oracle"])


def test_failed_verification_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        "strongedge.cli.is_strong_edge_coloring", lambda g, c: False
    )
    feed(monkeypatch, JOIN_K2_K2)
    assert main(["sci", "--verify"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_im_verify_rejects_a_bad_witness(monkeypatch, capsys):
    real_im = cli.im

    def shifted(tree):
        # the second path's first edge (5, 6) replaced by its neighbour (6, 7)
        result = real_im(tree)
        witness = ((0, 1), (3, 4), (6, 7), (8, 9))
        assert result.witness != witness
        return dataclasses.replace(result, witness=witness)

    monkeypatch.setattr("strongedge.cli.im", shifted)
    feed(monkeypatch, UNION_P5_P5)
    assert main(["im", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: witness is not an induced matching\n"


def test_im_verify_peaks_near_the_tree_size(tmp_path, capsys):
    """A join of two 300-vertex trees stands for about 90,000 edges; the
    check reads the decomposition, so it holds none of them."""
    rng = random.Random(5)
    leaves = [random_labeled_tree(300, rng) for _ in range(2)]
    doc = json.dumps({"type": "join", "children": [
        {"type": "tree", "n": t.n, "edges": [list(e) for e in t.edges]} for t in leaves
    ]})
    path = tmp_path / "join.json"
    path.write_text(doc, encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["im", "--json", "--verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verified"] is True and out["m"] > 90_000
    assert peak < 1 << 20


def test_oracle_failed_permutation_verification_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        "strongedge.cli.is_strong_edge_coloring", lambda g, c: False
    )
    feed(monkeypatch, "2 0 3 1")
    assert main(["oracle", "--mode", "perm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["sci", "im"])
def test_out_of_memory_is_an_input_error(command, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    # the call each command's --verify makes on the whole tree
    target = {"sci": "realize", "im": "is_induced_matching_in"}[command]
    monkeypatch.setattr(f"strongedge.cli.{target}", exhausted)
    feed(monkeypatch, JOIN_K2_K2)
    assert main([command, "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1


def test_gen_is_deterministic_and_parseable(capsys):
    from strongedge import parse_decomposition

    assert main(["gen", "--seed", "7", "--count", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7", "--count", "3"]) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert parse_decomposition(line).n >= 1


def test_gen_depth_zero_is_a_single_leaf(capsys):
    assert main(["gen", "--seed", "1", "--depth", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] in {"tree", "cotree"}


def test_gen_pipes_into_oracle(monkeypatch, capsys):
    assert main(["gen", "--seed", "3", "--leaf-size", "4"]) == 0
    doc = capsys.readouterr().out
    feed(monkeypatch, doc)
    assert main(["oracle", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True


def test_run_config_from_args():
    """The parsed namespace is the run configuration the commands read."""
    parser = build_parser()
    args = parser.parse_args(["sci", "--json"])
    assert args.command == "sci" and args.json is True and args.input == "-"

    args = parser.parse_args(["gen", "--leaf-size", "9"])
    assert args.command == "gen" and args.leaf_size == 9 and args.depth == 3

    for argv in (["no-such-command"], ["bench"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_public_names_resolve_and_removed_ones_are_gone():
    for name in strongedge.__all__:
        assert getattr(strongedge, name) is not None, name
    for name in (
        "im_value", "im_tree_value", "graph_to_text", "graph_from_text", "sci_cotree",
        "sci_tree", "im_tree", "max_clique_exhaustive", "chromatic_number_exhaustive",
        "max_independent_set_exhaustive", "SquaredLinegraph", "PerfectEliminationError",
        "chordal_coloring", "lexbfs_order", "is_perfect_elimination_ordering",
    ):
        assert name not in strongedge.__all__ and not hasattr(strongedge, name)
    assert len(strongedge.__all__) == 46
    assert importlib.util.find_spec("strongedge.chordal") is None
    for name in oracle.__all__:
        assert getattr(oracle, name) is not None, name
    assert not hasattr(cli, "cmd_bench")
