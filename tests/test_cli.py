import contextlib
import dataclasses
import importlib.util
import inspect
import io
import json
import random
import sys
import tracemalloc
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strongedge
from strongedge import (
    StrongEdgeColoring,
    cli,
    im,
    inversions,
    oracle,
    parse_decomposition,
    parse_permutation,
    permutation_graph,
    random_labeled_tree,
    random_tree_cograph,
    realize,
    serialize_decomposition,
    strong_color_permutation,
    strong_coloring,
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
        # int() raises ValueError past the interpreter's digit limit
        "1" * 5000 + " 0",
    ],
    ids=["repeat", "underscore", "non-ascii", "two-lines", "nbsp", "tab-crlf",
         "blank-line", "digit-limit"],
)
def test_bad_permutation_is_an_input_error(text, monkeypatch, capsys):
    feed(monkeypatch, text)
    assert main(["perm"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sci", "im", "oracle"])
def test_integer_past_the_digit_limit_is_an_input_error(command, monkeypatch, capsys):
    # json.loads raises a plain ValueError here, not JSONDecodeError
    feed(monkeypatch, '{"type":"tree","n":' + "1" * 5000 + ',"edges":[]}')
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bad_permutation_error_is_one_short_line(monkeypatch, capsys):
    feed(monkeypatch, " ".join(["0"] * 200_000))
    assert main(["perm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "permutation" in err
    assert err.count("\n") == 1 and len(err) < 200


def _extra_keys(obj):
    return json.dumps({**obj, **{f"key{i:05}": 0 for i in range(30_000)}})


@pytest.mark.parametrize(
    "command, text",
    [
        ("perm", "1 x" + "y" * 300_000),
        ("sci", _extra_keys({"type": "tree", "n": 1, "edges": []})),
        ("sci", _extra_keys({"type": "union", "children": json.loads(JOIN_K2_K2)["children"]})),
        ("sci", json.dumps({"type": list(range(50_000))})),
    ],
    ids=["token", "leaf-keys", "union-keys", "type"],
)
def test_echoed_input_is_cut_short_in_errors(command, text, monkeypatch, capsys):
    feed(monkeypatch, text)
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 200


_EMOJI = "\U0001F600"


@pytest.mark.parametrize(
    "command, text",
    [
        ("sci", json.dumps({"type": "tree", "n": 1, "edges": [],
                            **{_EMOJI * 30 + str(i): 0 for i in range(3)}},
                           ensure_ascii=False)),
        ("sci", json.dumps({"type": _EMOJI * 100}, ensure_ascii=False)),
        ("perm", "1 " + _EMOJI * 100),
    ],
    ids=["leaf-keys", "type", "token"],
)
def test_echoed_non_ascii_input_is_cut_by_bytes(command, text, monkeypatch, capsys):
    feed(monkeypatch, text)
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 200


def test_deep_error_path_is_cut_short(monkeypatch, capsys):
    # a union chain 450 levels deep with an unexpected key on its deepest
    # leaf; its full JSON path alone is over 5,000 bytes
    depth = 450
    leaf = '{"type":"tree","n":2,"edges":[[0,1]]}'
    text = (
        '{"type":"union","children":[' + leaf + ","
    ) * depth + '{"type":"tree","n":1,"edges":[],"bad":0}' + "]}" * depth
    feed(monkeypatch, text)
    assert main(["sci"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.children[1].children[1]")
    assert captured.err.endswith(".children[1]: unexpected keys ['bad']\n")
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 200


@given(
    argv=st.sampled_from([
        ["sci", "--verify", "--color"], ["im", "--verify"], ["perm", "--verify", "--color"]
    ]),
    # arbitrary text, with the characters of both input formats drawn often
    text=st.text(st.sampled_from(list('{}[],:" 0123456789-\n')) | st.characters(),
                 max_size=200),
)
def test_arbitrary_text_exits_0_or_2_without_a_traceback(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_perm_verify_rejects_a_bad_coloring(monkeypatch, capsys):
    def merged(d, later):
        # edges (0,1), (0,3), (2,3) need three colors; (0,1) and (0,3) share 0
        assert later == [[1, 3], [], [3], []]
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


def test_sci_verify_and_color_need_no_realized_graph(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("sci reached realize or the generic checker")

    for target in (
        "strongedge.cli.realize",
        "strongedge.decomposition.realize",
        "strongedge.cli.is_strong_edge_coloring",
        "strongedge.graph.is_strong_edge_coloring",
    ):
        monkeypatch.setattr(target, unreachable)
    doc = serialize_decomposition(random_tree_cograph(0, 5, 8))
    feed(monkeypatch, doc)
    code, out = run_json(capsys, ["sci", "--json", "--color", "--verify"])
    assert code == 0 and out["verified"] is True and out["m"] > 100
    assert len(out["coloring"]) == out["m"]


def _rows(edges, colors):
    return [{"edge": [u, v], "color": c} for (u, v), c in zip(edges, colors)]


# a join of two 60-vertex paths: 3,718 edges, more than one block of rows
_PATH60 = {"type": "tree", "n": 60, "edges": [[i, i + 1] for i in range(59)]}
_DOCS = [
    JOIN_K2_K2,
    '{"type":"tree","n":1,"edges":[]}',
    json.dumps({"type": "join", "children": [_PATH60, _PATH60]}),
    serialize_decomposition(random_tree_cograph(0, 5, 8)),
]


@pytest.mark.parametrize("doc", _DOCS, ids=["k4", "edgeless", "two-blocks", "gen"])
@pytest.mark.parametrize("mode", ["json", "text"])
def test_sci_coloring_rows_are_what_json_dumps_writes(doc, mode, monkeypatch, capsys):
    tree = parse_decomposition(doc)
    coloring = strong_coloring(tree)
    rows = _rows(realize(tree).edges, coloring.colors)
    out = {"command": "sci", "n": tree.n, "m": tree.m, "value": coloring.palette_size,
           "verified": True, "coloring": rows}
    if mode == "json":
        want = json.dumps(out) + "\n"
    else:
        want = (f"strong chromatic index: {out['value']}\n{json.dumps(rows)}\n"
                "coloring verified: valid and palette matches the index\n")
    feed(monkeypatch, doc)
    assert main(["sci", "--color", "--verify"] + (["--json"] if mode == "json" else [])) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("doc", _DOCS, ids=["k4", "edgeless", "two-blocks", "gen"])
@pytest.mark.parametrize("mode", ["json", "text"])
def test_im_output_is_what_json_dumps_writes(doc, mode, monkeypatch, capsys):
    tree = parse_decomposition(doc)
    result = im(tree)
    witness = [list(e) for e in result.witness]
    if mode == "json":
        want = json.dumps({"command": "im", "n": tree.n, "m": tree.m, "value": result.value,
                           "witness": witness, "verified": True}) + "\n"
    else:
        want = (f"maximum induced matching: {result.value}\nwitness: {json.dumps(witness)}\n"
                "witness verified: induced matching of the stated size\n")
    feed(monkeypatch, doc)
    assert main(["im", "--verify"] + (["--json"] if mode == "json" else [])) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("n", [0, 1, 2, 100])
@pytest.mark.parametrize("mode", ["json", "text"])
def test_perm_coloring_rows_are_what_json_dumps_writes(n, mode, monkeypatch, capsys):
    pi = list(range(n))
    random.Random(n).shuffle(pi)
    text = " ".join(map(str, pi))
    diagram = parse_permutation(text)
    g = permutation_graph(diagram)
    coloring = strong_color_permutation(diagram, inversions(diagram.pi))
    rows = _rows(g.edges, coloring.colors)
    if mode == "json":
        want = json.dumps({"command": "perm", "n": n, "m": g.m,
                           "palette": coloring.palette_size, "coloring": rows}) + "\n"
    else:
        want = f"palette size: {coloring.palette_size}\n{json.dumps(rows)}\n"
    feed(monkeypatch, text)
    assert main(["perm", "--color"] + (["--json"] if mode == "json" else [])) == 0
    assert capsys.readouterr().out == want
    if n == 100:
        assert g.m > cli._ROW_BLOCK


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


def test_oracle_builds_no_graph_of_the_square(monkeypatch, capsys):
    # m = 893 edges, whose square has 380,309 edges: as a Graph it took
    # 40 MiB, as bitset rows it takes about 0.15 MiB
    pi = list(range(60))
    random.Random(0).shuffle(pi)
    feed(monkeypatch, " ".join(map(str, pi)))
    tracemalloc.start()
    try:
        code = main(["oracle", "--json", "--budget", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "inconclusive: search node budget of 1 exhausted\n"
    assert peak <= 4 << 20, peak


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
        "strongedge.cli.is_strong_edge_coloring_in", lambda tree, c: False
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


def test_perm_peaks_well_under_its_graph(tmp_path, monkeypatch, capsys):
    """perm holds the inversion lists, one int object per color and the
    coloring; it builds no Graph, no per-edge tuple and no sort key."""
    def unreachable(*args):
        raise AssertionError("perm built the permutation graph")

    for target in ("strongedge.cli.permutation_graph", "strongedge.permutation.Graph"):
        monkeypatch.setattr(target, unreachable)
    pi = list(range(600))
    random.Random(11).shuffle(pi)
    path = tmp_path / "pi.txt"
    path.write_text(" ".join(map(str, pi)), encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["perm", "--json", "--color", "--verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verified"] is True and out["m"] > 90_000
    assert peak < 128 * out["m"]


class _Sink:
    """A standard output that keeps nothing, so that tracemalloc sees the
    command's own memory and not its output."""

    def write(self, text):
        return len(text)


def test_perm_peaks_at_a_few_dozen_bytes_per_edge(tmp_path):
    """Apart from its output, perm holds the inversion lists (about 9
    bytes per edge), the colors (4) and the sweep's state: three 4-byte
    entries per class and, boxed, the ids of the free classes."""
    pi = list(range(600))
    random.Random(11).shuffle(pi)
    path = tmp_path / "pi.txt"
    path.write_text(" ".join(map(str, pi)), encoding="utf-8")
    m = sum(map(len, inversions(pi)))
    cli._parser()  # built once per process, not per command
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            code = main(["perm", "--json", "--color", "--verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and m > 90_000
    assert peak < 56 * m, peak / m


def test_sci_color_peaks_near_its_colors(tmp_path):
    """A join of two 300-vertex trees: 90,598 edges, nearly all with a
    color of their own.  sci --color holds 4 bytes per edge and per color
    of the palette, not an int object per color."""
    rng = random.Random(5)
    leaves = [random_labeled_tree(300, rng) for _ in range(2)]
    path = tmp_path / "join.json"
    path.write_text(json.dumps({"type": "join", "children": [
        {"type": "tree", "n": t.n, "edges": [list(e) for e in t.edges]} for t in leaves
    ]}), encoding="utf-8")
    cli._parser()  # built once per process, not per command
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            code = main(["sci", "--json", "--color", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = 300 * 300 + 2 * 299
    assert code == 0
    assert peak < 20 * m, peak / m


def test_coloring_rows_are_written_a_block_at_a_time(monkeypatch):
    written = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=written.append))
    count = 3 * cli._ROW_BLOCK + 1

    def rows():
        for k in range(count):
            # rows taken, less rows written, stay within one block
            assert k - "".join(written).count("r") <= cli._ROW_BLOCK
            yield "r"

    cli._print_coloring(None, rows())
    assert "".join(written) == "[" + ", ".join(["r"] * count) + "]\n"


def test_main_answers_alike_on_later_calls(tmp_path):
    """main builds its parser once per process; later calls, whatever
    the command and flags before them, answer as first calls do."""
    perm = tmp_path / "pi.txt"
    perm.write_text("2 0 3 1\n", encoding="utf-8")
    doc = tmp_path / "doc.json"
    doc.write_text(JOIN_K2_K2, encoding="utf-8")
    calls = [
        ["perm", "--json", "--color", "--verify", str(perm)],
        ["sci", "--verify", str(doc)],
        ["im", "--json", str(doc)],
        ["gen", "--seed", "2", "--count", "2", "--leaf-size", "3"],
        ["oracle", "--budget", "1", str(doc)],
        ["oracle", "--budget", "0", str(doc)],
        ["sci", "--color", str(perm)],
        ["perm", str(tmp_path / "missing.txt")],
        ["perm", "--budget", "3", str(perm)],
        ["perm", "--help"],
        [],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return out.getvalue(), err.getvalue(), code

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run(argv))
    assert {code for _, _, code in first} == {0, 2, 3}
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    assert [run(argv) for argv in reversed(calls)] == first[::-1]
    assert cli._parser.cache_info().misses == 1


def test_oracle_failed_permutation_verification_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        "strongedge.cli.is_strong_edge_coloring", lambda g, c: False
    )
    feed(monkeypatch, "2 0 3 1")
    assert main(["oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")
    assert captured.err.count("\n") == 1


def test_oracle_rejects_a_coloring_either_checker_rejects(monkeypatch, capsys):
    monkeypatch.setattr("strongedge.cli.is_strong_edge_coloring_in", lambda tree, c: False)
    feed(monkeypatch, JOIN_K2_K2)
    assert main(["oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: coloring is not a strong edge coloring\n"


def _shortened_im(tree):
    result = im(tree)
    return dataclasses.replace(result, witness=result.witness[:-1])


@pytest.mark.parametrize(
    "target, replacement",
    [
        ("is_induced_matching_in", lambda tree, pairs: False),
        ("is_induced_matching", lambda g, pairs: False),
        ("im", _shortened_im),
    ],
    ids=["decomposition-checker", "graph-checker", "short-witness"],
)
def test_oracle_rejects_a_witness_either_checker_or_its_size_rejects(
    target, replacement, monkeypatch, capsys
):
    monkeypatch.setattr(f"strongedge.cli.{target}", replacement)
    feed(monkeypatch, UNION_P5_P5)
    assert main(["oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")
    assert captured.err.count("\n") == 1


def test_oracle_takes_its_mode_from_the_input_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--mode", "decomp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sci", "im"])
def test_out_of_memory_is_an_input_error(command, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    # the call each command's --verify makes on the whole tree
    target = {"sci": "is_strong_edge_coloring_in", "im": "is_induced_matching_in"}[command]
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
    assert len(strongedge.__all__) == 48
    assert importlib.util.find_spec("strongedge.chordal") is None
    for name in oracle.__all__:
        assert getattr(oracle, name) is not None, name
    assert not hasattr(cli, "cmd_bench")
