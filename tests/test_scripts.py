"""Smoke tests: each experiment script runs to completion on tiny inputs,
the benchmark's span targets still exist, its output checks pass on the
commands it runs, and README's library example runs."""

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from strongedge import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("oracle_sweep.py", ["--count", "5", "--max-n", "8"]),
        ("tree_square_survey.py", ["--max-n", "5", "--exhaustive-limit", "5", "--samples", "20"]),
        ("greedy_order_experiment.py", ["--max-exhaustive", "4", "--samples", "5", "--sample-n", "6"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_span_targets_exist():
    """`bench/run.py --trace 1` wraps the program functions listed in
    `bench/spans.py`; constructing its instrumentation fails when one of
    them is gone."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.Instrumentation(spans.Tracer())


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _printed(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("make", ["perm_dense", "perm_sparse"])
def test_perm_output_passes_the_benchmark_checks(make, tmp_path, capsys):
    """`perm --json --color --verify` as the benchmark runs it, its rows
    checked by the benchmark's own sparse checker."""
    check, gen = _bench_module("check"), _bench_module("gen")
    pi = getattr(gen, make)(random.Random(0))
    path = tmp_path / "doc.txt"
    path.write_text(gen.perm_document(pi))
    out = _printed(capsys, ["perm", "--json", "--color", "--verify", str(path)])
    edges = check.inversion_graph(pi)
    palette = check.check_strong_coloring(len(pi), edges, out["coloring"])
    assert palette == out["palette"] >= check.degree_bound(len(pi), edges)
    assert out["verified"] is True


def test_sci_output_passes_the_benchmark_checks(tmp_path, capsys):
    """`sci --json --color --verify` on a cograph-hubs document, checked
    against the benchmark's own graph and recursion."""
    check, gen = _bench_module("check"), _bench_module("gen")
    desc = gen.cograph_hubs(random.Random(0))
    path = tmp_path / "doc.json"
    path.write_text(gen.cograph_document(desc))
    out = _printed(capsys, ["sci", "--json", "--color", "--verify", str(path)])
    n, edges = check.cograph_edges(desc)
    palette = check.check_strong_coloring(n, edges, out["coloring"])
    assert palette == out["value"] == check.cograph_sci(desc)
    assert out["verified"] is True


def test_oracle_sweep_counts_a_rejected_certificate_as_a_failure(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "oracle_sweep", ROOT / "scripts" / "oracle_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr("strongedge.cli.is_induced_matching_in", lambda tree, pairs: False)
    args = argparse.Namespace(count=3, seed=0, max_n=8, depth=4, leaf_size=6, verbose=False)
    assert sweep.run(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(
        line.startswith("FAILED ")
        and line.endswith("verification failed: witness is not an induced matching")
        for line in lines[:3]
    )
    assert lines[3].startswith(
        "3 instances, 0 comparisons, 0 disagreements, 3 failed checks"
    )


def test_readme_library_example_runs():
    """The Python block under README's "## Library" runs as written on a
    small decomposition document, so the calls it shows match the code."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    text = (
        '{"type":"join","children":[{"type":"union","children":['
        '{"type":"tree","n":2,"edges":[[0,1]]},{"type":"tree","n":3,"edges":[[0,1],[1,2]]}]},'
        '{"type":"cotree","n":4,"edges":[[0,1],[1,2],[2,3]]}]}'
    )
    namespace = {"text": text}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["value"] == namespace["coloring"].palette_size > 0
