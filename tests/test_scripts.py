"""Smoke tests: each experiment script runs to completion on tiny inputs,
and the benchmark's span targets still exist."""

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
