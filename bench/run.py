"""End-to-end benchmark of the strongedge `sci`, `im` and `perm` commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`.  Each operation runs one command in-process through
`strongedge.cli.main` on a generated document (or, on cograph-deep, one
library round trip) and checks its output against check.py.  Operations
run in whole rounds, one round per document, in a closed loop on one
thread until S seconds have passed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The traced run writes its spans to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
from spans import MIB, Instrumentation, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is sampled before the timed pass and again between its rounds
# every SETUP_EVERY seconds; setup_s is the median sample.  One sample
# repeats the set-up until SETUP_SAMPLE seconds have passed and takes the
# mean, since a single set-up of the permutation workloads takes only a
# few milliseconds.  Spreading the samples over the run keeps one slow
# stretch of the machine from setting the figure.
SETUP_EVERY = 2.0
SETUP_SAMPLE = 0.2


def load_program():
    """Import strongedge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "strongedge" / "cli.py").is_file():
        sys.exit(f"error: {src}/strongedge not found; run inside a strongedge checkout")
    # one thread: the numpy calls in the program must not fan out
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import strongedge.cli
    import strongedge.decomposition

    if Path(strongedge.cli.__file__).resolve().parent != (src / "strongedge").resolve():
        sys.exit(f"error: strongedge was imported from {strongedge.cli.__file__}, not {src}")
    return strongedge.cli.main, strongedge.decomposition


# --- documents and their reference answers -------------------------------


@dataclass
class Doc:
    path: Path
    text: str
    spec: object  # the generator's description or permutation
    ref: dict = field(default_factory=dict)


def cograph_reference(desc) -> dict:
    n, m = check.cograph_size(desc)
    n2, edges = check.cograph_edges(desc)
    if (n2, len(edges)) != (n, m):
        raise check.CheckError("reference graph does not match its own size")
    return {
        "n": n,
        "m": m,
        "sci": check.cograph_sci(desc),
        "im": check.cograph_im(desc),
        "edges": edges,
        "adj": check.adjacency(n, edges),
        "nodes": check.cograph_nodes(desc),
    }


def perm_reference(pi) -> dict:
    edges = check.inversion_graph(pi)
    return {
        "n": len(pi),
        "m": len(edges),
        "edges": edges,
        "bound": check.degree_bound(len(pi), edges),
    }


# --- operations ------------------------------------------------------------


def check_size(out: dict, ref: dict) -> None:
    check.require(out["n"] == ref["n"] and out["m"] == ref["m"],
           f"n, m = {out['n']}, {out['m']}; expected {ref['n']}, {ref['m']}")


def check_sci(out: dict, ref: dict) -> None:
    check_size(out, ref)
    check.require(out["value"] == ref["sci"], f"sci {out['value']}, expected {ref['sci']}")
    if "coloring" in out:
        palette = check.check_strong_coloring(ref["n"], ref["edges"], out["coloring"])
        check.require(palette == ref["sci"], f"palette {palette}, expected {ref['sci']}")
        check.require(out.get("verified") is True, "coloring not reported as verified")


def check_im(out: dict, ref: dict) -> None:
    check_size(out, ref)
    check.require(out["value"] == ref["im"], f"im {out['value']}, expected {ref['im']}")
    check.require(len(out["witness"]) == ref["im"], "witness size differs from the value")
    check.check_induced_matching(ref["adj"], [tuple(p) for p in out["witness"]])
    check.require(out.get("verified") is True, "witness not reported as verified")


def check_perm(out: dict, ref: dict) -> None:
    check_size(out, ref)
    palette = check.check_strong_coloring(ref["n"], ref["edges"], out["coloring"])
    check.require(palette == out["palette"], f"{palette} colors used, {out['palette']} reported")
    check.require(palette >= ref["bound"], f"palette {palette} below the bound {ref['bound']}")
    check.require(out.get("verified") is True, "coloring not reported as verified")


@dataclass
class Op:
    name: str  # span name of the whole operation
    argv: list[str] | None  # CLI arguments before the document path
    check: object  # check(output, reference)

    @property
    def is_command(self) -> bool:
        return self.argv is not None


def round_trip(decomposition, doc: Doc):
    """parse(serialize(parse(doc))), through the module's current
    attributes so that a traced run sees the calls."""
    tree = decomposition.parse_decomposition(doc.text)
    return decomposition.parse_decomposition(decomposition.serialize_decomposition(tree))


def check_round_trip(tree, ref: dict) -> None:
    check.require((tree.n, tree.m) == (ref["n"], ref["m"]), "round trip changed the graph")


@dataclass
class Workload:
    docs: int
    make: object  # rng -> spec
    render: object  # spec -> document text
    reference: object  # spec -> dict
    suffix: str
    ops: list[Op]


SCI_VALUE = Op("cli.sci", ["sci", "--json"], check_sci)
SCI_COLOR = Op("cli.sci", ["sci", "--json", "--color", "--verify"], check_sci)
IM = Op("cli.im", ["im", "--json", "--verify"], check_im)
PERM = Op("cli.perm", ["perm", "--json", "--color", "--verify"], check_perm)
ROUND_TRIP = Op("roundtrip", None, check_round_trip)

WORKLOADS = {
    "cograph-deep": Workload(3, gen.cograph_deep, gen.cograph_document, cograph_reference,
                             ".json", [SCI_VALUE, IM, ROUND_TRIP]),
    "cograph-hubs": Workload(3, gen.cograph_hubs, gen.cograph_document, cograph_reference,
                             ".json", [SCI_COLOR, IM]),
    "perm-dense": Workload(6, gen.perm_dense, gen.perm_document, perm_reference,
                           ".txt", [PERM]),
    "perm-sparse": Workload(3, gen.perm_sparse, gen.perm_document, perm_reference,
                            ".txt", [PERM]),
}


# --- the run ---------------------------------------------------------------


class Runner:
    def __init__(self, workload: Workload, main, decomposition):
        self.workload = workload
        self.main = main
        self.decomposition = decomposition
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()

    def _report(self, message: str) -> None:
        if message not in self._reported:
            self._reported.add(message)
            print(message, file=sys.stderr)

    def call(self, op: Op, doc: Doc):
        """The call into the program: the round trip's tree, or the
        command's standard output."""
        if not op.is_command:
            return round_trip(self.decomposition, doc)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.main(op.argv + [str(doc.path)])
        if code != 0:
            raise RuntimeError(f"{op.argv[0]} exited with code {code}")
        return buf.getvalue()

    def attempt(self, op: Op, doc: Doc, measure=contextlib.nullcontext) -> float | None:
        """Run one operation, check it, return its seconds or None if it
        failed.  Only the call into the program is timed, and `measure()`
        (a span or tracemalloc) encloses the call and nothing else."""
        self.attempted += 1
        gc.collect()
        try:
            with measure():
                t0 = time.perf_counter()
                result = self.call(op, doc)
                seconds = time.perf_counter() - t0
        except Exception as exc:  # a fault of the program: count it and go on
            self.failed += 1
            self._report(f"{op.name}: failed: {type(exc).__name__}: {exc}")
            return None
        try:
            op.check(json.loads(result) if op.is_command else result, doc.ref)
        except (check.CheckError, KeyError, TypeError, ValueError) as exc:
            self.correct = False
            self._report(f"{op.name}: wrong output: {type(exc).__name__}: {exc}")
        return seconds

    def run_round(self, doc: Doc, tracer: Tracer | None = None) -> dict[str, float | None]:
        times = {}
        for op in self.workload.ops:
            if tracer is None:
                times[op.name] = self.attempt(op, doc)
            else:
                tracer.op += 1
                times[op.name] = self.attempt(op, doc, lambda: tracer.span(op.name))
        return times

    def peak_mib(self, doc: Doc) -> float:
        """Largest tracemalloc peak of one command, in MiB, over one whole
        round (the library round trip runs without tracemalloc)."""
        peaks = [0]

        @contextlib.contextmanager
        def traced_memory():
            tracemalloc.start()
            try:
                yield
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        for op in self.workload.ops:
            self.attempt(op, doc, traced_memory if op.is_command else contextlib.nullcontext)
        return max(peaks) / MIB


def make_docs(workload: Workload, seed: int, folder: Path) -> list[Doc]:
    """Generate and write the workload's documents."""
    rng = random.Random(seed)
    folder.mkdir(parents=True, exist_ok=True)
    docs = []
    for i in range(workload.docs):
        spec = workload.make(rng)
        text = workload.render(spec)
        path = folder / f"doc{i}{workload.suffix}"
        path.write_text(text, encoding="utf-8")
        docs.append(Doc(path, text, spec))
    return docs


def setup_sample(set_up) -> float:
    """Seconds of one set-up, the mean over repeats that together take at
    least SETUP_SAMPLE seconds."""
    count = 0
    t0 = time.perf_counter()
    while count == 0 or time.perf_counter() - t0 < SETUP_SAMPLE:
        set_up()
        count += 1
    return (time.perf_counter() - t0) / count


def command_seconds(times: dict[str, float | None], workload: Workload) -> float:
    return sum(times[op.name] or 0.0 for op in workload.ops if op.is_command)


def end_to_end(runner: Runner, docs: list[Doc], seconds: float, set_up) -> dict:
    """The run goes through the documents in whole cycles.  Each command's
    time on a document is its median over the run, taken per document so
    that the documents weigh the same.  `commands_s` is the mean over
    documents of the sum of their commands' times; `edges_per_s` divides
    the edges those commands processed by that sum."""
    commands = [op.name for op in runner.workload.ops if op.is_command]
    times_of: dict[tuple[int, str], list[float]] = defaultdict(list)
    setup = [setup_sample(set_up)]
    start = last_setup = time.perf_counter()
    r = 0
    while r == 0 or r % len(docs) or time.perf_counter() - start < seconds:
        if time.perf_counter() - last_setup >= SETUP_EVERY:
            setup.append(setup_sample(set_up))
            last_setup = time.perf_counter()
        d = r % len(docs)
        times = runner.run_round(docs[d])
        for name in commands:
            if times[name] is not None:
                times_of[d, name].append(times[name])
        r += 1
    if len(times_of) < len(docs) * len(commands):
        sys.exit("error: a command failed on every round of a document")
    median = {key: statistics.median(v) for key, v in times_of.items()}
    total = sum(median.values())
    edges = sum(docs[d].ref["m"] for d, _ in median)
    peak = runner.peak_mib(docs[0])
    detail = {f"{name.split('.')[1]}_s": sum(median[d, name] for d in range(len(docs))) / len(docs)
              for name in commands}
    detail["rounds"] = r
    print("detail " + json.dumps(detail))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "commands_s": (total / len(docs), "s"),
        "edges_per_s": (edges / total, "1/s"),
        "peak_mib": (peak, "MiB"),
    }


# per-layer metrics: span name -> metric of its inclusive time
LAYER_TIMES = [
    "decomposition.parse", "decomposition.realize", "decomposition.serialize",
    "strong_chromatic.sci", "strong_chromatic.strong_coloring", "induced_matching.im",
    "graph.square_of_linegraph", "chordal.chordal_coloring", "graph.verify_coloring",
    "graph.verify_matching", "permutation.parse", "permutation.graph",
    "permutation.trapezoids", "permutation.sweep", "permutation.color",
    "cli.sci", "cli.im", "cli.perm",
]
# span name -> (metric, how the counts of one round combine)
LAYER_COUNTS = {
    "strong_chromatic.strong_coloring": ("strong_chromatic.palette", max),
    "graph.square_of_linegraph": ("graph.square_edges", sum),
    "permutation.graph": ("permutation.edges", max),
    "permutation.color": ("permutation.palette", max),
    "graph.verify_coloring": ("graph.verify_coloring_peak_mib", max),
}
LAYER_UNITS = {
    "decomposition.nodes": "count", "decomposition.doc_bytes": "bytes",
    "strong_chromatic.palette": "count", "graph.square_edges": "count",
    "permutation.edges": "count", "permutation.palette": "count",
    "graph.verify_coloring_peak_mib": "MiB", "cli.self_s": "s",
    "tracing.overhead_pct": "%",
}


def round_layers(spans: list[list], first: int, doc: Doc) -> dict[str, float]:
    """Per-layer figures of one traced round, whose spans start at index
    `first`: the summed inclusive time of each layer's calls, counts, and
    the CLI's own time outside them."""
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, list] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    mine = [(i, spans[i]) for i in range(first, len(spans))]
    for i, (name, t0, t1, parent, _, count) in mine:
        times[name] += t1 - t0
        child_time[parent] += t1 - t0
        if name in LAYER_COUNTS and count is not None:
            counts[name].append(count)
    out = {f"{name}_s": times.get(name, 0.0) for name in LAYER_TIMES}
    out["cli.self_s"] = sum(t1 - t0 - child_time[i] for i, (name, t0, t1, *_) in mine
                            if name.startswith("cli."))
    for name, (metric, combine) in LAYER_COUNTS.items():
        out[metric] = combine(counts[name]) if counts[name] else 0
    is_cograph = "nodes" in doc.ref
    out["decomposition.nodes"] = doc.ref["nodes"] if is_cograph else 0
    out["decomposition.doc_bytes"] = len(doc.text.encode()) if is_cograph else 0
    return out


def per_layer(runner: Runner, docs: list[Doc], seconds: float, trace_file: Path) -> dict:
    """Each document runs untraced, then traced; the pairs give the
    tracing overhead, the traced rounds the per-layer figures."""
    workload = runner.workload
    tracer = Tracer()
    inst = Instrumentation(tracer)
    rounds = []
    overhead = []
    start = time.perf_counter()
    r = 0
    while r == 0 or r % len(docs) or time.perf_counter() - start < seconds:
        doc = docs[r % len(docs)]
        plain = command_seconds(runner.run_round(doc), workload)
        first = len(tracer.spans)
        inst.install()
        try:
            traced = command_seconds(runner.run_round(doc, tracer), workload)
        finally:
            inst.remove()
        rounds.append(round_layers(tracer.spans, first, doc))
        if plain:
            overhead.append(100.0 * (traced / plain - 1.0))
        r += 1
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "run": trace_file.stem,
        "fields": ["name", "start", "end", "parent", "op", "count"],
        "spans": tracer.spans,
    }))
    metrics = {}
    for name in rounds[0]:
        unit = LAYER_UNITS.get(name, "s")
        # a count is reported as one a round actually had
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (pick(x[name] for x in rounds), unit)
    metrics["tracing.overhead_pct"] = (statistics.median(overhead) if overhead else 0.0, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli_main, decomposition = load_program()
    workload = WORKLOADS[args.workload]
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    folder = OUT / run_name
    try:
        docs = make_docs(workload, args.seed, folder)
        for doc in docs:
            doc.ref = workload.reference(doc.spec)
        # The references stay alive all run; keep the collector from
        # scanning them during the timed calls, as it would not in a
        # fresh process running one command.
        gc.collect()
        gc.freeze()
        runner = Runner(workload, cli_main, decomposition)
        if args.trace:
            metrics = per_layer(runner, docs, args.seconds, OUT / f"trace-{run_name}.json")
        else:
            metrics = end_to_end(runner, docs, args.seconds,
                                 lambda: make_docs(workload, args.seed, folder))
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
