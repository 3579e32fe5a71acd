"""In-memory spans around calls into the program's public functions.

The program has no tracing of its own, so `Instrumentation` swaps each
traced function, in the module namespace its callers look it up in, for a
wrapper that records a span, and swaps the original back afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc

MIB = float(1 << 20)


class Tracer:
    """Spans as [name, start, end, parent, op, count]; parent is the index
    of the enclosing span or -1, op the id of the benchmark operation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def wrap(self, name: str, fn, count=None, peak: bool = False):
        """`fn` recording one span per call.  `count(result)` is stored
        with the span; with `peak`, the count is instead the peak MiB the
        call allocated, from tracemalloc running for that call only."""

        def traced(*args, **kwargs):
            i = self.begin(name)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    allocated = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                self.end(i)
            if peak:
                self.spans[i][5] = allocated
            elif count:
                self.spans[i][5] = count(result)
            return result

        return traced


def _palette(coloring) -> int:
    return coloring.palette_size


# (module, attribute, span name, count of the result, record peak memory)
TARGETS = [
    ("strongedge.cli", "parse_decomposition", "decomposition.parse", None, False),
    ("strongedge.cli", "realize", "decomposition.realize", None, False),
    ("strongedge.cli", "sci", "strong_chromatic.sci", None, False),
    ("strongedge.cli", "strong_coloring", "strong_chromatic.strong_coloring", _palette, False),
    ("strongedge.cli", "im", "induced_matching.im", None, False),
    ("strongedge.cli", "is_strong_edge_coloring", "graph.verify_coloring", None, True),
    ("strongedge.cli", "is_induced_matching", "graph.verify_matching", None, False),
    ("strongedge.cli", "parse_permutation", "permutation.parse", None, False),
    ("strongedge.cli", "permutation_graph", "permutation.graph", lambda g: g.m, False),
    ("strongedge.cli", "strong_color_permutation", "permutation.color", _palette, False),
    # calls strong_coloring makes on each tree leaf
    ("strongedge.strong_chromatic", "sci", "strong_chromatic.sci", None, False),
    ("strongedge.strong_chromatic", "square_of_linegraph", "graph.square_of_linegraph",
     lambda sq: sq.graph.m, False),
    ("strongedge.strong_chromatic", "chordal_coloring", "chordal.chordal_coloring", None, False),
    # calls strong_color_permutation makes
    ("strongedge.permutation", "permutation_graph", "permutation.graph", lambda g: g.m, False),
    ("strongedge.permutation", "trapezoid_model", "permutation.trapezoids", None, False),
    ("strongedge.permutation", "greedy_trapezoid_coloring", "permutation.sweep", None, False),
    # the benchmark's own round trip looks these up in their module
    ("strongedge.decomposition", "parse_decomposition", "decomposition.parse", None, False),
    ("strongedge.decomposition", "serialize_decomposition", "decomposition.serialize", None,
     False),
]


class Instrumentation:
    """Installs and removes the wrappers of TARGETS.  A target the program
    no longer has is an error, not a layer that reads 0: TARGETS must
    change together with the program."""

    def __init__(self, tracer: Tracer):
        self._swaps = []
        for module_name, attr, name, count, peak in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise LookupError(f"{module_name}.{attr} is gone; update TARGETS in spans.py")
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, count, peak)
            self._swaps.append((module, attr, original, wrapped))

    def install(self) -> None:
        for module, attr, _, wrapped in self._swaps:
            setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
