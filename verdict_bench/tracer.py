"""In-memory span tracing of anece-lab's layers, from outside the package.

Each layer's public functions are wrapped where the CLI looks them up
(``anece_lab.cli.<name>``), so nothing under ``src/`` changes.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 for none).  Calls to ``numpy.linalg``'s public functions and
random generators built are counted against the innermost open span.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

# Layer name -> (module, attribute) pairs whose calls make up that layer.  A
# function a refactor replaces is mapped here onto the same layer name; a
# name the module no longer has is skipped with a note on stderr.
LAYERS = {
    "cli.dispatch": [("anece_lab.cli", "main")],
    "cli.parse": [("anece_lab.cli", "parse_scenario")],
    "pilots.build": [("anece_lab.cli", "build_pilots"), ("anece_lab.cli", "build_square_pilots")],
    "capacity.phase1": [("anece_lab.cli", "phase1_curve")],
    "capacity.cij": [("anece_lab.cli", "cij_curve")],
    "capacity.ckey0": [("anece_lab.cli", "ckey0_curve")],
    "capacity.cond_entropy": [("anece_lab.cli", "cond_entropy_curve")],
    "verify.slope_fit": [("anece_lab.cli", "verify_slope")],
    "verify.eig_growth": [("anece_lab.cli", "eig_growth_suite")],
    "verify.rank_oracle": [("anece_lab.cli", "rank_oracle_suite")],
    "verify.identity": [("anece_lab.cli", "identity_suite")],
    "cli.formula": [("anece_lab.cli", "formula_report")],
    "verify.compare": [("anece_lab.cli", "compare_schemes")],
    "cli.csv_write": [("anece_lab.cli", "checks_to_csv"), ("anece_lab.cli", "_write_lines")],
}

# Layers whose numpy.linalg calls and random generators are reported.
COUNTED_LAYERS = ("capacity.phase1", "capacity.cij", "capacity.ckey0",
                  "capacity.cond_entropy", "verify.rank_oracle", "pilots.build")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.linalg = Counter()
        self.rng = Counter()
        self.csv_bytes = 0

    def _innermost(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else "(none)"

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def count(self, counter: Counter, fn):
        def counted(*args, **kwargs):
            counter[self._innermost()] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer, plus the
        linalg and generator counts of the counted layers."""
        self_s = Counter()
        calls = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
        for layer in COUNTED_LAYERS:
            out[f"{layer}.linalg_calls"] = (self.linalg[layer], "count")
            out[f"{layer}.rng_streams"] = (self.rng[layer], "count")
        out["cli.csv_write.bytes"] = (self.csv_bytes, "count")
        return out


def _counting_generator(tracer: Tracer, base):
    class CountedGenerator(base):
        def __init__(self, *args, **kwargs):
            tracer.rng[tracer._innermost()] += 1
            super().__init__(*args, **kwargs)
    CountedGenerator.__name__ = base.__name__
    return CountedGenerator


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function and numpy entry point; restore them on exit."""
    import numpy

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    print(f"trace: {module_name}.{attr} not found; layer {layer} skips it",
                          file=sys.stderr)
                    continue
                patch(module, attr, tracer.span(layer, getattr(module, attr)))
        cli = importlib.import_module("anece_lab.cli")
        if hasattr(cli, "_write_lines"):
            inner = cli._write_lines

            def write_lines(lines, *args, **kwargs):
                tracer.csv_bytes += len(("\n".join(lines) + "\n").encode("utf-8"))
                return inner(lines, *args, **kwargs)
            patch(cli, "_write_lines", write_lines)
        for name in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                patch(numpy.linalg, name, tracer.count(tracer.linalg, fn))
        patch(numpy.random, "default_rng", tracer.count(tracer.rng, numpy.random.default_rng))
        patch(numpy.random, "Generator", _counting_generator(tracer, numpy.random.Generator))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
