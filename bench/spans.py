"""In-memory spans around calls into chisum's layers.

The tracer wraps module attributes: the public functions the benchmark
calls (``chisum.summation.chi_sweep``) and the ones one layer calls in
another (``chisum.summation.chi_row``, ``chisum.series.harmonic``), so a
layer's self time is its span minus the spans of the layers it called.
Spans are kept in a list while the traced phase runs and written out when
the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from chisum import cli, error_model, series, special, summation, weights

_MODULES = {
    "cli": cli, "error_model": error_model, "series": series,
    "special": special, "summation": summation, "weights": weights,
}

# span name -> the (module, attribute) bindings that reach the function.
LAYERS = {
    "cli.main": [("cli", "main")],
    "series.lookup": [("series", "catalog_lookup"), ("series", "load_custom"),
                      ("series", "combine"), ("cli", "catalog_lookup"),
                      ("cli", "load_custom")],
    "series.partial_sums": [("series", "partial_sums"), ("summation", "partial_sums")],
    "special.harmonic": [("special", "harmonic"), ("series", "harmonic")],
    "weights.chi_row": [("weights", "chi_row"), ("summation", "chi_row"),
                        ("cli", "chi_row")],
    "weights.averaging_row": [("weights", "averaging_row"),
                              ("summation", "averaging_row"), ("cli", "averaging_row")],
    "summation.chi_sweep": [("summation", "chi_sweep"), ("cli", "chi_sweep")],
    "summation.chi_sum": [("summation", "chi_sum")],
    "summation.chi_limit": [("summation", "chi_limit")],
    "summation.cesaro_mean": [("summation", "cesaro_mean"), ("cli", "cesaro_mean")],
    "summation.euler_transform": [("summation", "euler_transform"),
                                  ("cli", "euler_transform")],
    "summation.abel_estimate": [("summation", "abel_estimate"),
                                ("cli", "abel_estimate")],
    "error_model": [("error_model", name) for name in
                    ("rate_fit", "predicted_error", "observed_error")]
                   + [(mod, name) for mod in ("summation", "cli")
                      for name in ("predicted_error", "observed_error")],
}


class Tracer:
    """Records (name, start_ns, end_ns, parent index, operation id) for
    every call through a wrapped binding while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrapped = {}
        for name, bindings in LAYERS.items():
            for mod, attr in bindings:
                module = _MODULES[mod]
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["busy_s"] += (end - start) / 1e9
            t["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out

    def dump(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))
