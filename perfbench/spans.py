"""In-memory spans and hot-call counters around the library's layers.

Tracing works by replacing public module attributes with wrappers, so
nothing under ``src/`` changes and an untraced run pays nothing.  A
span records (name, start, end, parent, operation id).  Calls made
thousands of times per solve only bump a count and a summed time; the
ones named as layers have that time taken out of the enclosing span's
self time, so that layer self times add up to the traced wall time.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Optional

# (module, attribute, span name): call sites resolve these names in the
# module that calls them, so a function imported into several modules
# is wrapped in each.
SPANS = [
    ("io", "load_lot_sizing", "io.load"),
    ("io", "save_solution", "io.save"),
    ("io", "save_instance", "io.save"),
    ("reductions", "lot_sizing_to_cfl", "reductions.lot_sizing_to_cfl"),
    ("model", "validate_instance", "model.validate"),
    ("model", "check_monge_full", "model.check_monge"),
    ("exact", "solve_exact", "exact.solve"),
    ("fptas", "run_fptas", "fptas.extract"),
    ("fptas", "build_value_table", "fptas.fill"),
    ("fptas", "find_budget_bound", "fptas.bound"),
    ("extensions", "find_budget_bound", "fptas.bound"),
    ("extensions", "run_two_class_fptas", "extensions.frontier"),
]

# (module, attribute, counter name, counts as a layer of its own)
HOT = [
    ("exact", "greedy_serve", "exact.greedy_serve", True),
    ("fptas", "max_contribution_feasible", "fptas.bound_feasibility", False),
    ("fptas", "demand_met", "kernel.demand_met", False),
    ("fptas", "serve_schedule", "kernel.serve_schedule", False),
    ("kernel", "serve_schedule", "kernel.serve_schedule", False),
]


# names whose self time is a layer metric ("<name>_s"), in report order
LAYERS = tuple(dict.fromkeys(
    [name for _, _, name in SPANS]
    + [name for _, _, name, layer in HOT if layer]))


class Tracer:
    """Records spans and counters while installed on the library."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, op]
        self.child_ns: List[int] = []  # per span: time inside child spans
        self.stack: List[int] = []
        self.hot: Dict[str, List[int]] = {}  # name -> [calls, ns]
        self.hot_layers = set()
        self.op: Optional[int] = None
        self._patched: List[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self.child_ns.append(0)
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        end = perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] is not None:
            self.child_ns[span[3]] += end - span[1]

    def install(self, package) -> None:
        for module, attr, name in SPANS:
            self._wrap_span(getattr(package, module), attr, name)
        for module, attr, name, layer in HOT:
            self._wrap_hot(getattr(package, module), attr, name, layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap_span(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def _wrap_hot(self, module, attr: str, name: str, layer: bool) -> None:
        original = getattr(module, attr)
        stat = self.hot.setdefault(name, [0, 0])
        if layer:
            self.hot_layers.add(name)

        def counted(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stat[0] += 1
                stat[1] += elapsed
                if layer and self.stack:
                    self.child_ns[self.stack[-1]] += elapsed

        self._patched.append((module, attr, original))
        setattr(module, attr, counted)

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name; hot layers count as their own name."""
        out: Dict[str, int] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start) - self.child_ns[idx]
        for name in self.hot_layers:
            out[name] = out.get(name, 0) + self.hot[name][1]
        return out

    def to_json(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[n, s - origin, e - origin, p, op]
                      for n, s, e, p, op in self.spans],
            "hot": {name: {"calls": c, "ns": ns}
                    for name, (c, ns) in self.hot.items()},
        }
