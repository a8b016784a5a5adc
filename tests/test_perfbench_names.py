"""The benchmark tracer wraps library functions by name.

``perfbench/spans.py`` lists (module, attribute) pairs that
``perfbench/run.py --trace 1`` replaces with timing wrappers.  A
library change that deletes or renames one of them would make a traced
run fail with an AttributeError; this test fails first.
"""

import importlib
import random
import runpy
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mongecfl import exact, fptas
from mongecfl.generate import random_lot_sizing
from mongecfl.reductions import lot_sizing_to_cfl

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spans = runpy.run_path(str(SPANS_PY))  # compiles the source, writes nothing
    names = ([(module, attr) for module, attr, _ in spans["SPANS"]]
             + [(module, attr) for module, attr, _, _ in spans["HOT"]])
    assert names
    for module, attr in names:
        library = importlib.import_module(f"mongecfl.{module}")
        assert callable(getattr(library, attr, None)), (module, attr)


def test_traced_names_count_solver_steps(monkeypatch, ref1):
    """The hot names count steps the solvers take through them: one
    ``exact.greedy_serve`` per open facility, one ``fptas.demand_met``
    per facility in every ``max_contribution_feasible`` call, and one
    ``fptas.serve_schedule`` per facility in ``run_fptas``.  A name no
    solver calls would read 0 in a traced run; it fails here first."""
    calls = Counter()

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module, attr in ((exact, "greedy_serve"), (fptas, "demand_met"),
                         (fptas, "max_contribution_feasible"),
                         (fptas, "serve_schedule")):
        count(module, attr)
    lot_sizing = lot_sizing_to_cfl(random_lot_sizing(
        random.Random(12), 12, max_cost=200, max_demand=30, max_capacity=60,
        feasible=True))
    for inst in (ref1, lot_sizing):
        calls.clear()
        solution = exact.solve_exact(inst)
        assert calls["greedy_serve"] == len(solution.open) > 0
        calls.clear()
        fptas.run_fptas(inst, Fraction(1, 2))
        assert calls["max_contribution_feasible"] > 0
        assert (calls["demand_met"]
                == inst.m * calls["max_contribution_feasible"])
        assert calls["serve_schedule"] == inst.m
