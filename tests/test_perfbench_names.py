"""The benchmark tracer wraps library functions by name.

``perfbench/spans.py`` lists (module, attribute) pairs that
``perfbench/run.py --trace 1`` replaces with timing wrappers.  A
library change that deletes or renames one of them would make a traced
run fail with an AttributeError; this test fails first.
"""

import importlib
import runpy
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spans = runpy.run_path(str(SPANS_PY))  # compiles the source, writes nothing
    names = ([(module, attr) for module, attr, _ in spans["SPANS"]]
             + [(module, attr) for module, attr, _, _ in spans["HOT"]])
    assert names
    for module, attr in names:
        library = importlib.import_module(f"mongecfl.{module}")
        assert callable(getattr(library, attr, None)), (module, attr)
