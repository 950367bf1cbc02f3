"""The benchmark tracer rebinds foldruns names by string; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # read-only: load the tracer by path and look up each (module, name) it
    # patches, plus the oracle base class it scans, in the imported package
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(mod, name) for mod, name, _ in tracer.SPANS + tracer.SUM_COUNTERS]
    hooks.append(("automata", "WordOracle"))
    missing = [
        f"foldruns.{mod}.{name}"
        for mod, name in hooks
        if not callable(getattr(importlib.import_module(f"foldruns.{mod}"), name, None))
    ]
    assert len(hooks) > 1 and missing == []
