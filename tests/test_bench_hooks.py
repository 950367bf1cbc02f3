"""The benchmark tracer rebinds foldruns names by string; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from foldruns import theorems

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # read-only: the tracer module is loaded by path, never changed
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    # look up each (module, name) the tracer patches, plus the oracle base
    # class it scans, in the imported package
    tracer = _load_tracer()
    hooks = [(mod, name) for mod, name, _ in tracer.SPANS + tracer.SUM_COUNTERS]
    hooks.append(("automata", "WordOracle"))
    missing = [
        f"foldruns.{mod}.{name}"
        for mod, name in hooks
        if not callable(getattr(importlib.import_module(f"foldruns.{mod}"), name, None))
    ]
    assert len(hooks) > 1 and missing == []


def test_spread_checks_record_the_factor_scan_layer():
    # verify-all's runs.factor_scan layer is read off these two checks' calls
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        assert theorems.complexity().passed
        assert theorems.right_special_exactly_four().passed
    assert tracer.calls["runs.factor_scan"] > 0
    assert tracer.self_s["runs.factor_scan"] > 0
