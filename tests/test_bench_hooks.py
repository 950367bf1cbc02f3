"""The benchmark's hooks into foldruns: the names its tracer rebinds by
string, and the outputs its golden file pins."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from foldruns import theorems
from foldruns.cli import run

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"
# read-only: command line -> the stdout SHA-256 and exit code the bench expects
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_bench_golden_commands_keep_their_bytes(command, capsys):
    # the bench fails an operation whose output drifts from golden.json;
    # this catches the drift before a bench run
    code = run(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert {"exit": code, "sha256": digest} == GOLDEN[command]
