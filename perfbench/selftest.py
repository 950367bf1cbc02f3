"""The benchmark's own tests: smoke runs, trace coverage, failure counting.

    python3 -m pytest -q -p no:cacheprovider perfbench/selftest.py

Every workload runs at a tiny size (`--smoke`); the whole file takes about
a minute.  The full-size exact counts are reference data in baseline.json,
not asserted here: a change may move them on purpose.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    for w in workloads.WORKLOADS.values():
        assert set(w.layers) <= set(PER_LAYER), w.name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    res = result(bench(name, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_layers_present_and_counts_repeat(name):
    first = result(bench(name, trace=1))
    second = result(bench(name, trace=1))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(PER_LAYER)
        for metric in workloads.WORKLOADS[name].layers:
            assert res["metrics"][metric]["value"] != 0, metric
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if PER_LAYER[k] != "s"}
        for res in (first, second)
    ]
    assert counts[0] == counts[1]


def test_corrupted_golden_counts_as_failure_without_raising():
    golden = workloads.load_golden()
    (cmd,) = workloads.WORKLOADS["cf-sweep"].operation(0, 0, True, golden)
    key = workloads.golden_key(cmd.argv)
    golden[key] = dict(golden[key], sha256="0" * 64)
    record = child.measure("cf-sweep", 0, 0.0, False, True, golden)
    assert len(record["ops"]) >= 1
    assert not any(op["ok"] for op in record["ops"])
    assert "golden" in record["ops"][0]["commands"][0]["problems"][0]


def test_big_word_checks_catch_a_wrong_word():
    (gen, runs, _, _) = workloads.WORKLOADS["big-word"].operation(5, 0, True, {})
    code = gen.argv[1].split("=", 1)[1]
    from foldruns.foldcore import paperfolding_word

    word = "".join("+" if v == 1 else "-" for v in paperfolding_word(code).array)
    assert gen.check(word + "\n", 0) == []
    flipped = ("-" if word[0] == "+" else "+") + word[1:]
    assert gen.check(flipped + "\n", 0)
    assert gen.check(word + "\n", 1)
    assert runs.check("n\tR\tS\tE\n1\t1\t1\t1\n", 0)


def test_tracer_restores_every_binding():
    from foldruns import cli, runs

    before = (cli.run_decompose, runs.run_decompose, cli.infer_automaton)
    tracer = Tracer()
    with tracer.installed():
        assert cli.run_decompose is runs.run_decompose
        assert cli.run_decompose is not before[1]
    assert (cli.run_decompose, runs.run_decompose, cli.infer_automaton) == before


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("cf-sweep", trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
