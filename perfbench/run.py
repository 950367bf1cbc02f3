"""foldruns benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload infer-rl --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, nothing is installed.  Set-up time is the median of several fresh
`python3 -c "import foldruns.cli"` processes; the workload then runs in one
fresh child process (perfbench/child.py) with thread variables pinned to 1,
so its peak RSS and set-up belong to that workload alone.

With `--trace 0` the last stdout line carries every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric.  The line before it
is a detail record: environment, every operation's figures, quartiles and
the problems of any failed operation.  `--smoke` runs each workload at a
tiny size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 7
# Whole-run limit, kept under the 180 s every run must end within.
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> list[float]:
    """Interpreter start plus `import foldruns.cli`, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import foldruns.cli"],
            cwd=ROOT, env=env, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles (quartiles equal the value if n = 1)."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "foldruns").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_vars": THREAD_VARS,
        "pythonhashseed": "0",
        "seed": seed,
    }


def end_to_end(record: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = record["ops"]
    stats = {
        "wall_s": summary([op["wall_s"] for op in ops]),
        "cpu_s": summary([op["cpu_s"] for op in ops]),
        "setup_s": summary(setup),
    }
    values = {name: s["median"] for name, s in stats.items()}
    values["peak_rss_mib"] = record["peak_rss_mib"]
    return values, stats


def per_layer(record: dict, spec: list[dict]) -> tuple[dict, dict, list[str]]:
    """Median timings over traced operations; counts from the first, which
    every later traced operation (the same input) must repeat exactly."""
    traced = record["traced"]
    layers = [dict(op["layers"], **{"trace.overhead_s": op["overhead_s"]})
              for op in traced]
    values, stats, drift = {}, {}, []
    for metric in spec:
        name = metric["name"]
        seen = [layer.get(name, 0) for layer in layers]
        if metric["unit"] == "s":
            stats[name] = summary(seen)
            values[name] = stats[name]["median"]
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                drift.append(f"count {name} varies across traced runs: {seen}")
    return values, stats, drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="foldruns benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "foldruns" / "cli.py").is_file():
        print(f"error: no foldruns sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    env = child_env()
    try:
        setup = measure_setup(env)
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: importing foldruns.cli failed: {exc}", file=sys.stderr)
        return 1
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload overran the run's deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = record["ops"] + record.get("traced", [])
    failed_ops = [op for op in ops if not op["ok"]]
    detail = {
        "environment": dict(environment(args.seed), numpy=record["numpy"]),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_samples_s": setup,
        "op_wall_s": [op["wall_s"] for op in record["ops"]],
        "problems": [
            {"argv": c["argv"], "problems": c["problems"]}
            for op in failed_ops for c in op["commands"] if c["problems"]
        ],
    }
    if args.trace:
        values, stats, drift = per_layer(record, spec["per_layer"])
        detail["problems"] += [{"argv": None, "problems": drift}] if drift else []
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, stats = end_to_end(record, setup)
        drift = []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    detail["stats"] = stats
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed_ops and not drift,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
