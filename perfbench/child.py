"""One workload's measurement, run in a fresh process by run.py.

Closed loop, one client: operations run one at a time in this single
process, with no threads, until the run's seconds are used.  Every
operation's output is checked; a failed check or an exception counts as a
failed operation and the loop goes on.

Untraced (`--trace 0`) it prints the per-operation wall and CPU times and
this process's peak RSS.  Traced (`--trace 1`) it alternates an untraced and
a traced execution of the same operation and prints per-layer figures and
the tracing overhead (traced wall minus untraced wall).

The last line of stdout is one JSON record for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer

# Stop starting operations once one more could overrun the run's deadline
# in run.py; the slowest operation (infer-rl, traced) is about a minute.
HARD_BUDGET_S = 150.0


def run_command(cli, command, tracer: "Tracer | None" = None) -> dict:
    """Time one cli.run call with stdout captured; check its output."""
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    exit_code = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                exit_code = cli.run(list(command.argv))
            else:
                exit_code = tracer.call("cli", cli.run, list(command.argv))
    except Exception:  # the loop must go on; the failure is counted
        problems.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    text = out.getvalue()
    if exit_code is not None:
        problems += command.check(text, exit_code)
    return {
        "argv": list(command.argv),
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": exit_code,
        "out_bytes": len(text) if text.isascii() else len(text.encode()),
        "problems": problems,
    }


def run_operation(cli, commands, tracer: "Tracer | None" = None) -> dict:
    results = [run_command(cli, c, tracer) for c in commands]
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "out_bytes": sum(r["out_bytes"] for r in results),
        "ok": not any(r["problems"] for r in results),
        "commands": results,
    }


def layer_figures(tracer: Tracer, out_bytes: int) -> dict:
    """Flat `<module>.<stage>.<stat>` figures of one traced operation."""
    figures = {}
    for stage, calls in tracer.calls.items():
        figures[f"{stage}.calls"] = calls
        figures[f"{stage}.self_s"] = tracer.self_s[stage]
    figures.update(tracer.counts)
    figures["cli.out_bytes"] = out_bytes
    return figures


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            golden: dict) -> dict:
    """Run one workload for `seconds`; return the run's record."""
    from foldruns import cli

    workload = workloads.WORKLOADS[name]
    start = time.perf_counter()
    ops, traced = [], []
    index = 0
    longest = 0.0
    while True:
        op_start = time.perf_counter()
        # traced runs repeat operation 0 so that its counts must agree exactly
        commands = workload.operation(seed, 0 if trace else index, smoke, golden)
        op = run_operation(cli, commands)
        ops.append(op)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                t_op = run_operation(cli, commands, tracer)
            t_op["layers"] = layer_figures(tracer, t_op["out_bytes"])
            t_op["overhead_s"] = t_op["wall_s"] - op["wall_s"]
            traced.append(t_op)
        index += 1
        now = time.perf_counter()
        longest = max(longest, now - op_start)
        if now - start >= seconds or now - start + longest > HARD_BUDGET_S:
            break
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": __import__("numpy").__version__,
    }
    if trace:
        record["traced"] = traced
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        workloads.load_golden(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
