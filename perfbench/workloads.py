"""The benchmark's workloads, their output checks, and why each exists.

A workload yields *operations*; an operation is a list of `foldruns.cli.run`
invocations with one output check each, and is timed as a whole.  Each
workload's notes give the one-line reason it exists, the layer it stresses
and the layers it bypasses; `layers` lists the per-layer metrics that must be
present and non-zero in a traced run of it.  Later changes cite workloads and
metrics by these names.

The three exhaustive workloads (`infer-rl`, `verify-all`, `cf-sweep`) run a
fixed command whose input is the whole bounded universe, so they ignore the
seed; their outputs are checked against golden SHA-256 digests and exit codes
recorded from the unmodified program.  `big-word` draws its codes from the
seed and checks its outputs by invariants of paperfolding words.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Expected `complexity` table of every paperfolding run-length word (the
# windowed scan makes it a property of the family, not of the code):
# distinct factors and right-special factors of length n.
_SMALL_FACTORS = (3, 7, 12, 18, 23)
_SMALL_RIGHT_SPECIAL = (3, 5, 6, 5, 5)
SQUARES = ["22", "123123", "321321"]

# A check returns the list of problems with (stdout, exit code); [] is a pass.
Check = Callable[[str, int], "list[str]"]


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    layers: tuple
    # (seed, op index, smoke, golden table) -> the commands of one operation
    operation: Callable = field(repr=False)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def golden_key(argv) -> str:
    return " ".join(argv)


def golden_check(argv, golden: dict) -> Check:
    expected = golden.get(golden_key(argv))

    def check(out: str, code: int) -> list[str]:
        if expected is None:
            return [f"no golden digest for {golden_key(argv)!r}"]
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != expected["sha256"]:
            problems.append(f"stdout sha256 {digest} != golden {expected['sha256']}")
        if code != expected["exit"]:
            problems.append(f"exit code {code} != golden {expected['exit']}")
        return problems

    return check


def _fixed(full: tuple, smoke: tuple):
    def build(seed, index, is_smoke, golden):
        argv = smoke if is_smoke else full
        return [Command(argv, golden_check(argv, golden))]

    return build


# ---------------------------------------------------------------------------
# big-word: seeded codes, invariant checks


def _code(rng: random.Random, t: int) -> str:
    # +/- only, so the effective length is exactly t
    return "".join(rng.choice("+-") for _ in range(t))


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code} != 0"]


def _terms(code: str):
    from foldruns.foldcore import paperfolding_term

    return lambda n: paperfolding_term(code, n)


def _check_gen(code: str, rng: random.Random) -> Check:
    positions = [rng.randrange(1, 2 ** len(code)) for _ in range(256)]

    def check(out: str, exit_code: int) -> list[str]:
        problems = _exit_ok(exit_code)
        text = out.rstrip("\n")
        size = 2 ** len(code) - 1
        if len(text) != size or out.count("\n") != 1:
            return problems + [f"gen printed {len(text)} symbols, expected {size}"]
        term = _terms(code)
        for n in [1, size] + positions:
            want = "+" if term(n) == 1 else "-"
            if text[n - 1] != want:
                problems.append(f"gen symbol {n} is {text[n - 1]}, expected {want}")
                break
        return problems

    return check


def _check_run_table(code: str, rng: random.Random) -> Check:
    import numpy as np

    t = len(code)
    sampled = [rng.randrange(2 ** (t - 1)) for _ in range(64)]

    def check(out: str, exit_code: int) -> list[str]:
        problems = _exit_ok(exit_code)
        header = "n\tR\tS\tE\n"
        if not out.startswith(header):
            return problems + [f"run table header {out[:len(header)]!r}"]
        # parse in numpy: a list of Python strings would dominate peak RSS
        cells = np.fromstring(out[len(header):], dtype=np.int64, sep=" ")
        if cells.size % 4:
            return problems + ["run table rows are not 4 columns"]
        n, r, s, e = cells.reshape(-1, 4).T
        runs = 2 ** (t - 1)
        if n.size != runs:
            return problems + [f"{n.size} runs, expected 2^(t-1) = {runs}"]
        if not np.array_equal(n, np.arange(1, runs + 1)):
            problems.append("run indices are not 1..2^(t-1)")
        if not np.isin(r, (1, 2, 3)).all():
            problems.append("a run length is outside {1,2,3}")
        if int(r.sum()) != 2**t - 1:
            problems.append(f"run lengths sum to {int(r.sum())}, expected 2^t - 1")
        if s[0] != 1 or not np.array_equal(e, s + r - 1):
            problems.append("E != S + R - 1 or the first run does not start at 1")
        if not np.array_equal(s[1:], e[:-1] + 1):
            problems.append("runs are not contiguous")
        term = _terms(code)
        for k in sampled:
            start, end = int(s[k]), int(e[k])
            if term(start) != term(end) or (start > 1 and term(start - 1) == term(start)):
                problems.append(f"run {k + 1} at {start}..{end} is not a maximal block")
                break
        return problems

    return check


def _check_squares(out: str, exit_code: int) -> list[str]:
    problems = _exit_ok(exit_code)
    if out.split("\n")[:-1] != SQUARES:
        problems.append(f"squares {out.split()} != {SQUARES}")
    return problems


def _check_complexity(rows: int) -> Check:
    expected = ["n\tfactors\tright_special"] + [
        f"{n}\t{_SMALL_FACTORS[n - 1] if n <= 5 else 4 * n + 4}"
        f"\t{_SMALL_RIGHT_SPECIAL[n - 1] if n <= 5 else 4}"
        for n in range(1, rows + 1)
    ]

    def check(out: str, exit_code: int) -> list[str]:
        problems = _exit_ok(exit_code)
        lines = out.split("\n")
        if lines != expected + [""]:
            problems.append(f"complexity table {lines[:rows + 1]} != {expected}")
        return problems

    return check


# Effective code lengths per command.  `gen` at 2^22 symbols and the run
# table at 2^19 rows are the one-large-array and CLI-rendering cases; the
# quadratic square scan and the 30-row complexity table stay at desk size.
# Smoke lengths keep t <= 10; `complexity` then needs an explicit --n-to,
# since its default range overruns the factor window below t = 12.
_BIG_LENGTHS = {"gen": 22, "runs": 20, "squares": 15, "complexity": 14}
_SMOKE_LENGTHS = {"gen": 10, "runs": 9, "squares": 8, "complexity": 10}


def _big_word(seed, index, smoke, golden):
    lengths = _SMOKE_LENGTHS if smoke else _BIG_LENGTHS
    rng = random.Random(f"big-word:{seed}:{index}")
    codes = {name: _code(rng, t) for name, t in lengths.items()}
    complexity = ["complexity", f"--code={codes['complexity']}"]
    if smoke:
        complexity += ["--n-to", "8"]
    rows = 8 if smoke else 30
    return [
        Command(("gen", f"--code={codes['gen']}"), _check_gen(codes["gen"], rng)),
        Command(
            ("runs", f"--code={codes['runs']}"), _check_run_table(codes["runs"], rng)
        ),
        Command(
            ("runs", f"--code={codes['squares']}", "--factors", "squares"),
            _check_squares,
        ),
        Command(tuple(complexity), _check_complexity(rows)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="infer-rl",
            why=(
                "infer --target rl at depths 10/6: ~99% automata (1.88M oracle "
                "samples over 7 verify calls), no contfrac; fixed input, seed "
                "ignored"
            ),
            stresses="automata: oracle samples(), the per-sample walk, the "
            "label-count DP, membership queries, table closure, minimization",
            bypasses="contfrac, theorems, factor scans, regular-span lookups",
            layers=(
                "automata.samples.items",
                "automata.samples.self_s",
                "automata.verify.calls",
                "automata.verify.self_s",
                "automata.verify.counterexamples",
                "automata.verify.universe",
                "automata.label.calls",
                "automata.label.self_s",
                "automata.infer.calls",
                "automata.infer.self_s",
                "automata.minimize.self_s",
                "trace.overhead_s",
            ),
            operation=_fixed(
                ("infer", "--target", "rl"),
                ("infer", "--target", "rl", "--sample-depth", "6", "--test-depth", "4"),
            ),
        ),
        Workload(
            name="verify-all",
            why=(
                "verify --suite all at L=8, 10^4: 29 checks, no layer dominates, so"
                " a change that helps one shared path and slows another shows; seed"
                " ignored"
            ),
            stresses="theorems suites over automata (DFS value enumeration, "
            "gap values, verify, inference) and runs (factor scans, regular spans)",
            bypasses="CLI rendering (29 short lines)",
            layers=(
                "runs.factor_scan.self_s",
                "runs.regular_span.calls",
                "runs.regular_span.self_s",
                "automata.verify.calls",
                "automata.verify.self_s",
                "automata.infer.calls",
                "automata.infer.self_s",
                "automata.minimize.self_s",
                "automata.accepted_values.calls",
                "automata.accepted_values.self_s",
                "automata.gap_value.calls",
                "automata.gap_value.self_s",
                "theorems.sp_suite.self_s",
                "theorems.runs_suite.self_s",
                "theorems.regular_suite.self_s",
                "trace.overhead_s",
            ),
            operation=_fixed(
                ("verify", "--suite", "all"),
                ("verify", "--suite", "all", "--max-code-len", "4", "--max-index", "100"),
            ),
        ),
        Workload(
            name="cf-sweep",
            why=(
                "cf --sweep 12: ~90% contfrac Euclid and convergents, no automata, "
                "4,094 tiny words; fixed input, seed ignored"
            ),
            stresses="contfrac (Euclid, convergents, alpha, prediction); "
            "foldcore and runs on many small words",
            bypasses="automata, theorems, factor scans, CLI rendering",
            layers=(
                "foldcore.word.calls",
                "foldcore.word.self_s",
                "foldcore.word.symbols",
                "runs.decompose.calls",
                "runs.decompose.self_s",
                "contfrac.euclid.calls",
                "contfrac.euclid.terms",
                "contfrac.euclid.self_s",
                "contfrac.to_rational.self_s",
                "contfrac.alpha.self_s",
                "contfrac.predicted.self_s",
                "trace.overhead_s",
            ),
            operation=_fixed(("cf", "--sweep", "12"), ("cf", "--sweep", "6")),
        ),
        Workload(
            name="big-word",
            why=(
                "gen, runs table, squares and complexity on seeded codes of length "
                "14-22: large arrays in foldcore and runs, CLI rendering, word "
                "memory"
            ),
            stresses="foldcore word construction, run decomposition and factor "
            "scans on large arrays; cli rendering",
            bypasses="automata, theorems, contfrac",
            layers=(
                "foldcore.word.calls",
                "foldcore.word.self_s",
                "foldcore.word.symbols",
                "runs.decompose.calls",
                "runs.decompose.self_s",
                "runs.factor_scan.self_s",
                "cli.self_s",
                "cli.out_bytes",
                "trace.overhead_s",
            ),
            operation=_big_word,
        ),
    )
}
