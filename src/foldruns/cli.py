"""Command-line front end: generation, run tables, inference, verification.

Every subcommand writes deterministic output: tables are TSV by default and
switch to one JSON object per line with --format json-lines.  Exit codes:
0 success / all checks pass, 1 a check failed (witness printed), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from .foldcore import PLUS, FoldCode, InvalidCodeError
from .runs import (
    find_overlaps,
    find_palindromes,
    find_squares,
    min_code_length,
    right_special_count,
    run_decompose,
    run_length_word,
    subword_complexity,
)
from .foldcore import paperfolding_word
from .automata import (
    AutomatonFormatError,
    EndRelationOracle,
    RunLengthOracle,
    StartRelationOracle,
    build_tt,
    infer_automaton,
    read_automaton,
    to_dot,
    write_automaton,
)
from .contfrac import (
    MAX_ALPHA_INDEX,
    alpha_value,
    cf_from_rational,
    cf_theorem_check,
    predicted_cf,
)
from .theorems import SUITES, run_suite

MAX_GEN_LENGTH = 24
MAX_SWEEP_LENGTH = 12


class _UsageError(Exception):
    """Post-parse validation failure; rendered like an argparse error."""


def _emit_rows(fmt: str, header: list[str], rows) -> None:
    if fmt == "tsv":
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        for row in rows:
            print(_json_line(dict(zip(header, row))))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resolve_code(args) -> FoldCode:
    if args.regular:
        if args.code is not None:
            raise _UsageError("--code and --regular are mutually exclusive")
        if args.length is None:
            raise _UsageError("--regular needs --length")
        if not 1 <= args.length <= MAX_GEN_LENGTH:
            raise _UsageError(f"--length must be in 1..{MAX_GEN_LENGTH}")
        return FoldCode((PLUS,) * args.length)
    if args.code is None:
        raise _UsageError("provide --code or --regular --length")
    if args.length is not None:
        raise _UsageError("--length only applies with --regular")
    try:
        code = FoldCode.from_text(args.code)
    except InvalidCodeError as exc:
        raise _UsageError(str(exc))
    if code.effective_length > MAX_GEN_LENGTH:
        raise _UsageError(f"codes longer than {MAX_GEN_LENGTH} are not materialized")
    return code


def _word_text(word) -> str:
    return "".join("+" if int(v) == 1 else "-" for v in word.array)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    code = _resolve_code(args)
    word = paperfolding_word(code)
    text = _word_text(word)
    if args.limit is not None:
        if not 1 <= args.limit <= len(text):
            raise _UsageError(
                f"--limit must be in 1..{len(text)} for this code"
            )
        text = text[: args.limit]
    if args.format == "tsv":
        print(text)
    else:
        print(_json_line({"code": code.to_text(), "word": text}))
    return 0


def _cmd_runs(args) -> int:
    code = _resolve_code(args)
    if args.factors is None:
        dec = run_decompose(paperfolding_word(code))
        _emit_rows(args.format, ["n", "R", "S", "E"], dec.rows())
        return 0
    w = run_length_word(code)
    if args.factors == "overlaps":
        _emit_rows(args.format, ["start", "period"], find_overlaps(w))
        return 0
    if args.factors == "squares":
        inventory = find_squares(w)
    else:
        if not 1 <= args.max_len <= 31:
            raise _UsageError("--max-len must be in 1..31")
        inventory = find_palindromes(w, args.max_len)
    if args.format == "tsv":
        for line in inventory.render():
            print(line)
    else:
        for line in inventory.render():
            print(_json_line({"factor": line}))
    return 0


def _build_target(name: str, sample_depth: int, test_depth: int):
    if name == "tt":
        return build_tt(
            limit=max(2**sample_depth, 1024),
            sample_depth=sample_depth,
            test_depth=test_depth,
        )
    oracle = {
        "sp": StartRelationOracle,
        "ep": EndRelationOracle,
        "rl": RunLengthOracle,
    }[name]()
    return infer_automaton(
        oracle, sample_depth=sample_depth, test_depth=test_depth
    )


def _check_depths(args) -> None:
    if not 4 <= args.sample_depth <= 12:
        raise _UsageError("--sample-depth must be in 4..12")
    if not 2 <= args.test_depth <= args.sample_depth:
        raise _UsageError("--test-depth must be in 2..sample depth")


def _cmd_infer(args) -> int:
    _check_depths(args)
    machine = _build_target(args.target, args.sample_depth, args.test_depth)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_automaton(machine, fh)
    else:
        write_automaton(machine, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    if not 2 <= args.max_code_len <= MAX_SWEEP_LENGTH:
        raise _UsageError(f"--max-code-len must be in 2..{MAX_SWEEP_LENGTH}")
    if not 16 <= args.max_index <= 10**6:
        raise _UsageError("--max-index must be in 16..1000000")
    reports = run_suite(args.suite, args.max_code_len, args.max_index)
    if args.format == "tsv":
        print("\t".join(["check", "verdict", "bound", "detail"]))
        for r in reports:
            detail = repr(r.witness) if r.witness is not None else r.note
            print("\t".join([r.name, r.verdict, r.bound, detail]))
    else:
        for r in reports:
            print(
                _json_line(
                    {
                        "check": r.name,
                        "verdict": r.verdict,
                        "bound": r.bound,
                        "witness": r.witness,
                        "note": r.note,
                    }
                )
            )
    return 0 if all(r.passed for r in reports) else 1


def _parse_eps(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p not in ("+", "-") for p in parts):
        raise _UsageError("--eps wants comma-separated signs, e.g. +,-,-,+")
    if len(parts) + 1 > MAX_ALPHA_INDEX:
        raise _UsageError(f"--eps supports at most {MAX_ALPHA_INDEX - 1} signs")
    return tuple(1 if p == "+" else -1 for p in parts)


def _cmd_cf(args) -> int:
    if (args.eps is None) == (args.sweep is None):
        raise _UsageError("provide exactly one of --eps or --sweep")
    if args.sweep is not None:
        if not 2 <= args.sweep <= MAX_ALPHA_INDEX:
            raise _UsageError(f"--sweep must be in 2..{MAX_ALPHA_INDEX}")
        report = cf_theorem_check(args.sweep)
        if args.format == "tsv":
            print(str(report))
        else:
            print(
                _json_line(
                    {
                        "check": report.name,
                        "verdict": report.verdict,
                        "bound": report.bound,
                        "witness": report.witness,
                    }
                )
            )
        return 0 if report.passed else 1
    eps = _parse_eps(args.eps)
    value = alpha_value(eps)
    computed = cf_from_rational(value)
    predicted = predicted_cf(eps)
    verdict = "MATCH" if computed == predicted else "MISMATCH"
    if args.format == "tsv":
        print(f"rational\t{value.numerator}/{value.denominator}")
        print("computed\t" + ",".join(map(str, computed)))
        print("predicted\t" + ",".join(map(str, predicted)))
        print(f"verdict\t{verdict}")
    else:
        print(
            _json_line(
                {
                    "rational": f"{value.numerator}/{value.denominator}",
                    "computed": list(computed),
                    "predicted": list(predicted),
                    "verdict": verdict,
                }
            )
        )
    return 0 if verdict == "MATCH" else 1


def _cmd_complexity(args) -> int:
    code = _resolve_code(args)
    t = code.effective_length
    # right_special_count(code, n) scans the window of factor length n + 1
    top = 0
    while min_code_length(top + 2) <= t:
        top += 1
    if top == 0:
        raise _UsageError(
            f"code length {t} admits no windowed factor scan; "
            f"length {min_code_length(2)} covers factor length 1"
        )
    n_to = args.n_to if args.n_to is not None else min(30, top)
    if not 1 <= args.n_from <= n_to:
        raise _UsageError("--n-from must be in 1..n-to")
    if n_to > top:
        raise _UsageError(
            f"--n-to {n_to} exceeds the window for code length {t}; "
            f"max factor length is {top}"
        )
    rows = [
        (n, subword_complexity(code, n), right_special_count(code, n))
        for n in range(args.n_from, n_to + 1)
    ]
    _emit_rows(args.format, ["n", "factors", "right_special"], rows)
    return 0


def _cmd_dot(args) -> int:
    if (args.target is None) == (args.source is None):
        raise _UsageError("provide exactly one of --target or --in")
    if args.target is not None:
        _check_depths(args)
        machine = _build_target(args.target, args.sample_depth, args.test_depth)
    else:
        try:
            machine = read_automaton(args.source)
        except (OSError, AutomatonFormatError) as exc:
            raise _UsageError(str(exc))
    text = to_dot(machine)
    if args.format == "json-lines":
        text = "".join(
            _json_line({"dot": line}) + "\n" for line in text.splitlines()
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_code_options(sub) -> None:
    sub.add_argument("--code", help="code literal over +-0, e.g. ++-+")
    sub.add_argument(
        "--regular",
        action="store_true",
        help="use the all-plus code of --length instructions",
    )
    sub.add_argument("--length", type=int, help="length for --regular")


def _add_format_option(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("tsv", "json-lines"),
        default="tsv",
        help="table style (default tsv)",
    )


def _add_depth_options(sub) -> None:
    sub.add_argument("--sample-depth", type=int, default=10)
    sub.add_argument("--test-depth", type=int, default=6)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldruns",
        description="Paperfolding words, run structure, and automaton checks.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gen = subs.add_parser("gen", help="print a paperfolding word")
    _add_code_options(gen)
    gen.add_argument("--limit", type=int, help="print only the first K symbols")
    _add_format_option(gen)
    gen.set_defaults(handler=_cmd_gen)

    runs = subs.add_parser("runs", help="run table or factor inventory")
    _add_code_options(runs)
    runs.add_argument(
        "--factors",
        choices=("overlaps", "squares", "palindromes"),
        help="list factors of the run-length word instead of the run table",
    )
    runs.add_argument(
        "--max-len", type=int, default=7, help="palindrome length cap"
    )
    _add_format_option(runs)
    runs.set_defaults(handler=_cmd_runs)

    infer = subs.add_parser("infer", help="infer and print an automaton")
    infer.add_argument(
        "--target", choices=("sp", "ep", "rl", "tt"), required=True
    )
    _add_depth_options(infer)
    infer.add_argument("--out", help="write the automaton here instead of stdout")
    _add_format_option(infer)
    infer.set_defaults(handler=_cmd_infer)

    verify = subs.add_parser("verify", help="run bounded check suites")
    verify.add_argument(
        "--suite", choices=SUITES + ("all",), default="all"
    )
    verify.add_argument("--max-code-len", type=int, default=8)
    verify.add_argument("--max-index", type=int, default=10**4)
    _add_format_option(verify)
    verify.set_defaults(handler=_cmd_verify)

    cf = subs.add_parser("cf", help="continued-fraction correspondence")
    cf.add_argument("--eps", help="sign vector, e.g. +,-,-,+")
    cf.add_argument(
        "--sweep", type=int, help="check every sign vector up to this index"
    )
    _add_format_option(cf)
    cf.set_defaults(handler=_cmd_cf)

    complexity = subs.add_parser(
        "complexity", help="factor counts of a run-length word"
    )
    _add_code_options(complexity)
    complexity.add_argument("--n-from", type=int, default=1)
    complexity.add_argument("--n-to", type=int, default=None)
    _add_format_option(complexity)
    complexity.set_defaults(handler=_cmd_complexity)

    dot = subs.add_parser("dot", help="emit an automaton as DOT")
    dot.add_argument("--target", choices=("sp", "ep", "rl", "tt"))
    dot.add_argument("--in", dest="source", help="read a serialized automaton")
    _add_depth_options(dot)
    dot.add_argument("--out", help="write DOT here instead of stdout")
    _add_format_option(dot)
    dot.set_defaults(handler=_cmd_dot)

    return parser


def run(argv=None) -> int:
    """Parse argv, run one subcommand, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(run())
