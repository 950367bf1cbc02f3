"""Command-line front end: generation, run tables, inference, verification.

Every subcommand writes deterministic output: tables are TSV by default and
switch to one JSON object per line with --format json-lines.  Exit codes:
0 success / all checks pass, 1 a check failed (witness printed), 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .foldcore import MAX_MATERIALIZED_CODE_LEN, PLUS, FoldCode, InvalidCodeError
from .runs import (
    _FactorIndex,
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
    infer_automaton,
    read_automaton,
    to_dot,
    write_automaton,
)
from .contfrac import MAX_ALPHA_INDEX, alpha_value, cf_from_rational, predicted_cf
from .theorems import MIN_CODE_LEN, SUITES, build_tt, cf_theorem_check, run_suite

MAX_SWEEP_LENGTH = 12

# Longest code whose run-length word `runs --factors squares|overlaps` scans.
# On a 2-CPU x86-64 box the all-ones code takes about 1.4 s and 69 MiB peak RSS
# at 20; each instruction past it about doubles the time and adds 40-80 MiB.
MAX_REPETITION_SCAN_LEN = 20


class _UsageError(Exception):
    """Post-parse validation failure; rendered like an argparse error."""


# Rows rendered per write by _emit_rows: bounds the digit arrays and the
# cell matrix built at once, whatever the table's length.
_BLOCK_ROWS = 2**14

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _digit_groups() -> np.ndarray:
    """The ASCII digits of every group 0..9999, four bytes in one uint32 each.

    Three tables of 10**4 entries, stacked: the group zero-padded (an inner
    group), right-aligned over NULs with 0 as all NULs (the leading group; a
    group above it is 0, so it vanishes), and right-aligned with 0 as "0"
    (the lowest group when it leads).
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    inner = digits + np.uint8(ord("0"))
    shown = np.logical_or.accumulate(digits > 0, axis=1)
    leading = inner * shown
    shown[:, -1] = True
    return np.stack([inner, leading, inner * shown]).view(np.uint32).ravel()


_GROUPS = _digit_groups()
_GROUP = np.uint64(10**4)


def _int64_column(name: str, column) -> np.ndarray:
    """An integer column (array, list or range) as int64.

    Nothing is truncated or wrapped: a value that is not an integer raises
    TypeError and an integer outside int64 raises ValueError.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind not in "iu":
            raise TypeError(f"column {name!r} holds {column.dtype}, not integers")
    else:
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in column
        ):
            raise TypeError(f"column {name!r} holds a value that is not an integer")
        # numpy would type ints past int64 as uint64, float64 or object
        column = np.array(column, dtype=object)
    if column.size and not (
        _INT64_MIN <= int(column.min()) and int(column.max()) <= _INT64_MAX
    ):
        raise ValueError(f"column {name!r} holds a value outside int64")
    return column.astype(np.int64, copy=False)


def _digit_cells(values: np.ndarray) -> list[np.ndarray]:
    """The digits of |values| as uint32 cells, most significant group first.

    Each cell is one base-10**4 group looked up in _GROUPS; there are as many
    cells as the largest value needs, and NULs pad the shorter values.
    """
    # np.abs(-2**63) is -2**63, whose bits are 2**63 as uint64
    q = np.abs(values).view(np.uint64)
    cells = []
    # a leading group reads the third table if it is the lowest, else the second
    offset = 2 * _GROUP
    while True:
        higher = q // _GROUP
        cells.append(_GROUPS.take(q - higher * _GROUP + (higher == 0) * offset))
        if not higher.any():
            return cells[::-1]
        q, offset = higher, _GROUP


def _text_cells(text: str) -> np.ndarray:
    """ASCII text as uint32 cells, NUL-padded to a multiple of four bytes."""
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), np.uint32)


def _emit_rows(fmt: str, header: list[str], columns) -> None:
    """Print a table given as equal-length integer columns (arrays, lists or ranges).

    Each block of _BLOCK_ROWS rows is laid out as one uint32 matrix: per
    field, the text before it (a tab, or the JSON key with sorted keys, as
    _json_line writes it) with the sign ('-' or NUL) in its last cell, then
    the digit cells; the row ends with the newline (and '}').  Dropping the
    NULs from the matrix's bytes leaves every field at its own width, so the
    block is written as one string and no Python object is made per row.
    """
    columns = [_int64_column(h, c) for h, c in zip(header, columns, strict=True)]
    if len({c.size for c in columns}) > 1:
        raise ValueError("table columns differ in length")
    if fmt == "tsv":
        sys.stdout.write("\t".join(header) + "\n")
        texts = [""] + ["\t"] * (len(header) - 1) + ["\n"]
    else:
        order = sorted(range(len(header)), key=header.__getitem__)
        columns = [columns[k] for k in order]
        keys = [_json_line(header[k]) + ":" for k in order]
        texts = ["{" + keys[0], *("," + key for key in keys[1:]), "}\n"]
    heads = [(_text_cells(t + "\0"), _text_cells(t + "-")[-1]) for t in texts[:-1]]
    tail = _text_cells(texts[-1])
    for a in range(0, columns[0].size, _BLOCK_ROWS):
        cells = []
        for (head, minus), c in zip(heads, columns):
            values = c[a : a + _BLOCK_ROWS]
            sign = np.where(values < 0, minus, head[-1])
            cells += [*head[:-1], sign, *_digit_cells(values)]
        matrix = np.column_stack(np.broadcast_arrays(*cells, *tail))
        sys.stdout.write(matrix.tobytes().translate(None, b"\0").decode("ascii"))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resolve_code(args) -> FoldCode:
    if args.regular:
        if args.code is not None:
            raise _UsageError("--code and --regular are mutually exclusive")
        if args.length is None:
            raise _UsageError("--regular needs --length")
        if not 1 <= args.length <= MAX_MATERIALIZED_CODE_LEN:
            raise _UsageError(f"--length must be in 1..{MAX_MATERIALIZED_CODE_LEN}")
        return FoldCode((PLUS,) * args.length)
    if args.code is None:
        raise _UsageError("provide --code or --regular --length")
    if args.length is not None:
        raise _UsageError("--length only applies with --regular")
    try:
        code = FoldCode.from_text(args.code)
    except InvalidCodeError as exc:
        raise _UsageError(str(exc))
    if code.effective_length > MAX_MATERIALIZED_CODE_LEN:
        raise _UsageError(
            f"codes longer than {MAX_MATERIALIZED_CODE_LEN} are not materialized"
        )
    return code


def _output(path):
    """The --out file, or stdout; open it before the work so a bad path fails fast."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(str(exc))


_SIGNS = np.frombuffer(b"-+", dtype=np.uint8)


def _word_text(symbols: np.ndarray) -> str:
    """+1 as '+', anything else as '-': one byte lookup, one decode."""
    return _SIGNS[(symbols == 1).view(np.uint8)].tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    code = _resolve_code(args)
    symbols = paperfolding_word(code).array
    if args.limit is not None:
        if not 1 <= args.limit <= symbols.size:
            raise _UsageError(
                f"--limit must be in 1..{symbols.size} for this code"
            )
        symbols = symbols[: args.limit]
    text = _word_text(symbols)
    if args.format == "tsv":
        print(text)
    else:
        print(_json_line({"code": code.to_text(), "word": text}))
    return 0


def _cmd_runs(args) -> int:
    code = _resolve_code(args)
    if args.factors is None:
        dec = run_decompose(paperfolding_word(code))
        n = np.arange(1, dec.count + 1)
        columns = [n, dec.lengths, dec.starts, dec.ends]
        _emit_rows(args.format, ["n", "R", "S", "E"], columns)
        return 0
    t = code.effective_length
    if args.factors != "palindromes" and t > MAX_REPETITION_SCAN_LEN:
        raise _UsageError(
            f"--factors {args.factors} scans codes of length up to "
            f"{MAX_REPETITION_SCAN_LEN}, got {t}"
        )
    w = run_length_word(code)
    if args.factors == "overlaps":
        witnesses = find_overlaps(w)
        columns = [[s for s, _ in witnesses], [p for _, p in witnesses]]
        _emit_rows(args.format, ["start", "period"], columns)
        return 0
    if args.factors == "squares":
        inventory = find_squares(w)
    else:
        if not 1 <= args.max_len <= 31:
            raise _UsageError("--max-len must be in 1..31")
        inventory = find_palindromes(w, args.max_len)
    for factor in sorted(inventory, key=lambda f: (len(f), f)):
        line = "".join(map(str, factor))
        print(line if args.format == "tsv" else _json_line({"factor": line}))
    return 0


def _build_target(name: str, sample_depth: int, test_depth: int):
    if name == "tt":
        return build_tt(sample_depth=sample_depth, test_depth=test_depth)
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
    with _output(args.out) as fh:
        machine = _build_target(args.target, args.sample_depth, args.test_depth)
        write_automaton(machine, fh)
    return 0


def _cmd_verify(args) -> int:
    least = MIN_CODE_LEN[args.suite]
    if not least <= args.max_code_len <= MAX_SWEEP_LENGTH:
        raise _UsageError(
            f"--max-code-len must be in {least}..{MAX_SWEEP_LENGTH} "
            f"for --suite {args.suite}"
        )
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
    ns = range(args.n_from, n_to + 1)
    index = _FactorIndex(code, n_to + 1)
    factors = [subword_complexity(index, n) for n in ns]
    special = [right_special_count(index, n) for n in ns]
    _emit_rows(args.format, ["n", "factors", "right_special"], [ns, factors, special])
    return 0


def _cmd_dot(args) -> int:
    if (args.target is None) == (args.source is None):
        raise _UsageError("provide exactly one of --target or --in")
    machine = None
    if args.target is not None:
        _check_depths(args)
    else:
        try:
            machine = read_automaton(args.source)
        except (OSError, AutomatonFormatError) as exc:
            raise _UsageError(str(exc))
    with _output(args.out) as fh:
        if machine is None:
            machine = _build_target(args.target, args.sample_depth, args.test_depth)
        text = to_dot(machine)
        if args.format == "json-lines":
            text = "".join(
                _json_line({"dot": line}) + "\n" for line in text.splitlines()
            )
        fh.write(text)
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


# Options whose values are written in signs, with the symbols each takes.
_SIGN_OPTIONS = {"--eps": set("+-, "), "--code": set("+-0")}


def _joined_signs(argv: list[str]) -> list[str]:
    """argv with `--eps V` and `--code V` joined as `--eps=V`, `--code=V`.

    argparse reads a separate value that starts with '-' as an option, so
    a vector or code whose first sign is '-' would otherwise need the '='
    form.  Only a V made of the option's own signs is joined, so a missing
    value (`--eps --sweep 3`) still fails as before.
    """
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else None
        signs = _SIGN_OPTIONS.get(option)
        if signs and arg[:1] == "-" and arg[:2] != "--" and set(arg) <= signs:
            out[-1] = f"{option}={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    """Parse argv, run one subcommand, return the exit code."""
    parser = _build_parser()
    argv = _joined_signs(sys.argv[1:] if argv is None else list(argv))
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


if __name__ == "__main__":
    entrypoint()
