"""Command-line front end: generation, run tables, inference, verification.

Every subcommand writes deterministic output.  `infer` writes the automaton
text format; the others print TSV by default and one JSON object per line
with --format json-lines.  Exit codes:
0 success / all checks pass, 1 a check failed (witness printed), 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .foldcore import (
    MAX_MATERIALIZED_CODE_LEN,
    PLUS,
    FoldCode,
    InvalidCodeError,
    _int64_terms,
    paperfolding_word,
)
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
# row buffer built at once, whatever the table's length.
_BLOCK_ROWS = 2**14

# the digit cells' dtype: little-endian, so a cell shifted right by 8 bits
# per byte keeps its rightmost bytes on any host
_CELL = np.dtype("<u4")


def _digit_groups() -> np.ndarray:
    """The ASCII digits of every group 0..9999, four bytes in one cell each.

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
    return np.stack([inner, leading, inner * shown]).view(_CELL).ravel()


_GROUPS = _digit_groups()
_GROUP = np.uint64(10**4)


def _write_digits(view, end: int, q: np.ndarray, digits: int, least: int) -> None:
    """Write each q in `digits` decimal digits, right-aligned to byte `end`.

    view(dtype, at) is the block's rows at byte `at` of the row buffer, read
    as dtype.  Each base-10**4 group is one cell looked up in _GROUPS;
    `least` is the digit count of the smallest q, and the bytes a shorter q
    does not reach read NUL.
    """
    # a group reads the first table below a value's top, the second where
    # the value leads, and the third where it leads in the lowest group;
    # every index is in range, so take's "clip" mode only skips the check
    offset, groups = 2 * _GROUP, -(-digits // 4)
    for j in range(groups - 1):
        higher = q // _GROUP
        index = q - higher * _GROUP
        if least <= 4 * j + 4:
            index += (higher == 0) * offset
        view(_CELL, end - 4 * j - 4)[...] = _GROUPS.take(index, mode="clip")
        q, offset = higher, _GROUP
    # the top group is its cell's rightmost `top` bytes, stored as 4, or as
    # 2 and then 1, so nothing spills into the bytes before the field
    top = digits - 4 * (groups - 1)
    cell = _GROUPS.take(q + offset, mode="clip") >> np.uint32(32 - 8 * top)
    at = end - digits
    if top == 4:
        view(_CELL, at)[...] = cell
    if top & 2:
        view("<u2", at)[...] = cell
        cell >>= np.uint32(16)
        at += 2
    if top & 1:
        view(np.uint8, at)[...] = cell


def _emit_rows(fmt: str, header: list[str], columns) -> None:
    """Print a table given as equal-length integer columns (arrays, lists or ranges).

    Each block of _BLOCK_ROWS rows is written into one uint8 row buffer,
    reused across the table, with every field as wide as its block needs:
    the text before it (a tab, or the JSON key with sorted keys, as
    _json_line writes it), a sign byte only if the block holds a negative
    value, and as many digits as the block's largest |value|; the row ends
    with the newline (and '}').  Digits are stored through strided views of
    the buffer, one 4-byte cell per base-10**4 group and the top group as
    exactly its own bytes; the texts are rewritten only when the layout
    changes.  A block whose fields each have one width and one sign is
    decoded as it stands.  In the others a shorter value, or a positive one
    under a sign byte, leaves NULs, which one translate drops.  No Python
    object is made per row.
    """
    columns = [
        _int64_terms(f"column {h!r}", c) for h, c in zip(header, columns, strict=True)
    ]
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
    texts = [t.encode("ascii") for t in texts]
    buf, layout = np.empty(0, np.uint8), None
    for a in range(0, columns[0].size, _BLOCK_ROWS):
        fields, uniform = [], True
        for c in columns:
            values = c[a : a + _BLOCK_ROWS]
            lo, hi = int(values.min()), int(values.max())
            signed = lo < 0
            # np.abs(-2**63) is -2**63, whose bits are 2**63 as uint64
            q = (np.abs(values) if signed else values).view(np.uint64)
            # the least |value| of a block of both signs is taken to be 0
            least = len(str(-hi if hi < 0 else max(lo, 0)))
            digits = len(str(max(hi, -lo)))
            uniform &= least == digits and signed == (hi < 0)
            fields.append((values, q, signed, digits, least))
        rows = fields[0][0].size
        shape = [(signed, digits) for _, _, signed, digits, _ in fields]
        width = sum(map(len, texts)) + sum(s + d for s, d in shape)
        if buf.size < rows * width:
            buf, layout = np.empty(rows * width, np.uint8), None

        def view(dtype, at):
            return np.ndarray((rows,), dtype, buf, at, (width,))

        # the buffer keeps the last layout's texts: only the last block can
        # have fewer rows than the one that wrote them
        if shape != layout:
            at = 0
            for text, (signed, digits) in zip(texts, shape + [(0, 0)]):
                if text:
                    view(f"V{len(text)}", at)[...] = np.void(text)
                at += len(text) + signed + digits
            layout = shape
        at = 0
        for text, (values, q, signed, digits, least) in zip(texts, fields):
            at += len(text)
            if signed:
                view(np.uint8, at)[...] = (values < 0) * np.uint8(ord("-"))
            at += signed + digits
            _write_digits(view, at, q, digits, least)
        block = buf[: rows * width]
        if not uniform:
            block = block.tobytes().translate(None, b"\0")
        sys.stdout.write(str(block, "ascii"))


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


def _word_text(symbols: np.ndarray) -> str:
    """A word's ±1 terms as '+'/'-' (ASCII 43 and 45): each byte is 44 - term.

    One subtract makes the bytes and one decode the text; no lookup table.
    """
    return str(44 - symbols, "ascii")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    code = _resolve_code(args)
    symbols = paperfolding_word(code).array
    if args.limit is not None:
        if symbols.size == 0:
            raise _UsageError("--limit needs a code with at least one instruction")
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
    if code.effective_length == 0:
        raise _UsageError("runs needs a code with at least one instruction")
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


def _build_target(name: str, sample_depth: int):
    if name == "tt":
        return build_tt(sample_depth)
    oracle = {
        "sp": StartRelationOracle,
        "ep": EndRelationOracle,
        "rl": RunLengthOracle,
    }[name]()
    return infer_automaton(oracle, sample_depth)


def _check_depths(args) -> None:
    if not 4 <= args.sample_depth <= 12:
        raise _UsageError("--sample-depth must be in 4..12")
    # --test-depth has no effect; it is still accepted and checked, since
    # the benchmark's infer-rl command line passes it
    if args.test_depth is not None and not 2 <= args.test_depth <= args.sample_depth:
        raise _UsageError("--test-depth must be in 2..sample depth")


def _cmd_infer(args) -> int:
    _check_depths(args)
    with _output(args.out) as fh:
        machine = _build_target(args.target, args.sample_depth)
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


def _fraction_text(value) -> str:
    """p/q in full, past the interpreter's limit on int-to-str digits.

    The limit (Python 3.10.7 on) is lifted only for these two conversions
    and put back, so later code keeps the process-wide setting.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
    rational = _fraction_text(value)
    if args.format == "tsv":
        print(f"rational\t{rational}")
        print("computed\t" + ",".join(map(str, computed)))
        print("predicted\t" + ",".join(map(str, predicted)))
        print(f"verdict\t{verdict}")
    else:
        print(
            _json_line(
                {
                    "rational": rational,
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
            machine = _build_target(args.target, args.sample_depth)
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
    sub.add_argument("--test-depth", type=int, help="accepted; has no effect")


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
