"""Command-line behavior: golden outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    CheckReport,
    as_code,
    find_overlaps,
    paperfolding_word,
    right_special_count,
    run_decompose,
    subword_complexity,
    read_automaton,
    valid_code_length_automaton,
    write_automaton,
)
from foldruns import cli
from foldruns.cli import _emit_rows, entrypoint, run

RUN_TABLE_1111 = [
    (1, 2, 1, 2),
    (2, 1, 3, 3),
    (3, 2, 4, 5),
    (4, 2, 6, 7),
    (5, 3, 8, 10),
    (6, 2, 11, 12),
    (7, 1, 13, 13),
    (8, 2, 14, 15),
]

CF_EXAMPLE = "0,1,4,4,2,6,4,2,4,4,6,4,2,4,6,2,4,5"


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# gen


def test_gen_code_word(capsys):
    assert run(["gen", "--code", "++++"]) == 0
    assert lines_of(capsys) == ["++-++--+++--+--"]


def test_gen_regular_prefix(capsys):
    assert run(["gen", "--regular", "--length", "5", "--limit", "16"]) == 0
    assert lines_of(capsys) == ["++-++--+++--+--+"]


def test_gen_json_lines(capsys):
    assert run(["gen", "--code", "++++", "--format", "json-lines"]) == 0
    (line,) = lines_of(capsys)
    assert json.loads(line) == {"code": "++++", "word": "++-++--+++--+--"}


def test_gen_padded_code_same_word(capsys):
    assert run(["gen", "--code", "++++00"]) == 0
    assert lines_of(capsys) == ["++-++--+++--+--"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--code", "+x+"],
        ["gen", "--regular"],
        ["gen", "--code", "++", "--regular", "--length", "2"],
        ["gen", "--code", "++", "--length", "2"],
        ["gen", "--regular", "--length", "0"],
        ["gen", "--regular", "--length", "25"],
        ["gen", "--code", "++++", "--limit", "16"],
        ["gen", "--code", "++++", "--limit", "0"],
        ["gen"],
    ],
)
def test_gen_usage_errors(argv, capsys):
    assert run(argv) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runs


def test_runs_table(capsys):
    assert run(["runs", "--code", "++++"]) == 0
    out = lines_of(capsys)
    assert out[0] == "n\tR\tS\tE"
    got = [tuple(int(v) for v in line.split("\t")) for line in out[1:]]
    assert got == RUN_TABLE_1111


def test_runs_table_json(capsys):
    assert run(["runs", "--code", "++++", "--format", "json-lines"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert rows[0] == {"n": 1, "R": 2, "S": 1, "E": 2}
    assert len(rows) == 8


def test_runs_factor_listings(capsys):
    assert run(["runs", "--code", "++++", "--factors", "squares"]) == 0
    squares = lines_of(capsys)
    assert squares == ["22"]

    assert run(["runs", "--code", "++++", "--factors", "palindromes"]) == 0
    pals = lines_of(capsys)
    assert "212" in pals and "232" in pals

    assert run(["runs", "--regular", "--length", "6", "--factors", "overlaps"]) == 0
    out = lines_of(capsys)
    assert out[0] == "start\tperiod"
    assert len(out) == 1  # overlap-free: no data rows


def test_runs_palindromes_json(capsys):
    assert run(
        ["runs", "--code", "++++", "--factors", "palindromes",
         "--max-len", "3", "--format", "json-lines"]
    ) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert {"factor": "22"} in rows


def test_runs_max_len_range(capsys):
    assert run(["runs", "--code", "++++", "--factors", "palindromes",
                "--max-len", "0"]) == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_cf_suite_passes(capsys):
    assert run(["verify", "--suite", "cf", "--max-code-len", "4"]) == 0
    out = lines_of(capsys)
    assert out[0] == "check\tverdict\tbound\tdetail"
    name, verdict, _, _ = out[1].split("\t")
    assert (name, verdict) == ("cf-run-length-correspondence", "pass")


def test_verify_json_lines(capsys):
    assert run(
        ["verify", "--suite", "cf", "--max-code-len", "4",
         "--format", "json-lines"]
    ) == 0
    (line,) = lines_of(capsys)
    row = json.loads(line)
    assert row["verdict"] == "pass"
    assert row["witness"] is None


def test_verify_failing_report_exits_one(capsys, monkeypatch):
    failing = CheckReport("demo", "b", (3, 4))
    monkeypatch.setattr("foldruns.cli.run_suite", lambda *a: [failing])
    assert run(["verify", "--suite", "sp"]) == 1
    out = lines_of(capsys)
    assert out[1].split("\t") == ["demo", "fail", "b", "(3, 4)"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-code-len", "1"],
        ["verify", "--max-code-len", "13"],
        ["verify", "--max-index", "8"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "runs", "--max-code-len", "2"],
        ["verify", "--max-code-len", "2"],
    ],
)
def test_verify_usage_errors(argv):
    assert run(argv) == 2


@pytest.mark.parametrize("suite", ["runs", "all"])
def test_verify_names_the_runs_floor(capsys, suite):
    assert run(["verify", "--suite", suite, "--max-code-len", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --max-code-len must be in 3..12 for --suite {suite}\n"


@pytest.mark.parametrize("suite, bound", [("sp", "codes t<=2"), ("cf", "n<=2")])
def test_verify_keeps_floor_two_for_sp_and_cf(capsys, suite, bound):
    assert run(["verify", "--suite", suite, "--max-code-len", "2"]) == 0
    rows = lines_of(capsys)[1:]
    assert rows and all(row.split("\t")[2] == bound for row in rows)


# ---------------------------------------------------------------------------
# cf


def test_cf_worked_example(capsys):
    assert run(["cf", "--eps", "+,-,-,+"]) == 0
    out = lines_of(capsys)
    assert out[0] == "rational\t3472818177/4294967296"
    assert out[1] == "computed\t" + CF_EXAMPLE
    assert out[2] == "predicted\t" + CF_EXAMPLE
    assert out[3] == "verdict\tMATCH"


def test_cf_json(capsys):
    assert run(["cf", "--eps", "+", "--format", "json-lines"]) == 0
    (line,) = lines_of(capsys)
    row = json.loads(line)
    assert row["verdict"] == "MATCH"
    assert row["computed"] == [0, 1, 4, 3]


def test_cf_sweep(capsys):
    assert run(["cf", "--sweep", "4"]) == 0
    (line,) = lines_of(capsys)
    assert line.startswith("PASS cf-run-length-correspondence")


@pytest.mark.parametrize(
    "argv",
    [
        ["cf"],
        ["cf", "--eps", "+", "--sweep", "3"],
        ["cf", "--eps", "+,x"],
        ["cf", "--eps", "+," * 15 + "+"],
        ["cf", "--sweep", "1"],
        ["cf", "--sweep", "17"],
    ],
)
def test_cf_usage_errors(argv):
    assert run(argv) == 2


@pytest.mark.parametrize("vector", ["-,+,+", "-", "-,-,+,-", "- ,+"])
@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_cf_eps_takes_a_vector_that_opens_with_minus(capsys, vector, fmt):
    # `--eps V` and `--eps=V` give the same bytes and exit code
    apart = run(["cf", "--eps", vector, "--format", fmt])
    out_apart = capsys.readouterr()
    joined = run(["cf", f"--eps={vector}", "--format", fmt])
    out_joined = capsys.readouterr()
    assert apart == joined == 0
    assert out_apart == out_joined
    assert out_apart.out


def test_cf_eps_still_needs_a_value(capsys):
    assert run(["cf", "--eps", "--sweep", "3"]) == 2
    assert "argument --eps: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "runs", "complexity"])
@pytest.mark.parametrize("code", ["-+", "-++-+00", "-+-++-+--+-+"])
def test_code_takes_a_literal_that_opens_with_minus(capsys, command, code):
    # `--code V` and `--code=V` give the same bytes and exit code
    apart = run([command, "--code", code])
    out_apart = capsys.readouterr()
    joined = run([command, f"--code={code}"])
    out_joined = capsys.readouterr()
    assert apart == joined
    assert out_apart == out_joined
    assert out_apart.out or out_apart.err


def test_code_still_needs_a_value(capsys):
    assert run(["gen", "--code", "--regular", "--length", "3"]) == 2
    assert "argument --code: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# complexity


def test_complexity_table_crosses_five(capsys):
    assert run(
        ["complexity", "--regular", "--length", "12",
         "--n-from", "5", "--n-to", "6"]
    ) == 0
    out = lines_of(capsys)
    assert out == [
        "n\tfactors\tright_special",
        "5\t23\t5",
        "6\t28\t4",
    ]


def test_complexity_default_window(capsys):
    assert run(["complexity", "--regular", "--length", "12"]) == 0
    out = lines_of(capsys)
    assert out[0] == "n\tfactors\tright_special"
    assert len(out) > 2


def test_complexity_usage_errors(capsys):
    assert run(["complexity", "--code", "++"]) == 2
    assert run(
        ["complexity", "--regular", "--length", "12", "--n-to", "99"]
    ) == 2
    assert run(
        ["complexity", "--regular", "--length", "12",
         "--n-from", "7", "--n-to", "6"]
    ) == 2


def test_complexity_window_covers_right_extensions(capsys):
    # the right-special column needs the window of n + 1, so the last row
    # of the default range and an --n-to just past it are both bounded by it
    assert run(["complexity", "--code", "+-+-+-+-+-+"]) == 0
    out = lines_of(capsys)
    assert out[-1].split("\t")[0] == "24"
    assert run(["complexity", "--regular", "--length", "12", "--n-to", "50"]) == 0
    assert lines_of(capsys)[-1].split("\t")[0] == "50"
    assert run(["complexity", "--regular", "--length", "12", "--n-to", "51"]) == 2
    assert "max factor length is 50" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# block rendering: the same bytes as a renderer that prints one row at a time


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reference_table(fmt, header, rows):
    if fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(str(v) for v in row) for row in rows]
    else:
        lines = [_json_text(dict(zip(header, row))) for row in rows]
    return "".join(line + "\n" for line in lines)


def _reference_gen(fmt, code, limit=None):
    symbols = paperfolding_word(code).array.tolist()[:limit]
    text = "".join("+" if v == 1 else "-" for v in symbols)
    if fmt == "tsv":
        return text + "\n"
    return _json_text({"code": as_code(code).to_text(), "word": text}) + "\n"


# the square-rich word that the overlap listing is patched to read: every
# run-length word of a paperfolding code is overlap-free
OVERLAP_RICH = np.random.default_rng(3).integers(1, 3, size=60)


def _reference_output(fmt, argv):
    code = argv[2]
    if argv[0] == "gen":
        limit = int(argv[4]) if "--limit" in argv else None
        return _reference_gen(fmt, code, limit)
    if argv[0] == "complexity":
        rows = [
            (n, subword_complexity(code, n), right_special_count(code, n))
            for n in range(int(argv[4]), int(argv[6]) + 1)
        ]
        return _reference_table(fmt, ["n", "factors", "right_special"], rows)
    if "overlaps" in argv:
        return _reference_table(fmt, ["start", "period"], find_overlaps(OVERLAP_RICH))
    dec = run_decompose(paperfolding_word(code))
    columns = (dec.lengths.tolist(), dec.starts.tolist(), dec.ends.tolist())
    rows = zip(range(1, dec.count + 1), *columns)
    return _reference_table(fmt, ["n", "R", "S", "E"], rows)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("block_rows", [1, 3, 2**14])
@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--code", "+-++-"),
        ("gen", "--code", "+-++-", "--limit", "7"),
        ("gen", "--code", "-", "--limit", "1"),
        ("runs", "--code", "+-++-+"),
        ("runs", "--code", "-"),
        ("runs", "--code", "+-", "--factors", "overlaps"),
        ("complexity", "--code", "+-++-+--+-++", "--n-from", "3", "--n-to", "9"),
    ],
)
def test_block_rendering_matches_a_per_row_renderer(
    argv, block_rows, fmt, monkeypatch, capsys
):
    # block sizes 1 and 3 leave a partial last block on every table here
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "run_length_word", lambda code: OVERLAP_RICH)
    assert find_overlaps(OVERLAP_RICH)
    assert run(list(argv) + ["--format", fmt]) == 0
    assert capsys.readouterr().out == _reference_output(fmt, argv)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_emit_rows_renders_a_partial_last_block(fmt, capsys):
    # the default block size, one full block and five more rows; arrays,
    # lists and ranges are all columns, and keys are sorted in json-lines
    count = cli._BLOCK_ROWS + 5
    a = np.arange(count, dtype=np.int32) * 7 - 3
    b = [v % 3 for v in range(count)]
    c = range(10**12, 10**12 + count)
    _emit_rows(fmt, ["z", "a", "m%s"], [a, b, c])
    rows = zip(a.tolist(), b, c)
    # line lists, not one long string: a failure then reports the first bad row
    got = capsys.readouterr().out.splitlines(keepends=True)
    assert got == _reference_table(fmt, ["z", "a", "m%s"], rows).splitlines(True)


# SHA-256 of whole run tables, recorded from the %-template renderer: t = 20
# is 2^19 rows (32 blocks), t = 16 is 2^15 rows (two full blocks) with S and
# E past 9,999
BIG_TABLE_DIGESTS = {
    ("+-++-+--+-++--+-+--+", "tsv"): (
        "00ef4ffaa9165275dda362b08fcae210491d90ab7bc7e747b0aa99e34b5d9f8c"
    ),
    ("+-++-+--+-++--+-+--+", "json-lines"): (
        "7a13d88d45b09a7dcc10a2dc44e7feebbd3317f8b47c0386a981557128520219"
    ),
    ("-+--++-+-++-+--+", "tsv"): (
        "2672870eab21b6fc2954c7c0b477bc871b57e19947638af3d00bd73231683ad1"
    ),
    ("-+--++-+-++-+--+", "json-lines"): (
        "20763d1a68793015c1409d3ef55bf8ce2834efea2f84d1c3a973fa86fa6237a9"
    ),
}


@pytest.mark.parametrize("code, fmt", sorted(BIG_TABLE_DIGESTS))
def test_big_run_tables_keep_their_bytes(code, fmt, capsys):
    assert run(["runs", f"--code={code}", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == BIG_TABLE_DIGESTS[code, fmt]


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_emit_rows_with_no_rows(fmt, capsys):
    _emit_rows(fmt, ["start", "period"], [[], []])
    assert capsys.readouterr().out == _reference_table(fmt, ["start", "period"], [])


# ---------------------------------------------------------------------------
# the digit renderer against a %-template one, and its refusals


def _template_table(fmt, header, columns):
    """The table as a row-at-a-time %-template renderer prints it."""
    if fmt == "tsv":
        head = "\t".join(header) + "\n"
        line = "\t".join(["%d"] * len(header))
    else:
        head = ""
        order = sorted(range(len(header)), key=header.__getitem__)
        pairs = (_json_text(header[k]).replace("%", "%%") + ":%d" for k in order)
        line = "{" + ",".join(pairs) + "}"
        columns = [columns[k] for k in order]
    rows = zip(*(list(map(int, c)) for c in columns))
    return head + "".join(line % row + "\n" for row in rows)


INT64_EDGES = [0, 2**63 - 1, -(2**63 - 1), -(2**63)] + [
    s * (10**k + d) for k in range(19) for d in (-1, 0) for s in (1, -1)
]


def test_digit_group_tables():
    inner, leading, lowest = cli._GROUPS.reshape(3, 10**4)
    assert inner.tobytes() == b"".join(b"%04d" % i for i in range(10**4))
    assert lowest.tobytes() == b"".join(
        (b"%d" % i).rjust(4, b"\0") for i in range(10**4)
    )
    # a group above the leading one is 0 and prints nothing
    assert leading[0].tobytes() == b"\0" * 4
    assert leading[1:].tobytes() == lowest[1:].tobytes()


_headers = st.lists(
    st.text(st.sampled_from(list('aZ0 "\\%\t{}:,é€𝄞')), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)
_int64s = st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(header=_headers, rows=st.integers(0, 12), data=st.data())
def test_emit_rows_matches_a_template_renderer(header, rows, data):
    columns = []
    for _ in header:
        values = data.draw(st.lists(_int64s, min_size=rows, max_size=rows))
        as_array = data.draw(st.booleans())
        columns.append(np.array(values, dtype=np.int64) if as_array else values)
    for fmt in ("tsv", "json-lines"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit_rows(fmt, header, columns)
        assert out.getvalue() == _template_table(fmt, header, columns)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_emit_rows_at_block_boundaries(offset, width, fmt, capsys):
    # every int64 edge in every column, between seeded int64 of all widths
    rows = cli._BLOCK_ROWS + offset
    rng = np.random.default_rng(rows * 10 + width)
    header = ["b%", 'q"', "s\\", "ü", "a"][:width]
    columns = []
    for _ in header:
        values = rng.integers(-(2**63), 2**63 - 1, size=rows, endpoint=True)
        values >>= rng.integers(0, 64, size=rows)
        values[rng.choice(rows, len(INT64_EDGES), replace=False)] = INT64_EDGES
        columns.append(values)
    _emit_rows(fmt, header, columns)
    got = capsys.readouterr().out.splitlines(keepends=True)
    assert got == _template_table(fmt, header, columns).splitlines(keepends=True)


def test_emit_rows_prints_the_int64_extremes(capsys):
    _emit_rows("tsv", ["x"], [np.array([-(2**63), 2**63 - 1])])
    assert lines_of(capsys) == ["x", "-9223372036854775808", "9223372036854775807"]


@pytest.mark.parametrize(
    "column",
    [
        [1.5],
        np.array([1.0]),
        [Fraction(3, 2)],
        ["1"],
        np.array(["1"]),
        [None],
        np.array([1], dtype=object),
        [True],
        np.array([True]),
    ],
)
def test_emit_rows_refuses_non_integer_columns(column, capsys):
    with pytest.raises(TypeError, match="'bad'"):
        _emit_rows("tsv", ["ok", "bad"], [[1], column])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "column",
    [
        [2**63],
        [-(2**63) - 1],
        [-1, 2**63],
        [2**64],
        range(2**63 - 1, 2**63 + 1),
        np.array([2**63], dtype=np.uint64),
        [np.uint64(2**63)],
    ],
)
def test_emit_rows_refuses_values_outside_int64(column, capsys):
    with pytest.raises(ValueError, match="'bad'"):
        _emit_rows("json-lines", ["ok", "bad"], [[1] * len(column), column])
    assert capsys.readouterr().out == ""


def test_emit_rows_refuses_ragged_columns(capsys):
    with pytest.raises(ValueError, match="differ in length"):
        _emit_rows("tsv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(ValueError):
        _emit_rows("tsv", ["a", "b"], [[1, 2]])
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# infer / dot round trip


def test_infer_writes_readable_machine(tmp_path, capsys):
    path = tmp_path / "sp.aut"
    assert run(
        ["infer", "--target", "sp", "--sample-depth", "8",
         "--test-depth", "5", "--out", str(path)]
    ) == 0
    machine = read_automaton(str(path))
    assert machine.n_states == 17

    assert run(["dot", "--in", str(path)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("digraph")
    assert "doublecircle" in text


def test_dot_json_lines(tmp_path, capsys):
    path = tmp_path / "sp.aut"
    run(["infer", "--target", "sp", "--sample-depth", "8",
         "--test-depth", "5", "--out", str(path)])
    capsys.readouterr()
    assert run(["dot", "--in", str(path), "--format", "json-lines"]) == 0
    rows = [json.loads(line) for line in lines_of(capsys)]
    assert rows[0] == {"dot": "digraph automaton {"}


def test_infer_depth_validation():
    assert run(["infer", "--target", "sp", "--sample-depth", "3"]) == 2
    assert run(["infer", "--target", "sp", "--sample-depth", "8",
                "--test-depth", "9"]) == 2


@pytest.mark.parametrize("target", ["sp", "ep", "rl", "tt"])
def test_test_depth_does_not_change_the_machine(target, capsys):
    # the verifier returns the first mismatch by width, so the pass to
    # --test-depth finds only counterexamples the full pass finds first
    outs = []
    for depth in ("2", "5", "8"):
        argv = ["infer", "--target", target, "--sample-depth", "8"]
        assert run(argv + ["--test-depth", depth]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("tracks") and outs.count(outs[0]) == 3


def test_dot_source_validation(tmp_path):
    assert run(["dot"]) == 2
    assert run(["dot", "--target", "sp", "--in", "x"]) == 2
    assert run(["dot", "--in", str(tmp_path / "missing.aut")]) == 2
    non_ascii = tmp_path / "non-ascii.aut"
    non_ascii.write_bytes(b"tracks 1\ntrack 0 0 1\nmode accept\nstate 0 \xe9\n")
    assert run(["dot", "--in", str(non_ascii)]) == 2


def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch):
    # a bad --out path is a usage error, reported before any inference runs
    def no_work(*args):
        raise AssertionError("the work started before --out was opened")

    monkeypatch.setattr("foldruns.cli._build_target", no_work)
    machine = tmp_path / "machine.aut"
    write_automaton(valid_code_length_automaton(), str(machine))
    out = str(tmp_path / "missing" / "x.out")
    for argv in (
        ["infer", "--target", "sp", "--out", out],
        ["dot", "--target", "sp", "--out", out],
        ["dot", "--in", str(machine), "--out", out],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.out" in err


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_subcommand_exits_two():
    assert run(["nope"]) == 2
    assert run([]) == 2


def test_entrypoint_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["foldruns", "gen", "--code", "+"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert lines_of(capsys) == ["+"]


def _run_module(*argv):
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True
    )


def test_python_m_runs_the_cli():
    # without a __main__ guard `python -m foldruns.cli` ran nothing and exited 0
    done = _run_module("-m", "foldruns", "cf", "--eps", "+")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "rational\t13/16\n"
        "computed\t0,1,4,3\n"
        "predicted\t0,1,4,3\n"
        "verdict\tMATCH\n"
    )
    done = _run_module("-m", "foldruns.cli", "cf", "--sweep", "1")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--sweep must be in 2..16" in done.stderr


def test_factor_commands_do_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma (about 1 MiB) on first use
    script = (
        "import contextlib, io, sys\n"
        "from foldruns.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['runs', '--code', sys.argv[1], '--factors', 'squares']) == 0\n"
        "    assert run(['complexity', '--code', sys.argv[1]]) == 0\n"
        "    assert run(['runs', '--code', sys.argv[1], '--factors', 'palindromes']) == 0\n"
        "    assert run(['verify', '--suite', 'runs']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = _run_module("-c", script, "+-++-+--+-++--+")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("factors", ["squares", "overlaps"])
def test_repetition_scans_refuse_codes_past_the_cap(capsys, factors):
    cap = cli.MAX_REPETITION_SCAN_LEN
    argv = ["runs", "--regular", "--length", str(cap + 1), "--factors", factors]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: --factors {factors} scans codes of length up to {cap}, "
        f"got {cap + 1}\n"
    )
    assert run(["runs", "--code", "+-" * 10 + "+", "--factors", factors]) == 2
