"""Command-line behavior: golden outputs, formats, exit codes."""

import json

import pytest

from foldruns import CheckReport, read_automaton
from foldruns.cli import entrypoint, run

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
    failing = CheckReport(name="demo", bound="b", passed=False, witness=(3, 4))
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
    ],
)
def test_verify_usage_errors(argv):
    assert run(argv) == 2


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


def test_dot_source_validation(tmp_path):
    assert run(["dot"]) == 2
    assert run(["dot", "--target", "sp", "--in", "x"]) == 2
    assert run(["dot", "--in", str(tmp_path / "missing.aut")]) == 2
    non_ascii = tmp_path / "non-ascii.aut"
    non_ascii.write_bytes(b"tracks 1\ntrack 0 0 1\nmode accept\nstate 0 \xe9\n")
    assert run(["dot", "--in", str(non_ascii)]) == 2


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
