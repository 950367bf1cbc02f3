"""Named bounded checks: reports, individual checks, suites, dispatch."""

import pytest

from foldruns import (
    EXPECTED_PALINDROMES,
    EXPECTED_SQUARES,
    SUITES,
    CheckReport,
    complexity,
    no_triple_extension,
    overlapfree,
    palindromes,
    prop1,
    prop4,
    regular_suite,
    right_special_exactly_four,
    run_suite,
    runs_suite,
    sp_suite,
    squares_only,
    squares_present,
    thm3,
)
from mutants import mutated_label

SP_NAMES = [
    "sp-functional",
    "sp-accepts-origin",
    "sp-first-run",
    "sp-last-run-exists",
    "sp-nothing-beyond",
    "sp-tail-constant",
    "sp-starts-increase",
    "sp-run-boundaries",
]

REGULAR_NAMES = [
    "regular-length-ones-mod8",
    "regular-end-doubling",
    "regular-sum-part-a",
    "regular-sum-part-b",
    "regular-sum-part-c",
    "regular-gaps-cross",
    "gap-total",
    "gap-functional",
    "gap-increasing",
    "gap-range",
]


# ---------------------------------------------------------------------------
# report container


def test_report_verdict_and_str():
    ok = CheckReport(name="demo", bound="t<=3", passed=True)
    assert ok.verdict == "pass"
    assert str(ok) == "PASS demo [t<=3]"

    bad = CheckReport(name="demo", bound="t<=3", passed=False, witness=(1, 2))
    assert bad.verdict == "fail"
    assert str(bad) == "FAIL demo [t<=3] witness=(1, 2)"

    noted = CheckReport(name="demo", bound="t<=3", passed=True, note="skipped one")
    assert str(noted) == "PASS demo [t<=3] note=skipped one"


def test_report_witness_discipline():
    with pytest.raises(ValueError):
        CheckReport(name="x", bound="b", passed=True, witness=(1,))
    with pytest.raises(ValueError):
        CheckReport(name="x", bound="b", passed=False)


def test_report_is_immutable():
    r = CheckReport(name="x", bound="b", passed=True)
    with pytest.raises(AttributeError):
        r.passed = False


# ---------------------------------------------------------------------------
# run-structure checks at reduced bounds


@pytest.mark.parametrize(
    "check", [prop1, prop4, thm3, overlapfree, squares_only, no_triple_extension]
)
def test_family_checks_pass(check):
    report = check(6)
    assert report.passed
    assert report.witness is None
    assert "6" in report.bound


def test_squares_present_passes_at_seven():
    report = squares_present(L=7, flag_up_to=8)
    assert report.passed


def test_squares_present_fails_when_word_too_short():
    # two runs cannot contain a length-six square
    report = squares_present(L=2)
    assert not report.passed
    code_text, square = report.witness
    assert len(code_text) == 2
    assert square in EXPECTED_SQUARES


def test_palindrome_inventory_is_the_expected_eight():
    assert len(EXPECTED_PALINDROMES) == 8
    report = palindromes()
    assert report.passed


def test_complexity_narrow_range():
    report = complexity(n_range=(6, 10), L=12, sample=4)
    assert report.passed


def test_complexity_rejects_short_codes():
    with pytest.raises(ValueError):
        complexity(n_range=(6, 30), L=8)


def test_right_special_narrow_range():
    report = right_special_exactly_four(n_range=(6, 10), L=12, sample=4)
    assert report.passed


def test_right_special_is_five_at_five():
    # the exactly-four claim genuinely breaks at factor length 5
    report = right_special_exactly_four(n_range=(5, 5), L=14, sample=2)
    assert not report.passed
    code_text, n, got, want = report.witness
    assert (n, got, want) == (5, 5, 4)


# ---------------------------------------------------------------------------
# suites


def test_sp_suite_names_and_verdicts(sp_machine):
    reports = sp_suite(L=4, machine=sp_machine)
    assert [r.name for r in reports] == SP_NAMES
    assert all(r.passed for r in reports)


def test_sp_suite_catches_every_label_mutation(sp_machine):
    for q in range(sp_machine.n_states):
        mutated = mutated_label(sp_machine, q)
        reports = sp_suite(L=5, machine=mutated)
        assert any(not r.passed for r in reports), f"state {q} escaped"


def test_runs_suite_names():
    reports = runs_suite(L=4)
    assert [r.name for r in reports] == [
        "prop1",
        "prop4",
        "thm3",
        "overlapfree",
        "squares_only",
        "squares_present",
        "palindromes",
        "no_triple_extension",
        "complexity",
        "right_special_exactly_four",
    ]
    assert all(r.passed for r in reports)


def test_regular_suite_names(tt_machine):
    reports = regular_suite(N=1000, sum_bound=100, tt_machine=tt_machine)
    assert [r.name for r in reports] == REGULAR_NAMES
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# dispatch


def test_run_suite_cf():
    reports = run_suite("cf", max_code_len=5)
    assert [r.name for r in reports] == ["cf-run-length-correspondence"]
    assert reports[0].passed


def test_run_suite_all_concatenates():
    reports = run_suite("all", max_code_len=4, max_index=16)
    assert len(reports) == 29
    assert [r.name for r in reports[:8]] == SP_NAMES
    assert all(r.passed for r in reports)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")
    assert SUITES == ("sp", "runs", "regular", "cf")
