"""Named bounded checks: reports, individual checks, suites, dispatch."""

import hashlib
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from foldruns import (
    EXPECTED_PALINDROMES,
    EXPECTED_SQUARES,
    SUITES,
    CheckReport,
    EndRelationOracle,
    RunLengthOracle,
    StartRelationOracle,
    complexity,
    gap_wellformedness,
    no_triple_extension,
    overlapfree,
    palindromes,
    prop1,
    prop4,
    regular_gap_value,
    regular_suite,
    right_special_exactly_four,
    run_suite,
    runs_suite,
    sp_suite,
    squares_only,
    squares_present,
    thm3,
)
from foldruns import runs, theorems
from foldruns.foldcore import FoldCode, code_matrix, paperfolding_word
from foldruns.runs import (
    _regular_gaps,
    _regular_run_data,
    run_decompose,
)
from conftest import family_runs
from repetitions import periodic_hits
from mutants import mutated_label, seeded_transition_mutants

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
    ok = CheckReport("demo", "t<=3")
    assert ok.passed and ok.verdict == "pass"
    assert str(ok) == "PASS demo [t<=3]"

    bad = CheckReport("demo", "t<=3", (1, 2))
    assert not bad.passed and bad.verdict == "fail"
    assert str(bad) == "FAIL demo [t<=3] witness=(1, 2)"

    noted = CheckReport("demo", "t<=3", note="skipped one")
    assert str(noted) == "PASS demo [t<=3] note=skipped one"


def test_report_is_immutable():
    r = CheckReport("x", "b")
    with pytest.raises(AttributeError):
        r.passed = False
    with pytest.raises(AttributeError):
        r.witness = (1,)


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


def _reference_triple(families, max_factor_len):
    """The witness no_triple_extension should give, from one tuple per window.

    First by factor length, then lexicographically smallest factor, then
    first occurrence; None when no factor has three right extensions.
    """
    for codes, lengths in families:
        rows = lengths.tolist()
        for n in range(2, min(max_factor_len, len(rows[0]) - 1) + 1):
            ext, first = defaultdict(set), {}
            for r, row in enumerate(rows):
                for j in range(len(row) - n):
                    w = tuple(row[j : j + n])
                    ext[w].add(row[j + n])
                    first.setdefault(w, (r, j))
            bad = sorted(w for w, e in ext.items() if len(e) >= 3)
            if bad:
                r, j = first[bad[0]]
                code = FoldCode(codes[r].tolist()).to_text()
                return (code, bad[0], tuple(sorted(ext[bad[0]])), j + 1)
    return None


@pytest.mark.parametrize(
    "check, args, message",
    [
        (prop1, (0,), "prop1 needs L >= 1, got 0"),
        (prop4, (0,), "prop4 needs L >= 1, got 0"),
        (overlapfree, (0,), "overlapfree needs L >= 3, got 0"),
        (thm3, (1,), "thm3 needs L >= 2, got 1"),
        (no_triple_extension, (1,), "no_triple_extension needs L >= 3, got 1"),
        (
            no_triple_extension,
            (5, 1),
            "no_triple_extension needs max_factor_len >= 2, got 1",
        ),
        # an overlap, and a length-2 factor with a follower, need three runs
        (overlapfree, (2,), "overlapfree needs L >= 3, got 2"),
        (no_triple_extension, (2,), "no_triple_extension needs L >= 3, got 2"),
        # 123123 and 321321 first occur at t = 4
        (squares_only, (3,), "squares_only needs L >= 4, got 3"),
        (squares_present, (0,), "squares_present needs L >= 1, got 0"),
        (palindromes, (0,), "palindromes needs L >= 1, got 0"),
        (palindromes, (-1,), "palindromes needs L >= 1, got -1"),
    ],
    ids=[
        "prop1",
        "prop4",
        "overlapfree",
        "thm3",
        "triple-L",
        "triple-factor",
        "overlapfree-two-runs",
        "triple-L-two-runs",
        "squares_only",
        "squares_present",
        "palindromes",
        "palindromes-negative",
    ],
)
def test_family_checks_refuse_bounds_that_check_nothing(check, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(*args)


@pytest.mark.parametrize(
    "L, moves, witness",
    [
        # the first bad code by t, then row, then its first bad n
        (
            8,
            {5: [(9, 2, 1), (3, 6, -1)], 6: [(0, 1, 1)]},
            ("+++--", 7, 12, 13),
        ),
        (8, {2: [(3, 0, 1)]}, ("--", 1, 3, 2)),
        (8, {7: [(40, 62, 1)]}, ("+-+-+++", 63, 127, 126)),
        # the last run ends the word; the theorem predicts the others
        (8, {7: [(40, 63, 1)]}, None),
        (
            12,
            {12: [(4000, 1000, -1), (4001, 3, 1)]},
            ("-----+-+++++", 1001, 2001, 2002),
        ),
    ],
    ids=["first-code", "t2", "last-predicted", "last-run", "t12"],
)
def test_thm3_witness_of_a_moved_run_end(monkeypatch, L, moves, witness):
    # moves[t] lists (code row, run index from 0, shift) for the run ends
    real = theorems._run_blocks

    def moved(codes):
        for a, ends, lengths in real(codes):
            for r, k, shift in moves.get(codes.shape[1], ()):
                if a <= r < a + len(ends):
                    ends[r - a, k] += shift
            yield a, ends, lengths

    monkeypatch.setattr(theorems, "_run_blocks", moved)
    assert thm3(L).witness == witness


def _move_run_end(monkeypatch, t, row, k, shift):
    """Move the end of run k of code row `row` of length t `shift` symbols later.

    The first `shift` symbols of run k + 1 take run k's symbol in the words
    the run blocks are built from, so the run count stays and only run k's
    end moves.  Returns the code's text and the true (length, end) of run k.
    """
    code = code_matrix(t)[row]
    dec = run_decompose(paperfolding_word(code.tolist()))
    length, end = int(dec.lengths[k - 1]), int(dec.ends[k - 1])
    assert int(dec.lengths[k]) > shift
    real = runs.word_matrix

    def moved(codes):
        words = real(codes)
        if codes.shape[1] == t:
            for r in np.flatnonzero((codes == code).all(axis=1)):
                words[r, end : end + shift] = words[r, end - 1]
        return words

    monkeypatch.setattr(runs, "word_matrix", moved)
    return FoldCode(code.tolist()).to_text(), length, end


# (t, code row, run k, shift): run k grows past 3.  With 100 cells a block
# holds 6 rows at t = 4 and 3 at t = 5, so rows 8 and 10 sit inside blocks
@pytest.mark.parametrize(
    "t, row, k, shift", [(4, 8, 6, 2), (5, 10, 13, 2), (6, 0, 5, 1), (6, 37, 17, 2)]
)
@pytest.mark.parametrize("cells", [None, 1, 7, 100])
def test_prop4_and_thm3_witness_of_a_moved_run_end(
    monkeypatch, t, row, k, shift, cells
):
    if cells is not None:
        monkeypatch.setattr(runs, "_RUN_BLOCK_CELLS", cells)
    code, length, end = _move_run_end(monkeypatch, t, row, k, shift)
    assert length + shift > 3
    assert prop1(6).passed
    assert prop4(6).witness == (code, k, length + shift)
    assert thm3(6).witness == (code, k, end + shift, end)


@pytest.fixture(scope="module")
def sp_label_mutants(sp_machine):
    labels = [mutated_label(sp_machine, q) for q in range(sp_machine.n_states)]
    return [sp_machine] + labels


def _block_reports(mutants):
    return [prop1(6), prop4(6), thm3(6)] + [sp_suite(6, m) for m in mutants]


@pytest.fixture(scope="module")
def default_block_reports(sp_label_mutants):
    return _block_reports(sp_label_mutants)


def _oracle_tables():
    return [
        (t, values.dtype, values.tolist())
        for oracle in (StartRelationOracle(), EndRelationOracle(), RunLengthOracle())
        for t in range(8)
        for _, _, values in [oracle._table(t)]
    ]


# (check, crafted rows, (witness, note)) where the witness needs a block
# after the first: with 100 cells a block holds 3 codes at t = 5 and one
# from t = 7 on.  The witnesses are those of the definitions (_first_overlap,
# _reference_triple, a scan of the rows).
_STREAMED_CASES = [
    # period 2 in row 1, and the shorter period 1 in row 14
    (
        lambda: overlapfree(5),
        {5: [(1, 3, (1, 2, 1, 2, 1)), (14, 6, (3, 3, 3))]},
        (("+---+", 7, 1, (3, 3, 3)), ""),
    ),
    # 33 extends by 1 in row 13, by 2 in row 5 (first) and by 3 in row 9
    (
        lambda: no_triple_extension(5),
        {5: [(13, 2, (3, 3, 1)), (5, 6, (3, 3, 2)), (9, 0, (3, 3, 3))]},
        (("++-+-", (3, 3), (1, 2, 3), 7), ""),
    ),
    # row 30 lacks 22 and 321321, row 90 the first square, 123123
    (
        lambda: squares_present(7, 8),
        {7: [(30, 0, (1, 2, 3) * 21 + (1,)), (90, 0, (3, 2, 1) * 21 + (3,))]},
        (("-+--+-+", (1, 2, 3, 1, 2, 3)), ""),
    ),
    # the same at a sampled length: noted in the order of the squares
    (
        lambda: squares_present(7, 8),
        {8: [(30, 0, (1, 2, 3) * 42 + (1, 2)), (90, 0, (3, 2, 1) * 42 + (3, 2))]},
        (
            None,
            "t=8: +-+--+-+ lacks 123123; t=8: +++----+ lacks 22; "
            "t=8: +++----+ lacks 321321",
        ),
    ),
    # a palindrome in the last code only
    (lambda: palindromes(5), {5: [(31, 4, (1, 1))]}, (("unexpected", (1, 1)), "")),
]


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_family_reports_do_not_depend_on_the_run_block_size(
    monkeypatch, sp_label_mutants, default_block_reports, cells
):
    tables = _oracle_tables()
    monkeypatch.setattr(runs, "_RUN_BLOCK_CELLS", cells)
    assert _block_reports(sp_label_mutants) == default_block_reports
    # every label mutant (after the machine itself) has witnesses to keep
    assert all(not all(r.passed for r in rs) for rs in default_block_reports[4:])
    assert _oracle_tables() == tables
    for check, edits, want in _STREAMED_CASES:
        family = _crafted_family(edits)
        monkeypatch.setattr(theorems, "_run_blocks", _blocks_of(family))
        report = check()
        assert (report.witness, report.note) == want


def _traced_peak(build):
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check",
    [
        lambda: overlapfree(10),
        lambda: no_triple_extension(10),
        lambda: squares_present(7, 10),
        lambda: palindromes(10),
    ],
    ids=["overlapfree", "no_triple_extension", "squares_present", "palindromes"],
)
def test_family_checks_hold_one_run_block_at_a_time(check):
    # the int32 run lengths of the whole t = 10 family take 2 MiB
    report, peak = _traced_peak(check)
    assert report.passed
    assert peak < 3 * 2**20


def test_oracle_table_is_filled_in_place():
    (_, _, values), peak = _traced_peak(lambda: RunLengthOracle()._table(10))
    assert values.shape == (2**10, 2**9 + 1)
    assert peak <= 1.5 * values.nbytes


def test_no_triple_extension_matches_reference_on_long_factors():
    families = [family_runs(t)[:2] for t in range(2, 9)]
    assert _reference_triple(families, 40) is None
    report = no_triple_extension(L=8, max_factor_len=40)
    assert report.passed and report.witness is None


# 32 equal symbols and then two more: factors of length 33 differ only in
# their last symbol, which a base-4 packing into int64 loses (4**32 wraps)
_LONG = [2] * 32


@pytest.mark.parametrize(
    "tails",
    [
        [(1, 1), (2, 2), (1, 3)],  # no factor extends three ways
        [(1, 1), (2, 2), (3, 3)],  # (2, 2) extends by 1, 2 and 3
    ],
)
def test_no_triple_extension_on_crafted_rows(monkeypatch, tails):
    codes = code_matrix(2)[: len(tails)]
    lengths = np.array([_LONG + list(tail) for tail in tails], dtype=np.int8)
    monkeypatch.setattr(theorems, "_run_blocks", lambda _: [(0, None, lengths)])
    want = _reference_triple([(codes, lengths)], 40)
    report = no_triple_extension(L=3, max_factor_len=40)
    assert report.passed == (want is None)
    assert report.witness == want


# n on both sides of each switch of the prefix-doubling level (4, 8, 16, 32)
@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 16, 17, 32, 33])
@pytest.mark.parametrize("triple", [False, True])
def test_no_triple_extension_witness_at_each_level(monkeypatch, n, triple):
    if triple:
        # 12 extends by 1, 2 and 3 and first sits at n in the second row;
        # 33 extends three ways too, earlier, but is larger
        rows = [
            [3] * (n + 3) + [2],
            [3] * (n - 1) + [1, 2, 1] + [3] * 2,
            [1, 2, 2] + [3] * (n + 1),
            [1, 2, 3] + [3] * (n + 1),
        ]
    else:
        # 1**n extends by 1 and 2, 1**(n-1) 2 by 3: a key that loses the
        # last run of a length-n window merges them into a false triple
        rows = [[3] * (n + 1), [1] * (n + 1), [1] * n + [2], [1] * (n - 1) + [2, 3]]
    codes = code_matrix(2)
    lengths = np.array(rows, dtype=np.int8)
    monkeypatch.setattr(theorems, "_run_blocks", lambda _: [(0, None, lengths)])
    want = _reference_triple([(codes, lengths)], 40)
    if triple:
        assert want == ("+-", (1, 2), (1, 2, 3), n)
    else:
        assert want is None
    assert no_triple_extension(L=3, max_factor_len=40).witness == want


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


@pytest.mark.parametrize("check", [complexity, right_special_exactly_four])
@pytest.mark.parametrize(
    "bounds, message",
    [
        # 2**8 codes of length 8: 257 distinct ones can never be picked
        ({"n_range": (1, 1), "L": 8, "sample": 257}, "sample must be in 1..256"),
        ({"n_range": (1, 1), "L": 8, "sample": 0}, "sample must be in 1..256"),
        ({"n_range": (30, 6)}, "empty factor-length range 30..6"),
    ],
    ids=["too-many-samples", "no-samples", "empty-range"],
)
def test_spread_checks_refuse_bounds_that_check_nothing(check, bounds, message):
    with pytest.raises(ValueError, match=message):
        check(**bounds)


@pytest.mark.parametrize(
    "check, n_range, message",
    [
        (
            complexity,
            (52, 52),
            "codes of length 12 are too short for factor length 52: "
            "minimum required length is 13",
        ),
        (
            right_special_exactly_four,
            (50, 51),
            "codes of length 12 are too short for right extensions of factor "
            "length 51: minimum required length is 13",
        ),
    ],
    ids=["complexity", "right-special"],
)
def test_spread_checks_refuse_codes_below_their_own_floor(check, n_range, message):
    # right extensions of length-n factors need the window of n + 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(n_range=n_range, L=12, sample=2)


def test_complexity_keeps_the_floor_of_its_own_factor_length():
    assert complexity(n_range=(50, 51), L=12, sample=2).passed


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


# SHA-256 of the report lists below, one repr per mutant joined by newlines,
# recorded from the per-code extraction that preceded the batched walk: the
# witnesses (first bad t, code row, width) must not depend on how the
# values are pulled out of the machine
SP_MUTANT_REPORTS_SHA256 = (
    "f1f4b16e3860caadaf5beef952c16482c428353157a3a37661ec98d4f4047004"
)
GAP_MUTANT_REPORTS_SHA256 = (
    "81b83714ff3045c28b80ffc4c7cf558bf500fdf58ae810f75c12134590d566db"
)


def _reports_digest(check, mutants) -> str:
    text = "\n".join(repr(check(m)) for m in mutants)
    return hashlib.sha256(text.encode()).hexdigest()


def test_sp_suite_mutant_witnesses_are_pinned(sp_machine):
    mutants = [mutated_label(sp_machine, q) for q in range(sp_machine.n_states)]
    mutants += seeded_transition_mutants(sp_machine, 64, seed=2024)
    digest = _reports_digest(lambda m: sp_suite(L=5, machine=m), mutants)
    assert digest == SP_MUTANT_REPORTS_SHA256


def test_gap_wellformedness_mutant_witnesses_are_pinned(tt_machine):
    mutants = [mutated_label(tt_machine, q) for q in range(tt_machine.n_states)]
    mutants += seeded_transition_mutants(tt_machine, 32, seed=2024)
    digest = _reports_digest(lambda m: gap_wellformedness(m, depth=10), mutants)
    assert digest == GAP_MUTANT_REPORTS_SHA256


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(theorems, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(theorems, name, counted)
    return calls


def test_sp_suite_extracts_once_per_length_width_and_block(monkeypatch, sp_machine):
    # three widths per code length t <= 8; even t = 8 (256 words of 255
    # symbols) fits in one run block
    calls = _count_calls(monkeypatch, "accepted_numeric_values")
    L = 8
    assert all(r.passed for r in sp_suite(L=L, machine=sp_machine))
    assert len(calls) == 3 * (L + 1)
    # a block of length-t codes holds at most _RUN_BLOCK_CELLS word symbols
    cells = [len(codes) * (2 ** codes.shape[1] - 1) for _, codes, _ in calls]
    assert max(cells) <= runs._RUN_BLOCK_CELLS


def test_gap_wellformedness_extracts_once(monkeypatch, tt_machine):
    calls = _count_calls(monkeypatch, "accepted_second_values")
    assert all(r.passed for r in gap_wellformedness(tt_machine, depth=10))
    assert len(calls) == 1


def test_sp_suite_witnesses_do_not_depend_on_the_block_size(monkeypatch, sp_machine):
    mutants = [mutated_label(sp_machine, q) for q in range(sp_machine.n_states)]
    want = [sp_suite(L=5, machine=m) for m in mutants]
    calls = _count_calls(monkeypatch, "accepted_numeric_values")
    monkeypatch.setattr(runs, "_RUN_BLOCK_CELLS", 7)
    assert [sp_suite(L=5, machine=m) for m in mutants] == want
    # 7 // (2**t - 1) codes per block: the empty code alone, both codes of
    # t = 1, blocks of 2 codes at t = 2 and of one code from t = 3 on
    assert len(calls) == len(mutants) * 3 * (1 + 1 + 2 + 8 + 16 + 32)


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


def _edit_runs(g, h):
    # each edit names (index, value) in the run-length g or run-end h table
    def edit(count):
        g_real, h_real = (a.copy() for a in _regular_run_data(count))
        for table, real in ((g, g_real), (h, h_real)):
            for i, v in table.items():
                real[i] = v
        return g_real, h_real

    return "_regular_run_data", edit


def _edit_gaps(i, j):
    # t(i+1) takes the value of t(j+1)
    def edit(top):
        tvals = _regular_gaps(top).copy()
        tvals[i] = tvals[j]
        return tvals

    return "_regular_gaps", edit


@pytest.mark.parametrize(
    "patch, failing",
    [
        (
            _edit_runs({9: 2, 17: 2}, {}),  # n = 10 and 18: the first one counts
            {"regular-length-ones-mod8": (10, 2), "regular-sum-part-c": (3, 10, 2)},
        ),
        (
            _edit_runs({}, {4: 11}),
            {"regular-end-doubling": (5, 11), "regular-sum-part-a": (5, 11, 3)},
        ),
        (_edit_runs({0: 3}, {}), {"regular-sum-part-a": (0, 0, 3)}),
        (
            _edit_gaps(1, 0),
            {
                "regular-sum-part-b": (1, 2, 1),
                "regular-gaps-cross": (2, 2, 5),
                "gap-range": (5, 2),
            },
        ),
        (
            _edit_gaps(0, 1),
            {
                "regular-sum-part-c": (1, 5, 3),
                "regular-gaps-cross": (1, 5, 2),
                "gap-range": (2, 5),
            },
        ),
        (
            ("regular_gap_value", lambda k: regular_gap_value(k) + (k == 5)),
            {"regular-gaps-cross": (5, 10, 11)},
        ),
    ],
    ids=["ones-mod8", "end-doubling", "part-a", "part-b", "part-c", "gaps-cross"],
)
def test_regular_suite_failing_witnesses(monkeypatch, tt_machine, patch, failing):
    monkeypatch.setattr(theorems, *patch)
    reports = regular_suite(N=1000, sum_bound=100, tt_machine=tt_machine)
    assert [r.name for r in reports] == REGULAR_NAMES
    assert {r.name: r.witness for r in reports if not r.passed} == failing


@pytest.mark.parametrize(
    "edit, failing",
    [
        (lambda n, xs: [] if n == 3 else xs, {"gap-total": 3, "gap-range": (9, 7)}),
        (
            lambda n, xs: xs + [xs[0] + 1] if n == 4 else xs,
            {"gap-functional": (4, [9, 10])},
        ),
        (
            lambda n, xs: [12] if n == 5 else xs,
            {"gap-increasing": 5, "gap-range": (12, 10)},
        ),
        (lambda n, xs: [xs[0] + 1] if n == 2 else xs, {"gap-range": (6, 5)}),
    ],
    ids=["total", "functional", "increasing", "range"],
)
def test_gap_wellformedness_failing_witnesses(monkeypatch, tt_machine, edit, failing):
    # each edit rewrites the x list of one n inside the one batched call
    real = theorems.accepted_second_values

    def edited(a, ns, depth):
        row, xs = real(a, ns, depth)
        per_n = [edit(int(n), xs[row == r].tolist()) for r, n in enumerate(ns)]
        rows = [r for r, values in enumerate(per_n) for _ in values]
        return np.array(rows, dtype=np.intp), np.array(sum(per_n, []), dtype=np.int64)

    monkeypatch.setattr(theorems, "accepted_second_values", edited)
    reports = gap_wellformedness(tt_machine, depth=6)
    assert [r.name for r in reports] == REGULAR_NAMES[6:]
    assert {r.name: r.witness for r in reports if not r.passed} == failing


def test_regular_suite_refuses_an_empty_sum_bound():
    with pytest.raises(ValueError, match="sum_bound >= 1"):
        regular_suite(N=16, sum_bound=0)


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


@pytest.mark.parametrize(
    "check, name", [(complexity, "subword_complexity"),
                    (right_special_exactly_four, "right_special_count")]
)
@pytest.mark.parametrize(
    "bad, witness_code, witness_n",
    [
        # (code number in the spread, n): the first bad code wins, then its first n
        ({(3, 11), (3, 20), (5, 7)}, 3, 11),
        ({(0, 30), (1, 6)}, 0, 30),
        ({(15, 6)}, 15, 6),
    ],
    ids=["later-code", "first-code-last-n", "last-code"],
)
def test_spread_check_witness_is_the_first_bad_code_then_n(
    monkeypatch, check, name, bad, witness_code, witness_n
):
    # the count is off by one at the chosen (code, n); a code is told apart
    # by the object the check passes for it, the same for all its n
    real, seen = getattr(theorems, name), []

    def off(f, n):
        if not any(f is s for s in seen):
            seen.append(f)
        number = next(k for k, s in enumerate(seen) if s is f)
        return real(f, n) + ((number, n) in bad)

    monkeypatch.setattr(theorems, name, off)
    report = check()
    code = theorems._spread_codes(14, 16)[witness_code].to_text()
    want = 4 * witness_n + 4 if check is complexity else 4
    assert report.witness == (code, witness_n, want + 1, want)
    assert len(seen) == witness_code + 1


@pytest.mark.parametrize("check", [complexity, right_special_exactly_four])
def test_spread_check_witness_is_the_first_bad_n_of_the_first_code(
    monkeypatch, check
):
    wrong = {9: -1, 12: 0}
    report = theorems._spread_count_check(
        check.__name__,
        theorems.subword_complexity if check is complexity
        else theorems.right_special_count,
        lambda n: wrong.get(n, 4 * n + 4 if check is complexity else 4),
        (6, 30), 14, 16, 0 if check is complexity else 1,
    )
    got = 4 * 9 + 4 if check is complexity else 4
    code = theorems._spread_codes(14, 16)[0].to_text()
    assert report.witness == (code, 9, got, -1)


def _first_overlap(families):
    """overlapfree's witness from the definition: by period, then row, then start."""
    for codes, lengths in families:
        width = lengths.shape[1]
        for p in range(1, (width - 1) // 2 + 1):
            for r, row in enumerate(lengths.tolist()):
                for j in range(width - 2 * p):
                    if row[j : j + p + 1] == row[j + p : j + 2 * p + 1]:
                        code = FoldCode(codes[r].tolist()).to_text()
                        return (code, j + 1, p, tuple(row[j : j + 2 * p + 1]))
    return None


def _blocks_of(family):
    """_run_blocks that yields the rows of family(t) in _run_blocks' blocks."""
    real = runs._run_blocks

    def blocks(codes):
        _, lengths, ends = family(codes.shape[1])
        for a, block, _ in real(codes):
            rows = slice(a, a + len(block))
            yield a, ends[rows].astype(np.int32), lengths[rows].astype(np.int32)

    return blocks


def _crafted_family(edits):
    """family_runs with the run lengths of chosen rows overwritten."""

    def family(t):
        codes, lengths, ends = family_runs(t)
        for r, j, runs in edits.get(t, ()):
            lengths[r, j : j + len(runs)] = runs
        return codes, lengths, ends

    return family


@pytest.mark.parametrize(
    "edits",
    [
        {},
        # period 2 in row 5 and period 1 in row 9: the shorter period wins
        {5: [(5, 3, (1, 2, 1, 2, 1))], 6: [(9, 10, (3, 3, 3))]},
        # two rows with the same period: the earlier row wins
        {6: [(20, 4, (2, 1, 3, 2, 1, 3, 2)), (7, 11, (3, 1, 2, 3, 1, 2, 3))]},
        # one row, one period, two starts: the earlier start wins
        {7: [(2, 30, (1, 3, 1, 3, 1)), (2, 8, (3, 1, 3, 1, 3))]},
        # a period of 9 at the far end of the last t
        {8: [(127, 109, (1, 2, 2, 3, 1, 2, 2, 1, 3) * 2 + (1,))]},
    ],
    ids=["none", "shorter-period", "earlier-row", "earlier-start", "long-period"],
)
def test_overlapfree_witness_on_crafted_rows(monkeypatch, edits):
    family = _crafted_family(edits)
    monkeypatch.setattr(theorems, "_run_blocks", _blocks_of(family))
    want = _first_overlap([family(t)[:2] for t in range(1, 9)])
    assert (want is None) == (not edits)
    assert overlapfree(8).witness == want


def _squares_of(families):
    return {
        tuple(lengths[r, i : i + 2 * p].tolist())
        for _, lengths in families
        for r, i, p in periodic_hits(lengths, 0)
    }


@pytest.mark.parametrize(
    "edits",
    [
        {},
        {6: [(4, 0, (3, 3))]},
        {5: [(1, 2, (1, 3, 1, 3))], 7: [(60, 40, (1, 1))]},
        {8: [(0, 100, (2, 1, 2, 3, 2, 1, 2, 3))]},
    ],
    ids=["none", "period-one", "two-squares", "period-four"],
)
def test_squares_only_witness_on_crafted_rows(monkeypatch, edits):
    # crafted squares occur in no real word, so no code is named
    family = _crafted_family(edits)
    monkeypatch.setattr(theorems, "_run_blocks", _blocks_of(family))
    found = _squares_of([family(t)[:2] for t in range(1, 9)])
    extra = sorted(found - EXPECTED_SQUARES)
    assert bool(extra) == bool(edits)
    want = ("unexpected", extra[0], None) if extra else None
    assert squares_only(8).witness == want


@pytest.mark.parametrize("cells", [1, 100])
def test_squares_only_unions_the_squares_of_every_block(monkeypatch, cells):
    # the crafted squares sit in different blocks of t = 5 and t = 7
    edits = {5: [(1, 2, (1, 3, 1, 3)), (14, 0, (2, 2, 2))], 7: [(60, 40, (1, 1))]}
    family = _crafted_family(edits)
    found = _squares_of([family(t)[:2] for t in range(1, 9)])
    assert {(1, 1), (1, 3, 1, 3), (2, 2, 2, 2)} <= found - EXPECTED_SQUARES
    monkeypatch.setattr(runs, "_RUN_BLOCK_CELLS", cells)
    monkeypatch.setattr(theorems, "_run_blocks", _blocks_of(family))
    assert squares_only(8).witness == ("unexpected", (1, 1), None)
    # with every crafted square expected, a block left out would go missing
    monkeypatch.setattr(theorems, "EXPECTED_SQUARES", found)
    assert squares_only(8).passed


def _square_free(size):
    """A square-free word over 1..3: the runs of 1s between the 0s of Thue-Morse."""
    thue = [bin(k).count("1") % 2 for k in range(4 * size + 8)]
    zeros = [k for k, v in enumerate(thue) if v == 0]
    return [b - a for a, b in zip(zeros, zeros[1:])][:size]


def test_squares_only_reports_a_missing_square(monkeypatch):
    def family(t):
        codes, lengths, ends = family_runs(t)
        row = np.array(_square_free(lengths.shape[1]), dtype=np.int8)
        return codes, np.resize(row, lengths.shape), ends

    monkeypatch.setattr(theorems, "_run_blocks", _blocks_of(family))
    assert _squares_of([family(t)[:2] for t in range(1, 9)]) == set()
    assert squares_only(8).witness == ("missing", (1, 2, 3, 1, 2, 3))
