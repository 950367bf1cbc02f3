"""End-to-end gate: one test per shipped guarantee, with time budgets.

Each test states a user-facing contract of the package: exact golden
outputs, exhaustive sweeps at fixed bounds, machine verification, and
mutation sensitivity.  Budgets are asserted with a monotonic clock so a
regression in asymptotics fails loudly, not silently.

The right-special clause of criterion 7 also pins factor length 5, where
the four-per-length claim stops holding: the all-plus length-14 code has
exactly five right-special factors there, and the test names all five.
"""

import random
import time
from fractions import Fraction

import pytest

from foldruns import (
    EndRelationOracle,
    FoldCode,
    RunLengthOracle,
    StartRelationOracle,
    alpha_value,
    build_tt,
    canonical,
    cf_from_rational,
    cf_theorem_check,
    cf_to_rational,
    complexity,
    fold_step,
    infer_automaton,
    minimize,
    overlapfree,
    palindromes,
    predicted_cf,
    prop1,
    prop4,
    regular_suite,
    right_extension_map,
    right_special_count,
    right_special_exactly_four,
    set_parity,
    squares_only,
    squares_present,
    subword_complexity,
    thm3,
    verify_exhaustive,
)
from foldruns.cli import run
from mutants import mutated_transition

REGULAR_PREFIX_16 = "++-++--+++--+--+"
WORD_1111 = "++-++--+++--+--"
RUN_ROWS_1111 = [
    "1\t2\t1\t2",
    "2\t1\t3\t3",
    "3\t2\t4\t5",
    "4\t2\t6\t7",
    "5\t3\t8\t10",
    "6\t2\t11\t12",
    "7\t1\t13\t13",
    "8\t2\t14\t15",
]
# length-5 right-special factors of the all-plus code and their extensions
RIGHT_SPECIAL_5 = {
    (3, 2, 1, 2, 3): frozenset({1, 2}),
    (2, 2, 3, 2, 1): frozenset({2, 3}),
    (1, 2, 3, 1, 2): frozenset({2, 3}),
    (1, 3, 2, 1, 2): frozenset({2, 3}),
    (2, 3, 2, 2, 1): frozenset({2, 3}),
}
WORKED_CF = (0, 1, 4, 4, 2, 6, 4, 2, 4, 4, 6, 4, 2, 4, 6, 2, 4, 5)


@pytest.mark.acceptance(1, "golden tables byte-exact via the CLI")
def test_golden_tables(capsys):
    start = time.monotonic()
    assert run(["gen", "--regular", "--length", "5", "--limit", "16"]) == 0
    assert capsys.readouterr().out == REGULAR_PREFIX_16 + "\n"

    assert run(["gen", "--code", "++++"]) == 0
    assert capsys.readouterr().out == WORD_1111 + "\n"

    assert run(["runs", "--code", "++++"]) == 0
    out = capsys.readouterr().out
    assert out == "n\tR\tS\tE\n" + "\n".join(RUN_ROWS_1111) + "\n"
    assert time.monotonic() - start < 1.0


@pytest.mark.acceptance(2, "run count and run lengths, all codes t <= 12")
def test_run_count_and_lengths():
    start = time.monotonic()
    count = prop1(12)
    lengths = prop4(12)
    assert count.passed, count
    assert lengths.passed, lengths
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(3, "predicted ends equal actual ends, all codes t <= 12")
def test_predicted_end_positions():
    start = time.monotonic()
    report = thm3(12)
    assert report.passed, report
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(4, "run-length words are overlap-free, all codes t <= 10")
def test_overlap_freeness():
    start = time.monotonic()
    report = overlapfree(10)
    assert report.passed, report
    assert time.monotonic() - start < 5.0


@pytest.mark.acceptance(5, "square inventory is exactly {22, 123123, 321321}")
def test_square_inventory():
    start = time.monotonic()
    union = squares_only(10)
    presence = squares_present(7)
    assert union.passed, union
    assert presence.passed, presence
    assert time.monotonic() - start < 5.0


@pytest.mark.acceptance(6, "palindrome inventory at t = 9 is the expected eight")
def test_palindrome_inventory():
    start = time.monotonic()
    report = palindromes(L=9, max_len=7)
    assert report.passed, report
    assert time.monotonic() - start < 5.0


@pytest.mark.acceptance(7, "factor counts 4n+4 and right-special counts")
def test_subword_complexity_and_right_special():
    start = time.monotonic()
    counts = complexity(n_range=(6, 30), L=14, sample=16)
    assert counts.passed, counts
    for text in ("+" * 14, "+-+-+-+-+-+-+-"):
        assert subword_complexity(FoldCode.from_text(text), 6) == 28
    four = right_special_exactly_four(n_range=(6, 30), L=14, sample=16)
    assert four.passed, four

    # the exactly-four claim starts at n = 6: at n = 5 there are exactly
    # five right-special factors, each with two right extensions
    code = FoldCode.from_text("+" * 14)
    special = {
        w: ext for w, ext in right_extension_map(code, 5).items() if len(ext) >= 2
    }
    assert special == RIGHT_SPECIAL_5, f"right-special factors at n=5: {special}"
    rs5 = right_special_count(code, 5)
    assert rs5 == 5, f"right-special count at n=5 is {rs5}, want exactly 5"
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance(8, "minimized relation machines: 17/13/31, verified depth 10")
def test_relation_machines_verified():
    start = time.monotonic()
    jobs = (
        (StartRelationOracle(), 17),
        (EndRelationOracle(), 13),
        (RunLengthOracle(), 31),
    )
    for oracle, want in jobs:
        machine = minimize(infer_automaton(oracle, sample_depth=8))
        dead = sorted(machine.dead_states())
        assert machine.n_states == want, (
            f"{type(oracle).__name__}: {machine.n_states} states, want {want}; "
            f"dead states {dead}"
        )
        cex = verify_exhaustive(machine, oracle, depth=10)
        assert cex is None, f"{type(oracle).__name__}: {cex}"
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance(9, "regular-code derived sequences and the gap machine")
def test_regular_sequences_and_gaps():
    start = time.monotonic()
    tt = build_tt(sample_depth=10)
    reports = regular_suite(N=10**5, tt_machine=tt)
    assert len(reports) == 10
    failed = [str(r) for r in reports if not r.passed]
    assert not failed, failed
    assert time.monotonic() - start < 30.0


@pytest.mark.acceptance(10, "continued fractions: predictions and folding identity")
def test_continued_fraction_machinery():
    start = time.monotonic()
    sweep = cf_theorem_check(12)
    assert sweep.passed, sweep

    eps = (1, -1, -1, 1)
    value = alpha_value(eps)
    assert value == Fraction(3472818177, 2**32)
    computed = cf_from_rational(value)
    assert computed == predicted_cf(eps) == WORKED_CF
    assert len(computed) == 18

    rng = random.Random(20260818)
    for _ in range(500):
        terms = [0] + [rng.randrange(1, 9) for _ in range(rng.randrange(1, 9))]
        if terms[-1] == 1:
            terms[-1] = 2
        cf = set_parity(canonical(tuple(terms)), "odd")
        sign = rng.choice((1, -1))
        folded = fold_step(cf, sign)
        before = cf_to_rational(cf)
        q = before.denominator
        assert cf_to_rational(folded) == before + Fraction(sign, q * q)
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance(11, "single corrupted transition or CF term is reported")
def test_mutation_sensitivity():
    start = time.monotonic()

    sp_oracle = StartRelationOracle()
    sp = infer_automaton(sp_oracle, sample_depth=8)
    symbols = sorted(sp.symbols)
    for q in range(sp.n_states):
        sym = symbols[q % len(symbols)]
        dst = (sp.step(q, sym) + 1) % sp.n_states
        mutant = mutated_transition(sp, q, sym, dst)
        cex = verify_exhaustive(mutant, sp_oracle, depth=6)
        assert cex is not None, f"edge {q} --{sym}--> {dst} escaped"
        # the report must be genuine: mutant and oracle really disagree
        assert mutant.accepts(cex.word) == cex.automaton_label
        assert sp_oracle.label(cex.word) == cex.oracle_label
        assert cex.automaton_label != cex.oracle_label

    rl_oracle = RunLengthOracle()
    rl = infer_automaton(rl_oracle, sample_depth=8)
    rl_symbols = sorted(rl.symbols)
    for q in range(rl.n_states):
        caught = False
        for sym in rl_symbols:
            dst = (rl.step(q, sym) + 1) % rl.n_states
            mutant = mutated_transition(rl, q, sym, dst)
            if verify_exhaustive(mutant, rl_oracle, depth=6) is not None:
                caught = True
                break
        assert caught, f"no catchable edge at state {q}"

    rng = random.Random(20260818)
    for _ in range(40):
        eps = tuple(rng.choice((1, -1)) for _ in range(rng.randrange(1, 9)))
        predicted = list(predicted_cf(eps))
        k = rng.randrange(len(predicted))
        predicted[k] += 1
        corrupted = tuple(predicted)
        assert corrupted != cf_from_rational(alpha_value(eps))
        assert cf_to_rational(corrupted) != alpha_value(eps)

    assert time.monotonic() - start < 10.0
