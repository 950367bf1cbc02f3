"""Multi-track machines: inference, verification, minimization, formats."""

import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MINUS,
    PLUS,
    AutomatonFormatError,
    Counterexample,
    EndRelationOracle,
    GapOracle,
    InferenceError,
    MultiTrackAutomaton,
    RegularEndOracle,
    RegularLengthOracle,
    RegularStartOracle,
    RunLengthOracle,
    StartRelationOracle,
    ValueSliceOracle,
    accepted_numeric_values,
    accepted_second_values,
    all_codes,
    build_semantic_automaton,
    is_valid_code,
    combine_value_acceptors,
    decode_inputs,
    encode_inputs,
    equivalent,
    gap_wellformedness,
    infer_automaton,
    lnk_accepts,
    minimize,
    paperfolding_word,
    read_automaton,
    regular_gap_value,
    regular_run_end,
    regular_run_length,
    regular_run_start,
    run_decompose,
    specialize_regular,
    to_dot,
    valid_code_length_automaton,
    verify_exhaustive,
    write_automaton,
)
import foldruns.automata as automata
from foldruns.automata import INSTRUCTION_TRACK, _universe_size
from foldruns.runs import _regular_gaps
from mutants import mutated_label, mutated_transition

codes_st = st.lists(st.sampled_from((PLUS, MINUS)), min_size=0, max_size=5).map(
    tuple
)

GAP_VALUES = [2, 5, 7, 9, 10, 12, 15, 17, 18, 21, 23, 24]  # t(1)..t(12)


# ---------------------------------------------------------------------------
# encoding and semantic oracles


@given(codes_st, st.integers(0, 63), st.integers(0, 63), st.integers(0, 3))
def test_encode_decode_round_trip(code, n, x, slack):
    width = max(len(code), n.bit_length(), x.bit_length()) + slack
    if width == 0:
        width = 1
    word = encode_inputs(code, (n, x), width)
    assert len(word) == width
    got_code, got_nums = decode_inputs(word)
    assert got_code.symbols == code
    assert got_nums == (n, x)


def test_encode_rejects_narrow_widths():
    with pytest.raises(ValueError):
        encode_inputs("+++", (0,), 2)
    with pytest.raises(ValueError):
        encode_inputs("+", (4,), 2)


def _label(oracle, code, *nums):
    width = max([len(code)] + [v.bit_length() for v in nums])
    return oracle.label(encode_inputs(code, nums, width))


def test_code_family_oracles_match_decomposition():
    sp, ep, rl = StartRelationOracle(), EndRelationOracle(), RunLengthOracle()
    for t in range(1, 7):
        for code in all_codes(t):
            dec = run_decompose(paperfolding_word(code))
            assert _label(sp, code, 0, 0)
            for n in range(1, dec.count + 1):
                assert _label(sp, code, n, dec.start(n))
                assert not _label(sp, code, n, dec.start(n) + 1)
                assert _label(ep, code, n, dec.end(n))
                assert _label(rl, code, n) == dec.length(n)
            assert not _label(sp, code, dec.count + 1, 1)


def test_oracle_edge_conventions():
    sp, ep, rl = StartRelationOracle(), EndRelationOracle(), RunLengthOracle()
    # empty code: start relation keeps the virtual origin, end does not
    assert _label(sp, "", 0, 0)
    assert not _label(ep, "", 0, 0)
    assert _label(ep, "+", 0, 0)
    # the length function is 1 at the virtual run 0 and 0 off the run range
    assert _label(rl, "+", 0) == 1
    assert _label(rl, "+", 2) == 0
    assert _label(rl, "", 1) == 0


def _valid_universe(tracks, width):
    """Every width-symbol word whose instruction track, if any, is a valid code."""
    coded = tracks[0] == INSTRUCTION_TRACK
    for word in itertools.product(itertools.product(*tracks), repeat=width):
        if not coded or is_valid_code([sym[0] for sym in word]):
            yield word


def _sample_word(track0, nums, width):
    bits = [tuple((v >> i) & 1 for v in nums) for i in range(width)]
    if track0 is None:
        return tuple(bits)
    return tuple((track0[i],) + bits[i] for i in range(width))


SELF_CHECKED_ORACLES = [
    (StartRelationOracle, 4),
    (EndRelationOracle, 4),
    (RunLengthOracle, 4),
    (lambda: ValueSliceOracle(RunLengthOracle(), 1), 4),
    (lambda: ValueSliceOracle(RunLengthOracle(), 2), 4),
    (lambda: ValueSliceOracle(RunLengthOracle(), 3), 4),
    (RegularStartOracle, 6),
    (RegularEndOracle, 6),
    (RegularLengthOracle, 6),
    (GapOracle, 6),
]


@pytest.mark.parametrize(
    "make, max_width",
    SELF_CHECKED_ORACLES,
    ids=["sp", "ep", "rl", "rl=1", "rl=2", "rl=3", "rs", "re", "rlen", "gap"],
)
def test_oracle_samples_are_the_non_default_universe(make, max_width):
    # samples(width) must list each non-default word of the valid universe
    # exactly once, with the label label() gives it
    oracle = make()
    for width in range(max_width + 1):
        got = [
            (_sample_word(track0, nums, width), lbl)
            for track0, nums, lbl in oracle.samples(width)
        ]
        assert len({w for w, _ in got}) == len(got)
        universe = list(_valid_universe(oracle.tracks, width))
        assert len(universe) == _universe_size(oracle, width)
        want = {w: oracle.label(w) for w in universe}
        assert dict(got) == {w: v for w, v in want.items() if v != oracle.default}


def test_lnk_accepts():
    assert lnk_accepts("+++", 7)
    assert not lnk_accepts("+++", 6)
    assert lnk_accepts("", 0)
    assert not lnk_accepts((1, 0, 1), 7)  # invalid code never relates


def test_valid_code_length_automaton_matches_predicate():
    machine = valid_code_length_automaton()
    for t in range(0, 5):
        for code in all_codes(t):
            for x in range(0, 2**5):
                width = max(t, x.bit_length(), 1)
                word = encode_inputs(code, (x,), width)
                assert machine.accepts(word) == lnk_accepts(code, x)


# ---------------------------------------------------------------------------
# automaton container


def _two_state():
    # accepts words with an odd number of 1 bits on the only track
    return MultiTrackAutomaton(
        ((0, 1),),
        [{(0,): 0, (1,): 1}, {(0,): 1, (1,): 0}],
        accepting=[1],
    )


def test_container_basics():
    a = _two_state()
    assert a.mode == "accept"
    assert a.n_states == 2
    assert a.initial == 0
    assert a.step(0, (1,)) == 1
    assert a.run([(1,), (0,), (1,)]) == 0
    assert a.accepts([(1,)])
    assert not a.accepts([(1,), (1,)])
    assert a.word_label([(1,)]) is True


def test_container_validation():
    with pytest.raises(ValueError):
        MultiTrackAutomaton(((0, 1),), [{(0,): 0}], accepting=[0])
    with pytest.raises(ValueError):
        MultiTrackAutomaton(
            ((0, 1),), [{(0,): 0, (1,): 2}], accepting=[0]
        )
    with pytest.raises(ValueError):
        MultiTrackAutomaton(
            ((0, 1),), [{(0,): 0, (1,): 0}], accepting=[0], outputs=[1]
        )
    with pytest.raises(ValueError):
        MultiTrackAutomaton(((0, 1),), [{(0,): 0, (1,): 0}])


def test_mutations_produce_different_machines():
    a = _two_state()
    assert mutated_label(a, 0) != a
    assert mutated_transition(a, 0, (1,), 0) != a
    assert mutated_transition(a, 0, (1,), 1) == a


def test_output_mode_container():
    a = MultiTrackAutomaton(
        ((0, 1),),
        [{(0,): 0, (1,): 1}, {(0,): 1, (1,): 0}],
        outputs=[7, 9],
    )
    assert a.mode == "output"
    assert a.output([(1,)]) == 9
    assert mutated_label(a, 1).output([(1,)]) != 9


def test_build_semantic_automaton_bit_parity():
    machine = build_semantic_automaton(
        ((0, 1),),
        0,
        lambda s, sym: s ^ sym[0],
        lambda s: s == 1,
    )
    assert machine.n_states == 2
    assert machine.accepts([(1,), (0,)])
    assert not machine.accepts([(1,), (1,)])


# ---------------------------------------------------------------------------
# inference and verification


def test_inferred_state_counts(sp_machine, ep_machine, rl_machine):
    assert sp_machine.n_states == 17
    assert ep_machine.n_states == 13
    assert rl_machine.n_states == 31
    assert sp_machine.mode == "accept"
    assert rl_machine.mode == "output"


def test_each_machine_has_one_dead_state(sp_machine, ep_machine, rl_machine):
    assert sp_machine.dead_states() == frozenset({6})
    assert ep_machine.dead_states() == frozenset({5})
    assert rl_machine.dead_states() == frozenset({3})


def test_verification_passes_at_small_depth(sp_machine, ep_machine):
    assert verify_exhaustive(sp_machine, StartRelationOracle(), depth=6) is None
    assert verify_exhaustive(ep_machine, EndRelationOracle(), depth=6) is None


def test_verification_separates_wrong_oracle(sp_machine):
    cex = verify_exhaustive(sp_machine, EndRelationOracle(), depth=6)
    assert isinstance(cex, Counterexample)
    assert cex.automaton_label != cex.oracle_label
    assert "automaton says" in str(cex)


def test_minimize_is_idempotent(sp_machine):
    m = minimize(sp_machine)
    assert m.n_states == sp_machine.n_states
    assert minimize(m) == m


def test_equivalent_finds_empty_word_separation(sp_machine, ep_machine):
    # the two relations already disagree on the all-empty input
    assert equivalent(sp_machine, ep_machine) == ()
    assert equivalent(sp_machine, sp_machine) is None


random_dfas = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n,
            max_size=n,
        ),
        st.sets(st.integers(0, n - 1)),
    )
)


@settings(max_examples=60, deadline=None)
@given(random_dfas)
def test_minimize_preserves_language(dfa):
    rows, accepting = dfa
    delta = [{(0,): a, (1,): b} for a, b in rows]
    a = MultiTrackAutomaton(((0, 1),), delta, accepting=accepting)
    m = minimize(a)
    assert m.n_states <= a.n_states
    assert equivalent(a, m) is None
    assert minimize(m) == m


@settings(max_examples=40, deadline=None)
@given(codes_st, st.integers(0, 31), st.integers(0, 31), st.integers(1, 3))
def test_acceptance_is_padding_invariant(sp_machine, code, n, x, extra):
    base = max(len(code), n.bit_length(), x.bit_length(), 1)
    w1 = encode_inputs(code, (n, x), base)
    w2 = encode_inputs(code, (n, x), base + extra)
    assert sp_machine.accepts(w1) == sp_machine.accepts(w2)


def test_infer_rejects_bad_depths():
    with pytest.raises(ValueError):
        infer_automaton(StartRelationOracle(), sample_depth=0)
    with pytest.raises(InferenceError):
        infer_automaton(StartRelationOracle(), sample_depth=6, max_rounds=1)


def test_infer_rejects_a_minimization_that_changes_behavior(monkeypatch):
    # the equivalence certificate must catch any label flip in the
    # minimized machine, whichever state it hits
    real_minimize = automata.minimize
    machine = infer_automaton(RegularStartOracle(), sample_depth=6, test_depth=4)
    for q in range(machine.n_states):
        monkeypatch.setattr(
            automata, "minimize", lambda a, q=q: mutated_label(real_minimize(a), q)
        )
        with pytest.raises(InferenceError, match="minimization changed behavior"):
            infer_automaton(RegularStartOracle(), sample_depth=6, test_depth=4)


def test_mutated_transition_is_caught(sp_machine):
    mutated = mutated_transition(
        sp_machine, 1, sp_machine.symbols[0], (1 + 3) % sp_machine.n_states
    )
    cex = verify_exhaustive(mutated, StartRelationOracle(), depth=6)
    assert cex is not None


@pytest.mark.parametrize(
    "fixture, make_oracle",
    [("sp_machine", StartRelationOracle), ("rl_machine", RunLengthOracle)],
)
def test_verifier_matches_brute_force_on_mutants(request, fixture, make_oracle):
    # verify_exhaustive must report exactly when some word of the valid
    # universe up to length 4 separates machine and oracle, and every
    # counterexample must be such a word with both true labels
    machine = request.getfixturevalue(fixture)
    oracle = make_oracle()
    truth = {
        w: oracle.label(w)
        for width in range(5)
        for w in _valid_universe(oracle.tracks, width)
    }
    rng = random.Random(20261017)
    mutants = [machine]
    for _ in range(12):
        q = rng.randrange(machine.n_states)
        sym = rng.choice(machine.symbols)
        mutants.append(
            mutated_transition(machine, q, sym, rng.randrange(machine.n_states))
        )
    mutants += [mutated_label(machine, q) for q in rng.sample(range(machine.n_states), 6)]
    outcomes = set()
    for m in mutants:
        separated = any(m.word_label(w) != v for w, v in truth.items())
        cex = verify_exhaustive(m, oracle, 4)
        assert (cex is not None) == separated
        if cex is not None:
            assert cex.word in truth
            assert cex.automaton_label == m.word_label(cex.word)
            assert cex.oracle_label == truth[cex.word]
            assert cex.automaton_label != cex.oracle_label
        outcomes.add(separated)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# specializations and combinations


def test_specialized_start_machine_matches_direct_inference(sp_machine):
    specialized = specialize_regular(sp_machine)
    direct = infer_automaton(RegularStartOracle(), sample_depth=8, test_depth=5)
    assert specialized.n_states == direct.n_states == 12
    assert equivalent(specialized, direct) is None


def test_specialized_end_machine_matches_direct_inference(ep_machine):
    specialized = specialize_regular(ep_machine)
    direct = infer_automaton(RegularEndOracle(), sample_depth=8, test_depth=5)
    assert specialized.n_states == direct.n_states == 10
    assert equivalent(specialized, direct) is None


def test_specialized_length_machine_matches_direct_inference(rl_machine):
    specialized = specialize_regular(rl_machine)
    direct = infer_automaton(RegularLengthOracle(), sample_depth=8, test_depth=5)
    assert specialized.n_states == direct.n_states == 12
    assert equivalent(specialized, direct) is None


def test_value_slices_combine_back_to_the_length_machine(rl_machine):
    slices = [
        infer_automaton(
            ValueSliceOracle(RunLengthOracle(), v), sample_depth=8, test_depth=5
        )
        for v in (1, 2, 3)
    ]
    combined = combine_value_acceptors(slices, (1, 2, 3), default=0)
    assert combined.n_states == rl_machine.n_states == 31
    assert equivalent(combined, rl_machine) is None


def test_regular_machines_match_fast_path_lookups():
    rs = infer_automaton(RegularStartOracle(), sample_depth=8, test_depth=5)
    re_ = infer_automaton(RegularEndOracle(), sample_depth=8, test_depth=5)
    for n in range(1, 65):
        assert accepted_second_values(rs, n, 8) == [regular_run_start(n)]
        assert accepted_second_values(re_, n, 8) == [regular_run_end(n)]
    rl = infer_automaton(RegularLengthOracle(), sample_depth=8, test_depth=5)
    for n in range(1, 65):
        # single bit track, least significant first
        word = tuple(((n >> i) & 1,) for i in range(8))
        assert rl.output(word) == regular_run_length(n)


# ---------------------------------------------------------------------------
# the gap machine


def test_gap_values_frozen(tt_machine):
    assert tt_machine.n_states == 8
    for n, value in enumerate(GAP_VALUES, start=1):
        assert regular_gap_value(n) == value
        assert accepted_second_values(tt_machine, n, 10) == [value]


def test_gap_oracle_agrees_with_search():
    oracle = GapOracle()
    for n in (1, 2, 3, 5, 8, 13, 5000, 2**20 + 3):
        x = regular_gap_value(n)
        width = max(n.bit_length(), x.bit_length())
        word = tuple(((n >> i) & 1, (x >> i) & 1) for i in range(width))
        assert oracle.label(word)
        wrong = tuple(((n >> i) & 1, ((x + 1) >> i) & 1) for i in range(width + 1))
        assert not oracle.label(wrong)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 100, 1023])
def test_gap_table_matches_search(top):
    want = []
    while (x := regular_gap_value(len(want) + 1)) <= top:
        want.append(x)
    assert _regular_gaps(top).tolist() == want


def test_gap_wellformedness_reports(tt_machine):
    reports = gap_wellformedness(tt_machine, depth=10)
    assert [r.name for r in reports] == [
        "gap-total",
        "gap-functional",
        "gap-increasing",
        "gap-range",
    ]
    assert all(r.passed for r in reports)


def test_gap_wellformedness_catches_mutation(tt_machine):
    # every label flip is caught: some by the four value-level checks,
    # the rest (padding-only differences) by exhaustive comparison
    check_hits = 0
    for q in range(tt_machine.n_states):
        mutated = mutated_label(tt_machine, q)
        if any(not r.passed for r in gap_wellformedness(mutated, depth=10)):
            check_hits += 1
        else:
            assert verify_exhaustive(mutated, GapOracle(), depth=8) is not None
    assert check_hits >= 2


# ---------------------------------------------------------------------------
# extraction helpers


def test_accepted_numeric_values_matches_semantics(sp_machine):
    for t in range(0, 5):
        for code in all_codes(t):
            pairs = set(accepted_numeric_values(sp_machine, code, width=t + 1))
            want = {(0, 0)}
            if t >= 1:
                dec = run_decompose(paperfolding_word(code))
                want |= {(n, dec.start(n)) for n in range(1, dec.count + 1)}
            assert pairs == want


def test_accepted_second_values_matches_brute_force(tt_machine):
    # the pruned walk must list exactly the x < 2**8 whose (n, x) word is
    # accepted, on the gap machine and on every single-label mutant of it
    width = 8
    machines = [tt_machine] + [
        mutated_label(tt_machine, q) for q in range(tt_machine.n_states)
    ]
    for m in machines:
        for n in range(1, 2**width):
            want = [
                x
                for x in range(2**width)
                if m.accepts(tuple(((n >> i) & 1, (x >> i) & 1) for i in range(width)))
            ]
            assert accepted_second_values(m, n, width) == want, (m, n)


def test_accepted_second_values_rejects_indices_outside_the_width(tt_machine):
    with pytest.raises(ValueError):
        accepted_second_values(tt_machine, 2**8, 8)
    with pytest.raises(ValueError):
        accepted_second_values(tt_machine, -1, 8)
    # the largest index that fits is accepted as input; its value does not fit
    assert regular_gap_value(2**8 - 1) >= 2**8
    assert accepted_second_values(tt_machine, 2**8 - 1, 8) == []


def test_accepted_numeric_values_validates_inputs(sp_machine, rl_machine):
    with pytest.raises(ValueError):
        accepted_numeric_values(rl_machine, "+", 3)  # output mode
    with pytest.raises(ValueError):
        accepted_numeric_values(sp_machine, "+++++", 3)  # width too small


# ---------------------------------------------------------------------------
# serialization and DOT


def test_write_read_round_trip(sp_machine, tt_machine, rl_machine):
    for machine in (sp_machine, tt_machine, rl_machine):
        buf = io.StringIO()
        write_automaton(machine, buf)
        back = read_automaton(io.StringIO(buf.getvalue()))
        assert back == machine


def test_read_reports_line_numbers():
    text = "tracks 1\ntrack 0 0 1\nmode accept\nstate 0 1\nstate 1 0\n"
    with pytest.raises(AutomatonFormatError) as exc:
        read_automaton(io.StringIO(text + "trans 0 0 0\n"))
    assert "line" in str(exc.value)


def test_read_rejects_bad_header():
    with pytest.raises(AutomatonFormatError):
        read_automaton(io.StringIO("spokes 3\n"))


def test_read_rejects_impossible_alphabets():
    # 2**40 symbols cannot all have transitions in a 43-line file
    header = "tracks 40\n" + "".join(f"track {i} 0 1\n" for i in range(40))
    with pytest.raises(AutomatonFormatError, match="symbols need more"):
        read_automaton(io.StringIO(header + "mode accept\nstate 0 1\n"))
    with pytest.raises(AutomatonFormatError, match="symbol 0 repeated in track 0"):
        read_automaton(io.StringIO("tracks 1\ntrack 0 0 0\nmode accept\n"))


def _written(machine) -> str:
    buf = io.StringIO()
    write_automaton(machine, buf)
    return buf.getvalue()


def _read_or_format_error(text: str) -> None:
    try:
        read_automaton(io.StringIO(text))
    except AutomatonFormatError:
        pass


FORMAT_TOKENS = st.sampled_from(
    ["tracks", "track", "mode", "accept", "output", "state", "trans",
     "0", "1", "-1", "2", "40", "0;0", "1;1", "-1;0", ";", "x"]
)
EDITED_LINE = st.one_of(
    st.lists(FORMAT_TOKENS | st.text(max_size=4), max_size=6).map(" ".join),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_read_raises_only_format_errors_on_any_text(text):
    _read_or_format_error(text)


# one relation-mode and one function-mode machine, each a few dozen lines
EDIT_BASES = (
    _written(valid_code_length_automaton()),
    _written(
        build_semantic_automaton(
            ((0, 1),), 0, lambda s, sym: s ^ sym[0], lambda s: s + 1, mode="output"
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EDIT_BASES), st.data())
def test_read_raises_only_format_errors_on_line_edits(text, data):
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(("replace", "delete", "duplicate")))
    if edit == "replace":
        lines[i] = data.draw(EDITED_LINE)
    elif edit == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    _read_or_format_error("\n".join(lines) + "\n")


def test_dot_output_shape(sp_machine):
    text = to_dot(sp_machine)
    assert text.startswith("digraph")
    assert "doublecircle" in text
    assert "-> q0" in text


def test_dot_output_mode(rl_machine):
    text = to_dot(rl_machine)
    assert "/1" in text or "/2" in text  # output annotations present
