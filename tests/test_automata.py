"""Multi-track machines: inference, verification, minimization, formats."""

import hashlib
import io
import itertools
import operator
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MINUS,
    PLUS,
    AutomatonFormatError,
    Counterexample,
    EndRelationOracle,
    FoldCode,
    GapOracle,
    InferenceError,
    InvalidCodeError,
    MultiTrackAutomaton,
    RegularEndOracle,
    RegularLengthOracle,
    RegularStartOracle,
    RunLengthOracle,
    StartRelationOracle,
    accepted_numeric_values,
    accepted_second_values,
    all_codes,
    build_semantic_automaton,
    build_tt,
    is_valid_code,
    combine_value_acceptors,
    encode_inputs,
    equivalent,
    gap_wellformedness,
    infer_automaton,
    minimize,
    paperfolding_word,
    read_automaton,
    regular_gap_value,
    regular_run_end,
    regular_run_length,
    regular_run_span,
    regular_run_start,
    run_decompose,
    run_span,
    specialize_regular,
    to_dot,
    valid_code_length_automaton,
    verify_exhaustive,
    write_automaton,
)
import foldruns.automata as automata
from foldruns.automata import (
    BIT_TRACK,
    INSTRUCTION_TRACK,
    _completion_counts,
    _universe_size,
    decode_raw,
    pad_closure,
    product,
    project,
    shortest_word,
)
from foldruns.foldcore import code_matrix
from foldruns.runs import _regular_gaps, _regular_run_data
from mutants import mutated_label, mutated_transition, seeded_transition_mutants

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
    raw, got_nums = decode_raw(word)
    assert FoldCode(raw).effective == code
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
                assert _label(sp, code, n, int(dec.starts[n - 1]))
                assert not _label(sp, code, n, int(dec.starts[n - 1]) + 1)
                assert _label(ep, code, n, int(dec.ends[n - 1]))
                assert _label(rl, code, n) == dec.lengths[n - 1]
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


def _sample_tables(oracle, width):
    """Each table's samples as rows (track0 int8[N, width] | None, nums
    int64[N, m], labels[N]): the grid blocks of samples(0..width) of one
    code length, or of no code, flattened cell by cell in order."""

    def code_length(block):
        return None if block[0] is None else block[0].shape[1]

    blocks = itertools.chain.from_iterable(map(oracle.samples, range(width + 1)))
    for _, group in itertools.groupby(blocks, code_length):
        parts = []
        for codes, first, values in group:
            code, k = np.divmod(np.arange(values.size), values.shape[1])
            n, v, track0 = first + k, values.ravel(), None
            if codes is not None:
                track0 = np.zeros((values.size, width), dtype=np.int8)
                track0[:, : codes.shape[1]] = codes[code]
            if oracle.mode == "output":
                parts.append((track0, n[:, None], v))
            else:
                parts.append((track0, np.stack([n, v], axis=1), np.ones(v.size, bool)))
        yield tuple(
            None if part[0] is None else np.concatenate(part) for part in zip(*parts)
        )


def _sample_rows(oracle, width):
    """(word, label) of every sample, the grid blocks flattened into rows."""
    return [
        (
            _sample_word(
                None if track0 is None else track0[r].tolist(), nums[r].tolist(), width
            ),
            lbl,
        )
        for track0, nums, labels in _sample_tables(oracle, width)
        for r, lbl in enumerate(labels.tolist())
    ]


SELF_CHECKED_ORACLES = [
    (StartRelationOracle, 4),
    (EndRelationOracle, 4),
    (RunLengthOracle, 4),
    (RegularStartOracle, 6),
    (RegularEndOracle, 6),
    (RegularLengthOracle, 6),
    (GapOracle, 6),
]


@pytest.mark.parametrize(
    "make, max_width",
    SELF_CHECKED_ORACLES,
    ids=["sp", "ep", "rl", "rs", "re", "rlen", "gap"],
)
def test_oracle_samples_are_the_non_default_universe(make, max_width):
    # samples(width) must list each non-default word of the valid universe
    # exactly once, with the label label() gives it
    oracle = make()
    for width in range(max_width + 1):
        got = _sample_rows(oracle, width)
        assert len({w for w, _ in got}) == len(got)
        universe = list(_valid_universe(oracle.tracks, width))
        assert len(universe) == _universe_size(oracle, width)
        want = {w: oracle.label(w) for w in universe}
        assert dict(got) == {w: v for w, v in want.items() if v != oracle.default}


def _bit_lengths(values):
    return (values[..., None] >> np.arange(63) > 0).sum(axis=-1)


@pytest.mark.parametrize(
    "make",
    [oracle for oracle, _ in SELF_CHECKED_ORACLES],
    ids=["sp", "ep", "rl", "rs", "re", "rlen", "gap"],
)
def test_oracle_samples_need_exactly_their_width(make):
    # samples(width) yields each input once, at its least width: every
    # cell's code, index and related value fit `width` symbols, and one of
    # them needs all of them
    oracle = make()
    relation = oracle.mode == "accept"
    for width in range(9 if oracle.has_instruction_track else 13):
        for codes, first, values in oracle.samples(width):
            t = 0 if codes is None else codes.shape[1]
            if codes is not None:
                assert set(np.unique(codes).tolist()) <= {-1, 1}
            n = first + np.arange(values.shape[1], dtype=np.int64)
            need = np.maximum(t, _bit_lengths(np.broadcast_to(n, values.shape)))
            if relation:
                need = np.maximum(need, _bit_lengths(values))
            assert (need == width).all(), (width, t, first)


def _samples_digest(oracle, max_width):
    """SHA-256 of every sample row, as lists, with its block's dtypes.

    The rows of each table are cut into blocks of SAMPLE_BLOCK_ROWS rows,
    as the oracles yielded them when the digests were pinned.
    """
    h = hashlib.sha256()
    for width in range(max_width + 1):
        for table in _sample_tables(oracle, width):
            for lo in range(0, len(table[1]), automata.SAMPLE_BLOCK_ROWS):
                track0, nums, labels = (
                    None if part is None else part[lo : lo + automata.SAMPLE_BLOCK_ROWS]
                    for part in table
                )
                dtypes = (nums.dtype, labels.dtype)
                if track0 is not None:
                    dtypes += (track0.dtype,)
                h.update(repr((width, *map(str, dtypes))).encode())
                t0 = [None] * len(nums) if track0 is None else track0.tolist()
                for row in zip(t0, nums.tolist(), labels.tolist()):
                    h.update(repr(row).encode())
    return h.hexdigest()


def _seeded_words(oracle, count, max_width):
    """Seeded words of width <= max_width: mostly valid codes, indices around
    the run range, and second values at or next to a true one."""
    rng = random.Random(oracle.name)
    coded = oracle.tracks[0] == INSTRUCTION_TRACK
    for _ in range(count):
        width = rng.randrange(max_width + 1)
        t = rng.randrange(width + 1)
        code = [rng.choice((1, -1)) for _ in range(t)] + [0] * (width - t)
        if rng.random() < 0.2:
            code = [rng.choice((-1, 0, 1)) for _ in range(width)]
        t = sum(1 for s in code if s)
        top = 2 ** max(t - 1, 0) if coded else 2**width - 1
        n = rng.randrange(min(top + 2, 2**width)) if width else 0
        near = [0]
        if coded and is_valid_code(code) and t and 1 <= n <= top:
            near = list(run_span(FoldCode(code), n))
        elif not coded and n:
            near = [*regular_run_span(n), regular_gap_value(n)]
        x = (rng.choice(near) + rng.choice((-1, 0, 0, 0, 1))) % 2**width if width else 0
        nums = [n, x][: len(oracle.tracks) - coded]
        tracks = [[(v >> i) & 1 for i in range(width)] for v in nums]
        if coded:
            tracks.insert(0, code)
        yield tuple(zip(*tracks))


def _label_digest(oracle, count, max_width):
    h = hashlib.sha256()
    for word in _seeded_words(oracle, count, max_width):
        h.update(repr(oracle.label(word)).encode())
    return h.hexdigest()


# (samples at widths 0..8, code oracles, or 0..12, regular ones; labels of
# 600 seeded words of width <= 12, or <= 40), pinned before the oracles
# shared one label and one samples
ORACLE_DIGESTS = {
    "sp": (
        StartRelationOracle,
        "5a5052cd650106e4ac728b2fd34cb748505244874886ca68d8199ed58b4b3d3d",
        "71f7191efebcc7ca644317ebdc13bd0b6fed6220688297e67ceb1625b16878d0",
    ),
    "ep": (
        EndRelationOracle,
        "7026d2610f1201809cb494630e49e354e03d0af1604185391e477edbf4ea165b",
        "f71aee01fb122f70c4200e8f7c7b7df06e758e75ee6a6e11a9fe4d639f202daa",
    ),
    "rl": (
        RunLengthOracle,
        "b9b01f34d19710a9c2768d7a3346d6635b3d57ca68576bb0d5d574e689dec443",
        "fffd7f99f0002acd4825278ac764bf3268351c1140e78a68eaaf32275fd123e5",
    ),
    "rs": (
        RegularStartOracle,
        "25d82098d6d0e55774df0511a5586e88b5b9780356e90cb21eefaceff574ea6a",
        "84f0e505e1b456b68db8946b90892a432aa51414a3f0ce1c261c42a8b46acadb",
    ),
    "re": (
        RegularEndOracle,
        "2ef108198dbae9fb6fef55dbed9c0191cb63278289acc4947d8258c735dfe686",
        "d4589e236c7cae99f1d12d4c2b461658e985c62972f290f69c5fdf96d95d0a84",
    ),
    "rlen": (
        RegularLengthOracle,
        "1f2a9e71fb642b2641e3c4e726766566f3d66cf93287c20682d39f5afa326ea9",
        "194ff1d18a37e00858136fbae1c3d6debc55c7c52f9163b2a769fc6048874a7a",
    ),
    "gap": (
        GapOracle,
        "bb5d0a0f25f07ef5f8fa073e8f85052e1582594986e788fd3f797ef053c95259",
        "8a4744e453172f757a6fde2a484ad2814783c102e64e857c80aa2ac56f845310",
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_DIGESTS))
def test_oracle_samples_and_labels_are_pinned(name):
    make, samples, labels = ORACLE_DIGESTS[name]
    oracle = make()
    coded = oracle.has_instruction_track
    assert _samples_digest(oracle, 8 if coded else 12) == samples
    assert _label_digest(oracle, 600, 12 if coded else 40) == labels


def lnk_accepts(f, x: int) -> bool:
    """True iff f is a valid code (as raw symbols) and x = 2**t - 1.

    Total: f may be any int sequence, including ones with interior zeros.
    """
    if isinstance(f, FoldCode):
        syms = f.symbols
    elif isinstance(f, str):
        try:
            syms = FoldCode.from_text(f).symbols
        except InvalidCodeError:
            return False
    else:
        syms = tuple(int(s) for s in f)
    if not is_valid_code(syms):
        return False
    t = sum(1 for s in syms if s != 0)
    return x == 2**t - 1


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
    return MultiTrackAutomaton(((0, 1),), [[0, 1], [1, 0]], [0, 1])


def test_container_basics():
    a = _two_state()
    assert a.mode == "accept"
    assert a.n_states == 2
    assert a.run([]) == 0
    assert a.step(0, (1,)) == 1
    assert a.run([(1,), (0,), (1,)]) == 0
    assert a.accepts([(1,)])
    assert not a.accepts([(1,), (1,)])
    assert a.word_label([(1,)]) is True


def test_container_validation():
    with pytest.raises(ValueError, match="shape"):
        MultiTrackAutomaton(((0, 1),), [[0]], [1])
    with pytest.raises(ValueError, match="unknown state 2"):
        MultiTrackAutomaton(((0, 1),), [[0, 2]], [1])
    with pytest.raises(ValueError, match="one value per state"):
        MultiTrackAutomaton(((0, 1),), [[0, 0]], [1, 0])
    with pytest.raises(ValueError, match="one value per state"):
        MultiTrackAutomaton(((0, 1),), [[0, 0]], [])
    with pytest.raises(ValueError, match="0 or 1"):
        MultiTrackAutomaton(((0, 1),), [[0, 0]], [2])
    with pytest.raises(ValueError, match="mode"):
        MultiTrackAutomaton(((0, 1),), [[0, 0]], [1], "relation")


def test_labels_are_int64_at_the_boundary():
    # an output outside int64 is an error in the constructor, and a format
    # error naming its line in the parser, not a uint64 or object vector
    top = MultiTrackAutomaton(((0, 1),), [[0, 0]], [2**63 - 1], "output")
    assert top.labels.dtype == np.int64 and top.output([(1,)]) == 2**63 - 1
    assert read_automaton(io.StringIO(_written(top))) == top
    assert _two_state().labels.dtype == bool
    for label in (2**63, -(2**63) - 1, 2**64):
        with pytest.raises(ValueError, match="int64"):
            MultiTrackAutomaton(((0, 1),), [[0, 0]], [label], "output")
        text = _written(top).replace(str(2**63 - 1), str(label))
        with pytest.raises(AutomatonFormatError, match="^line 4: state 0 .*int64"):
            read_automaton(io.StringIO(text))


def test_dense_table_matches_step(sp_machine, rl_machine):
    # the table's columns follow `symbols`, also for a track listed out of
    # order; labels is the state_label vector; both arrays are read-only
    symbols = list(itertools.product((1, -1, 0), BIT_TRACK))
    shuffled = MultiTrackAutomaton(
        ((1, -1, 0), BIT_TRACK),
        [[(q + sym[0] + 2 * sym[1]) % 3 for sym in symbols] for q in range(3)],
        [0, 5, 7],
        "output",
    )
    for a in (sp_machine, rl_machine, shuffled, _two_state()):
        assert a.table.shape == (a.n_states, len(a.symbols))
        cols = a.columns([[sym[j] for sym in a.symbols] for j in range(len(a.tracks))])
        assert cols.tolist() == list(range(len(a.symbols)))
        for q in range(a.n_states):
            assert a.table[q].tolist() == [a.step(q, sym) for sym in a.symbols]
        assert a.labels.tolist() == [a.state_label(q) for q in range(a.n_states)]
        with pytest.raises(ValueError):
            a.table[0, 0] = 0
        with pytest.raises(ValueError):
            a.labels[0] = 0


def test_mutations_produce_different_machines():
    a = _two_state()
    assert mutated_label(a, 0) != a
    assert mutated_transition(a, 0, (1,), 0) != a
    assert mutated_transition(a, 0, (1,), 1) == a


def test_output_mode_container():
    a = MultiTrackAutomaton(((0, 1),), [[0, 1], [1, 0]], [7, 9], "output")
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


def test_counterexample_text_decodes_both_alphabet_shapes():
    coded = Counterexample(((1, 0, 1), (-1, 1, 0)), True, False)
    assert str(coded) == (
        "word ((1, 0, 1), (-1, 1, 0)) (track0=(1, -1), values=(2, 1)): "
        "automaton says True, oracle says False"
    )
    bits = Counterexample(((1, 0), (0, 1)), True, False, has_instruction_track=False)
    assert str(bits) == (
        "word ((1, 0), (0, 1)) (values=(1, 2)): automaton says True, oracle says False"
    )
    empty = Counterexample((), 1, 0, has_instruction_track=False)
    assert str(empty) == "word () (values=()): automaton says 1, oracle says 0"


def test_verifier_records_the_alphabet_shape(sp_machine):
    cex = verify_exhaustive(sp_machine, EndRelationOracle(), depth=6)
    assert cex.has_instruction_track
    rs = infer_automaton(RegularStartOracle(), sample_depth=6)
    cex = verify_exhaustive(rs, RegularEndOracle(), depth=6)
    assert cex is not None and not cex.has_instruction_track
    assert str(cex).startswith(f"word {cex.word} (values=")


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


def _one_track(dfa):
    rows, accepting = dfa
    return MultiTrackAutomaton(
        ((0, 1),), rows, [q in accepting for q in range(len(rows))]
    )


@settings(max_examples=60, deadline=None)
@given(random_dfas)
def test_minimize_preserves_language(dfa):
    a = _one_track(dfa)
    m = minimize(a)
    assert m.n_states <= a.n_states
    assert equivalent(a, m) is None
    assert minimize(m) == m


def _residual_class_count(a):
    """Distinct residuals of the reachable states, by brute force.

    Words up to n - 1 symbols reach every reachable state and separate
    every pair of inequivalent states of an n-state machine.
    """
    words = list(_words(a.symbols, a.n_states - 1))
    reachable = {a.run(w) for w in words}
    return len(
        {tuple(a.state_label(a.run(w, start=q)) for w in words) for q in reachable}
    )


# ---------------------------------------------------------------------------
# the automaton algebra against brute force on small two-track machines

TWO_BITS = (BIT_TRACK, BIT_TRACK)
TWO_BIT_SYMBOLS = tuple(itertools.product(*TWO_BITS))

# random_dfas on the four two-bit symbols, with an output in 0..2 per state
random_two_track = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(*[st.integers(0, n - 1)] * len(TWO_BIT_SYMBOLS)),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.sampled_from(("accept", "output")),
    )
)


def _two_track(spec):
    rows, labels, mode = spec
    if mode == "accept":
        labels = [v != 0 for v in labels]
    return MultiTrackAutomaton(TWO_BITS, rows, labels, mode)


def _words(symbols, max_len):
    """Every word up to max_len, shortest first, then in symbol order."""
    for k in range(max_len + 1):
        yield from itertools.product(symbols, repeat=k)


def _brute_join(mode, labels):
    """The join of a label set, or None where outputs disagree."""
    labels = set(labels)
    if mode == "accept":
        return any(labels)
    values = labels - {0}
    return None if len(values) > 1 else max(values, default=0)


@settings(max_examples=60, deadline=None)
@given(random_two_track, random_two_track)
def test_product_labels_every_word_by_the_combiner(spec_a, spec_b):
    a, b = _two_track(spec_a), _two_track(spec_b)
    both = product([a, b], lambda x, y: (int(x) + 2 * int(y)) % 3, mode="output")
    complement = product([a], operator.not_)
    for w in _words(TWO_BIT_SYMBOLS, 4):
        la, lb = a.word_label(w), b.word_label(w)
        assert both.output(w) == (int(la) + 2 * int(lb)) % 3
        assert complement.accepts(w) == (not la)


@settings(max_examples=60, deadline=None)
@given(random_two_track, st.sampled_from((0, 1)))
def test_project_joins_every_extension(spec, track):
    a = _two_track(spec)
    expected = {}
    for k in range(5):
        for w in itertools.product(BIT_TRACK, repeat=k):
            labels = []
            for ext in itertools.product(BIT_TRACK, repeat=k):
                pairs = zip(w, ext) if track == 1 else zip(ext, w)
                labels.append(a.word_label(tuple(pairs)))
            expected[tuple((s,) for s in w)] = _brute_join(a.mode, labels)
    if None in expected.values():
        with pytest.raises(InferenceError, match="not single-valued"):
            project(a, track)
        return
    try:
        projected = project(a, track)
    except InferenceError:
        assert a.mode == "output"  # outputs may disagree only past length 4
        return
    assert projected.tracks == (BIT_TRACK,)
    for w, want in expected.items():
        assert projected.word_label(w) == want


@settings(max_examples=60, deadline=None)
@given(random_two_track, st.sampled_from(((0,), (1,), (0, 1))))
def test_pad_closure_joins_the_padded_continuations(spec, tracks):
    # n states: every state is reached within n - 1 symbols, and every
    # padding path reaches what it can within n - 1 more, so this is exact
    a = _two_track(spec)
    n = a.n_states
    padding = [s for s in TWO_BIT_SYMBOLS if not any(s[i] for i in tracks)]
    expected = {
        w: _brute_join(a.mode, (a.word_label(w + z) for z in _words(padding, n - 1)))
        for w in _words(TWO_BIT_SYMBOLS, n - 1)
    }
    if None in expected.values():
        with pytest.raises(InferenceError, match="not single-valued"):
            pad_closure(a, tracks)
        return
    closed = pad_closure(a, tracks)
    for w, want in expected.items():
        assert closed.word_label(w) == want


@settings(max_examples=60, deadline=None)
@given(random_two_track)
def test_shortest_word_is_the_first_labeled_word(spec):
    a = _two_track(spec)
    first = next(
        (w for w in _words(TWO_BIT_SYMBOLS, a.n_states - 1) if a.word_label(w)), None
    )
    assert shortest_word(a) == first


@settings(max_examples=60, deadline=None)
@given(random_two_track)
def test_dead_states_match_reachability(spec):
    a = _two_track(spec)
    words = list(_words(TWO_BIT_SYMBOLS, a.n_states - 1))
    dead = {
        q
        for q in range(a.n_states)
        if not any(a.state_label(a.run(w, start=q)) for w in words)
    }
    assert a.dead_states() == dead


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_dfas.map(_one_track), random_two_track.map(_two_track)))
def test_minimize_leaves_one_state_per_residual(a):
    # equivalence and idempotence hold for any quotient; minimality needs
    # exactly one state per residual of a reachable state
    assert minimize(a).n_states == _residual_class_count(a)


def _dp_label_counts(values, counts, width, q=0):
    return {v: c for v, c in zip(values, counts[width][q, 0].tolist()) if c}


@settings(max_examples=60, deadline=None)
@given(random_two_track)
def test_completion_counts_match_brute_force(spec):
    # bit-only alphabets: every word is valid, from every start state
    a = _two_track(spec)
    values, counts = _completion_counts(a, 4, constrained=False)
    for width in range(5):
        universe = list(_valid_universe(a.tracks, width))
        for q in range(a.n_states):
            want = Counter(a.state_label(a.run(w, start=q)) for w in universe)
            assert _dp_label_counts(values, counts, width, q) == want


def test_completion_counts_match_brute_force_on_coded_machines(
    sp_machine, rl_machine
):
    # track 0 must stay a valid code: the padding flag prunes the rest
    for a in (sp_machine, rl_machine):
        values, counts = _completion_counts(a, 4, constrained=True)
        for width in range(5):
            universe = _valid_universe(a.tracks, width)
            want = Counter(a.word_label(w) for w in universe)
            assert _dp_label_counts(values, counts, width) == want


@settings(max_examples=60, deadline=None)
@given(random_two_track, random_two_track)
def test_equivalent_returns_the_first_separating_word(spec_a, spec_b):
    a = _two_track(spec_a)
    b = _two_track((*spec_b[:2], spec_a[2]))
    first = next(
        (w for w in _words(TWO_BIT_SYMBOLS, 3) if a.word_label(w) != b.word_label(w)),
        None,
    )
    got = equivalent(a, b)
    if first is not None:
        assert got == first
    elif got is not None:
        assert len(got) > 3 and a.word_label(got) != b.word_label(got)


def test_algebra_error_paths(sp_machine, rl_machine):
    code_length = valid_code_length_automaton()
    with pytest.raises(ValueError, match="overlap"):
        combine_value_acceptors([code_length, code_length], (1, 2))
    with pytest.raises(ValueError, match="different alphabets"):
        equivalent(sp_machine, code_length)
    with pytest.raises(ValueError, match="accept mode with output mode"):
        equivalent(rl_machine, code_length)
    with pytest.raises(ValueError, match="different alphabets"):
        product([sp_machine, code_length], operator.and_)
    # track 1 chooses between outputs 1 and 2 on the same track-0 word
    fork = MultiTrackAutomaton(
        TWO_BITS,
        [[1 + s[1] for s in TWO_BIT_SYMBOLS], [1] * 4, [2] * 4],
        [0, 1, 2],
        "output",
    )
    with pytest.raises(InferenceError, match="not single-valued"):
        project(fork, 1)
    with pytest.raises(ValueError, match="instruction track"):
        specialize_regular(_two_state())
    with pytest.raises(ValueError, match="instruction track"):
        specialize_regular(fork)


@settings(max_examples=40, deadline=None)
@given(codes_st, st.integers(0, 31), st.integers(0, 31), st.integers(1, 3))
def test_acceptance_is_padding_invariant(sp_machine, code, n, x, extra):
    base = max(len(code), n.bit_length(), x.bit_length(), 1)
    w1 = encode_inputs(code, (n, x), base)
    w2 = encode_inputs(code, (n, x), base + extra)
    assert sp_machine.accepts(w1) == sp_machine.accepts(w2)


def test_infer_rejects_bad_depths(monkeypatch):
    with pytest.raises(ValueError):
        infer_automaton(StartRelationOracle(), sample_depth=0)
    monkeypatch.setattr(automata, "MAX_ROUNDS", 1)
    with pytest.raises(InferenceError, match="after 1 rounds"):
        infer_automaton(StartRelationOracle(), sample_depth=6)


# target -> (SHA-256 of the written machine, oracle label calls, learner
# rounds), at the default sample depth 10
DEFAULT_DEPTH_INFERENCE = {
    "sp": ("233e99ab002ab9a4c47e589e0e786a50af00e24694f88a65aa623ce3d4298720", 2085, 5),
    "ep": ("a8eee907563dd1e40fbb71898cff6ee3ad598ba411a4a835a91fc742979cdd54", 1889, 6),
    "rl": ("c3e0a1c8cabacd128b6a020a48ea27c307cc783e179e22544da1aa57db43e973", 1903, 5),
    "tt": ("374079a02fb8fb55e13a7c2e2cf837316d87b0ea0718e8cd4b5ae8085d360db4", 210, 4),
}


@pytest.mark.parametrize("target", sorted(DEFAULT_DEPTH_INFERENCE))
def test_each_learner_round_verifies_once(target, monkeypatch):
    # every round but the last ends in a counterexample; each verifies its
    # hypothesis once, to the sample depth, and the machine is unchanged
    cls = {
        "sp": StartRelationOracle,
        "ep": EndRelationOracle,
        "rl": RunLengthOracle,
        "tt": GapOracle,
    }[target]
    verified, labels = [], []
    real_verify, real_label = automata.verify_exhaustive, cls.label

    def verifying(a, oracle, depth):
        ce = real_verify(a, oracle, depth)
        verified.append((depth, ce is None))
        return ce

    def labeling(self, word):
        labels.append(word)
        return real_label(self, word)

    monkeypatch.setattr(automata, "verify_exhaustive", verifying)
    monkeypatch.setattr(cls, "label", labeling)
    machine = build_tt() if target == "tt" else infer_automaton(cls())
    digest, label_calls, rounds = DEFAULT_DEPTH_INFERENCE[target]
    assert verified == [(10, False)] * (rounds - 1) + [(10, True)]
    assert len(labels) == label_calls
    assert hashlib.sha256(_written(machine).encode()).hexdigest() == digest


def test_infer_rejects_a_minimization_that_changes_behavior(monkeypatch):
    # the equivalence certificate must catch any label flip in the
    # minimized machine, whichever state it hits
    real_minimize = automata.minimize
    machine = infer_automaton(RegularStartOracle(), sample_depth=6)
    for q in range(machine.n_states):
        monkeypatch.setattr(
            automata, "minimize", lambda a, q=q: mutated_label(real_minimize(a), q)
        )
        with pytest.raises(InferenceError, match="minimization changed behavior"):
            infer_automaton(RegularStartOracle(), sample_depth=6)


class _RepeatingOracle(RunLengthOracle):
    """Run lengths with one sample repeated: a code row in a block, or a
    block's last cell as a block of its own."""

    def __init__(self, across_blocks: bool):
        super().__init__()
        self.across_blocks = across_blocks

    def samples(self, width):
        for codes, first, values in super().samples(width):
            if width == 3 and self.across_blocks:
                yield codes, first, values
                yield codes[-1:], first + values.shape[1] - 1, values[-1:, -1:]
            elif width == 3:
                again = [0, *range(len(values))]
                yield codes[again], first, values[again]
            else:
                yield codes, first, values


class _OverflowingOracle(RegularLengthOracle):
    """Regular run lengths with the last sample index too wide for its width."""

    def samples(self, width):
        for codes, first, values in super().samples(width):
            yield codes, first + (width == 2), values


def _edited_oracle(base, width, edit):
    """An oracle of class `base` whose blocks at `width` pass through `edit`."""

    class Edited(base):
        def samples(self, w):
            for block in super().samples(w):
                yield edit(*block) if w == width else block

    return Edited()


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize(
    "fixture, make, name",
    [
        ("rl_machine", RunLengthOracle, "run-length"),
        ("tt_machine", GapOracle, "regular-gaps"),
        ("regular_length_machine", RegularLengthOracle, "regular-run-length"),
    ],
)
def test_verifier_rejects_samples_of_a_smaller_width_yielded_again(
    request, fixture, make, name
):
    # the samples at width 3 start with the width-2 ones again, in order:
    # they would count twice, since the width-2 counts are carried along
    machine = request.getfixturevalue(fixture)

    class Replaying(make):
        def samples(self, width):
            if width == 3:
                yield from super().samples(2)
            yield from super().samples(width)

    message = f"^{name}: a sample at width 3 fits width 2$"
    with pytest.raises(InferenceError, match=message):
        verify_exhaustive(machine, Replaying(), 4)
    assert verify_exhaustive(machine, make(), 4) is None


@pytest.mark.parametrize("across_blocks", [False, True])
def test_verifier_rejects_a_repeated_sample(rl_machine, across_blocks):
    # a repeated sample would raise the tally twice and could hide one
    # overaccepted word, so it is an error, whatever the machine
    oracle = _RepeatingOracle(across_blocks)
    with pytest.raises(InferenceError, match="run-length: samples at width 3 repeat"):
        verify_exhaustive(rl_machine, oracle, 4)
    assert verify_exhaustive(rl_machine, RunLengthOracle(), 4) is None


def test_verifier_rejects_samples_outside_the_width():
    machine = infer_automaton(RegularLengthOracle(), sample_depth=6)
    with pytest.raises(InferenceError, match="does not fit width 2"):
        verify_exhaustive(machine, _OverflowingOracle(), 4)


@pytest.mark.parametrize("value", [4, -1])
def test_verifier_rejects_related_values_outside_the_width(value):
    machine = infer_automaton(RegularStartOracle(), sample_depth=6)
    oracle = _edited_oracle(
        RegularStartOracle, 2, lambda c, f, v: (c, f, _with(v, (0, -1), value))
    )
    with pytest.raises(InferenceError, match="code or value does not fit width 2"):
        verify_exhaustive(machine, oracle, 4)


def test_verifier_rejects_codes_longer_than_the_width(rl_machine):
    oracle = _edited_oracle(
        RunLengthOracle, 1, lambda c, f, v: (np.hstack([c, c[:, :1]]), f, v)
    )
    with pytest.raises(InferenceError, match="code or value does not fit width 1"):
        verify_exhaustive(rl_machine, oracle, 4)


@pytest.mark.parametrize("entry", [0, 2, -2])
def test_verifier_rejects_code_entries_other_than_plus_or_minus_one(rl_machine, entry):
    # a 0 inside a code would walk a padding symbol, and the code key assumes
    # a code of +-1 entries, so such a sample is an error, whatever the machine
    oracle = _edited_oracle(
        RunLengthOracle, 3, lambda c, f, v: (_with(c, (-1, -1), entry), f, v)
    )
    with pytest.raises(
        InferenceError, match="run-length: a sample code at width 3 has an entry"
    ):
        verify_exhaustive(rl_machine, oracle, 4)


@pytest.mark.parametrize(
    "fixture, make, width, t, depth, name",
    [
        ("rl_machine", RunLengthOracle, 2, 2, 5, "run-length"),
        ("sp_machine", StartRelationOracle, 3, 3, 6, "run-start"),
    ],
)
def test_verifier_rejects_samples_that_drop_a_labeled_row(
    request, fixture, make, width, t, depth, name
):
    # the samples at `width` lose the row of one length-t code, which
    # `label` still labels: the label counts disagree, but no word tells
    # machine and labels apart, so the oracle is at fault, not the machine
    machine = request.getfixturevalue(fixture)

    def drop_first_row(c, f, v):
        return (c[1:], f, v[1:]) if c.shape[1] == t else (c, f, v)

    oracle = _edited_oracle(make, width, drop_first_row)
    kept = sum(len(v) for c, _, v in oracle.samples(width) if c.shape[1] == t)
    assert kept == 2**t - 1
    message = f"^{name}: the samples at width {width} disagree with labels$"
    with pytest.raises(InferenceError, match=message):
        verify_exhaustive(machine, oracle, depth)
    assert verify_exhaustive(machine, make(), depth) is None


def test_verifier_rejects_negative_depths():
    # a negative depth compares no word, so it must not read as verified
    oracle = StartRelationOracle()
    everything = build_semantic_automaton(
        oracle.tracks, 0, lambda q, sym: 0, lambda q: True
    )
    assert verify_exhaustive(everything, oracle, 3) is not None
    with pytest.raises(ValueError, match="depth must be >= 0"):
        verify_exhaustive(everything, oracle, -1)


class _CountsReached(Exception):
    pass


def test_verifier_rejects_depths_whose_keys_overflow(
    monkeypatch, sp_machine, rl_machine, regular_length_machine
):
    # the universe takes depth + 1 bits for the code and depth bits per value
    with pytest.raises(ValueError, match="do not fit in int64"):
        verify_exhaustive(sp_machine, StartRelationOracle(), 21)
    with pytest.raises(ValueError, match="do not fit in int64"):
        verify_exhaustive(rl_machine, RunLengthOracle(), 32)

    # the int64 label counts need the universe below 2**63: a one-bit-track
    # universe reaches it at depth 63, which is refused before any work;
    # the depths just below pass the guard and start counting
    def counting(*args):
        raise _CountsReached

    monkeypatch.setattr(automata, "_completion_counts", counting)
    with pytest.raises(ValueError, match="do not fit in int64"):
        verify_exhaustive(regular_length_machine, RegularLengthOracle(), 63)
    with pytest.raises(_CountsReached):
        verify_exhaustive(regular_length_machine, RegularLengthOracle(), 62)
    with pytest.raises(_CountsReached):
        verify_exhaustive(rl_machine, RunLengthOracle(), 31)


def test_sample_blocks_may_split_anywhere(monkeypatch, rl_machine):
    # a block boundary may fall inside the row of one code; the rows, the
    # verdicts and the counterexamples do not depend on where it falls
    oracles = [
        StartRelationOracle(),
        RunLengthOracle(),
        GapOracle(),
    ]

    def all_rows():
        return [_sample_rows(oracle, width) for oracle in oracles for width in range(7)]

    whole = all_rows()
    mutant = mutated_transition(rl_machine, 2, rl_machine.symbols[1], 0)
    cex = verify_exhaustive(mutant, RunLengthOracle(), 6)
    assert cex is not None
    monkeypatch.setattr(automata, "SAMPLE_BLOCK_ROWS", 5)
    for oracle in oracles:
        assert all(values.size <= 5 for _, _, values in oracle.samples(6))
    assert all_rows() == whole
    assert verify_exhaustive(rl_machine, RunLengthOracle(), 6) is None
    assert verify_exhaustive(mutant, RunLengthOracle(), 6) == cex


@pytest.mark.parametrize("make", [RegularLengthOracle, GapOracle])
def test_codeless_grids_split_by_columns_keep_the_verdicts(monkeypatch, make):
    # a regular table is one row of every index; cut into column ranges
    # narrower than the row, it gives the same verdicts and counterexamples
    machine = infer_automaton(make(), sample_depth=6)
    rng = random.Random(make.__name__)
    mutants = [machine] + [
        mutated_transition(
            machine,
            rng.randrange(machine.n_states),
            rng.choice(machine.symbols),
            rng.randrange(machine.n_states),
        )
        for _ in range(8)
    ]
    whole = [verify_exhaustive(m, make(), 8) for m in mutants]
    assert whole[0] is None and any(cex is not None for cex in whole)
    monkeypatch.setattr(automata, "SAMPLE_BLOCK_ROWS", 5)
    blocks = list(make().samples(8))
    assert len(blocks) > 1
    assert all(c is None and values.shape == (1, 5) for c, _, values in blocks[:-1])
    assert [verify_exhaustive(m, make(), 8) for m in mutants] == whole


def _one_cell_verdicts(monkeypatch, machines, make, depth):
    """verify_exhaustive's verdicts with blocks of one cell each."""
    with monkeypatch.context() as patch:
        patch.setattr(automata, "SAMPLE_BLOCK_ROWS", 1)
        assert all(values.size == 1 for _, _, values in make().samples(3))
        return [verify_exhaustive(m, make(), depth) for m in machines]


@pytest.mark.parametrize(
    "fixture, make",
    [
        ("rl_machine", RunLengthOracle),
        ("sp_machine", StartRelationOracle),
        ("tt_machine", GapOracle),
    ],
)
def test_one_cell_blocks_keep_the_counterexamples_of_mutants(
    request, monkeypatch, fixture, make
):
    # a block of one cell is walked symbol by symbol from the initial
    # state, so every block shape must find the same first counterexample.
    # A mutant that passes walks the whole depth-8 universe, which takes
    # seconds one cell at a time, so only the failing mutants are compared
    machine = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    mutants = seeded_transition_mutants(machine, 6, seed=2025)
    picked = rng.sample(range(machine.n_states), 3)
    mutants += [mutated_label(machine, q) for q in picked]
    whole = [verify_exhaustive(m, make(), 8) for m in mutants]
    failing = [(m, cex) for m, cex in zip(mutants, whole) if cex is not None]
    assert len(failing) >= 6 and max(len(cex.word) for _, cex in failing) >= 4
    per_cell = _one_cell_verdicts(monkeypatch, [m for m, _ in failing], make, 8)
    assert per_cell == [cex for _, cex in failing]


@pytest.mark.parametrize("make", [RegularStartOracle, RegularLengthOracle])
def test_one_cell_blocks_keep_the_verdicts_of_random_machines(monkeypatch, make):
    # random tables, and random edits of the inferred machine, which agree
    # with the oracle on more words; a codeless universe is small enough to
    # compare the machines that pass, too
    rng = random.Random(make.__name__)
    states, symbols = rng.randrange, rng.choice
    machines = []
    for _ in range(8):
        m = _random_machine(rng, make.tracks)
        if make.mode == "output":
            labels = [rng.randrange(4) for _ in range(m.n_states)]
            m = MultiTrackAutomaton(m.tracks, m.table, labels, "output")
        machines.append(m)
    machine = infer_automaton(make(), sample_depth=8)
    for _ in range(16):
        m = machine
        for _ in range(rng.randint(1, 3)):
            m = mutated_transition(
                m, states(m.n_states), symbols(m.symbols), states(m.n_states)
            )
        if rng.random() < 0.3:
            m = mutated_label(m, states(m.n_states))
        machines.append(m)
    whole = [verify_exhaustive(m, make(), 8) for m in machines]
    assert _one_cell_verdicts(monkeypatch, machines, make, 8) == whole
    assert max(len(cex.word) for cex in whole if cex is not None) >= 4


@pytest.mark.parametrize(
    "fixture, make, cells",
    [("sp_machine", StartRelationOracle, 16), ("rl_machine", RunLengthOracle, 8)],
)
def test_prefix_tables_as_large_as_their_blocks_keep_the_verdicts(
    request, monkeypatch, fixture, make, cells
):
    # rows wider than a block split into one-row blocks of `cells` cells,
    # and each such row's prefix table grows to exactly `cells` states:
    # 4**2 entries of (n, x) low bits in relation mode, 2**3 of n in
    # function mode, so every cell is looked up with no bit left to walk
    machine = request.getfixturevalue(fixture)
    mutants = [machine] + seeded_transition_mutants(machine, 6, seed=2026)
    mutants += [mutated_label(machine, q) for q in (1, 2, 3)]
    whole = [verify_exhaustive(m, make(), 7) for m in mutants]
    assert whole[0] is None and sum(cex is not None for cex in whole) >= 6
    monkeypatch.setattr(automata, "SAMPLE_BLOCK_ROWS", cells)
    assert (1, cells) in {values.shape for _, _, values in make().samples(7)}
    assert [verify_exhaustive(m, make(), 7) for m in mutants] == whole


@pytest.mark.parametrize(
    "make, depths, calls",
    [
        (RunLengthOracle, (10,), 1903),
        (StartRelationOracle, (8,), 2085),
        (GapOracle, (10,), 210),
    ],
)
def test_learner_label_calls_are_pinned(make, depths, calls):
    # the learner asks the oracle about each word of its table once, however
    # the table is laid out, and the verifier's searches ask about their own
    oracle = make()
    asked = []
    real = oracle.label

    def counting(word):
        asked.append(word)
        return real(word)

    oracle.label = counting
    infer_automaton(oracle, *depths)
    assert len(asked) == calls


# depth-10 counterexamples (word, automaton label, oracle label) of
# single-edge mutants (state, symbol index, new successor) of the depth-8
# machines.  No such mutant is told apart from its machine by more than six
# symbols, so each counterexample lies at width <= 6; the mutants that
# differ only off the valid universe (None) walk every grid up to width 10,
# and a block size of 7 splits the widths the others fail at into many
# blocks.
MUTANT_COUNTEREXAMPLES = {
    "rl": [
        ((26, 0, 19), ((1, 1), (1, 1), (1, 1), (-1, 0), (1, 1), (1, 0)), 2, 1),
        ((24, 4, 11), ((1, 0), (1, 1), (1, 1), (1, 0), (1, 1), (-1, 0)), 3, 2),
        ((30, 3, 9), ((-1, 0), (1, 1), (1, 0), (0, 0), (0, 1)), 1, 0),
        ((23, 0, 6), ((-1, 0), (-1, 1), (-1, 0), (-1, 0), (-1, 1)), 2, 0),
        ((19, 2, 23), None),
    ],
    "sp": [
        (
            (16, 1, 10),
            ((1, 0, 1), (1, 1, 1), (1, 1, 0), (-1, 0, 1), (1, 1, 0), (1, 0, 1)),
            False,
            True,
        ),
        (
            (16, 0, 3),
            ((-1, 0, 0), (1, 1, 1), (-1, 1, 0), (-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
            True,
            False,
        ),
        (
            (16, 10, 9),
            ((-1, 0, 0), (1, 1, 1), (-1, 1, 0), (1, 1, 0), (-1, 1, 0), (1, 0, 1)),
            True,
            False,
        ),
        ((5, 2, 9), None),
    ],
}


@pytest.mark.parametrize(
    "name, fixture, make",
    [("rl", "rl_machine", RunLengthOracle), ("sp", "sp_machine", StartRelationOracle)],
)
def test_depth_10_mutant_counterexamples_are_pinned(
    request, monkeypatch, name, fixture, make
):
    machine = request.getfixturevalue(fixture)

    def outcomes(pins):
        got = []
        for (q, j, dst), *_ in pins:
            mutant = mutated_transition(machine, q, machine.symbols[j], dst)
            cex = verify_exhaustive(mutant, make(), 10)
            got.append(
                ((q, j, dst), None)
                if cex is None
                else ((q, j, dst), cex.word, cex.automaton_label, cex.oracle_label)
            )
        return got

    pins = MUTANT_COUNTEREXAMPLES[name]
    assert outcomes(pins) == pins
    failing = [pin for pin in pins if pin[1] is not None]
    monkeypatch.setattr(automata, "SAMPLE_BLOCK_ROWS", 7)
    assert outcomes(failing) == failing


# counterexample words verify_exhaustive hands the learner at sample depth
# 6, in order: the learner path is pinned to these
LEARNER_COUNTEREXAMPLES = {
    "sp": [
        ((1, 0, 1), (1, 1, 1)),
        ((1, 1, 0), (1, 1, 0), (1, 0, 1)),
        ((1, 1, 1), (1, 0, 0)),
        ((1, 1, 1), (1, 1, 0), (-1, 0, 1)),
    ],
    "ep": [
        ((1, 1, 0), (1, 0, 1)),
        ((1, 0, 0), (-1, 0, 0)),
        ((-1, 1, 0), (-1, 0, 1)),
        ((1, 0, 1), (1, 1, 1), (1, 0, 0)),
        ((-1, 0, 0), (-1, 0, 1), (-1, 1, 1)),
    ],
    "rl": [
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (1, 1)),
        ((1, 1), (1, 0), (-1, 0)),
        ((1, 0), (1, 1), (1, 1), (-1, 0)),
    ],
    "gap": [
        ((1, 0), (0, 1)),
        ((1, 1), (1, 1), (0, 1)),
        ((0, 0), (0, 1), (1, 0), (1, 1), (0, 1)),
    ],
}


@pytest.mark.parametrize(
    "name, make",
    [
        ("sp", StartRelationOracle),
        ("ep", EndRelationOracle),
        ("rl", RunLengthOracle),
        ("gap", GapOracle),
    ],
)
def test_learner_sees_the_pinned_counterexamples(monkeypatch, name, make):
    real = automata.verify_exhaustive
    seen = []

    def recording(a, oracle, depth):
        cex = real(a, oracle, depth)
        if cex is not None:
            seen.append(cex.word)
        return cex

    monkeypatch.setattr(automata, "verify_exhaustive", recording)
    infer_automaton(make(), sample_depth=6)
    assert seen == LEARNER_COUNTEREXAMPLES[name]


def test_mutated_transition_is_caught(sp_machine):
    mutated = mutated_transition(
        sp_machine, 1, sp_machine.symbols[0], (1 + 3) % sp_machine.n_states
    )
    cex = verify_exhaustive(mutated, StartRelationOracle(), depth=6)
    assert cex is not None


@pytest.fixture(scope="module")
def regular_length_machine():
    return infer_automaton(RegularLengthOracle(), sample_depth=8)


@pytest.mark.parametrize(
    "fixture, make_oracle",
    [
        ("sp_machine", StartRelationOracle),
        ("rl_machine", RunLengthOracle),
        ("regular_length_machine", RegularLengthOracle),
    ],
    ids=[
        "sp_machine-StartRelationOracle",
        "rl_machine-RunLengthOracle",
        "regular_length_machine-RegularLengthOracle",
    ],
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


# SHA-256 of the depth-8 (tt: depth-10) outcomes of every mutant that
# redirects one state's all-zero (padding) edge to a state 0, 3, 6, ...:
# (name, state, new successor, None) or the counterexample's (word,
# automaton label, oracle label) after them, pinned before the verifier
# carried its counts from width to width through that edge
PADDING_EDGE_MUTANTS = (
    "ce37eaf54d4ecad985ad090e5b77183e4558a9a58fa044284c0a2f2f1ca83405"
)

PADDING_EDGE_MACHINES = [
    ("rl", "rl_machine", RunLengthOracle, 8),
    ("sp", "sp_machine", StartRelationOracle, 8),
    ("tt", "tt_machine", GapOracle, 10),
    ("rlen", "regular_length_machine", RegularLengthOracle, 8),
]


def _padding_edge_mutants(request):
    """(name, state, new successor, mutant, make, depth) of each pinned mutant."""
    for name, fixture, make, depth in PADDING_EDGE_MACHINES:
        machine = request.getfixturevalue(fixture)
        pad = (0,) * len(machine.tracks)
        for q in range(machine.n_states):
            for dst in range(0, machine.n_states, 3):
                mutant = mutated_transition(machine, q, pad, dst)
                yield name, q, dst, mutant, make, depth


def test_padding_edge_mutants_keep_their_counterexamples(request):
    h, failing = hashlib.sha256(), 0
    for name, q, dst, mutant, make, depth in _padding_edge_mutants(request):
        cex = verify_exhaustive(mutant, make(), depth)
        if cex is None:
            h.update(repr((name, q, dst, None)).encode())
        else:
            failing += 1
            outcome = (name, q, dst, cex.word, cex.automaton_label, cex.oracle_label)
            h.update(repr(outcome).encode())
    assert failing == 347
    assert h.hexdigest() == PADDING_EDGE_MUTANTS


def test_samples_are_walked_again_only_when_a_padded_state_changes_label(request):
    # a correct machine reads samples(w) once per width; a mutant reads the
    # smaller widths again only where padding moves their samples to a
    # state of another label
    walked_again = Counter()
    for name, _, _, mutant, make, depth in _padding_edge_mutants(request):
        oracle, asked = make(), []
        real = oracle.samples
        oracle.samples = lambda w, real=real, asked=asked: asked.append(w) or real(w)
        cex = verify_exhaustive(mutant, oracle, depth)
        if len(asked) > len(set(asked)):
            # widths 0..w-1 once, then from 0 again at w until the mismatch
            walked_again[name] += 1
            w = len(cex.word)
            assert asked[:w] == list(range(w))
            assert asked[w:] == list(range(len(asked) - w)) and len(asked) <= 2 * w + 1
        else:
            assert asked == list(range(len(asked)))
    assert walked_again == {"rl": 178, "sp": 40, "tt": 2, "rlen": 26}


def test_overaccepted_search_stays_inside_the_valid_universe(sp_machine):
    # a machine that also accepts every word whose track 0 is not a code
    # labels the valid universe as the oracle does, so the pruned search
    # must find nothing rather than a word outside the universe
    def step(state, sym):  # (track 0 padded, track 0 no longer a code)
        padded, broken = state
        return padded or sym[0] == 0, broken or (padded and sym[0] != 0)

    broken = build_semantic_automaton(
        sp_machine.tracks, (False, False), step, lambda state: state[1]
    )
    machine = product([sp_machine, broken], operator.or_)
    oracle = StartRelationOracle()
    assert verify_exhaustive(machine, oracle, 4) is None
    values, counts = _completion_counts(machine, 4, constrained=True)
    for width in range(5):
        found = automata._find_overaccepted(machine, oracle, values, counts, width, True)
        assert found is None


# ---------------------------------------------------------------------------
# specializations and combinations


def test_specialized_start_machine_matches_direct_inference(sp_machine):
    specialized = specialize_regular(sp_machine)
    direct = infer_automaton(RegularStartOracle(), sample_depth=8)
    assert specialized.n_states == direct.n_states == 12
    assert specialized == direct


def test_specialized_end_machine_matches_direct_inference(ep_machine):
    specialized = specialize_regular(ep_machine)
    direct = infer_automaton(RegularEndOracle(), sample_depth=8)
    assert specialized.n_states == direct.n_states == 10
    assert specialized == direct


def test_specialized_length_machine_matches_direct_inference(rl_machine):
    specialized = specialize_regular(rl_machine)
    direct = infer_automaton(RegularLengthOracle(), sample_depth=8)
    assert specialized.n_states == direct.n_states == 12
    assert specialized == direct


def test_value_slices_combine_back_to_the_length_machine(rl_machine):
    # each slice accepts the words the length machine maps to its value
    slices = [
        minimize(product([rl_machine], lambda out, v=v: out == v)) for v in (1, 2, 3)
    ]
    combined = combine_value_acceptors(slices, (1, 2, 3), default=0)
    assert combined.n_states == rl_machine.n_states == 31
    assert combined == rl_machine


def test_regular_machines_match_fast_path_lookups():
    rs = infer_automaton(RegularStartOracle(), sample_depth=8)
    re_ = infer_automaton(RegularEndOracle(), sample_depth=8)
    ns = np.arange(1, 65)
    for machine, value in ((rs, regular_run_start), (re_, regular_run_end)):
        row, xs = accepted_second_values(machine, ns, 8)
        assert row.tolist() == list(range(64))
        assert xs.tolist() == [value(n) for n in range(1, 65)]
    rl = infer_automaton(RegularLengthOracle(), sample_depth=8)
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
    row, xs = accepted_second_values(tt_machine, range(1, len(GAP_VALUES) + 1), 10)
    assert row.tolist() == list(range(len(GAP_VALUES)))
    assert xs.tolist() == list(GAP_VALUES)


def test_gap_oracle_agrees_with_search():
    oracle = GapOracle()
    for n in (1, 2, 3, 5, 8, 13, 5000, 2**20 + 3):
        x = regular_gap_value(n)
        width = max(n.bit_length(), x.bit_length())
        word = tuple(((n >> i) & 1, (x >> i) & 1) for i in range(width))
        assert oracle.label(word)
        wrong = tuple(((n >> i) & 1, ((x + 1) >> i) & 1) for i in range(width + 1))
        assert not oracle.label(wrong)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 100, 1023, 10000])
def test_gap_table_matches_search(top):
    want = []
    while (x := regular_gap_value(len(want) + 1)) <= top:
        want.append(x)
    assert _regular_gaps(top).tolist() == want


def test_regular_run_ends_are_2m_minus_1_or_2m():
    # the premise of regular_gap_value's count: h(m) increases and is
    # 2m - 1 or 2m, read here off the decomposed word, not the recursion
    _, ends = _regular_run_data(2**16)
    m = np.arange(1, 2**16 + 1)
    assert len(ends) == 2**16
    assert (np.diff(ends) > 0).all()
    assert ((ends == 2 * m - 1) | (ends == 2 * m)).all()


def test_gap_value_matches_the_sieve_below_2_16():
    # t(n) <= 2n + 1, so the sieve to 2**17 + 1 holds every t(n), n < 2**16
    want = _regular_gaps(2**17 + 1)[: 2**16 - 1].tolist()
    assert [regular_gap_value(n) for n in range(1, 2**16)] == want


def test_gap_wellformedness_reports(tt_machine):
    reports = gap_wellformedness(tt_machine, depth=10)
    assert [r.name for r in reports] == [
        "gap-total",
        "gap-functional",
        "gap-increasing",
        "gap-range",
    ]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("depth", [1, 0, -1])
def test_gap_wellformedness_refuses_depths_without_gaps(depth):
    # one state that rejects everything: only a depth with gaps can fail it
    reject_all = MultiTrackAutomaton(TWO_BITS, [[0] * 4], [0])
    with pytest.raises(ValueError, match=f"depth >= 2, got {depth}$"):
        gap_wellformedness(reject_all, depth=depth)
    reports = gap_wellformedness(reject_all, depth=2)
    assert [r.witness for r in reports if not r.passed] == [1]


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
    # one batched call per code length; row r of the result belongs to code r
    for t in range(0, 5):
        codes = list(all_codes(t))
        row, vals = accepted_numeric_values(sp_machine, codes, width=t + 1)
        # the rows of code_matrix(t) are the same batch
        same = accepted_numeric_values(sp_machine, code_matrix(t), width=t + 1)
        assert np.array_equal(row, same[0]) and np.array_equal(vals, same[1])
        for r, code in enumerate(codes):
            pairs = set(map(tuple, vals[row == r].tolist()))
            want = {(0, 0)}
            if t >= 1:
                dec = run_decompose(paperfolding_word(code))
                want |= {(n, int(dec.starts[n - 1])) for n in range(1, dec.count + 1)}
            assert pairs == want


def test_accepted_second_values_matches_brute_force(tt_machine):
    # the pruned walk must list exactly the x < 2**8 whose (n, x) word is
    # accepted, on the gap machine and on every single-label mutant of it
    # accepted[n, x] comes from one table gather per position over all
    # 2**16 (n, x) words, least significant bit first as encode_inputs writes
    width = 8
    machines = [tt_machine] + [
        mutated_label(tt_machine, q) for q in range(tt_machine.n_states)
    ]
    n, x = np.divmod(np.arange(2 ** (2 * width)), 2**width)
    for m in machines:
        column = np.array(
            [[m.symbols.index((a, b)) for b in (0, 1)] for a in (0, 1)]
        )
        q = np.zeros(n.size, dtype=np.intp)
        for i in range(width):
            q = m.table[q, column[(n >> i) & 1, (x >> i) & 1]]
        accepted = m.labels[q].reshape(2**width, 2**width)
        row, xs = accepted_second_values(m, np.arange(1, 2**width), width)
        for k in range(1, 2**width):
            want = np.flatnonzero(accepted[k]).tolist()
            assert xs[row == k - 1].tolist() == want, (m, k)


def _random_machine(rng, tracks, label=None):
    """A small random relation machine; `label` fixes every state's label."""
    n = rng.randint(1, 5)
    width = len(list(itertools.product(*tracks)))
    table = [[rng.randrange(n) for _ in range(width)] for _ in range(n)]
    labels = [rng.random() < 0.4 if label is None else label for _ in range(n)]
    return MultiTrackAutomaton(tracks, table, labels)


def _brute_force_values(a, rows):
    """Every accepted (row, *values), by running each free-track assignment."""
    out = []
    for r, fixed in enumerate(rows.tolist()):
        for vals in itertools.product(range(2 ** len(fixed)), repeat=len(a.tracks) - 1):
            word = [(s, *((v >> i) & 1 for v in vals)) for i, s in enumerate(fixed)]
            if a.accepts(word):
                out.append((r, *vals))
    return out


@pytest.mark.parametrize(
    "tracks",
    [
        (INSTRUCTION_TRACK, BIT_TRACK),
        (INSTRUCTION_TRACK, BIT_TRACK, BIT_TRACK),
        (BIT_TRACK, BIT_TRACK),
    ],
    ids=["instruction+bit", "instruction+2bits", "2bits"],
)
def test_batched_extraction_matches_brute_force(tracks):
    # seeded machines with random, all-accepting and all-rejecting labels;
    # batches of every size from empty up, mixing rows with and without
    # accepted words, at several widths
    rng = random.Random(17)
    seen = Counter()
    for label in [None] * 12 + [True, False]:
        m = _random_machine(rng, tracks, label)
        for width in range(0, 5 if len(tracks) == 2 else 4):
            k = rng.randint(0, 6)
            if tracks[0] == INSTRUCTION_TRACK:
                length = rng.randint(0, width)
                codes = []
                for _ in range(k):
                    e = rng.randint(0, length)
                    code = [rng.choice((1, -1)) for _ in range(e)]
                    codes.append(code + [0] * (length - e))
                rows = np.zeros((k, width), dtype=np.int64)
                rows[:, :length] = np.reshape(codes, (k, length))
                row, vals = accepted_numeric_values(m, codes, width)
            else:
                ns = [rng.randrange(2**width) for _ in range(k)]
                rows = (np.array(ns, dtype=np.int64)[:, None] >> np.arange(width)) & 1
                row, xs = accepted_second_values(m, ns, width)
                vals = xs.reshape(-1, 1)
            got = [(r, *v) for r, v in zip(row.tolist(), vals.tolist())]
            assert got == _brute_force_values(m, rows), (m, width, rows)
            hit = set(row.tolist())
            seen["empty batch"] += k == 0
            seen["mixed batch"] += 0 < len(hit) < k
            seen["accepting start"] += bool(m.labels[0])
            seen["rejecting start"] += not m.labels[0]
    assert min(seen.values()) > 0 and len(seen) == 4, seen


def test_accepted_second_values_rejects_indices_outside_the_width(tt_machine):
    with pytest.raises(ValueError, match="cannot carry the index 256$"):
        accepted_second_values(tt_machine, [3, 2**8], 8)
    with pytest.raises(ValueError, match="cannot carry the index -1$"):
        accepted_second_values(tt_machine, [-1], 8)
    with pytest.raises(ValueError, match=f"cannot carry the index {2**71}$"):
        accepted_second_values(tt_machine, [2**71], 8)
    # the largest index that fits is accepted as input; its value does not fit
    assert regular_gap_value(2**8 - 1) >= 2**8
    row, xs = accepted_second_values(tt_machine, [2**8 - 1], 8)
    assert row.size == xs.size == 0


def test_accepted_numeric_values_validates_inputs(sp_machine, rl_machine, tt_machine):
    with pytest.raises(ValueError, match="in output mode$"):
        accepted_numeric_values(rl_machine, ["+"], 3)
    with pytest.raises(ValueError, match=r"got tracks \(\(0, 1\), \(0, 1\)\)"):
        accepted_numeric_values(tt_machine, ["+"], 3)
    with pytest.raises(ValueError, match=r"width 3 shorter than code 0 .*\(5 symbols"):
        accepted_numeric_values(sp_machine, ["+++++"], 3)
    with pytest.raises(ValueError, match="code 2 of the batch has 3 symbols, code 0 "):
        accepted_numeric_values(sp_machine, ["+-", "--", "+-+"], 4)
    with pytest.raises(ValueError, match="single code '\\+-'"):
        accepted_numeric_values(sp_machine, "+-", 4)
    with pytest.raises(InvalidCodeError):  # padding before an instruction
        accepted_numeric_values(sp_machine, ["0+"], 4)
    with pytest.raises(InvalidCodeError, match=r"row 1 of the batch is no code"):
        accepted_numeric_values(sp_machine, np.array([[1, 0], [0, 1]]), 4)
    with pytest.raises(InvalidCodeError, match=r"row 0 of the batch is no code: \[2\]"):
        accepted_numeric_values(sp_machine, np.array([[2]]), 4)
    with pytest.raises(ValueError, match="one code per row"):
        accepted_numeric_values(sp_machine, np.array([1, -1]), 4)
    with pytest.raises(ValueError, match="two-bit-track"):
        accepted_second_values(sp_machine, [1], 4)
    with pytest.raises(ValueError, match=r"vector of indices, got shape \(\)"):
        accepted_second_values(tt_machine, 5, 4)


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
    # line numbers are 1-based, so input with no lines ends at line 1
    for empty, line in (("", 1), ("\n", 1), (" \t\n\n  ", 3)):
        with pytest.raises(AutomatonFormatError) as exc:
            read_automaton(io.StringIO(empty))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: unexpected end of file"


def test_read_names_duplicate_and_missing_transitions():
    lines = _written(_two_state()).splitlines()
    assert lines[5:] == ["trans 0 0 0", "trans 0 1 1", "trans 1 0 1", "trans 1 1 0"]
    duplicate = lines[:7] + ["trans 0 0 0"] + lines[7:]
    with pytest.raises(
        AutomatonFormatError, match="^line 8: duplicate transition for state 0 on '0'"
    ):
        read_automaton(io.StringIO("\n".join(duplicate) + "\n"))
    missing = lines[:5] + lines[6:]
    with pytest.raises(
        AutomatonFormatError,
        match=r"^line 8: state 0 is missing 1 transitions, e\.g\. \[\(0,\)\]",
    ):
        read_automaton(io.StringIO("\n".join(missing) + "\n"))


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
     "0", "1", "-1", "2", "40", "0;0", "1;1", "-1;0", ";", "x",
     "9223372036854775808", "-9223372036854775809"]
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
