"""Run decomposition, predicted boundaries, and factor scans."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MINUS,
    PLUS,
    FoldCode,
    all_codes,
    assoc_code,
    find_overlaps,
    find_palindromes,
    find_squares,
    min_code_length,
    paperfolding_word,
    predicted_end_positions,
    regular_run_end,
    regular_run_length,
    regular_run_span,
    regular_run_start,
    right_extension_map,
    right_special_count,
    run_decompose,
    run_length_word,
    run_span,
    subword_complexity,
    window_bound,
)

from foldruns import runs
from foldruns.runs import (
    _FactorIndex,
    _Levels,
    _family_run_data,
    _join_ids,
    _palindromic_factors,
    _rank,
    _regular_run_data,
    _repetitions,
    _window_ids,
)
from foldruns import theorems
from foldruns.theorems import _spread_codes
from repetitions import periodic_hits

codes_st = st.lists(st.sampled_from((PLUS, MINUS)), min_size=1, max_size=10).map(
    tuple
)


def test_table_for_code_1111():
    # frozen run table of the all-plus length-4 code
    dec = run_decompose(paperfolding_word("++++"))
    assert dec.count == 8
    assert dec.lengths.tolist() == [2, 1, 2, 2, 3, 2, 1, 2]
    assert dec.starts.tolist() == [1, 3, 4, 6, 8, 11, 13, 14]
    assert dec.ends.tolist() == [2, 3, 5, 7, 10, 12, 13, 15]


@given(codes_st)
def test_decomposition_partitions_the_word(code):
    w = paperfolding_word(code)
    dec = run_decompose(w)
    assert dec.starts[0] == 1
    assert dec.ends[dec.count - 1] == len(w)
    for k in range(1, dec.count):
        assert dec.starts[k] == dec.ends[k - 1] + 1
    for k in range(1, dec.count + 1):
        assert dec.lengths[k - 1] == dec.ends[k - 1] - dec.starts[k - 1] + 1
        block = {w[i] for i in range(dec.starts[k - 1], dec.ends[k - 1] + 1)}
        assert len(block) == 1
        if k < dec.count:
            assert w[dec.ends[k - 1]] != w[dec.starts[k]]


@pytest.mark.parametrize(
    "scan",
    [run_decompose, find_squares, find_overlaps, lambda w: find_palindromes(w, 3)],
    ids=["decompose", "squares", "overlaps", "palindromes"],
)
@pytest.mark.parametrize(
    "word",
    [np.array([[1, -1], [1, 1]]), np.ones((2, 3)), np.array(1), [[1, -1], [1, 1]]],
    ids=["rows", "ones", "scalar", "nested-list"],
)
def test_word_arrays_must_be_one_dimensional(scan, word):
    # rows would be compared with each other, or flattened into one word
    with pytest.raises(ValueError, match="word terms must be one-dimensional"):
        scan(word)


def test_run_count_and_lengths_small_sweep():
    for t in range(1, 11):
        for code in all_codes(t):
            dec = run_decompose(paperfolding_word(code))
            assert dec.count == 2 ** (t - 1)
            assert set(dec.lengths.tolist()) <= {1, 2, 3}


def test_run_length_word_matches_decomposition():
    w = run_length_word("++++")
    assert w.tolist() == [2, 1, 2, 2, 3, 2, 1, 2]


def test_assoc_code_requires_two_instructions():
    with pytest.raises(ValueError):
        assoc_code("+")


def test_assoc_code_shrinks_by_one():
    for t in range(2, 9):
        for code in all_codes(t):
            assert assoc_code(code).effective_length == t - 1


def test_assoc_code_case_rule():
    assert assoc_code("++").to_text() == "+"
    assert assoc_code("+-").to_text() == "-"
    assert assoc_code("-+").to_text() == "-"
    assert assoc_code("--").to_text() == "+"
    assert assoc_code("++++").to_text() == "+--"
    assert assoc_code("--++").to_text() == "+++"


def test_predicted_end_positions_for_1111():
    assert predicted_end_positions("++++").tolist() == [2, 3, 5, 7, 10, 12, 13]


@settings(max_examples=150)
@given(
    st.lists(st.sampled_from((PLUS, MINUS)), min_size=2, max_size=10).map(tuple),
    st.data(),
)
def test_predicted_ends_match_actual(code, data):
    dec = run_decompose(paperfolding_word(code))
    predicted = predicted_end_positions(code)
    n = data.draw(st.integers(min_value=1, max_value=len(predicted)))
    assert predicted[n - 1] == dec.ends[n - 1]


@settings(max_examples=150)
@given(codes_st, st.data())
def test_run_span_matches_decomposition(code, data):
    dec = run_decompose(paperfolding_word(code))
    n = data.draw(st.integers(min_value=1, max_value=dec.count))
    s, e = run_span(code, n)
    assert (s, e) == (dec.starts[n - 1], dec.ends[n - 1])
    assert e - s + 1 == dec.lengths[n - 1]


def test_run_span_rejects_out_of_range():
    with pytest.raises(IndexError):
        run_span("++++", 0)
    with pytest.raises(IndexError):
        run_span("++++", 9)


def test_regular_fast_path_matches_generic():
    code = "+" * 11
    dec = run_decompose(paperfolding_word(code))
    for n in range(1, 2**10 + 1):
        assert regular_run_span(n) == (dec.starts[n - 1], dec.ends[n - 1])
    assert regular_run_start(5) == dec.starts[4]
    assert regular_run_end(5) == dec.ends[4]
    assert regular_run_length(5) == dec.lengths[4]


def test_regular_run_table_matches_pointwise_spans():
    lengths, ends = _regular_run_data(2**12)
    assert lengths.size == ends.size == 2**12
    for n in range(1, 2**12 + 1):
        s, e = regular_run_span(n)
        assert (int(lengths[n - 1]), int(ends[n - 1])) == (e - s + 1, e)


def test_regular_fast_path_reaches_huge_indices():
    # O(log n): far beyond anything materializable
    n = 10**12 + 7
    s, e = regular_run_span(n)
    assert 1 <= e - s + 1 <= 3
    assert regular_run_end(n - 1) + 1 == s


def test_find_overlaps_positive():
    assert find_overlaps((1, 2, 1, 2, 1)) == [(1, 2)]
    assert find_overlaps((1, 1, 1)) == [(1, 1)]


def test_find_overlaps_on_run_length_words():
    for t in range(1, 9):
        for code in all_codes(t):
            assert find_overlaps(run_length_word(code)) == []


def test_find_squares_for_1111():
    assert find_squares(run_length_word("++++")) == {(2, 2)}


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("symbols", [1, 2, 3, 4])
def test_periodic_windows_match_the_definition_on_random_rows(symbols, extra):
    # every period of every width 0..40 and 0..3 rows, compared with the slices
    rng = np.random.default_rng(symbols)
    for width in range(41):
        shape = (width % 4, width)
        rows = rng.integers(1, symbols + 1, size=shape).astype(np.int8)
        r, i, p = _repetitions(_Levels(rows), extra)
        got = sorted(zip(r.tolist(), i.tolist(), p.tolist()))
        assert got == sorted(periodic_hits(rows, extra)), width


@pytest.mark.parametrize("block", [3, 100, 2**15])
def test_repetitions_do_not_depend_on_the_sample_block(monkeypatch, block):
    rows = _family_run_data(6)[1].copy()
    rows[3, 10:15] = (1, 2, 1, 2, 1)
    rows[9, 0:4] = (3, 3, 3, 3)
    monkeypatch.setattr(runs, "_SAMPLE_BLOCK", block)
    for extra in (0, 1):
        r, i, p = _repetitions(_Levels(rows), extra)
        got = sorted(zip(r.tolist(), i.tolist(), p.tolist()))
        assert got == sorted(periodic_hits(rows, extra))


def test_squares_and_overlaps_of_a_square_rich_word():
    w = (1, 1, 1, 2, 1, 2, 1, 2)
    assert find_squares(w) == {(1, 1), (1, 2, 1, 2), (2, 1, 2, 1)}
    assert find_overlaps(w) == [(1, 1), (3, 2), (4, 2)]


def test_palindromes_for_1111():
    got = find_palindromes(run_length_word("++++"), 3)
    assert got == {(1,), (2,), (3,), (2, 2), (2, 1, 2), (2, 3, 2)}


def test_palindromes_tiny_word():
    assert find_palindromes((2,), 1) == {(2,)}


def test_palindromes_of_symbols_far_apart():
    # symbols are ranked, never packed, so no key can overflow int64
    big = 2**62
    word = (big, -big, big, -big, -big, big)
    assert find_palindromes(word, 6) == _palindromes_by_scan(np.array([word]), 6)


def test_palindromes_up_to_length_zero_are_none():
    rows = np.array([[1, 2, 1, 3], [2, 2, 3, 3]])
    assert runs._palindromic_factors(rows, 0) == set()
    assert runs._palindromic_factors(rows, 1) == {(1,), (2,), (3,)}
    # the check finds nothing at max_len 0, so its witness is the first missing
    witness = theorems.palindromes(max_len=0).witness
    assert witness == ("missing", min(theorems.EXPECTED_PALINDROMES))


def _palindromes_by_scan(rows, max_len):
    return {
        w
        for row in rows.tolist()
        for k in range(1, max_len + 1)
        for i in range(len(row) - k + 1)
        if (w := tuple(row[i : i + k])) == w[::-1]
    }


def test_batched_palindromes_match_a_per_word_scan():
    rows = _family_run_data(6)[1]
    assert _palindromic_factors(rows, 5) == _palindromes_by_scan(rows, 5)


@pytest.mark.parametrize("symbols, width, max_len", [(2, 40, 14), (3, 9, 12)])
def test_palindromes_match_a_per_word_scan_on_random_rows(symbols, width, max_len):
    # run-length words have no palindrome past length 5; random rows over
    # two symbols have long ones, and max_len may exceed the width
    rows = np.random.default_rng(9).integers(1, symbols + 1, size=(20, width))
    rows = rows.astype(np.int8)
    assert _palindromic_factors(rows, max_len) == _palindromes_by_scan(rows, max_len)


def test_window_bound_formula():
    assert window_bound(6) == 13 * 20
    assert window_bound(30) == 13 * 92
    assert min_code_length(1) == 8
    assert min_code_length(30) == 12


def _factor_keys(runs, n):
    """Each length-n factor of each row, as one base-4 integer (runs are 1..3)."""
    windows = np.lib.stride_tricks.sliding_window_view(runs, n, axis=-1)
    return windows.astype(np.int64) @ (4 ** np.arange(n, dtype=np.int64))


def _assert_window_holds_every_factor(codes, lengths, ends, n):
    # the factors of runs that end inside window_bound(n) must be all the
    # factors of the word without its last run, which the next instruction
    # can lengthen
    whole = _factor_keys(lengths[:, :-1], n)
    inside = (ends <= window_bound(n)).sum(axis=1)
    for code, keys, k in zip(codes, whole, inside.tolist()):
        assert k < lengths.shape[1]
        missing = np.setdiff1d(keys, keys[: k - n + 1])
        assert missing.size == 0, f"code {code}, n={n}: {missing.size} factors outside"


def test_window_bound_holds_every_factor_of_the_length_10_family():
    codes, lengths, ends = _family_run_data(10)
    ns = [n for n in range(1, 31) if min_code_length(n) <= 10]
    assert ns == list(range(1, 13))
    for n in ns:
        _assert_window_holds_every_factor(codes.tolist(), lengths, ends, n)


def test_window_bound_holds_every_factor_of_the_complexity_sample():
    # the codes and factor lengths complexity() and right_special_exactly_four()
    # read through the window
    for code in _spread_codes(14, 16):
        dec = run_decompose(paperfolding_word(code))
        for n in range(6, 31):
            _assert_window_holds_every_factor(
                [code.to_text()], dec.lengths[None, :], dec.ends[None, :], n
            )


def test_factor_scans_build_only_the_window_prefix(monkeypatch):
    # the runs that end inside window_bound(n) lie in the word of the first
    # min_code_length(n) instructions, so no scan builds more of the word
    real, built = runs.paperfolding_word, []

    def recording(code):
        built.append(FoldCode(code).effective_length)
        return real(code)

    monkeypatch.setattr(runs, "paperfolding_word", recording)
    code = "+-++--+-+++-+--++--+"
    for n in (1, 6, 12, 30):
        built.clear()
        subword_complexity(code, n)
        right_special_count(code, n)
        right_extension_map(code, n)
        assert len(built) == 3 and max(built) <= min_code_length(n + 1)


def test_window_prefix_is_the_whole_words_window():
    rng = np.random.default_rng(23)
    for t in (8, 11, 14, 17, 20):
        for code in rng.choice([PLUS, MINUS], size=(3, t)).tolist():
            dec = run_decompose(paperfolding_word(code))
            for n in range(1, 31):
                if min_code_length(n) > t:
                    break
                k = np.searchsorted(dec.ends, window_bound(n), side="right")
                index = _FactorIndex(code, n)
                assert index.runs.tolist() == dec.lengths[:k].tolist()
                assert index.columns(n) == k


def test_subword_complexity_examples():
    code = "+" * 12
    assert subword_complexity(code, 6) == 28
    assert subword_complexity(code, 7) == 32


def test_subword_complexity_rejects_short_codes():
    with pytest.raises(ValueError):
        subword_complexity("++++", 1)


def test_right_special_examples():
    assert right_special_count("+" * 12, 6) == 4
    assert right_special_count("+" * 14, 20) == 4


def test_right_extension_map_never_three():
    for code in ("+" * 12, "+-" * 6, "--++-+-++-++"):
        for n in range(2, 9):
            ext = right_extension_map(code, n)
            assert all(1 <= len(v) <= 2 for v in ext.values())


def test_right_special_count_at_five_is_five():
    # p(6) - p(5) equals the number of two-extension factors of length 5,
    # because no factor extends three ways; the count is five, not four
    for code in ("+" * 12, "-" * 12, "+-" * 6):
        p5 = subword_complexity(code, 5)
        p6 = subword_complexity(code, 6)
        rs5 = right_special_count(code, 5)
        assert p5 == 23 and p6 == 28
        assert rs5 == p6 - p5 == 5


def test_complexity_increment_is_four_past_six():
    code = "+" * 14
    values = [subword_complexity(code, n) for n in range(6, 16)]
    assert values[0] == 28
    assert all(b - a == 4 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("block_cells", [1, 100, 2**18])
def test_family_run_data_matches_per_word_decomposition(monkeypatch, block_cells):
    # blocks of one row, of a few rows, and the default must all agree
    monkeypatch.setattr(runs, "_RUN_BLOCK_CELLS", block_cells)
    for t in range(1, 8):
        codes, lengths, ends = _family_run_data(t)
        assert lengths.dtype == np.int8 and ends.dtype == np.int32
        for code, row_lengths, row_ends in zip(codes, lengths, ends):
            dec = run_decompose(paperfolding_word(code.tolist()))
            assert row_lengths.tolist() == dec.lengths.tolist()
            assert row_ends.tolist() == dec.ends.tolist()


@pytest.mark.parametrize("shape", [(0,), (1,), (3, 0), (4, 9), (2, 300)])
def test_rank_is_the_unique_inverse(shape):
    keys = np.random.default_rng(3).integers(-5, 40, shape)
    want = np.unique(keys, return_inverse=True)[1].reshape(shape)
    assert _rank(keys).tolist() == want.tolist()


@pytest.mark.parametrize("low, high", [(0, 2), (1, 4), (-128, 128)])
def test_window_ids_name_windows_exactly(low, high):
    # equal ids exactly when the slices are equal, numbered 0..K-1 in
    # lexicographic order; int8 rows cover negative symbols and sparse keys.
    # Growing the windows one symbol at a time with _join_ids gives the same ids.
    rows = np.random.default_rng(7).integers(low, high, (5, 40), dtype=np.int8)
    ones = grown = _window_ids(rows, 1)
    for m in range(1, 43):
        ids = _window_ids(rows, m)
        assert ids.shape == (5, max(0, 41 - m))
        windows = [
            tuple(row[j : j + m]) for row in rows.tolist() for j in range(41 - m)
        ]
        rank = {w: i for i, w in enumerate(sorted(set(windows)))}
        assert ids.ravel().tolist() == [rank[w] for w in windows]
        if 1 < m <= 40:
            grown = _join_ids(grown, ones, m - 1)
            assert grown.tolist() == ids.tolist()


def _windowed_prefix(code, n):
    dec = run_decompose(paperfolding_word(code))
    return dec.lengths[dec.ends <= window_bound(n)].tolist()


def _reference_complexity(code, n):
    w = _windowed_prefix(code, n)
    return len({tuple(w[i : i + n]) for i in range(len(w) - n + 1)})


def _reference_extensions(code, n):
    w = _windowed_prefix(code, n + 1)
    ext = defaultdict(set)
    for i in range(len(w) - n):
        ext[tuple(w[i : i + n])].add(w[i + n])
    return {k: frozenset(v) for k, v in ext.items()}


def _assert_factor_scans_match_reference(code, n):
    ext = _reference_extensions(code, n)
    assert subword_complexity(code, n) == _reference_complexity(code, n)
    assert right_extension_map(code, n) == ext
    assert right_special_count(code, n) == sum(len(v) >= 2 for v in ext.values())


def test_factor_scans_match_reference_on_the_length_10_family():
    for code in all_codes(10):
        for n in range(1, 6):
            _assert_factor_scans_match_reference(code, n)


def test_factor_scans_match_reference_on_the_complexity_sample():
    for code in _spread_codes(14, 16):
        for n in range(6, 31):
            _assert_factor_scans_match_reference(code, n)


def test_factor_scans_match_reference_past_32():
    # long factors: no packing of symbols into one integer can overflow
    code = "+-++-+--+-++--+-"
    for n in (32, 33, 45):
        _assert_factor_scans_match_reference(code, n)


def _seeded_codes():
    rng = np.random.default_rng(2024)
    return [
        FoldCode(rng.choice([PLUS, MINUS], size=t).tolist()) for t in range(12, 17)
    ]


def _scan_top(t):
    # the largest n whose right extensions fit the window of a length-t code
    n = 1
    while min_code_length(n + 2) <= t:
        n += 1
    return n


def test_factor_scans_match_reference_on_seeded_codes():
    for code in _seeded_codes():
        for n in range(1, min(_scan_top(code.effective_length), 40) + 1):
            _assert_factor_scans_match_reference(code, n)


def _repeats(row, extra):
    # (i, p): the first p + extra symbols at i equal the ones p places later
    m = len(row)
    return [
        (i, p)
        for p in range(1, (m - extra) // 2 + 1)
        for i in range(m - 2 * p - extra + 1)
        if row[i : i + p + extra] == row[i + p : i + 2 * p + extra]
    ]


def _squares_by_definition(row):
    return {tuple(row[i : i + 2 * p]) for i, p in _repeats(row, 0)}


def _overlaps_by_definition(row):
    return sorted((i + 1, p) for i, p in _repeats(row, 1))


def test_squares_and_overlaps_match_the_definition_on_the_length_10_family():
    for t in range(1, 11):
        codes, lengths, _ = _family_run_data(t)
        squares = defaultdict(set)
        overlaps = defaultdict(list)
        for r, i, p in periodic_hits(lengths, 0):
            squares[r].add(tuple(lengths[r, i : i + 2 * p].tolist()))
        for r, i, p in periodic_hits(lengths, 1):
            overlaps[r].append((i + 1, p))
        for r, row in enumerate(lengths):
            assert find_squares(row) == squares[r], (t, r)
            assert find_overlaps(row) == sorted(overlaps[r]), (t, r)


def test_squares_and_overlaps_match_the_definition_on_random_words():
    rng = np.random.default_rng(31)
    for _ in range(3000):
        letters = int(rng.integers(1, 4))
        row = rng.integers(1, letters + 1, size=int(rng.integers(1, 61))).tolist()
        assert find_squares(row) == _squares_by_definition(row), row
        assert find_overlaps(row) == _overlaps_by_definition(row), row


def test_squares_and_overlaps_of_highly_periodic_words():
    # Θ(m²) hits over many periods: each square is read back once per name
    for word in ([1] * 150, [1, 2, 1] * 40 + [1] * 60 + [2, 1] * 20):
        assert find_squares(word) == _squares_by_definition(word)
        assert find_overlaps(word) == _overlaps_by_definition(word)
