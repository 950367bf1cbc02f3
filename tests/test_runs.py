"""Run decomposition, predicted boundaries, and factor scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MINUS,
    PLUS,
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
    run_end,
    run_length,
    run_length_word,
    run_span,
    run_start,
    square_occurrences,
    subword_complexity,
    window_bound,
)

from foldruns.runs import _family_run_data, _palindromic_factors, _regular_run_data

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
    assert dec.start(1) == 1
    assert dec.end(dec.count) == len(w)
    for k in range(1, dec.count):
        assert dec.start(k + 1) == dec.end(k) + 1
    for k in range(1, dec.count + 1):
        assert dec.length(k) == dec.end(k) - dec.start(k) + 1
        block = {w[i] for i in range(dec.start(k), dec.end(k) + 1)}
        assert len(block) == 1
        if k < dec.count:
            assert w[dec.end(k)] != w[dec.start(k + 1)]


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
    assert predicted[n - 1] == dec.end(n)


@settings(max_examples=150)
@given(codes_st, st.data())
def test_run_span_matches_decomposition(code, data):
    dec = run_decompose(paperfolding_word(code))
    n = data.draw(st.integers(min_value=1, max_value=dec.count))
    assert run_span(code, n) == (dec.start(n), dec.end(n))
    assert run_start(code, n) == dec.start(n)
    assert run_end(code, n) == dec.end(n)
    assert run_length(code, n) == dec.length(n)


def test_run_span_rejects_out_of_range():
    with pytest.raises(IndexError):
        run_span("++++", 0)
    with pytest.raises(IndexError):
        run_span("++++", 9)


def test_regular_fast_path_matches_generic():
    code = "+" * 11
    dec = run_decompose(paperfolding_word(code))
    for n in range(1, 2**10 + 1):
        assert regular_run_span(n) == (dec.start(n), dec.end(n))
    assert regular_run_start(5) == dec.start(5)
    assert regular_run_end(5) == dec.end(5)
    assert regular_run_length(5) == dec.length(5)


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


def test_square_occurrences():
    # the argument is the square root z; occurrences are of z.z
    assert square_occurrences(run_length_word("++++"), (2,)) == [3]
    assert square_occurrences((1, 2, 3), (2,)) == []
    assert square_occurrences((1, 2, 3, 1, 2, 3), (1, 2, 3)) == [1]


def test_palindromes_for_1111():
    got = find_palindromes(run_length_word("++++"), 3)
    assert got == {(1,), (2,), (3,), (2, 2), (2, 1, 2), (2, 3, 2)}


def test_palindromes_tiny_word():
    assert find_palindromes((2,), 1) == {(2,)}


def test_batched_palindromes_match_a_per_word_scan():
    rows = _family_run_data(6)[2]
    want = {
        w
        for row in rows.tolist()
        for k in range(1, 6)
        for i in range(len(row) - k + 1)
        if (w := tuple(row[i : i + k])) == w[::-1]
    }
    assert _palindromic_factors(rows, 5) == want


def test_window_bound_formula():
    assert window_bound(6) == 13 * 20
    assert window_bound(30) == 13 * 92
    assert min_code_length(1) == 8
    assert min_code_length(30) == 12


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
