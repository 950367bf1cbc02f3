"""Word construction, code parsing, and the closed-form term rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MINUS,
    PLUS,
    FoldCode,
    InvalidCodeError,
    MaterializationLimitError,
    PaperfoldingWord,
    all_codes,
    as_code,
    is_valid_code,
    negate,
    paperfolding_term,
    paperfolding_word,
)
from foldruns.foldcore import code_matrix, word_matrix

codes_st = st.lists(st.sampled_from((PLUS, MINUS)), min_size=1, max_size=10).map(
    tuple
)


def test_symbol_constants():
    assert PLUS == 1 and MINUS == -1
    assert negate(PLUS) == MINUS and negate(MINUS) == PLUS


def test_code_text_round_trip():
    for text in ("+", "-", "++-+", "+-0", "++00"):
        assert FoldCode.from_text(text).to_text() == text


@pytest.mark.parametrize("bad", ["0+", "+0-", "x", "+ -", "00+"])
def test_invalid_literals_rejected(bad):
    with pytest.raises(InvalidCodeError):
        FoldCode.from_text(bad)


def test_is_valid_code_trailing_padding_only():
    assert is_valid_code((1, -1, 0, 0))
    assert is_valid_code((0,))
    assert not is_valid_code((1, 0, -1))
    assert not is_valid_code((1, 2))


def test_effective_versus_stored():
    code = FoldCode.from_text("+-0")
    assert code.effective == (PLUS, MINUS)
    assert code.effective_length == 2
    assert code.stored_length == 3
    assert code.stripped() == FoldCode.from_text("+-")
    assert code.padded(5).symbols == (PLUS, MINUS, 0, 0, 0)
    assert code.instruction(0) == PLUS and code.instruction(1) == MINUS
    with pytest.raises(IndexError):
        code.instruction(2)


def test_padding_does_not_change_the_word():
    assert paperfolding_word("+-0") == paperfolding_word("+-")


def test_small_words():
    assert paperfolding_word("+").terms == (1,)
    assert paperfolding_word("++").terms == (1, 1, -1)
    assert paperfolding_word("+++").terms == (1, 1, -1, 1, 1, -1, -1)


def test_word_of_code_1111():
    # frozen 15-term expansion of the all-plus length-4 code
    assert paperfolding_word("++++").terms == (
        1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, -1, 1, -1, -1,
    )


def test_word_indexing_is_one_based():
    w = paperfolding_word("++")
    assert (w[1], w[2], w[3]) == (1, 1, -1)
    with pytest.raises(IndexError):
        w[0]
    with pytest.raises(IndexError):
        w[4]


@given(codes_st)
def test_word_length_formula(code):
    c = FoldCode(code)
    assert len(paperfolding_word(c)) == 2 ** len(code) - 1 == c.word_length()


@given(codes_st, st.sampled_from((PLUS, MINUS)))
def test_unfolding_recurrence(code, instruction):
    # P_{f.a} = P_f . a . -reverse(P_f)
    w = paperfolding_word(code).terms
    mirrored = tuple(-v for v in reversed(w))
    assert paperfolding_word(code + (instruction,)).terms == w + (instruction,) + mirrored


def test_unfolding_rejects_non_instructions():
    with pytest.raises(InvalidCodeError):
        paperfolding_word((PLUS, 2))


def test_family_matrices_match_single_words():
    for t in range(0, 7):
        codes = code_matrix(t)
        assert codes.tolist() == [list(c.symbols) for c in all_codes(t)]
        assert word_matrix(codes).tolist() == [
            list(paperfolding_word(c).terms) for c in all_codes(t)
        ]


@given(codes_st)
def test_prefix_property(code):
    # each word extends the previous one on the left
    w = paperfolding_word(code)
    longer = paperfolding_word(code + (PLUS,))
    assert longer.terms[: len(w)] == w.terms


@settings(max_examples=200)
@given(codes_st, st.data())
def test_closed_form_matches_materialized_word(code, data):
    w = paperfolding_word(code)
    n = data.draw(st.integers(min_value=1, max_value=len(w)))
    assert paperfolding_term(code, n) == w[n]


def test_power_of_two_positions_read_the_code():
    for code in all_codes(6):
        w = paperfolding_word(code)
        for k in range(code.effective_length):
            assert w[2**k] == code.instruction(k)


def test_paperfolding_term_bounds():
    with pytest.raises(IndexError):
        paperfolding_term("++", 0)
    with pytest.raises(IndexError):
        paperfolding_term("++", 4)


def test_all_codes_order_and_count():
    two = [c.symbols for c in all_codes(2)]
    assert two == [
        (PLUS, PLUS),
        (PLUS, MINUS),
        (MINUS, PLUS),
        (MINUS, MINUS),
    ]
    assert sum(1 for _ in all_codes(8)) == 256
    assert [c.symbols for c in all_codes(0)] == [()]


def test_as_code_accepts_text_sequences_and_codes():
    c = FoldCode.from_text("+-")
    assert as_code("+-") == c
    assert as_code((1, -1)) == c
    assert as_code(c) is c


def test_materialization_limit():
    with pytest.raises(MaterializationLimitError):
        paperfolding_word((PLUS,) * 31)


def test_word_equality_and_array_dtype():
    w = paperfolding_word("++")
    assert w == PaperfoldingWord((1, 1, -1))
    assert w.array.dtype == np.int8
    assert w.array.tolist() == [1, 1, -1]
