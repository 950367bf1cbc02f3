"""Exact continued fractions and the run-length correspondence."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MAX_ALPHA_INDEX,
    alpha_value,
    canonical,
    cf_from_rational,
    cf_theorem_check,
    cf_to_rational,
    fold_step,
    folded_alpha,
    predicted_cf,
    set_parity,
)
from foldruns import contfrac
from foldruns.cli import run

EXAMPLE_EPS = (1, -1, -1, 1)
EXAMPLE_CF = (0, 1, 4, 4, 2, 6, 4, 2, 4, 4, 6, 4, 2, 4, 6, 2, 4, 5)

fractions_st = st.fractions(
    min_value=Fraction(1, 500), max_value=Fraction(499, 500)
)

cf_terms_st = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=8
).map(lambda body: (0, *body[:-1], body[-1] + 1))


def test_cf_to_rational_basics():
    assert cf_to_rational((0, 2)) == Fraction(1, 2)
    assert cf_to_rational((0, 1, 1)) == Fraction(1, 2)
    assert cf_to_rational((0, 4, 2, 6)) == Fraction(13, 58)


def test_cf_from_rational_is_canonical():
    terms = cf_from_rational(Fraction(13, 58))
    assert terms == (0, 4, 2, 6)
    assert terms[-1] >= 2


@given(fractions_st)
def test_cf_round_trip(r):
    terms = cf_from_rational(r)
    assert cf_to_rational(terms) == r
    assert terms[-1] >= 2 or terms == (0,)


@given(cf_terms_st)
def test_canonical_preserves_value(terms):
    assert cf_to_rational(canonical(terms)) == cf_to_rational(terms)


@given(cf_terms_st, st.sampled_from(("odd", "even")))
def test_set_parity(terms, parity):
    adjusted = set_parity(terms, parity)
    assert cf_to_rational(adjusted) == cf_to_rational(terms)
    want_odd = parity == "odd"
    assert ((len(adjusted) - 1) % 2 == 1) == want_odd


@settings(max_examples=300)
@given(cf_terms_st, st.sampled_from((1, -1)))
def test_folding_identity(terms, eps):
    terms = set_parity(terms, "odd")
    value = cf_to_rational(terms)
    folded = fold_step(terms, eps)
    q = value.denominator
    assert cf_to_rational(folded) == value + Fraction(eps, q * q)


def test_alpha_value_example():
    v = alpha_value(EXAMPLE_EPS)
    assert v == Fraction(3472818177, 2**32)


def test_alpha_value_bounds():
    with pytest.raises(ValueError):
        alpha_value(())
    with pytest.raises(ValueError):
        alpha_value((1, 0))
    with pytest.raises(ValueError):
        alpha_value((1,) * MAX_ALPHA_INDEX)


def test_predicted_cf_example():
    assert predicted_cf(EXAMPLE_EPS) == EXAMPLE_CF
    assert cf_from_rational(alpha_value(EXAMPLE_EPS)) == EXAMPLE_CF


def test_predicted_cf_smallest():
    # eps = (+1,): word of (1, 1) has runs 2, 1 -> doubled 4, 2, last + 1
    assert predicted_cf((1,)) == (0, 1, 4, 3)
    assert cf_from_rational(alpha_value((1,))) == (0, 1, 4, 3)


def test_folded_alpha_agrees_with_direct_sum():
    for eps in ((1,), (-1,), EXAMPLE_EPS, (1, 1, -1), (-1, 1, -1, 1)):
        value, terms = folded_alpha(eps)
        assert value == alpha_value(eps)
        assert cf_to_rational(terms) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=9).map(tuple))
def test_prediction_matches_computation(eps):
    assert cf_from_rational(alpha_value(eps)) == predicted_cf(eps)


def test_cf_theorem_check_passes():
    report = cf_theorem_check(6)
    assert report.passed
    assert report.name == "cf-run-length-correspondence"
    assert report.witness is None


def test_cf_theorem_check_rejects_bad_bounds():
    with pytest.raises(ValueError):
        cf_theorem_check(1)
    with pytest.raises(ValueError):
        cf_theorem_check(MAX_ALPHA_INDEX + 1)


def test_corrupted_prediction_is_detected():
    # bumping any single term breaks the equality against the computed CF
    computed = cf_from_rational(alpha_value(EXAMPLE_EPS))
    for k in range(1, len(EXAMPLE_CF)):
        tampered = list(EXAMPLE_CF)
        tampered[k] += 1
        assert tuple(tampered) != computed
        assert cf_to_rational(tampered) != alpha_value(EXAMPLE_EPS)


def _linear_cf_value(terms):
    # one convergent step per term, the recurrence cf_to_rational chunks
    p_prev, p, q_prev, q = 1, terms[0], 0, 1
    for a in terms[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return Fraction(p, q)


@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 33])
def test_cf_to_rational_matches_linear_recurrence(length):
    rng = random.Random(length)
    checked = 0
    while checked < 200:
        terms = [rng.randint(-4, 9) for _ in range(length)]
        try:
            want = _linear_cf_value(terms)
        except ZeroDivisionError:
            continue
        assert cf_to_rational(terms) == want
        assert cf_to_rational(tuple(terms)) == want
        checked += 1
    big = [rng.randrange(10**30) for _ in range(length)]
    assert cf_to_rational(big) == _linear_cf_value(big)


def test_cf_to_rational_with_no_finite_value():
    message = r"^expansion \[0, 0\] has no finite value$"
    with pytest.raises(ZeroDivisionError, match=message):
        cf_to_rational((0, 0))
    with pytest.raises(ValueError):
        cf_to_rational(())


def _alpha_reference(eps):
    total = Fraction(1, 2) + Fraction(1, 4)
    for i, x in enumerate(eps, start=2):
        total += Fraction(x, 2 ** (2**i))
    return total


def test_alpha_value_matches_termwise_sum():
    for n in range(2, 10):
        for eps in product((1, -1), repeat=n - 1):
            assert alpha_value(eps) == _alpha_reference(eps)


def test_alpha_value_at_the_cap():
    rng = random.Random(16)
    for _ in range(4):
        eps = tuple(rng.choice((1, -1)) for _ in range(MAX_ALPHA_INDEX - 1))
        value = alpha_value(eps)
        assert value == _alpha_reference(eps)
        assert value.denominator == 2 ** (2**MAX_ALPHA_INDEX)
        assert value.numerator % 2 == 1
    with pytest.raises(ValueError, match="capped at n = 16"):
        alpha_value((1,) * MAX_ALPHA_INDEX)


BUMPED_EPS = (1, -1, -1, 1)  # n = 5


def _bump_prediction(monkeypatch):
    honest = contfrac.predicted_cf

    def bumped(eps):
        terms = honest(eps)
        if tuple(eps) == BUMPED_EPS:
            terms = (*terms[:3], terms[3] + 1, *terms[4:])
        return terms

    monkeypatch.setattr(contfrac, "predicted_cf", bumped)
    return bumped


def test_cf_theorem_check_reports_the_euclid_witness(monkeypatch, capsys):
    bumped = _bump_prediction(monkeypatch)
    report = cf_theorem_check(6)
    assert not report.passed
    assert report.bound == "n<=6"
    assert report.witness == (
        BUMPED_EPS,
        cf_from_rational(alpha_value(BUMPED_EPS)),
        canonical(bumped(BUMPED_EPS)),
    )
    assert run(["cf", "--sweep", "6"]) == 1
    assert capsys.readouterr().out == str(report) + "\n"


def test_cf_theorem_check_runs_one_euclid_per_n(monkeypatch):
    calls = []
    euclid = contfrac.cf_from_rational

    def counted(r):
        calls.append(r)
        return euclid(r)

    monkeypatch.setattr(contfrac, "cf_from_rational", counted)
    assert cf_theorem_check(6).passed
    assert calls == [alpha_value((1,) * (n - 1)) for n in range(2, 7)]


def test_cf_theorem_check_stops_when_value_and_euclid_disagree(monkeypatch):
    euclid = contfrac.cf_from_rational
    monkeypatch.setattr(contfrac, "cf_from_rational", lambda r: euclid(r) + (1,))
    with pytest.raises(RuntimeError, match=r"eps=\(1,\)$"):
        cf_theorem_check(4)
