"""Exact continued fractions and the run-length correspondence."""

import functools
import hashlib
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldruns import (
    MAX_ALPHA_INDEX,
    CheckReport,
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
from foldruns import contfrac, runs
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
    with pytest.raises(ZeroDivisionError, match=message):
        cf_to_rational(np.array([0, 0]))
    with pytest.raises(ValueError):
        cf_to_rational(())


def test_cf_to_rational_takes_numpy_integers_exactly():
    # int64 products overflow here; every term is taken as a Python int
    want = Fraction(
        1000000000000000003000000000000000001,
        1000000000000000004000000000000000003000000000,
    )
    assert _linear_cf_value([0] + [10**9] * 5) == want
    assert cf_to_rational(np.array([0] + [10**9] * 5)) == want
    assert cf_to_rational(np.array(EXAMPLE_CF)) == alpha_value(EXAMPLE_EPS)
    eps = (1, -1) * 4
    assert cf_to_rational(np.array(predicted_cf(eps))) == alpha_value(eps)


def _seam(terms):
    # index in terms of the seam term u of the core terms[2:-1]
    return 2 + (len(terms) - 3 + 1) // 2 - 1


def _replaced(terms, index, value):
    return [*terms[:index], value, *terms[index + 1 :]]


_PREDICTED_8 = predicted_cf((1, -1, 1, 1, -1, -1, 1))


@pytest.mark.parametrize(
    "terms",
    [
        [0, 2.5],
        [0.0, 2],
        [0, 1, 2, Fraction(3)],
        _replaced(_PREDICTED_8, len(_PREDICTED_8) - 1, 2.0),
        _replaced(_PREDICTED_8, 2, 4.0),
        _replaced(_PREDICTED_8, _seam(_PREDICTED_8), 4.0),
    ],
    ids=[
        "float",
        "float-a0",
        "fraction",
        "float-last",
        "float-first-of-p",
        "float-seam",
    ],
)
def test_cf_to_rational_refuses_non_integral_terms(terms):
    with pytest.raises(TypeError):
        cf_to_rational(terms)


def _agrees_with_linear(terms):
    try:
        want = _linear_cf_value(terms)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            cf_to_rational(terms)
        return
    assert cf_to_rational(terms) == want


def _loop_terms(monkeypatch):
    """The lengths of the sequences that reach the per-term chunk loop."""
    seen = []
    chunked = contfrac._chunked

    def counted(m, seq):
        seen.append(len(seq))
        return chunked(m, seq)

    monkeypatch.setattr(contfrac, "_chunked", counted)
    return seen


def _fold(p, u, v, j):
    # (P, u, v, rev(P[j:])), the shape cf_to_rational splits at its seam
    return (*p, u, v, *p[j:][::-1])


_PICKS = {
    "small": lambda rng: rng.randint(1, 9),
    "zero-negative": lambda rng: rng.randint(-3, 3),
    "30-digit": lambda rng: rng.randrange(10**29, 10**30),
}


def _nested_mirror(rng, pick, levels, j):
    seq = tuple(pick(rng) for _ in range(rng.randint(1, 5)))
    for level in range(levels):
        parity = j if level == levels - 1 else rng.randint(0, 1)
        seq = _fold(seq, pick(rng), pick(rng), parity)
    return seq


@pytest.mark.parametrize("j", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("kind", sorted(_PICKS))
def test_nested_mirrors_match_linear_recurrence(monkeypatch, kind, j):
    rng, pick = random.Random(f"{kind}{j}"), _PICKS[kind]
    seen = _loop_terms(monkeypatch)
    for _ in range(20):
        core = _nested_mirror(rng, pick, 6, j)
        assert len(core) % 2 == j and len(core) >= contfrac._MIRROR_MIN
        terms = (pick(rng), pick(rng), *core, pick(rng))
        seen.clear()
        _agrees_with_linear(terms)
        assert sum(seen) < len(terms) // 2
        _agrees_with_linear(core)


@pytest.mark.parametrize("j", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize(
    "where", ["mirrored-half", "seam-u", "seam-v", "first-of-p", "inside-p"]
)
def test_near_mirrors_match_linear_recurrence(j, where):
    rng = random.Random(f"{where}{j}")
    for _ in range(10):
        inner = _nested_mirror(rng, _PICKS["small"], 4, rng.randint(0, 1))
        core = _fold(inner, 5, 7, j)
        k = len(inner)
        index = {
            "mirrored-half": rng.randrange(k + 2, len(core)),
            "seam-u": k,
            "seam-v": k + 1,
            "first-of-p": 0,
            "inside-p": rng.randrange(1, k),
        }[where]
        for delta in (1, -1, -5, 10**30):
            bent = list(core)
            bent[index] += delta
            _agrees_with_linear((0, 1, *bent, 3))
            _agrees_with_linear(bent)


@pytest.mark.parametrize(
    "length",
    [contfrac._MIRROR_MIN - 1, contfrac._MIRROR_MIN, contfrac._MIRROR_MIN + 1],
)
def test_mirrored_cores_at_the_split_threshold(monkeypatch, length):
    rng = random.Random(length)
    j = length % 2
    seen = _loop_terms(monkeypatch)
    for _ in range(50):
        p = tuple(rng.randint(-2, 9) for _ in range((length + j) // 2 - 1))
        core = _fold(p, rng.randint(-2, 9), rng.randint(-2, 9), j)
        assert len(core) == length
        terms = (rng.randint(0, 3), rng.randint(-2, 9), *core, rng.randint(-2, 9))
        seen.clear()
        _agrees_with_linear(terms)
        split = length >= contfrac._MIRROR_MIN
        assert (sum(seen) < len(terms)) == split


def test_every_prediction_to_n9_matches_linear_recurrence():
    for n in range(2, 10):
        for eps in product((1, -1), repeat=n - 1):
            terms = predicted_cf(eps)
            assert cf_to_rational(terms) == _linear_cf_value(terms)
            assert cf_to_rational(terms) == alpha_value(eps)


def test_n12_prediction_rarely_reaches_the_term_loop(monkeypatch):
    # without the mirror split all 2,050 terms go through the loop
    eps = tuple(random.Random(12).choice((1, -1)) for _ in range(11))
    terms = predicted_cf(eps)
    assert len(terms) == 2050
    seen = _loop_terms(monkeypatch)
    assert cf_to_rational(terms) == alpha_value(eps)
    assert sum(seen) < 64


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


def _bump_prediction(monkeypatch, target=BUMPED_EPS, index=3):
    """Add 1 to term `index` of the prediction for `target`.

    Both sources of predictions are bumped: predicted_cf, the one-vector
    path, and the family rows the sweep decides by.
    """
    honest, honest_blocks = contfrac.predicted_cf, contfrac._predicted_blocks

    def bumped(eps):
        terms = honest(eps)
        if tuple(eps) == target:
            terms = (*terms[:index], terms[index] + 1, *terms[index + 1 :])
        return terms

    def bumped_blocks(n):
        for signs, rows in honest_blocks(n):
            for r, eps in enumerate(signs.tolist()):
                if tuple(eps) == target:
                    rows[r, index] += 1
            yield signs, rows

    monkeypatch.setattr(contfrac, "predicted_cf", bumped)
    monkeypatch.setattr(contfrac, "_predicted_blocks", bumped_blocks)
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


BUMPED_EPS_10 = (1, -1, -1, 1, 1, -1, -1, -1, 1)
# SHA-256 of str(cf_theorem_check(10)) with term 400 of
# predicted_cf(BUMPED_EPS_10) bumped by one, as evaluated term by term
# before cf_to_rational split mirrored expansions
BUMPED_10_REPORT = "b0544491ff3d74507644fbddc8c521a56fe08c1664dc0e45b5cdddaa7a894321"


def test_cf_sweep_reports_a_bump_in_the_mirrored_half(monkeypatch, capsys):
    terms = predicted_cf(BUMPED_EPS_10)
    assert len(terms) == 514 and _seam(terms) + 2 <= 400 < len(terms) - 1
    _bump_prediction(monkeypatch, BUMPED_EPS_10, 400)
    report = cf_theorem_check(10)
    assert report.witness[0] == BUMPED_EPS_10
    assert hashlib.sha256(str(report).encode()).hexdigest() == BUMPED_10_REPORT
    assert run(["cf", "--sweep", "10"]) == 1
    assert capsys.readouterr().out == str(report) + "\n"


def _reference_check(n_max, n_min=2):
    """cf_theorem_check one vector at a time: a word and a Fraction per vector.

    With n_min > 2 it is the whole sweep only when every n < n_min passes.
    """
    name, bound = "cf-run-length-correspondence", f"n<={n_max}"
    for n in range(n_min, n_max + 1):
        for k, eps in enumerate(product((1, -1), repeat=n - 1)):
            alpha = contfrac.alpha_value(eps)
            terms = contfrac.predicted_cf(eps)
            agrees = contfrac.cf_to_rational(terms) == alpha
            if k == 0:
                assert (contfrac.cf_from_rational(alpha) == terms) == agrees
            if not agrees:
                computed = contfrac.cf_from_rational(alpha)
                witness = (eps, computed, contfrac.canonical(terms))
                return CheckReport(name, bound, witness)
    return CheckReport(name, bound)


@functools.cache
def _reference_passes_below(n):
    return _reference_check(n - 1).passed


_REGION_TARGETS = {
    10: BUMPED_EPS_10,
    12: (1, 1, 1, 1, 1, 1, -1, 1, -1, 1, -1),
}

# index of the bumped term of the predicted expansion, given its length
_REGIONS = {
    "head": lambda size: 1,
    "first-of-p": lambda size: 2,
    "inside-p": lambda size: 2 + (_seam(range(size)) - 2) // 3,
    "seam-u": lambda size: _seam(range(size)),
    "seam-v": lambda size: _seam(range(size)) + 1,
    "mirrored-half": lambda size: (_seam(range(size)) + size) // 2,
    "last": lambda size: size - 1,
}


@pytest.mark.parametrize("region", sorted(_REGIONS))
@pytest.mark.parametrize("n", sorted(_REGION_TARGETS))
def test_bump_by_region_matches_the_per_vector_sweep(monkeypatch, capsys, n, region):
    target = _REGION_TARGETS[n]
    index = _REGIONS[region](2 + 2 ** (n - 1))
    assert _reference_passes_below(n)
    _bump_prediction(monkeypatch, target, index)
    reference = _reference_check(n, n_min=n)
    assert reference.witness[0] == target
    report = cf_theorem_check(n)
    assert str(report) == str(reference)
    assert run(["cf", "--sweep", str(n)]) == 1
    assert capsys.readouterr().out == str(reference) + "\n"


def test_family_rows_are_the_predictions():
    for n in range(2, 10):
        seen = []
        for signs, rows in contfrac._predicted_blocks(n):
            for eps, terms in zip(map(tuple, signs.tolist()), rows.tolist()):
                assert tuple(terms) == predicted_cf(eps)
                seen.append(eps)
        assert seen == list(product((1, -1), repeat=n - 1))
    rng = random.Random(12)
    picked = {tuple(rng.choice((1, -1)) for _ in range(11)) for _ in range(64)}
    found = {}
    for signs, rows in contfrac._predicted_blocks(12):
        for eps, terms in zip(map(tuple, signs.tolist()), rows):
            if eps in picked:
                found[eps] = tuple(terms.tolist())
    assert found == {eps: predicted_cf(eps) for eps in picked}


def test_cf_theorem_check_stops_when_family_and_predicted_cf_disagree(monkeypatch):
    honest = contfrac.predicted_cf

    def bent(eps):
        terms = honest(eps)
        return (*terms[:-1], terms[-1] + 1) if tuple(eps) == (1,) else terms

    monkeypatch.setattr(contfrac, "predicted_cf", bent)
    with pytest.raises(RuntimeError, match=r"disagree at eps=\(1,\)$"):
        cf_theorem_check(4)


def test_cf_sweep_fails_when_one_fold_joins_the_wrong_side(monkeypatch):
    # at length 3 the middle symbol eps_4 = -1 adds its 1 to the other side
    # of the seam: (1, 1, 1), the first vector of n = 4, keeps its row and
    # passes the cross-check, and the pair decision rejects (1, 1, -1)
    honest = runs._unfold_runs

    def bent(parents, first, last, k):
        out = honest(parents, first, last, k)
        if k == 3:
            h, odd = parents.shape[1], np.arange(first, last + 1) % 2 == 1
            out[odd, h - 1], out[odd, h] = out[odd, h], out[odd, h - 1]
        return out

    monkeypatch.setattr(runs, "_unfold_runs", bent)
    eps = (1, 1, -1)
    report = cf_theorem_check(6)
    assert report.witness[:2] == (eps, cf_from_rational(alpha_value(eps)))
    assert report.witness[2] != predicted_cf(eps)


def test_family_sweep_reaches_continuant_only_below_the_split(monkeypatch):
    # each vector's long mirrored prefixes come from the carry, not recomputed
    seen = []
    continuant = contfrac._continuant

    def counted(seq):
        seen.append(len(seq))
        return continuant(seq)

    monkeypatch.setattr(contfrac, "_continuant", counted)
    for n in range(2, 13):
        for eps, _, pair in contfrac._predicted_pairs(n):
            assert pair == contfrac.alpha_pair(eps)
    assert seen and max(seen) < contfrac._MIRROR_MIN


def _first_column(row):
    a, _, c, _ = contfrac._chunked(contfrac._continuant(tuple(row[:-1])), row[-1:])
    return a, c


def _refold(rng, row, sizes, level):
    """Keep the prefix of row below sizes[level]; mirror every level above again."""
    if level == 0:
        row[: sizes[0]] = [rng.randint(1, 9) for _ in range(sizes[0])]
    for size in sizes[max(level, 1) :]:
        j, k = contfrac._split(size)
        row[:size] = _fold(row[:k], rng.randint(1, 9), rng.randint(1, 9), j)


def _carried_row(rng, prev, sizes):
    """A row of len(sizes[-1]) + 1 terms: prev bent, rebuilt or kept."""
    kind = rng.choice(("refold", "refold", "bump", "same", "random"))
    if prev is None or kind == "random":
        return [rng.randint(-2, 9) for _ in range(sizes[-1] + 1)]
    row = list(prev)
    if kind == "refold":
        _refold(rng, row, sizes, rng.randrange(len(sizes)))
    elif kind == "bump":
        # mostly next to a prefix end, where an off-by-one in the reuse shows
        size = rng.choice(sizes)
        index = rng.choice((size - 1, size, rng.randrange(len(row))))
        row[index] += rng.choice((1, -1, 10**20))
    row[-1] = rng.randint(1, 9)
    return row


@pytest.mark.parametrize("length", [1, 31, 32, 63, 64, 127, 255])
def test_mirror_carry_matches_continuant(length):
    rng = random.Random(length)
    carry = contfrac._MirrorCarry(length)
    rows, prev = [], None
    for _ in range(120):
        prev = _carried_row(rng, prev, carry._sizes)
        rows.append(prev)
    got, start = [], 0
    while start < len(rows):
        block = np.array(rows[start : start + rng.randint(1, 9)], dtype=object)
        cores = np.array(block[:, :-1].tolist())
        got.extend(carry.first_columns(cores, block[:, -1].tolist()))
        start += len(block)
    assert got == [_first_column(row) for row in rows]
    sizes = carry._sizes
    if len(sizes) > 2:
        # a row that raises inside the halves (a new first term, then a float
        # for the seam term of the second level) must not leave them to the
        # next row, which shares only the shortest prefix with the last good one
        row = list(rows[-1])
        _refold(rng, row, sizes, 0)
        good = carry.first_columns(np.array([row[:-1]]), row[-1:])
        assert list(good) == [_first_column(row)]
        bad = np.array([row[:-1]], dtype=object)
        bad[0, 0] += 1
        bad[0, contfrac._split(sizes[1])[1]] = 2.5
        with pytest.raises(TypeError):
            list(carry.first_columns(bad, [1]))
        _refold(rng, row, sizes, 1)
        again = carry.first_columns(np.array([row[:-1]]), row[-1:])
        assert list(again) == [_first_column(row)]


def _linear(seq):
    return contfrac._chunked(contfrac._IDENTITY, seq)


@pytest.mark.parametrize("j", [0, 1], ids=["even", "odd"])
def test_seam_swap_changes_the_continuant_by_a_constant(j):
    # M(P, u, v, R) - M(P, v, u, R) = (u - v)·(-1)**|P|·J·K, R = rev(P[j:])
    rng = random.Random(f"swap{j}")
    for size in range(1, 14):
        for pick in _PICKS.values():
            p = tuple(pick(rng) for _ in range(size))
            u = pick(rng)
            for v in (pick(rng), u):
                here, there = _linear(_fold(p, u, v, j)), _linear(_fold(p, v, u, j))
                delta = contfrac._swap_delta(u, v, p[0], j, size)
                assert tuple(a - b for a, b in zip(here, there)) == delta
                assert sum(d != 0 for d in delta) <= 3


def _seam_swapped(row, size):
    """row with the seam terms u and v of its prefix row[:size] swapped."""
    _, k = contfrac._split(size)
    row = list(row)
    row[k], row[k + 1] = row[k + 1], row[k]
    return row


def _remirrored(row, sizes, level):
    """row with every prefix above sizes[level] mirrored again, seams kept."""
    row = list(row)
    for size in sizes[level + 1 :]:
        j, k = contfrac._split(size)
        row[:size] = _fold(row[:k], row[k], row[k + 1], j)
    return row


def _swap_rows(rng, sizes):
    """(rows, swaps): rows of a carry's cores and last terms, case by case.

    swaps lists the rows that must take the seam-swap shortcut.  Every row
    is mirrored at every level unless a case bends it, and the base row's
    seams hold two different terms at every level.
    """
    top = len(sizes) - 1
    row = [rng.randint(1, 9) for _ in range(sizes[-1] + 1)]
    _refold(rng, row, sizes, 0)
    for level in range(1, top + 1):
        _, k = contfrac._split(sizes[level])
        row[k : k + 2] = rng.sample(range(1, 10), 2)
        row = _remirrored(row, sizes, level)
    rows, swaps = [row], []

    def add(new, swap):
        if swap:
            swaps.append(len(rows))
        rows.append(new)
        return new

    _, k = contfrac._split(sizes[top])
    # at the top with last kept: the carried column changes
    row = add(_seam_swapped(row, sizes[top]), True)
    # at the top with last changed: a full column
    row = add(_seam_swapped(row, sizes[top])[:-1] + [row[-1] + 1], False)
    # at a random level below the top, the levels above mirrored again
    level = rng.randint(1, top - 1) if top > 1 else top
    row = add(_remirrored(_seam_swapped(row, sizes[level]), sizes, level), True)
    # the previous row's tail beyond the seam is bent, so it is not mirrored
    bent = list(row)
    bent[sizes[top] - 1] += 1
    add(bent, False)
    row = add(_seam_swapped(row, sizes[top]), False)
    # the swapped row's own tail is bent, so its mirror test fails
    bent = _seam_swapped(row, sizes[top])
    bent[sizes[top] - 1] += 1
    add(bent, False)
    row = add(list(row), False)
    # u takes the previous v but v keeps its term: not a swap, and u == v
    row = add(row[:k] + [row[k + 1]] + row[k + 1 :], False)
    # u == v: the swap changes nothing
    row = add(list(row), True)
    # 30-digit seam terms
    row = add(row[:k] + [10**29 + 7, 3 * 10**29] + row[k + 2 :], False)
    add(_seam_swapped(row, sizes[top]), True)
    return rows, swaps


@pytest.mark.parametrize("length", [32, 63, 64, 127, 255, 256])
@pytest.mark.parametrize("blocks", ["one", "each", "random"])
def test_mirror_carry_takes_seam_swaps(monkeypatch, length, blocks):
    rng = random.Random(f"{length}{blocks}")
    carry = contfrac._MirrorCarry(length)
    sizes = carry._sizes
    rows, swaps = _swap_rows(rng, sizes)
    taken, swap_delta = [], contfrac._swap_delta

    def counted(*args):
        taken.append(len(got))
        return swap_delta(*args)

    monkeypatch.setattr(contfrac, "_swap_delta", counted)
    got, start = [], 0
    while start < len(rows):
        size = {"one": len(rows), "each": 1, "random": rng.randint(1, 4)}[blocks]
        block = rows[start : start + size]
        cores = np.array([row[:-1] for row in block], dtype=object)
        for column in carry.first_columns(cores, [row[-1] for row in block]):
            got.append(column)
        start += len(block)
    assert got == [_first_column(row) for row in rows]
    # one shortcut per swap row, wherever the blocks start
    assert taken == swaps


def _counted(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(contfrac, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(contfrac, name, counted)
    return calls


def test_mirror_carry_drops_a_swap_after_a_row_that_raised(monkeypatch):
    carry = contfrac._MirrorCarry(127)
    sizes = carry._sizes
    assert sizes == [31, 63, 127]
    rng = random.Random(7)
    good = [rng.randint(1, 9) for _ in range(128)]
    _refold(rng, good, sizes, 0)
    assert list(carry.first_columns(np.array([good[:-1]]), good[-1:])) == [
        _first_column(good)
    ]
    # the swap at level 1 updates the carried half, then the top raises
    swapped = _remirrored(_seam_swapped(good, sizes[1]), sizes, 1)
    bad = np.array([swapped[:-1]], dtype=object)
    bad[0, contfrac._split(sizes[2])[1]] = 2.5
    calls = _counted(monkeypatch, "_swap_delta")
    with pytest.raises(TypeError):
        list(carry.first_columns(bad, [1]))
    assert calls == {"_swap_delta": 1}
    # the swap of the last good row starts over; the rows after it swap again
    for row, swaps in ((swapped, 1), (good, 2), (swapped, 3)):
        column = carry.first_columns(np.array([row[:-1]]), row[-1:])
        assert list(column) == [_first_column(row)]
        assert calls == {"_swap_delta": swaps}


def test_alpha_carry_matches_alpha_pair():
    vectors = [
        eps for n in range(2, 11) for eps in product((1, -1), repeat=n - 1)
    ]
    shuffled = list(vectors)
    random.Random(10).shuffle(shuffled)
    for order in (vectors, shuffled):
        carry = contfrac._AlphaCarry()
        assert [carry.pair(eps) for eps in order] == [
            contfrac.alpha_pair(eps) for eps in order
        ]


def test_family_sweep_call_counts_are_pinned(monkeypatch):
    # half of each level's big products go to seam-swapped neighbours
    calls = _counted(monkeypatch, "_mirror_column", "_mirror_join", "_continuant")
    for n in range(2, 13):
        for _ in contfrac._predicted_pairs(n):
            pass
    assert calls == {"_mirror_column": 5664, "_mirror_join": 1824, "_continuant": 254}


def test_cf_sweep_builds_alpha_pairs_from_the_carry(monkeypatch):
    # alpha_pair runs only for the cross-check, once per n
    calls = _counted(monkeypatch, "alpha_pair")
    assert cf_theorem_check(12).passed
    assert calls == {"alpha_pair": 11}


def test_pairs_are_in_lowest_terms():
    assert contfrac.alpha_pair((1,)) == (13, 16)
    assert contfrac.alpha_pair(EXAMPLE_EPS) == (3472818177, 2**32)
    assert contfrac.cf_pair((0, 4, 2, 6)) == (13, 58)
    assert contfrac.cf_pair((0, -2)) == (-1, 2)
    assert contfrac.cf_pair(EXAMPLE_CF) == contfrac.alpha_pair(EXAMPLE_EPS)
    with pytest.raises(ZeroDivisionError, match=r"^expansion \[0, 0\]"):
        contfrac.cf_pair((0, 0))
