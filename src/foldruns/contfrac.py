"""Exact continued fractions and the folding identity for dyadic sums.

Everything is computed over `fractions.Fraction`; no floating point.  A
continued fraction is a tuple of ints [a0; a1, ..., at].  Canonical form
has a_i >= 1 for i >= 1 and a_t >= 2 when t >= 1, which makes expansions
unique; folding deliberately passes through non-canonical intermediates.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .runs import run_decompose
from .foldcore import paperfolding_word

Q = Fraction

# alpha_value(eps) has denominator 2**(2**n); n = 16 already means an
# 8 KiB denominator, anything far beyond that stops being desk-scale.
MAX_ALPHA_INDEX = 16

# Terms per small matrix product in _chunked.
_CHUNK = 16

# Shortest sequence that _continuant tries to split at a mirror seam;
# shorter ones take the chunk loop, which costs about the same there
# (16, 32 and 64 time alike over the n <= 12 sweep).
_MIRROR_MIN = 32

_IDENTITY = (1, 0, 0, 1)


def _chunked(m, seq):
    """m · M(seq), with M(seq) the product of [[a, 1], [1, 0]] over seq.

    Matrices are (m00, m01, m10, m11).  The product of each chunk of terms
    is built in small ints first, so the big entries of m are updated once
    per chunk, not once per term.
    """
    a, b, c, d = m
    for start in range(0, len(seq), _CHUNK):
        x, y, z, w = 1, 0, 0, 1
        for t in map(operator.index, seq[start : start + _CHUNK]):
            x, y = t * x + y, x
            z, w = t * z + w, z
        a, b = a * x + b * z, a * y + b * w
        c, d = c * x + d * z, c * y + d * w
    return a, b, c, d


def _continuant(seq):
    """M(seq), split at the seam while seq is mirrored.

    For seq = (P, u, v, rev(P[j:])), with j = len(seq) % 2, continuant
    symmetry gives M(rev(s)) = M(s)ᵀ, because every [[a, 1], [1, 0]] is
    symmetric.  So M(seq) = M(P) · A(u) · A(v) · M(P)ᵀ, times
    A(P[0])⁻¹ = [[0, 1], [1, -P[0]]] when j = 1, and P is split again.  A
    short or unmirrored seq goes through the chunk loop.
    """
    j = len(seq) % 2
    k = (len(seq) + j) // 2 - 1
    if len(seq) < _MIRROR_MIN or seq[k + 2 :] != seq[j:k][::-1]:
        return _chunked(_IDENTITY, seq)
    half = _continuant(seq[:k])
    a, b, c, d = _chunked(half, seq[k : k + 2])
    e, f, g, h = half
    a, b, c, d = a * e + b * f, a * g + b * h, c * e + d * f, c * g + d * h
    if j:
        first = operator.index(seq[0])
        a, b, c, d = b, a - first * b, d, c - first * d
    return a, b, c, d


def cf_to_rational(terms: Sequence[int]) -> Fraction:
    """Exact value of [a0; a1, ..., at]: p/q, the first column of M(terms).

    Every term must be an integer (`operator.index`); numpy integers are
    taken exactly.  A folded expansion such as predicted_cf(eps),
    [0; 1, X, u, v, rev(X[1:]), X[0] + 1], is mirrored between its two
    leading terms and its last, so that core goes to _continuant and costs
    O(log t) big matrix products; any other core costs the chunk loop.
    """
    t = tuple(terms)
    if not t:
        raise ValueError("continued fraction needs at least one term")
    # last is empty when t has at most two terms
    head, core, last = t[:2], t[2:-1], t[2:][-1:]
    h00, h01, h10, h11 = _chunked(_IDENTITY, head)
    c00, _, c10, _ = _chunked(_continuant(core), last)
    p, q = h00 * c00 + h01 * c10, h10 * c00 + h11 * c10
    if q == 0:
        shown = [int(a) for a in t]
        raise ZeroDivisionError(f"expansion {shown!r} has no finite value")
    return Q(p, q)


def cf_from_rational(r: Fraction) -> tuple[int, ...]:
    """Canonical expansion by the Euclidean algorithm.

    Floor-based quotients give a_i >= 1 for i >= 1 automatically; the
    final quotient is >= 2 except for the one-term case, so the result is
    canonical and cf_to_rational inverts it exactly.
    """
    r = Q(r)
    terms = []
    a, rest = divmod(r.numerator, r.denominator)
    terms.append(int(a))
    num, den = rest, r.denominator
    while num:
        a, rem = divmod(den, num)
        terms.append(int(a))
        den, num = num, rem
    # Euclidean remainders can end [..., a, 1]; fold into canonical form.
    if len(terms) > 1 and terms[-1] == 1:
        terms[-2:] = [terms[-2] + 1]
    return tuple(terms)


def canonical(terms: Sequence[int]) -> tuple[int, ...]:
    """The unique canonical expansion with the same value."""
    return cf_from_rational(cf_to_rational(terms))


def set_parity(terms: Sequence[int], parity: str) -> tuple[int, ...]:
    """Equal-valued expansion whose fractional part has odd or even length.

    Uses [..., a_t] = [..., a_t - 1, 1] to lengthen, or its inverse to
    shorten when the last term is 1.  The integer part a0 never changes.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    t = tuple(int(a) for a in terms)
    if len(t) < 2:
        raise ValueError("set_parity needs a nonempty fractional part")
    want_odd = parity == "odd"
    if (len(t) - 1) % 2 == (1 if want_odd else 0):
        return t
    if t[-1] == 1:
        if len(t) == 2:
            # [a0, 1] shortens only to [a0 + 1], which has no fractional part
            raise ValueError(f"cannot make {list(t)!r} {parity} without emptying it")
        return t[:-2] + (t[-2] + 1,)
    return t[:-1] + (t[-1] - 1, 1)


def _contract_zeros(terms: list[int]) -> list[int]:
    # [..., a, 0, b, ...] -> [..., a+b, ...], applied until no interior zero
    out = list(terms)
    i = 1
    while i < len(out):
        if out[i] == 0:
            if i + 1 >= len(out) or i == 0:
                raise ValueError(f"dangling zero quotient in {terms!r}")
            out[i - 1 : i + 2] = [out[i - 1] + out[i + 1]]
            i = max(i - 1, 1)
        else:
            i += 1
    return out


def fold_step(terms: Sequence[int], eps: int) -> tuple[int, ...]:
    """One folding move: value goes from p/q to p/q + eps/q**2.

    Requires [0; a1..at] with t odd (use set_parity first).  The folded
    expansion is [0; a1..a_{t-1}, a_t - eps, a_t + eps, a_{t-1}, .., a1],
    with any zero quotient produced by a_t = 1, eps = +1 contracted away.
    """
    if eps not in (1, -1):
        raise ValueError(f"fold sign must be +1 or -1, got {eps!r}")
    t = tuple(int(a) for a in terms)
    if len(t) < 2 or t[0] != 0:
        raise ValueError(f"fold_step needs [0; a1..at], got {list(t)!r}")
    frac = t[1:]
    if len(frac) % 2 == 0:
        raise ValueError(
            f"fold_step needs an odd fractional-part length, got {len(frac)} "
            f"terms; apply set_parity first"
        )
    if any(a < 1 for a in frac):
        raise ValueError(f"fold_step needs positive partial quotients: {list(t)!r}")
    folded = [0, *frac[:-1], frac[-1] - eps, frac[-1] + eps, *frac[-2::-1]]
    return tuple(_contract_zeros(folded))


def alpha_value(eps: Sequence[int]) -> Fraction:
    """The dyadic sum 1/2 + 1/4 + sum eps_i * 2**(-2**i), i = 2..n.

    `eps` lists (eps_2, ..., eps_n), so n = len(eps) + 1 and the result has
    denominator 2**(2**n).  Capped at n = 16 to keep numbers desk-scale.
    """
    e = tuple(int(x) for x in eps)
    if len(e) < 1:
        raise ValueError("sign vector must contain at least eps_2")
    if any(x not in (1, -1) for x in e):
        raise ValueError(f"signs must be +1/-1, got {list(e)!r}")
    n = len(e) + 1
    if n > MAX_ALPHA_INDEX:
        raise ValueError(
            f"sign vector reaches index {n}; denominators grow as 2**(2**n), "
            f"capped at n = {MAX_ALPHA_INDEX}"
        )
    # Over the common denominator 2**(2**n); the eps_n term makes it odd.
    top = 2**n
    num = 3 * 2 ** (top - 2) + sum(x << (top - 2**i) for i, x in enumerate(e, start=2))
    return Q(num, 2**top)


def predicted_cf(eps: Sequence[int]) -> tuple[int, ...]:
    """Expansion of alpha_value(eps) predicted from run lengths.

    Doubles each run length of the word of code (1, eps_2, ..., eps_n),
    adds 1 to the final doubled term, and prepends [0; 1].
    """
    e = tuple(int(x) for x in eps)
    if len(e) < 1 or any(x not in (1, -1) for x in e):
        raise ValueError(f"signs must be a nonempty +1/-1 sequence, got {list(eps)!r}")
    runs = run_decompose(paperfolding_word((1,) + e))
    doubled = (2 * runs.lengths).tolist()
    doubled[-1] += 1
    return (0, 1, *doubled)


def folded_alpha(eps: Sequence[int]) -> tuple[Fraction, tuple[int, ...]]:
    """(value, expansion) built by iterated folding from 1/2.

    Starts at [0; 2] and folds once per sign in (+1, eps_2, ..., eps_n);
    each fold adds sign/q**2 where q is the current denominator, which is
    exactly the next term of the dyadic sum defining alpha.
    """
    e = tuple(int(x) for x in eps)
    cf = (0, 2)
    for sign in (1,) + e:
        if (len(cf) - 1) % 2 == 0:
            cf = set_parity(cf, "odd")
        cf = fold_step(cf, sign)
    return cf_to_rational(cf), cf

