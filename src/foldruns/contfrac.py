"""Exact continued fractions and the folding identity for dyadic sums.

Everything is computed over `fractions.Fraction`; no floating point.  A
continued fraction is a tuple of ints [a0; a1, ..., at].  Canonical form
has a_i >= 1 for i >= 1 and a_t >= 2 when t >= 1, which makes expansions
unique; folding deliberately passes through non-canonical intermediates.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .runs import _run_blocks, run_decompose
from .foldcore import code_matrix, paperfolding_word

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


def _split(size):
    """(j, k): a mirrored sequence of this size is (P, u, v, rev(P[j:])), |P| = k."""
    j = size % 2
    return j, (size + j) // 2 - 1


def _continuant(seq):
    """M(seq), split at the seam while seq is mirrored.

    For seq = (P, u, v, rev(P[j:])) (_split), _mirror_join builds M(seq)
    from M(P), and P is split again.  A short or unmirrored seq goes
    through the chunk loop.
    """
    j, k = _split(len(seq))
    if len(seq) < _MIRROR_MIN or seq[k + 2 :] != seq[j:k][::-1]:
        return _chunked(_IDENTITY, seq)
    return _mirror_join(_continuant(seq[:k]), seq[k], seq[k + 1], seq[0], j)


def _mirror_column(half, u, v, first, j, x):
    """M(P, u, v, rev(P[j:])) · x from half = M(P), with first = P[0].

    Continuant symmetry gives M(rev(s)) = M(s)ᵀ, because every
    [[a, 1], [1, 0]] is symmetric.  So the product is
    M(P) · A(u) · A(v) · M(P)ᵀ, times A(P[0])⁻¹ = [[0, 1], [1, -P[0]]] when
    j = 1.  Applied to the one column x from the right, it costs four
    products of big entries.
    """
    e, f, g, h = half
    x0, x1 = x
    if j:
        x0, x1 = x1, x0 - operator.index(first) * x1
    y0, y1 = e * x0 + g * x1, f * x0 + h * x1
    for a in (operator.index(v), operator.index(u)):
        y0, y1 = a * y0 + y1, y0
    return e * y0 + f * y1, g * y0 + h * y1


def _mirror_join(half, u, v, first, j):
    """M(P, u, v, rev(P[j:])) from half = M(P), one column at a time."""
    a, c = _mirror_column(half, u, v, first, j, (1, 0))
    b, d = _mirror_column(half, u, v, first, j, (0, 1))
    return a, b, c, d


def _pair(head, column):
    """(p, q) = M(head) · column, with q >= 0."""
    h00, h01, h10, h11 = _chunked(_IDENTITY, head)
    c0, c1 = column
    p, q = h00 * c0 + h01 * c1, h10 * c0 + h11 * c1
    return (-p, -q) if q < 0 else (p, q)


def cf_pair(terms: Sequence[int]) -> tuple[int, int]:
    """Exact value of [a0; a1, ..., at] as the pair (p, q), q > 0.

    (p, q) is the first column of M(terms).  Every M has determinant ±1,
    so p and q are coprime and the pair is the value in lowest terms.
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
    c00, _, c10, _ = _chunked(_continuant(t[2:-1]), t[2:][-1:])
    p, q = _pair(t[:2], (c00, c10))
    if q == 0:
        shown = [int(a) for a in t]
        raise ZeroDivisionError(f"expansion {shown!r} has no finite value")
    return p, q


def cf_to_rational(terms: Sequence[int]) -> Fraction:
    """Exact value of [a0; a1, ..., at]: cf_pair as a Fraction."""
    return Q(*cf_pair(terms))


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


def alpha_pair(eps: Sequence[int]) -> tuple[int, int]:
    """The dyadic sum 1/2 + 1/4 + sum eps_i * 2**(-2**i), i = 2..n, as (p, q).

    `eps` lists (eps_2, ..., eps_n), so n = len(eps) + 1 and q = 2**(2**n);
    the eps_n term makes p odd, so (p, q) is in lowest terms.  Capped at
    n = 16 to keep numbers desk-scale.
    """
    e = tuple(map(int, eps))
    if len(e) < 1:
        raise ValueError("sign vector must contain at least eps_2")
    if not {1, -1}.issuperset(e):
        raise ValueError(f"signs must be +1/-1, got {list(e)!r}")
    n = len(e) + 1
    if n > MAX_ALPHA_INDEX:
        raise ValueError(
            f"sign vector reaches index {n}; denominators grow as 2**(2**n), "
            f"capped at n = {MAX_ALPHA_INDEX}"
        )
    # Horner over the shifts: eps_i sits 2**n - 2**i bits up, and
    # 3 * 2**(2**n - 2) is 12 at eps_2's place
    num = 12 + e[0]
    for i, x in enumerate(e[1:], start=3):
        num = (num << 2 ** (i - 1)) + x
    return num, 2 ** (2**n)


def alpha_value(eps: Sequence[int]) -> Fraction:
    """alpha_pair(eps) as a Fraction."""
    return Q(*alpha_pair(eps))


def _expansions(lengths: np.ndarray) -> np.ndarray:
    """Row r: (0, 1, 2 R_1, ..., 2 R_m + 1) for the run lengths lengths[r]."""
    terms = np.empty((len(lengths), lengths.shape[1] + 2), dtype=lengths.dtype)
    terms[:, :2] = (0, 1)
    np.multiply(lengths, 2, out=terms[:, 2:])
    terms[:, -1] += 1
    return terms


def predicted_cf(eps: Sequence[int]) -> tuple[int, ...]:
    """Expansion of alpha_value(eps) predicted from run lengths.

    Doubles each run length of the word of code (1, eps_2, ..., eps_n),
    adds 1 to the final doubled term, and prepends [0; 1].
    """
    e = tuple(int(x) for x in eps)
    if len(e) < 1 or any(x not in (1, -1) for x in e):
        raise ValueError(f"signs must be a nonempty +1/-1 sequence, got {list(eps)!r}")
    runs = run_decompose(paperfolding_word((1,) + e))
    return tuple(_expansions(runs.lengths[None])[0].tolist())


def _predicted_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(signs, terms) per block of the 2**(n-1) sign vectors of index n.

    Row r of signs is (eps_2, ..., eps_n) and row r of terms is its
    predicted_cf, read off one block of the family run table of the
    f0 = +1 half of code_matrix(n).  Rows come in product((1, -1),
    repeat=n - 1) order.
    """
    codes = code_matrix(n)[: 2 ** (n - 1)]
    for a, _, lengths in _run_blocks(codes):
        yield codes[a : a + len(lengths), 1:], _expansions(lengths)


class _MirrorCarry:
    """Continuants of consecutive cores of one length, reusing nested halves.

    _continuant splits a mirrored core at its seam (_split) and splits the
    prefix P = core[:k] again, so every core of one length has the same
    chain of nested prefix lengths, down to the first one shorter than
    _MIRROR_MIN.  The carry keeps M of each proper prefix of the chain for
    the previous row.  A row reuses the longest one whose terms it
    shares, found by a first-difference test against the previous row.
    Each longer prefix, and the core, is joined from the one below only
    where the row passes the mirror test there; any other goes to
    _continuant.
    """

    def __init__(self, length: int):
        sizes = [length]
        while sizes[-1] >= _MIRROR_MIN:
            sizes.append(_split(sizes[-1])[1])
        self._sizes = sizes[::-1]
        self._halves = [None] * (len(sizes) - 1)
        self._last = None

    def first_columns(self, cores: np.ndarray, lasts: Sequence[int]) -> Iterator[tuple]:
        """Yield the first column of M(*row, last) for each row of cores.

        The rows go on from those of the previous call.
        """
        sizes, halves, top = self._sizes, self._halves, len(self._sizes) - 1
        differs = np.ones(cores.shape, dtype=bool)
        np.not_equal(cores[1:], cores[:-1], out=differs[1:])
        if self._last is not None:
            np.not_equal(cores[0], self._last, out=differs[0])
        # shared[r]: how many leading terms row r shares with the row before it
        shared = np.where(differs.any(axis=1), differs.argmax(axis=1), cores.shape[1])
        if self._last is None:
            shared[0] = -1
        mirrored = [None]
        for size in sizes[1:]:
            j, k = _split(size)
            mirror = cores[:, k + 2 : size] == cores[:, j:k][:, ::-1]
            mirrored.append(mirror.all(axis=1))
        for r, (row, last) in enumerate(zip(cores, lasts)):
            if top:
                # halves that a raising _continuant leaves half-updated fit no row
                self._last = None
                kept = min(bisect_right(sizes, shared[r]), top) - 1
                if kept < 0:
                    halves[0] = _continuant(tuple(row[: sizes[0]].tolist()))
                    kept = 0
                for level in range(kept + 1, top):
                    if mirrored[level][r]:
                        seam = _seam(row, sizes[level])
                        halves[level] = _mirror_join(halves[level - 1], *seam)
                    else:
                        halves[level] = _continuant(tuple(row[: sizes[level]].tolist()))
            # the halves now belong to this row, even if the caller stops here
            self._last = row.copy()
            if top and mirrored[top][r]:
                seam = _seam(row, sizes[top])
                yield _mirror_column(halves[top - 1], *seam, (last, 1))
            else:
                a, _, c, _ = _chunked(_continuant(tuple(row.tolist())), (last,))
                yield a, c


def _seam(row: np.ndarray, size: int) -> tuple[int, int, int, int]:
    """(u, v, P[0], j) of the prefix row[:size] read as (P, u, v, rev(P[j:]))."""
    j, k = _split(size)
    u, v = row[k : k + 2].tolist()
    return u, v, int(row[0]), j


def _predicted_pairs(n: int) -> Iterator[tuple[tuple, np.ndarray, tuple[int, int]]]:
    """(eps, terms, cf_pair(terms)) for every sign vector of index n, in sweep order.

    terms is the family row of predicted_cf(eps) (_predicted_blocks); its
    core and last term go through one _MirrorCarry over the whole index.
    """
    carry = _MirrorCarry(2 ** (n - 1) - 1)
    for signs, rows in _predicted_blocks(n):
        columns = carry.first_columns(rows[:, 2:-1], rows[:, -1].tolist())
        for eps, terms, column in zip(signs.tolist(), rows, columns):
            yield tuple(eps), terms, _pair(terms[:2].tolist(), column)


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

