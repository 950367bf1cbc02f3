"""Exact continued fractions and the folding identity for dyadic sums.

Everything is exact, over ints and `fractions.Fraction`; no floating
point.  The sweep compares values as integer pairs (p, q) in lowest
terms.  A continued fraction is a tuple of ints [a0; a1, ..., at].
Canonical form has a_i >= 1 for i >= 1 and a_t >= 2 when t >= 1, which
makes expansions unique; folding deliberately passes through
non-canonical intermediates.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .runs import _fold_run_lengths, run_decompose
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


def _pair(m, column):
    """(p, q) = m · column, with q >= 0."""
    h00, h01, h10, h11 = m
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
    p, q = _pair(_chunked(_IDENTITY, t[:2]), (c00, c10))
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
    num = 3
    for i, x in enumerate(e, start=2):
        num = _alpha_step(num, i, x)
    return num, 2 ** (2**n)


def _alpha_step(num: int, i: int, x: int) -> int:
    """The Horner step of alpha_pair: num over 2**(2**(i-1)) plus eps_i = x.

    The result is over 2**(2**i), so num moves 2**(i-1) bits up.  Horner
    starts from 1/2 + 1/4 = 3 over 2**(2**1).
    """
    return (num << 2 ** (i - 1)) + x


class _AlphaCarry:
    """alpha_pair of sign vectors in turn, restarting Horner where they differ.

    The numerator after eps_2..eps_i does not depend on n, so the carry
    keeps each partial numerator of the previous vector, at most
    MAX_ALPHA_INDEX big ints, and a vector redoes only the steps from its
    first sign that differs.  The vectors are taken as valid: +1/-1 tuples
    of 1 to MAX_ALPHA_INDEX - 1 signs.
    """

    def __init__(self):
        self._eps: tuple[int, ...] = ()
        # _nums[m]: the numerator after the first m signs of _eps
        self._nums = [3]

    def pair(self, eps: tuple[int, ...]) -> tuple[int, int]:
        """alpha_pair(eps)."""
        nums, same = self._nums, 0
        for x, y in zip(eps, self._eps):
            if x != y:
                break
            same += 1
        del nums[same + 1 :]
        for m in range(same, len(eps)):
            nums.append(_alpha_step(nums[-1], m + 2, eps[m]))
        self._eps = eps
        return nums[-1], 1 << 2 ** (len(eps) + 1)


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
    predicted_cf, from one block of run lengths of the f0 = +1 half of
    code_matrix(n), unfolded by runs._fold_run_lengths with no word.
    Rows come in product((1, -1), repeat=n - 1) order.
    """
    codes = code_matrix(n)[: 2 ** (n - 1)]
    for a, lengths in _fold_run_lengths(n):
        yield codes[a : a + len(lengths), 1:], _expansions(lengths)


class _MirrorCarry:
    """Continuants of consecutive cores of one length, reusing nested halves.

    _continuant splits a mirrored core at its seam (_split) and splits the
    prefix P = core[:k] again, so every core of one length has the same
    chain of nested prefix lengths, down to the first one shorter than
    _MIRROR_MIN.  The carry keeps M of each proper prefix of the chain for
    the previous row, and that row's first column.  A row reuses the
    longest prefix whose terms it shares, found by a first-difference test
    against the previous row.  At the level just above it, a row that is
    the previous one with the seam terms u and v swapped takes the swap's
    constant change (_swap_delta) instead: added to the carried half, or
    to the carried first column at the top when last is the same too.
    That needs the mirror test to pass there on both rows.  Each longer
    prefix, and the core, is joined from the one below only where the row
    passes the mirror test there; any other goes to _continuant.
    """

    def __init__(self, length: int):
        sizes = [length]
        while sizes[-1] >= _MIRROR_MIN:
            sizes.append(_split(sizes[-1])[1])
        self._sizes = sizes[::-1]
        # (j, k) of each level above the first: level c + 1 is column c below
        self._splits = [_split(size) for size in self._sizes[1:]]
        self._halves = [None] * (len(sizes) - 1)
        # (row, mirror flags, u and v by level, first column, last) of the
        # previous row, kept only while the halves belong to it
        self._last = None

    def first_columns(self, cores: np.ndarray, lasts: Sequence[int]) -> Iterator[tuple]:
        """Yield the first column of M(*row, last) for each row of cores.

        The rows go on from those of the previous call.
        """
        sizes, splits, halves = self._sizes, self._splits, self._halves
        rows, top = len(cores), len(splits)
        # halves that a raising row leaves half-updated fit no row
        prev, self._last = self._last, None
        differs = np.ones(cores.shape, dtype=bool)
        np.not_equal(cores[1:], cores[:-1], out=differs[1:])
        if prev is not None:
            np.not_equal(cores[0], prev[0], out=differs[0])
        # shared[r]: how many leading terms row r shares with the row before it
        shared = np.where(differs.any(axis=1), differs.argmax(axis=1), cores.shape[1])
        if prev is None:
            shared[0] = -1
        # kept[r]: the longest carried prefix that row r reuses, if any
        kept = np.minimum(np.searchsorted(sizes, shared, side="right"), top) - 1
        mirrored = np.empty((rows, top), dtype=bool)
        for c, (size, (j, k)) in enumerate(zip(sizes[1:], splits)):
            tail, head = cores[:, k + 2 : size], cores[:, j:k][:, ::-1]
            mirrored[:, c] = (tail == head).all(axis=1)
        at = [k for _, k in splits]
        u, v = cores[:, at], cores[:, [k + 1 for k in at]]
        # swapped[r]: rows r - 1 and r pass the mirror test of level kept[r] + 1
        # and differ there only by their swapped seams
        swapped = np.zeros(rows, dtype=bool)
        if top:
            swaps = mirrored[1:] & mirrored[:-1] & (u[1:] == v[:-1]) & (v[1:] == u[:-1])
            swapped[1:] = swaps[np.arange(rows - 1), kept[1:]] & (kept[1:] >= 0)
        kept, swapped, firsts = kept.tolist(), swapped.tolist(), cores[:, 0].tolist()
        mirrored, us, vs = mirrored.tolist(), u.tolist(), v.tolist()
        column, final = None, None
        if prev is not None:
            _, flags, pu, pv, column, final = prev
            c = kept[0]
            if c >= 0 and mirrored[0][c] and flags[c]:
                swapped[0] = us[0][c] == pv[c] and vs[0][c] == pu[c]
        for r, last in zip(range(rows), lasts):
            level, swap = kept[r] + 1, swapped[r]
            flags, ur, vr, first = mirrored[r], us[r], vs[r], firsts[r]
            if top:
                if level == 0:
                    halves[0] = _continuant(tuple(cores[r, : sizes[0]].tolist()))
                    level = 1
                elif swap and level < top:
                    c = level - 1
                    delta = _swap_delta(ur[c], vr[c], first, *splits[c])
                    halves[level] = tuple(map(operator.add, halves[level], delta))
                    level, swap = level + 1, False
                for level in range(level, top):
                    c = level - 1
                    if flags[c]:
                        seam = ur[c], vr[c], first, splits[c][0]
                        halves[level] = _mirror_join(halves[c], *seam)
                    else:
                        prefix = tuple(cores[r, : sizes[level]].tolist())
                        halves[level] = _continuant(prefix)
            c = top - 1
            # a swap left standing is one at the top
            if swap and last == final:
                d00, d01, d10, d11 = _swap_delta(ur[c], vr[c], first, *splits[c])
                last = operator.index(last)
                column = column[0] + d00 * last + d01, column[1] + d10 * last + d11
            elif top and flags[c]:
                seam = ur[c], vr[c], first, splits[c][0]
                column = _mirror_column(halves[c], *seam, (last, 1))
            else:
                p, _, q, _ = _chunked(_continuant(tuple(cores[r].tolist())), (last,))
                column = p, q
            final = last
            if r == rows - 1:
                # the halves now belong to this row, even if the caller stops here
                self._last = cores[r].copy(), flags, ur, vr, column, last
            yield column


def _swap_delta(u, v, first, j, k):
    """M(P, u, v, R) - M(P, v, u, R) for R = rev(P[j:]) and |P| = k, first = P[0].

    With J = [[0, 1], [-1, 0]], A(u)·A(v) - A(v)·A(u) = (u - v)·J, and
    N·J·Nᵀ = det(N)·J for every 2 × 2 matrix N.  By _mirror_column's
    M(P, a, b, R) = M(P)·A(a)·A(b)·M(P)ᵀ·K, with K = A(P[0])⁻¹ when j = 1
    and the identity when j = 0, the difference is (u - v)·(-1)**k·J·K,
    where det M(P) = (-1)**k and J·K is [[1, -P[0]], [0, -1]] or J.
    """
    d = operator.index(u) - operator.index(v)
    if k % 2:
        d = -d
    if j:
        return d, -operator.index(first) * d, 0, -d
    return 0, d, -d, 0


def _predicted_pairs(n: int) -> Iterator[tuple[tuple, np.ndarray, tuple[int, int]]]:
    """(eps, terms, cf_pair(terms)) for every sign vector of index n, in sweep order.

    terms is the family row of predicted_cf(eps) (_predicted_blocks); its
    core and last term go through one _MirrorCarry over the whole index,
    and M of its two leading terms is built once per distinct pair.
    """
    carry, heads = _MirrorCarry(2 ** (n - 1) - 1), {}
    for signs, rows in _predicted_blocks(n):
        columns = carry.first_columns(rows[:, 2:-1], rows[:, -1].tolist())
        for eps, head, terms, column in zip(
            signs.tolist(), rows[:, :2].tolist(), rows, columns
        ):
            head = tuple(head)
            if head not in heads:
                heads[head] = _chunked(_IDENTITY, head)
            yield tuple(eps), terms, _pair(heads[head], column)


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

