"""Run structure of paperfolding words and factors of their run-length words.

A run is a maximal block of consecutive equal symbols.  For a code with
t >= 1 effective instructions the word splits into exactly 2**(t-1) runs,
each of length 1, 2, or 3; the run-length word (values in {1,2,3}) is the
object analyzed by the factor operations in the second half of this module.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .foldcore import (
    FoldCode,
    InvalidCodeError,
    PaperfoldingWord,
    as_code,
    code_matrix,
    paperfolding_word,
    word_matrix,
)


def _word_array(w) -> np.ndarray:
    if isinstance(w, PaperfoldingWord):
        return w.array
    arr = w if isinstance(w, np.ndarray) else np.asarray(list(w), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("word terms must be one-dimensional")
    return arr


class RunDecomposition:
    """Lengths, starts, and ends of the maximal runs of a word, 1-indexed.

    Backed by read-only numpy arrays so family-wide sweeps stay cheap; run
    k >= 1 is the k-th maximal block, at index k - 1 of each array.
    """

    __slots__ = ("_lengths", "_starts", "_ends")

    def __init__(self, lengths: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        if not (len(lengths) == len(starts) == len(ends)):
            raise ValueError("component sequences must have equal length")
        self._lengths = lengths
        self._starts = starts
        self._ends = ends
        for a in (lengths, starts, ends):
            a.setflags(write=False)

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    @property
    def count(self) -> int:
        return int(len(self._lengths))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunDecomposition):
            return NotImplemented
        return (
            np.array_equal(self._lengths, other._lengths)
            and np.array_equal(self._starts, other._starts)
            and np.array_equal(self._ends, other._ends)
        )

    def __repr__(self) -> str:
        return f"<RunDecomposition of {self.count} runs>"


def run_decompose(w) -> RunDecomposition:
    """Split a word into maximal runs of equal symbols.

    Accepts a PaperfoldingWord, any int sequence, or a numpy array; the
    empty word is rejected (a decomposition must partition something).
    """
    arr = _word_array(w)
    if arr.size == 0:
        raise ValueError("cannot decompose the empty word into runs")
    boundaries = np.flatnonzero(arr[1:] != arr[:-1])  # 0-indexed last-of-run
    ends = np.concatenate([boundaries + 1, [arr.size]]).astype(np.int64)
    starts = np.concatenate([[1], boundaries + 2]).astype(np.int64)
    return RunDecomposition(ends - starts + 1, starts, ends)


def run_length_word(code) -> np.ndarray:
    """The run-length word of the paperfolding word of `code`."""
    return run_decompose(paperfolding_word(code)).lengths


class RunCountError(ValueError):
    """A code whose word does not split into the expected 2**(t-1) runs."""

    def __init__(self, code: FoldCode, runs: int, expected: int):
        self.witness = (code.to_text(), runs, expected)
        super().__init__(f"code {code.to_text()} has {runs} runs, expected {expected}")


# Cells of the boundary matrix handled at once by _run_blocks: bounds the
# block's words and the int64 run-end indices to a few hundred KiB at any t.
# Larger blocks are no faster, and they raise the peak of the cf sweep.
_RUN_BLOCK_CELLS = 2**16


def _run_blocks(codes: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(a, ends, lengths) per block of rows, for the codes codes[a:a + len(ends)].

    ends holds the 1-indexed run ends and lengths the run lengths, one row
    per code.  The words of one block of rows are built with word_matrix
    and dropped before the next block.  Requires the uniform run count
    2**(t-1); a violation (none exists, but the reshape depends on it)
    raises RunCountError instead of misaligning rows.
    """
    t = codes.shape[1]
    width, expected = 2**t - 1, 2 ** (t - 1)
    step = max(1, _RUN_BLOCK_CELLS // width)
    for a in range(0, len(codes), step):
        block = word_matrix(codes[a : a + step])
        boundary = block[:, 1:] != block[:, :-1]
        counts = 1 + boundary.sum(axis=1)
        bad = np.flatnonzero(counts != expected)
        if bad.size:
            r = int(bad[0])
            code = FoldCode(codes[a + r].tolist())
            raise RunCountError(code, int(counts[r]), expected)
        rows = len(block)
        # flat index r * (width - 1) + c of the last symbol c of a run;
        # np.nonzero's row and column pair costs several times more
        last = np.flatnonzero(boundary).reshape(rows, -1)
        # a generator's locals outlive its yield: drop the block's words first
        del block, boundary
        last -= (width - 1) * np.arange(rows)[:, None] - 1
        ends = np.empty((rows, expected), dtype=np.int32)
        ends[:, :-1] = last
        ends[:, -1] = width
        del last
        lengths = np.empty_like(ends)
        lengths[:, 0] = ends[:, 0]
        np.subtract(ends[:, 1:], ends[:, :-1], out=lengths[:, 1:])
        yield a, ends, lengths


def _family_run_data(t: int):
    """(codes, run lengths, 1-indexed run ends) for every code of length t.

    Row r of each matrix belongs to row r of code_matrix(t); the rows come
    block by block from _run_blocks, so no word matrix is held.
    """
    if t < 1:
        raise ValueError("run data needs t >= 1")
    codes = code_matrix(t)
    ends = np.empty((len(codes), 2 ** (t - 1)), dtype=np.int32)
    lengths = np.empty(ends.shape, dtype=np.int8)
    for a, block_ends, block_lengths in _run_blocks(codes):
        ends[a : a + len(block_ends)] = block_ends
        lengths[a : a + len(block_ends)] = block_lengths
    return codes, lengths, ends


def _assoc_codes(codes: np.ndarray) -> np.ndarray:
    """Row r is the associated code g of the code codes[r], one instruction shorter.

    g = (f0 f1, -f0 f2, ..., -f0 f(t-1)): by the first two instructions,
    with x the remainder, (1,1)x -> 1,(-x); (1,-1)x -> -1,(-x);
    (-1,1)x -> -1,x; (-1,-1)x -> 1,x.
    """
    g = codes[:, :1] * codes[:, 1:]
    g[:, 1:] *= -1
    return g


def _predicted_ends(assoc_words: np.ndarray) -> np.ndarray:
    """Row r: the predicted run ends 2n - [P_g[n] = -1], n = 1, 2, ...

    assoc_words[r] is the word P_g of the associated code g of a code f; it
    has one term per run end of f but the last, which closes the word.
    """
    n = np.arange(1, assoc_words.shape[1] + 1, dtype=np.int64)
    return 2 * n - (assoc_words == -1)


def assoc_code(f) -> FoldCode:
    """The associated code g with |g| = |f| - 1 governing run endings."""
    eff = as_code(f).effective
    if len(eff) < 2:
        raise InvalidCodeError(
            f"associated code needs >= 2 effective instructions, got {len(eff)}"
        )
    return FoldCode(_assoc_codes(np.array([eff], dtype=np.int8))[0].tolist())


def predicted_end_positions(f) -> np.ndarray:
    """Predicted run ends 2n - eps_n for 1 <= n < 2**(t-1).

    eps_n is 0 when the associated code's word has +1 at position n, else 1.
    """
    return _predicted_ends(paperfolding_word(assoc_code(f)).array[None])[0]


def run_span(code, n: int) -> tuple[int, int]:
    """(start, end) of run n without materializing the word.

    Peels one instruction per step: appending instruction a to code g maps
    P_g to P_g . a . (-P_g reversed), whose runs are those of P_g with the
    mirror-image runs appended, glued at the middle depending on whether a
    equals the last symbol of P_g.  O(t) arithmetic per query.
    """
    c = as_code(code)
    eff = c.effective
    t = len(eff)
    if t < 1:
        raise InvalidCodeError("run queries need at least one instruction")
    if not 1 <= n <= 2 ** (t - 1):
        raise IndexError(f"run index {n} outside 1..{2 ** (t - 1)}")
    return _span(eff, t, n)


def _span(f: tuple[int, ...], t: int, n: int) -> tuple[int, int]:
    # run n of the word of the first t instructions of f, g = f[:t-1]
    if t == 1:
        return (1, 1)
    a = f[t - 1]
    m = 2 ** (t - 1) - 1  # length of the word of g
    half = 2 ** (t - 2)  # run count of the word of g
    # P_g opens with g[0] and, once unfolded, closes with its mirror -g[0]
    last = f[0] if t == 2 else -f[0]
    if a == last:
        # middle symbol extends the last run of P_g up to position m+1
        if n < half:
            return _span(f, t - 1, n)
        if n == half:
            return (_span(f, t - 1, half)[0], m + 1)
        s, e = _span(f, t - 1, 2 * half + 1 - n)
        return (2 * m + 2 - e, 2 * m + 2 - s)
    # middle symbol opens a run that merges with the mirrored last run
    if n <= half:
        return _span(f, t - 1, n)
    if n == half + 1:
        return (m + 1, 2 * m + 2 - _span(f, t - 1, half)[0])
    s, e = _span(f, t - 1, 2 * half + 1 - n)
    return (2 * m + 2 - e, 2 * m + 2 - s)


def regular_run_span(n: int) -> tuple[int, int]:
    """(start, end) of run n of the regular (all +1 instructions) sequence.

    Any all-ones code with more than n runs in its first half pins run n,
    so the value is independent of the truncation; O(log n) arithmetic.
    """
    if n < 1:
        raise IndexError("run index must be >= 1")
    k = n.bit_length() + 2
    return _span((1,) * k, k, n)


def _regular_run_data(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(run lengths, 1-indexed run ends) of runs 1..count of the regular sequence.

    Read off one all-ones word with at least `count` runs.  Its last run is
    already complete: for t >= 2 the word of (1,)*t ends in -1, and the
    next instruction is +1.
    """
    dec = run_decompose(paperfolding_word((1,) * max(2, (count - 1).bit_length() + 1)))
    return dec.lengths[:count], dec.ends[:count]


def _regular_gaps(top: int) -> np.ndarray:
    """The sorted values t(n) <= top: the complement of H = {1} U {h(m)+1}.

    The run table spans a word of length 2**t - 1 >= top, so every run end
    h(m) < top is in it.
    """
    t = max(2, top.bit_length())
    _, ends = _regular_run_data(2 ** (t - 1))
    in_h = np.zeros(top + 2, dtype=bool)
    in_h[1] = True
    in_h[ends[ends < top] + 1] = True
    return np.flatnonzero(~in_h[1 : top + 1]) + 1


def regular_run_start(n: int) -> int:
    return regular_run_span(n)[0]


def regular_run_end(n: int) -> int:
    return regular_run_span(n)[1]


def regular_run_length(n: int) -> int:
    s, e = regular_run_span(n)
    return e - s + 1


# Samples (row, period, position) tested at once by _repetitions: each int64
# temporary stays at 64 KiB whatever the word's length.  Blocks of 2**15 were
# no faster, and their 256 KiB temporaries left the heap so fragmented that a
# large table built later in the same process (a `runs` table of t = 20)
# could peak 12-28 MiB higher.
_SAMPLE_BLOCK = 2**13


class _Levels:
    """Prefix-doubling ids of the windows of rows, one level per power of two.

    ids[k][r, j] names rows[r, j : j + 2**k] as int32, numbered in
    lexicographic order of the level's windows (_join_ids); cells past a
    level's last window hold -1, so every level has the rows' shape and
    the flat cell r * width + j is (r, j) in each.  Level k is built by
    the first need(k): the levels a scan never reaches cost nothing.
    """

    __slots__ = ("ids", "_last", "_asked")

    def __init__(self, rows: np.ndarray):
        self.ids: list[np.ndarray] = []
        self._asked: dict[int, int] = {}
        self._last = _rank(rows)
        self._store()

    def _store(self) -> None:
        shape = self.ids[0].shape if self.ids else self._last.shape
        level = np.full(shape, -1, dtype=np.int32)
        level[:, : self._last.shape[1]] = self._last
        self.ids.append(level)

    def need(self, k: int) -> None:
        """Build the levels up to k."""
        while len(self.ids) <= k:
            self._last = _join_ids(self._last, self._last, 1 << (len(self.ids) - 1))
            self._store()

    def same(self, at: np.ndarray, shift: np.ndarray, k: int) -> np.ndarray:
        """Whether the 2**k windows at flat cells at and at + shift agree.

        A built level answers with one gather on each side.  Few windows are
        compared as 2**(k - b) windows of the highest built level b instead,
        until the windows asked of level k add up to the level's size: then
        it is built.  Every window must lie inside its row.
        """
        b = min(k, len(self.ids) - 1)
        if k > b:
            self._asked[k] = self._asked.get(k, 0) + (at.size << (k - b))
            if self._asked[k] >= self.ids[0].size:
                self.need(k)
                b = k
        ids = self.ids[b].reshape(-1)
        if b == k:
            return ids[at] == ids[at + shift]
        cell = at[:, None] + np.arange(0, 1 << k, 1 << b)
        return (ids[cell] == ids[cell + shift[:, None]]).all(axis=1)


def _repetitions(
    levels: _Levels, extra: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, i, p) of every window rows[r, i : i + 2p + extra] with period p.

    extra = 0 finds squares zz with |z| = p, extra = 1 overlaps axaxa with
    |ax| = p: the window's first n = p + extra symbols equal the n symbols
    p places later.  Sampled after Main and Lorentz (J. Algorithms 5,
    1984): such a window at i holds the pair (j, j + p) for the one
    multiple j of p in [i, i + p), so only those m/p pairs per period are
    tested.  With F the longest common extension of the suffixes at j and
    j + p (capped at n) and B that of the prefixes ending there (capped at
    p - 1), the windows sampled at j are those at i in [j - B, j + F - n].
    levels = _Levels(rows) names the windows.  Hits come in no fixed order.
    """
    rcount, m = levels.ids[0].shape
    periods = np.arange(1, max((m - extra) // 2, 0) + 1)
    # positions j = 0, p, 2p, ... up to m - p - extra - 1 in each row
    per_row = (m - periods - extra - 1) // periods + 1
    stops = np.cumsum(per_row)
    pairs = int(stops[-1]) if stops.size else 0
    step = max(1, _SAMPLE_BLOCK // max(rcount, 1))
    out: list = []
    for first in range(0, pairs, step):
        s = np.arange(first, min(first + step, pairs))
        q = np.searchsorted(stops, s, side="right")
        p = periods[q]
        j = (s - stops[q] + per_row[q]) * p
        # F + B >= n needs F >= 1 + extra, as B <= p - 1: the level-extra
        # windows at j and j + p agree, tested for every row at once
        levels.need(1)
        single, pair = levels.ids[:2]
        if extra:
            hit = pair[:, j] == pair[:, j + p]
        else:
            hit = single[:, j] == single[:, j + p]
            # and, for n >= 2, F >= 2 or B >= 1: a pair at j - 1 or j agrees
            wide = p >= 2
            jw, pw = j[wide], p[wide]
            hit[:, wide] &= (pair[:, jw] == pair[:, jw + pw]) | (
                pair[:, jw - 1] == pair[:, jw + pw - 1]
            )
        r, c = np.nonzero(hit)
        p, j = p[c], j[c]
        at = r * m + j  # the flat cell of (r, j) in level 0
        n = p + extra
        cap_f, cap_b = np.minimum(n, m - j - p), np.minimum(p - 1, j)
        # and, where n >= 2 * 2**k, F or B to reach 2**k: one level at a time
        k = 1
        while at.size and 2 << k <= n.max():
            size = 1 << k
            keep = n < 2 * size
            ahead = (size <= cap_f) & ~keep
            keep[ahead] = levels.same(at[ahead], p[ahead], k)
            behind = (size <= cap_b) & ~keep
            keep[behind] = levels.same(at[behind] - size, p[behind], k)
            at, p, n, cap_f, cap_b = (a[keep] for a in (at, p, n, cap_f, cap_b))
            k += 1
        f = _extension(levels, at, p, cap_f, 1)
        keep = f + cap_b >= n
        at, p, n, f, cap_b = (a[keep] for a in (at, p, n, f, cap_b))
        size = f + _extension(levels, at, p, cap_b, -1) - n + 1
        keep = size > 0
        if keep.any():
            size = size[keep]
            shift = np.repeat(np.cumsum(size) - f[keep] + n[keep] - 1, size)
            cell = np.repeat(at[keep], size) + np.arange(shift.size) - shift
            out.append((cell, np.repeat(p[keep], size)))
    if not out:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    cell, p = (np.concatenate(a) for a in zip(*out))
    r, i = np.divmod(cell, m)
    return r, i, p


def _extension(levels: _Levels, at, p, cap, step):
    """Longest common extension at flat cells at and at + p, capped at cap.

    step = 1 extends forward (cells at, at + 1, ...), step = -1 backward
    (cells at - 1, at - 2, ...).  Binary lifting: powers of two from the
    largest one under the cap down, each kept when its windows agree.
    """
    length = np.zeros(at.size, dtype=np.int64)
    for k in range(int(cap.max(initial=0)).bit_length() - 1, -1, -1):
        size = 1 << k
        grow = np.flatnonzero(length + size <= cap)
        a = at[grow] + (length[grow] if step > 0 else -length[grow] - size)
        length[grow[levels.same(a, p[grow], k)]] += size
    return length


def _square_factors(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The distinct square factors zz found in any row.

    A square is named by its period and the two level windows that name
    its z, and one occurrence of each name is read back as a slice.
    """
    levels = _Levels(rows)
    r, i, p = _repetitions(levels, 0)
    at = r * rows.shape[1] + i
    k = np.frexp(p)[1] - 1
    levels.need(int(k.max(initial=0)))
    head, tail = np.empty_like(at), np.empty_like(at)
    for b in set(k.tolist()):
        hit = k == b
        head[hit] = levels.ids[b].reshape(-1)[at[hit]]
        tail[hit] = levels.ids[b].reshape(-1)[at[hit] + p[hit] - (1 << b)]
    # the levels go first, so sorting the names can reuse their memory
    del levels
    order = np.lexsort((tail, head, p))
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for name in (p, head, tail):
        ordered = name[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return {
        tuple(z + z)
        for h in order[new].tolist()
        for z in [rows[r[h], i[h] : i[h] + p[h]].tolist()]
    }


def find_overlaps(w) -> list[tuple[int, int]]:
    """All overlap witnesses (start, period), 1-indexed, sorted.

    An overlap of period p at position i is w[i..i+2p] with w[i+j] equal to
    w[i+j+p] for 0 <= j <= p, i.e. the shape a.x.a.x.a with |a.x| = p.
    """
    _, i, p = _repetitions(_Levels(_word_array(w).reshape(1, -1)), 1)
    return sorted(zip((i + 1).tolist(), p.tolist()))


def find_squares(w) -> frozenset[tuple[int, ...]]:
    """The distinct square factors (words of shape zz, z nonempty) of w."""
    return frozenset(_square_factors(_word_array(w).reshape(1, -1)))


def _palindromic_factors(rows: np.ndarray, max_len: int) -> set[tuple[int, ...]]:
    """The distinct palindromic factors of length <= max_len found in any row.

    A window is a palindrome when its ends agree and the window two symbols
    shorter inside it is one, so only palindromic windows are named: the
    id of one is the rank of (id of its inner palindrome, first symbol),
    kept with its flat start for the palindromes two symbols longer.  One
    occurrence of each id is read back as a slice.
    """
    width = rows.shape[1]
    flat = rows.ravel()
    if flat.size == 0:
        return set()
    found = set()
    if max_len >= 1:
        # with return_index np.unique skips the numpy.ma import of the plain call
        symbols = np.unique(flat, return_index=True)[0]
        found = {(v,) for v in symbols.tolist()}
    named = {}
    for size in range(2, min(max_len, width) + 1):
        if size <= 3:
            # the first of each chain: compare the ends of every window
            cols = width - size + 1
            at = np.flatnonzero(rows[:, :cols] == rows[:, size - 1 :])
            start = at + at // cols * (size - 1)
            inner = _rank(flat[start + 1]) if size == 3 else 0
        else:
            shorter, shorter_ids = named.pop(size - 2)
            column = shorter % width
            fits = (column >= 1) & (column <= width - size + 1)
            start = shorter[fits] - 1
            ends = flat[start] == flat[start + size - 1]
            start = start[ends]
            inner = shorter_ids[fits][ends]
        first = _rank(flat[start])
        ids = _rank(inner * (int(first.max(initial=0)) + 1) + first)
        named[size] = start, ids
        _, once = np.unique(ids, return_index=True)
        found.update(tuple(flat[i : i + size].tolist()) for i in start[once].tolist())
    return found


def find_palindromes(w, max_len: int) -> frozenset[tuple[int, ...]]:
    """The distinct palindromic factors of w with length <= max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return frozenset(_palindromic_factors(_word_array(w).reshape(1, -1), max_len))


# Factor scans must stay inside the prefix window where every factor of the
# infinite extension is guaranteed to appear: a run factor of length n spans
# at most 3n+2 word symbols, every length-m block of word symbols shows up
# within the first 13m, and the word itself must strictly contain the window.
def window_bound(n: int) -> int:
    """Paperfolding-prefix length guaranteed to expose all length-n run factors."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    return 13 * (3 * n + 2)


def min_code_length(n: int) -> int:
    """Smallest effective code length accepted by the windowed factor scans."""
    return math.ceil(math.log2(window_bound(n) + 1)) + 1


def _rank(keys: np.ndarray) -> np.ndarray:
    """Each key's index among the sorted distinct keys, in the shape of keys.

    The same numbers as np.unique(keys, return_inverse=True)[1]; a plain sort
    and a search among the few distinct keys beat its argsort, and skip the
    numpy.ma import that a plain np.unique makes on first use.
    """
    ordered = np.sort(keys, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    # rebinding frees the sorted copy before searchsorted allocates the result
    ordered = ordered[first]
    return np.searchsorted(ordered, keys)


def _join_ids(left: np.ndarray, right: np.ndarray, shift: int) -> np.ndarray:
    """Ids of the windows made of a left window at j and a right window at j + shift.

    left and right are ids of windows of the same rows, each numbered in
    lexicographic order; the joined ids are ranked in lexicographic order
    of the (left, right) pairs, so keys stay below K**2 for K distinct ids.
    """
    cols = min(left.shape[1], right.shape[1] - shift)
    base = int(right.max(initial=0)) + 1
    keys = np.multiply(left[:, :cols], base, dtype=np.int64)
    return _rank(keys + right[:, shift : shift + cols])


def _window_ids(rows: np.ndarray, m: int) -> np.ndarray:
    """ids[r, j] names rows[r, j : j + m]; ids are equal exactly when windows are.

    Prefix doubling after Karp, Miller and Rosenberg (STOC 1972): a length-m
    window is the join of its two overlapping length-h windows, h = ceil(m/2),
    at offsets 0 and m - h, so no width of symbols or factor length can
    overflow.  Ids are numbered in lexicographic order of the windows.
    """
    if m < 1:
        raise ValueError("window length must be >= 1")
    r, width = rows.shape
    cols = width - m + 1
    if cols < 1 or r == 0:
        return np.zeros((r, max(cols, 0)), dtype=np.intp)
    if m == 1:
        return _rank(rows)
    h = (m + 1) // 2
    half = _window_ids(rows, h)
    return _join_ids(half, half, m - h)


def _right_extensions(
    rows: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, follows) over the windows of run-length rows that have a next run.

    ids name the windows of one length n of rows (as _window_ids does) and
    come back without each row's last window; follows[i, s] is True when the
    factor with id i is followed by run length s (1..3) somewhere.
    """
    n = rows.shape[1] - ids.shape[1] + 1
    ids = ids[:, :-1]
    follows = np.zeros((int(ids.max(initial=-1)) + 1, 4), dtype=bool)
    follows[ids, rows[:, n:]] = True
    return ids, follows


class _FactorIndex:
    """One code's windowed run prefix and its prefix-doubling levels.

    Built once for factor windows up to length top: the runs that end
    inside window_bound(top), read off the word of the first
    min_code_length(top) instructions, and _Levels of them up to the
    largest power of two <= top.  The length-n window at j is the pair of
    level windows of length h, the largest power of two <= n, at j and
    j + n - h, so every n <= top is counted from the one build.
    """

    __slots__ = ("top", "runs", "ends", "levels")

    def __init__(self, code, top: int):
        c = as_code(code)
        need = min_code_length(top)
        if c.effective_length < need:
            raise ValueError(
                f"code with {c.effective_length} effective instructions is too short "
                f"for factor length {top}: minimum required length is {need}"
            )
        # the runs that end inside the window lie in the word of the first
        # `need` instructions, a prefix of the whole word
        runs = run_decompose(paperfolding_word(c.effective[:need]))
        k = int(np.searchsorted(runs.ends, window_bound(top), side="right"))
        assert k < runs.count  # window strictly inside the word by the length check
        self.top = top
        self.runs = runs.lengths[:k]
        self.ends = runs.ends[:k]
        self.levels = _Levels(self.runs[None, :])
        self.levels.need(top.bit_length() - 1)

    def columns(self, n: int) -> int:
        """How many runs end inside window_bound(n)."""
        return int(np.searchsorted(self.ends, window_bound(n), side="right"))

    def window_keys(self, n: int, count: int) -> np.ndarray:
        """Keys of the length-n windows at 0..count-1, equal exactly when they are."""
        if n < 1:
            raise ValueError("window length must be >= 1")
        if n > self.top:
            raise ValueError(f"index covers factor lengths up to {self.top}, not {n}")
        k = n.bit_length() - 1
        ids = self.levels.ids[k][0].astype(np.int64)
        tail = n - (1 << k)
        return ids[:count] * (self.runs.size + 1) + ids[tail : tail + count]

    def extensions(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys of the length-n windows followed inside n + 1's window, and the runs."""
        count = self.columns(n + 1) - n
        return self.window_keys(n, count), self.runs[n : n + count]


def _index(f, top: int) -> _FactorIndex:
    return f if isinstance(f, _FactorIndex) else _FactorIndex(f, top)


def subword_complexity(f, n: int) -> int:
    """Number of distinct length-n factors of the run-length word of f.

    Scans only runs that end inside the guaranteed window, so the answer
    is a property of paperfolding sequences at large, not of the truncation.
    f is a code or a _FactorIndex built for lengths up to at least n.
    """
    index = _index(f, n)
    keys = np.sort(index.window_keys(n, index.columns(n) - n + 1))
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def right_extension_map(f, n: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Each windowed length-n factor mapped to its observed right extensions."""
    index = _index(f, n + 1)
    keys, follows = index.extensions(n)
    ids = _rank(keys)
    table = np.zeros((int(ids.max(initial=-1)) + 1, 4), dtype=bool)
    table[ids, follows] = True
    _, first = np.unique(ids, return_index=True)
    word = index.runs.tolist()
    return {
        tuple(word[p : p + n]): frozenset(np.flatnonzero(ext).tolist())
        for p, ext in zip(first.tolist(), table)
    }


def right_special_count(f, n: int) -> int:
    """Count of length-n factors with at least two distinct right extensions.

    f is a code or a _FactorIndex built for lengths up to at least n + 1.
    """
    keys, follows = _index(f, n + 1).extensions(n)
    pairs = np.sort(keys * 4 + follows)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))] >> 2
    # a factor repeats in the sorted distinct pairs once per extra extension
    special = pairs[1:][pairs[1:] == pairs[:-1]]
    return int(np.count_nonzero(special[1:] != special[:-1])) + int(special.size > 0)
