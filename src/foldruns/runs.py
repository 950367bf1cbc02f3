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


def _periodic_windows(rows: np.ndarray, extra: int) -> Iterator[tuple[int, np.ndarray]]:
    """(p, hit) per period p, hit[r, j] iff rows[r, j : j + 2p + extra] has period p.

    extra = 0 finds squares zz with |z| = p, extra = 1 overlaps axaxa with
    |ax| = p; every row is scanned at once.  The window of length
    n = p + extra at j must equal the one at j + p.  With h the largest
    power of two <= n and s = n - h, that holds exactly when the length-h
    windows at j and j + s equal those at j + p and j + p + s, so one level
    of window ids (_window_ids), doubled as n grows, names every window.
    """
    m = rows.shape[1]
    h, ids = 1, _window_ids(rows, 1)
    for p in range(1, (m - extra) // 2 + 1):
        n = p + extra
        while 2 * h <= n:
            ids = _join_ids(ids, ids, h)
            h *= 2
        cols, s = m - 2 * p - extra + 1, n - h
        hit = ids[:, :cols] == ids[:, p : p + cols]
        if s:
            hit &= ids[:, s : s + cols] == ids[:, p + s : p + s + cols]
        yield p, hit


def _square_factors(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The distinct square factors found in any row."""
    found: set = set()
    for q, hit in _periodic_windows(rows, 0):
        if hit.any():
            pos = np.argwhere(hit)
            windows = rows[pos[:, 0:1], pos[:, 1:2] + np.arange(2 * q)]
            # return_index: a plain np.unique would import numpy.ma
            _, first = np.unique(windows, axis=0, return_index=True)
            found.update(map(tuple, windows[first].tolist()))
    return found


def find_overlaps(w) -> list[tuple[int, int]]:
    """All overlap witnesses (start, period), 1-indexed, sorted.

    An overlap of period p at position i is w[i..i+2p] with w[i+j] equal to
    w[i+j+p] for 0 <= j <= p, i.e. the shape a.x.a.x.a with |a.x| = p.
    """
    row = _word_array(w).reshape(1, -1)
    return sorted(
        (int(j) + 1, p)
        for p, hit in _periodic_windows(row, 1)
        for j in np.flatnonzero(hit[0])
    )


def find_squares(w) -> frozenset[tuple[int, ...]]:
    """The distinct square factors (words of shape zz, z nonempty) of w."""
    return frozenset(_square_factors(_word_array(w).reshape(1, -1)))


def _palindromic_factors(rows: np.ndarray, max_len: int) -> set[tuple[int, ...]]:
    """The distinct palindromic factors of length <= max_len found in any row.

    Windows are named by ids grown one symbol at a time (_join_ids), and
    one occurrence of each distinct palindromic id is read back as a slice.
    A window is a palindrome when its ends agree and the window two symbols
    shorter inside it is one.
    """
    found: set = set()
    r, width = rows.shape
    ones = ids = _window_ids(rows, 1)
    inner, pal = np.ones((r, width + 1), dtype=bool), np.ones((r, width), dtype=bool)
    for size in range(1, min(max_len, width) + 1):
        if size > 1:
            ids = _join_ids(ids, ones, size - 1)
            ends = rows[:, : 1 - size] == rows[:, size - 1 :]
            inner, pal = pal, inner[:, 1:-1] & ends
        _, first = np.unique(ids[pal], return_index=True)
        row, col = np.nonzero(pal)
        found.update(
            tuple(rows[row[i], col[i] : col[i] + size].tolist()) for i in first
        )
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


def _windowed_run_prefix(code, n: int) -> np.ndarray:
    c = as_code(code)
    need = min_code_length(n)
    if c.effective_length < need:
        raise ValueError(
            f"code with {c.effective_length} effective instructions is too short "
            f"for factor length {n}: minimum required length is {need}"
        )
    # the runs that end inside the window lie in the word of the first
    # `need` instructions, a prefix of the whole word
    runs = run_decompose(paperfolding_word(c.effective[:need]))
    bound = window_bound(n)
    k = int(np.searchsorted(runs.ends, bound, side="right"))
    assert k < runs.count  # window strictly inside the word by the length check
    return runs.lengths[:k]


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
    return _rank(left[:, :cols] * base + right[:, shift : shift + cols])


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


def subword_complexity(f, n: int) -> int:
    """Number of distinct length-n factors of the run-length word of f.

    Scans only runs that end inside the guaranteed window, so the answer
    is a property of paperfolding sequences at large, not of the truncation.
    """
    prefix = _windowed_run_prefix(f, n)
    return int(_window_ids(prefix[None, :], n).max(initial=-1)) + 1


def right_extension_map(f, n: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Each windowed length-n factor mapped to its observed right extensions."""
    prefix = _windowed_run_prefix(f, n + 1)
    rows = prefix[None, :]
    ids, follows = _right_extensions(rows, _window_ids(rows, n))
    present, first = np.unique(ids, return_index=True)
    word = prefix.tolist()
    return {
        tuple(word[p : p + n]): frozenset(np.flatnonzero(ext).tolist())
        for p, ext in zip(first.tolist(), follows[present])
    }


def right_special_count(f, n: int) -> int:
    """Count of length-n factors with at least two distinct right extensions."""
    rows = _windowed_run_prefix(f, n + 1)[None, :]
    _, follows = _right_extensions(rows, _window_ids(rows, n))
    return int(np.count_nonzero(follows.sum(axis=1) >= 2))
