"""Run structure of paperfolding words and factors of their run-length words.

A run is a maximal block of consecutive equal symbols.  For a code with
t >= 1 effective instructions the word splits into exactly 2**(t-1) runs,
each of length 1, 2, or 3; the run-length word (values in {1,2,3}) is the
object analyzed by the factor operations in the second half of this module.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterator, Sequence

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

WordLike = "PaperfoldingWord | Sequence[int] | np.ndarray"


def _word_array(w) -> np.ndarray:
    if isinstance(w, PaperfoldingWord):
        return w.array
    if isinstance(w, np.ndarray):
        return w
    return np.asarray(list(w), dtype=np.int64)


class RunDecomposition:
    """Lengths, starts, and ends of the maximal runs of a word, 1-indexed.

    Backed by numpy arrays so family-wide sweeps stay cheap; the accessor
    methods hand out plain ints.  Run k is the k-th maximal block, k >= 1.
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

    def length(self, k: int) -> int:
        self._check(k)
        return int(self._lengths[k - 1])

    def start(self, k: int) -> int:
        self._check(k)
        return int(self._starts[k - 1])

    def end(self, k: int) -> int:
        self._check(k)
        return int(self._ends[k - 1])

    def _check(self, k: int) -> None:
        if not 1 <= k <= len(self._lengths):
            raise IndexError(f"run index {k} outside 1..{len(self._lengths)}")

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """(k, length, start, end) per run, for table output."""
        for k in range(len(self._lengths)):
            yield (
                k + 1,
                int(self._lengths[k]),
                int(self._starts[k]),
                int(self._ends[k]),
            )

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


def _family_run_data(t: int):
    """(codes, words, run lengths, 1-indexed run ends) for every code of length t.

    Row r of each matrix belongs to row r of code_matrix(t).  Requires the
    uniform run count 2**(t-1); a violation (none exists, but the reshape
    depends on it) raises RunCountError instead of misaligning rows.
    """
    if t < 1:
        raise ValueError("run data needs t >= 1")
    codes = code_matrix(t)
    words = word_matrix(codes)
    rows = codes.shape[0]
    boundary = words[:, 1:] != words[:, :-1]
    counts = 1 + boundary.sum(axis=1)
    expected = 2 ** (t - 1)
    if not np.all(counts == expected):
        r = int(np.flatnonzero(counts != expected)[0])
        raise RunCountError(FoldCode(codes[r].tolist()), int(counts[r]), expected)
    bpos = np.nonzero(boundary)[1].astype(np.int32).reshape(rows, expected - 1)
    ends0 = np.concatenate(
        [bpos, np.full((rows, 1), words.shape[1] - 1, dtype=np.int32)], axis=1
    )
    starts0 = np.concatenate([np.zeros((rows, 1), dtype=np.int32), bpos + 1], axis=1)
    lengths = (ends0 - starts0 + 1).astype(np.int8)
    return codes, words, lengths, ends0 + 1


def assoc_code(f) -> FoldCode:
    """The associated code g with |g| = |f| - 1 governing run endings.

    Case rule on the first two instructions, with x the remainder:
    (1,1)x -> 1,(-x); (1,-1)x -> -1,(-x); (-1,1)x -> -1,x; (-1,-1)x -> 1,x.
    """
    c = as_code(f)
    eff = c.effective
    if len(eff) < 2:
        raise InvalidCodeError(
            f"associated code needs >= 2 effective instructions, got {len(eff)}"
        )
    f0, f1, rest = eff[0], eff[1], eff[2:]
    if f0 == 1:
        head = 1 if f1 == 1 else -1
        tail = tuple(-s for s in rest)
    else:
        head = -1 if f1 == 1 else 1
        tail = rest
    return FoldCode((head,) + tail)


def predicted_end_positions(f) -> np.ndarray:
    """Predicted run ends 2n - eps_n for 1 <= n < 2**(t-1).

    eps_n is 0 when the associated code's word has +1 at position n, else 1.
    The associated word has exactly 2**(t-1) - 1 terms, one per predicted
    index, so the whole range is a single vector expression.
    """
    g = assoc_code(f)
    pg = paperfolding_word(g).array
    n = np.arange(1, pg.size + 1, dtype=np.int64)
    return 2 * n - (pg == -1)


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


def run_start(code, n: int) -> int:
    return run_span(code, n)[0]


def run_end(code, n: int) -> int:
    return run_span(code, n)[1]


def run_length(code, n: int) -> int:
    s, e = run_span(code, n)
    return e - s + 1


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


class FactorInventory:
    """A set of factors of a run-length word, stored as int tuples."""

    __slots__ = ("_factors", "_max_length")

    def __init__(self, factors, max_length: "int | None" = None):
        self._factors = frozenset(tuple(int(s) for s in w) for w in factors)
        self._max_length = max_length

    @property
    def factors(self) -> frozenset:
        return self._factors

    @property
    def max_length(self) -> "int | None":
        """Length cap the inventory was collected under, None if unbounded."""
        return self._max_length

    def render(self) -> list[str]:
        """Factors as digit strings, sorted by length then lexicographically."""
        return [
            "".join(str(s) for s in w)
            for w in sorted(self._factors, key=lambda w: (len(w), w))
        ]

    def __contains__(self, w) -> bool:
        return tuple(int(s) for s in w) in self._factors

    def __iter__(self):
        return iter(sorted(self._factors, key=lambda w: (len(w), w)))

    def __len__(self) -> int:
        return len(self._factors)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FactorInventory):
            return self._factors == other._factors
        if isinstance(other, (set, frozenset)):
            return self._factors == {tuple(int(s) for s in w) for w in other}
        return NotImplemented

    def __repr__(self) -> str:
        return f"FactorInventory({self.render()})"


def _window_hit(eq: np.ndarray, size: int) -> np.ndarray:
    """hit[r, j]: eq[r, j : j + size] is all True (one row per word)."""
    if eq.shape[1] < size:
        return np.zeros((eq.shape[0], 0), dtype=bool)
    cs = np.zeros((eq.shape[0], eq.shape[1] + 1), dtype=np.int32)
    np.cumsum(eq, axis=1, out=cs[:, 1:])
    return (cs[:, size:] - cs[:, :-size]) == size


def _periodic_windows(rows: np.ndarray, extra: int) -> Iterator[tuple[int, np.ndarray]]:
    """(p, hit) per period p, hit[r, j] iff rows[r, j : j + 2p + extra] has period p.

    extra = 0 finds squares zz with |z| = p, extra = 1 overlaps axaxa with
    |ax| = p; every row is scanned at once.
    """
    m = rows.shape[1]
    for p in range(1, (m - extra) // 2 + 1):
        yield p, _window_hit(rows[:, p:] == rows[:, :-p], p + extra)


def _square_factors(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The distinct square factors found in any row."""
    found: set = set()
    for q, hit in _periodic_windows(rows, 0):
        if hit.any():
            pos = np.argwhere(hit)
            windows = rows[pos[:, 0:1], pos[:, 1:2] + np.arange(2 * q)]
            found.update(map(tuple, np.unique(windows, axis=0).tolist()))
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


def find_squares(w) -> FactorInventory:
    """The distinct square factors (words of shape zz, z nonempty) of w."""
    return FactorInventory(_square_factors(_word_array(w).reshape(1, -1)))


def square_occurrences(w, z) -> list[int]:
    """1-indexed positions where the square z.z occurs in w."""
    arr = _word_array(w)
    zz = np.asarray(list(z) + list(z), dtype=arr.dtype)
    if zz.size == 0:
        raise ValueError("square root must be nonempty")
    if zz.size > arr.size:
        return []
    wins = np.lib.stride_tricks.sliding_window_view(arr, zz.size)
    return [int(i) + 1 for i in np.flatnonzero((wins == zz).all(axis=1))]


def _palindromic_factors(rows: np.ndarray, max_len: int) -> set[tuple[int, ...]]:
    """The distinct palindromic factors of length <= max_len found in any row."""
    found: set = set()
    for size in range(1, min(max_len, rows.shape[1]) + 1):
        wins = np.lib.stride_tricks.sliding_window_view(rows, size, axis=1)
        pal = (wins == wins[..., ::-1]).all(axis=2)
        if pal.any():
            found.update(map(tuple, np.unique(wins[pal], axis=0).tolist()))
    return found


def find_palindromes(w, max_len: int) -> FactorInventory:
    """The distinct palindromic factors of w with length <= max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rows = _word_array(w).reshape(1, -1)
    return FactorInventory(_palindromic_factors(rows, max_len), max_length=max_len)


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
    runs = run_decompose(paperfolding_word(c))
    bound = window_bound(n)
    k = int(np.searchsorted(runs.ends, bound, side="right"))
    assert k < runs.count  # window strictly inside the word by the length check
    return runs.lengths[:k]


def subword_complexity(f, n: int) -> int:
    """Number of distinct length-n factors of the run-length word of f.

    Scans only runs that end inside the guaranteed window, so the answer
    is a property of paperfolding sequences at large, not of the truncation.
    """
    prefix = _windowed_run_prefix(f, n)
    return len({tuple(prefix[i : i + n]) for i in range(len(prefix) - n + 1)})


def right_extension_map(f, n: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Each windowed length-n factor mapped to its observed right extensions."""
    prefix = _windowed_run_prefix(f, n + 1)
    ext = defaultdict(set)
    for i in range(len(prefix) - n):
        ext[tuple(prefix[i : i + n])].add(int(prefix[i + n]))
    return {w: frozenset(s) for w, s in ext.items()}


def right_special_count(f, n: int) -> int:
    """Count of length-n factors with at least two distinct right extensions."""
    return sum(1 for s in right_extension_map(f, n).values() if len(s) >= 2)
