"""Named bounded checks for run-structure, factor, and regular-sequence claims.

Every check sweeps a finite family (codes up to a length bound, indices up
to a count bound), reports pass/fail with a machine-checkable witness on
failure, and is deterministic: same bounds, same report.  The registry is
what the `verify` CLI subcommand dispatches to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contfrac
from .foldcore import FoldCode, all_codes, code_matrix, word_matrix
from .runs import (
    RunCountError,
    _FactorIndex,
    _Levels,
    _assoc_codes,
    _palindromic_factors,
    _predicted_ends,
    _regular_gaps,
    _regular_run_data,
    _repetitions,
    _right_extension_pairs,
    _run_blocks,
    _square_factors,
    find_squares,
    min_code_length,
    right_special_count,
    run_length_word,
    subword_complexity,
)
from .automata import (
    GapOracle,
    InferenceError,
    MultiTrackAutomaton,
    StartRelationOracle,
    accepted_numeric_values,
    accepted_second_values,
    infer_automaton,
    regular_gap_value,
)

EXPECTED_SQUARES = frozenset({(2, 2), (1, 2, 3, 1, 2, 3), (3, 2, 1, 3, 2, 1)})
EXPECTED_PALINDROMES = frozenset(
    {
        (1,),
        (2,),
        (3,),
        (2, 2),
        (2, 1, 2),
        (2, 3, 2),
        (1, 2, 3, 2, 1),
        (3, 2, 1, 2, 3),
    }
)

SUITES = ("sp", "runs", "regular", "cf")

# The least max_code_len each suite accepts.  The runs suite starts at 4:
# an overlap, and a length-2 factor with a follower, need three runs, and
# the squares 123123 and 321321 first occur in codes of length 4.
MIN_CODE_LEN = {"sp": 2, "runs": 4, "regular": 2, "cf": 2, "all": 4}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named bounded check.

    The witness is the verdict: a report fails exactly when it carries one,
    and it re-evaluates to a genuine violation through plain word-level
    code.  `note` holds non-fatal observations.
    """

    name: str
    bound: str
    witness: "tuple | int | None" = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __str__(self) -> str:
        head = f"{self.verdict.upper()} {self.name} [{self.bound}]"
        if self.witness is not None:
            head += f" witness={self.witness!r}"
        if self.note:
            head += f" note={self.note}"
        return head


def _first(name: str, bound: str, bad: np.ndarray, witness) -> CheckReport:
    """PASS when the index vector `bad` is empty, else FAIL at its first index."""
    return CheckReport(name, bound, witness(int(bad[0])) if bad.size else None)


def _needs(name: str, L: int, least: int) -> None:
    """Refuse a code-length bound L below `least`, where the check sweeps nothing."""
    if L < least:
        raise ValueError(f"{name} needs L >= {least}, got {L}")


def _codes_bound(name: str, L: int, least: int) -> str:
    """The bound of a sweep over codes with t <= L; refuses an L below `least`."""
    _needs(name, L, least)
    return f"codes t<={L}"


# ---------------------------------------------------------------------------
# family matrices: rows of code_matrix(t) and their run data


def _row_code(codes: np.ndarray, r: int) -> FoldCode:
    return FoldCode(codes[r].tolist())


def _spread_codes(length: int, count: int) -> list[FoldCode]:
    """A fixed, reproducible spread of codes of the given effective length."""
    picks = [0, 2**length - 1]
    alt = int("10" * length, 2) >> length
    picks += [alt, (2**length - 1) ^ alt]
    seed = 0x9E3779B97F4A7C15
    i = 1
    while len(picks) < count:
        v = (i * seed) % (2**64) >> (64 - length)
        if v not in picks:
            picks.append(v)
        i += 1
    codes = code_matrix(length)
    return [_row_code(codes, r) for r in picks[:count]]


# ---------------------------------------------------------------------------
# named checks: run structure


def prop1(L: int = 12) -> CheckReport:
    """Every code of effective length 1 <= t <= L yields exactly 2**(t-1) runs."""
    bound = _codes_bound("prop1", L, 1)
    for t in range(1, L + 1):
        try:
            for _ in _run_blocks(code_matrix(t)):
                pass
        except RunCountError as exc:
            return CheckReport("prop1", bound, exc.witness)
    return CheckReport("prop1", bound)


def prop4(L: int = 12) -> CheckReport:
    """Every run of every code of effective length t <= L has length 1, 2, or 3."""
    bound = _codes_bound("prop4", L, 1)
    for t in range(1, L + 1):
        codes = code_matrix(t)
        for a, _, lengths in _run_blocks(codes):
            bad = np.argwhere((lengths < 1) | (lengths > 3))
            if bad.size:
                r, k = map(int, bad[0])
                witness = (_row_code(codes, a + r).to_text(), k + 1, int(lengths[r, k]))
                return CheckReport("prop4", bound, witness)
    return CheckReport("prop4", bound)


def thm3(L: int = 12) -> CheckReport:
    """Run ends satisfy E[n] = 2n - [P_g[n] = -1] with g the associated code.

    Swept for every code of effective length 2 <= t <= L over the full
    range 1 <= n <= 2**(t-1) - 1: each block of _run_blocks compares its
    run ends with the ends predicted from the words of its associated codes.
    """
    bound = _codes_bound("thm3", L, 2)
    for t in range(2, L + 1):
        codes = code_matrix(t)
        for a, ends, _ in _run_blocks(codes):
            head = ends[:, :-1]
            block = codes[a : a + len(ends)]
            predicted = _predicted_ends(word_matrix(_assoc_codes(block)))
            bad = np.argwhere(head != predicted)
            if bad.size:
                r, j = map(int, bad[0])
                code = _row_code(codes, a + r).to_text()
                witness = (code, j + 1, int(head[r, j]), int(predicted[r, j]))
                return CheckReport("thm3", bound, witness)
    return CheckReport("thm3", bound)


# ---------------------------------------------------------------------------
# named checks: factors of run-length words


def overlapfree(L: int = 10) -> CheckReport:
    """Run-length words of all codes with t <= L contain no overlap axaxa."""
    bound = _codes_bound("overlapfree", L, 3)
    for t in range(1, L + 1):
        codes, hits = code_matrix(t), []
        for a, _, lengths in _run_blocks(codes):
            rows, starts, periods = _repetitions(_Levels(lengths), 1)
            if rows.size:
                # each block's first by period, then row, then start
                h = np.lexsort((starts, rows, periods))[0]
                r, j, p = int(rows[h]), int(starts[h]), int(periods[h])
                overlap = tuple(lengths[r, j : j + 2 * p + 1].tolist())
                hits.append((p, a + r, j, overlap))
        if hits:
            p, r, j, overlap = min(hits)
            witness = (_row_code(codes, r).to_text(), j + 1, p, overlap)
            return CheckReport("overlapfree", bound, witness)
    return CheckReport("overlapfree", bound)


def squares_only(L: int = 10) -> CheckReport:
    """The union of square factors over all codes with t <= L is the known trio."""
    # 123123 and 321321 first occur at t = 4: below it the trio is never whole
    bound = _codes_bound("squares_only", L, 4)
    found: set = set()
    for t in range(1, L + 1):
        for _, _, lengths in _run_blocks(code_matrix(t)):
            found |= _square_factors(lengths)
    if found == set(EXPECTED_SQUARES):
        return CheckReport("squares_only", bound)
    extra = sorted(found - EXPECTED_SQUARES)
    missing = sorted(EXPECTED_SQUARES - found)
    if extra:
        square = extra[0]
        code = next(
            (
                c.to_text()
                for t in range(1, L + 1)
                for c in all_codes(t)
                if square in find_squares(run_length_word(c))
            ),
            None,
        )
        return CheckReport("squares_only", bound, ("unexpected", square, code))
    return CheckReport("squares_only", bound, ("missing", missing[0]))


def squares_present(L: int = 7, flag_up_to: int = 10) -> CheckReport:
    """Each code of effective length L contains all three known squares.

    Lengths L+1..flag_up_to are sampled as well; any code there missing a
    square is noted (not failed), since only the length-L statement carries
    a sweep guarantee.
    """
    _needs("squares_present", L, 1)
    bound = f"codes t={L}, sampled to t<={flag_up_to}"
    notes = []
    for t in range(L, max(L, flag_up_to) + 1):
        codes, lacking = code_matrix(t), {}  # square -> the first row without it
        for a, _, lengths in _run_blocks(codes):
            words = [bytes(row) for row in lengths.astype(np.uint8)]
            for square in EXPECTED_SQUARES - lacking.keys():
                bad = [r for r, w in enumerate(words) if bytes(square) not in w]
                if bad:
                    lacking[square] = a + bad[0]
        for square, r in sorted(lacking.items()):
            if t == L:
                witness = (_row_code(codes, r).to_text(), square)
                return CheckReport("squares_present", bound, witness)
            notes.append(
                f"t={t}: {_row_code(codes, r).to_text()} lacks "
                f"{''.join(map(str, square))}"
            )
    return CheckReport("squares_present", bound, note="; ".join(notes))


def palindromes(L: int = 9, max_len: int = 7) -> CheckReport:
    """Palindromic factors over all codes of effective length L match the eight.

    max_len 7 is exhaustive for the claim: a palindrome of length k contains
    one of length k - 2, so absence at 6 and 7 rules out everything longer.
    """
    _needs("palindromes", L, 1)
    bound = f"codes t={L}, factor len<={max_len}"
    found = set()
    for _, _, lengths in _run_blocks(code_matrix(L)):
        found |= _palindromic_factors(lengths, max_len)
    if found == set(EXPECTED_PALINDROMES):
        return CheckReport("palindromes", bound)
    extra = sorted(found - EXPECTED_PALINDROMES)
    missing = sorted(EXPECTED_PALINDROMES - found)
    witness = ("unexpected", extra[0]) if extra else ("missing", missing[0])
    return CheckReport("palindromes", bound, witness)


def no_triple_extension(L: int = 10, max_factor_len: int = 12) -> CheckReport:
    """No factor of length >= 2 of any run-length word has 3 right extensions."""
    if max_factor_len < 2:
        raise ValueError(
            f"no_triple_extension needs max_factor_len >= 2, got {max_factor_len}"
        )
    bound = _codes_bound("no_triple_extension", L, 3)
    bound += f", factor len 2..{max_factor_len}"
    for t in range(2, L + 1):
        # a window of n + 1 <= top runs lies in one of top runs: the distinct
        # top-run windows of each block, at their first (row, start), suffice
        codes, parts = code_matrix(t), []
        for a, _, lengths in _run_blocks(codes):
            m = lengths.shape[1]
            top = min(max_factor_len, m - 1) + 1
            keys = _Levels(lengths).window_keys(top, m - top + 1)
            r, j = np.divmod(np.unique(keys, return_index=True)[1], keys.shape[1])
            parts.append((a + r, j, lengths[r[:, None], j[:, None] + np.arange(top)]))
        rows, starts, windows = map(np.concatenate, zip(*parts))
        # the earliest block holding a window also holds its first occurrence
        kept = np.sort(np.unique(windows, axis=0, return_index=True)[1])
        rows, starts, windows = rows[kept], starts[kept], windows[kept]
        levels = _Levels(windows)
        for n in range(2, top):
            count = top - n  # the windows that have a next run
            factors, follows = _right_extension_pairs(
                levels.window_keys(n, count), windows[:, n:]
            )
            # a factor repeats in the sorted pairs once per extra extension
            triple = factors[2:][factors[2:] == factors[:-2]]
            if triple.size:
                # the smallest such factor, where it first occurs row by row
                w, k = np.nonzero(levels.window_keys(n, count) == triple[0])
                r, j = min(zip(rows[w].tolist(), (starts[w] + k).tolist()))
                factor = tuple(windows[w[0], k[0] : k[0] + n].tolist())
                exts = tuple(follows[factors == triple[0]].tolist())
                witness = (_row_code(codes, r).to_text(), factor, exts, j + 1)
                return CheckReport("no_triple_extension", bound, witness)
    return CheckReport("no_triple_extension", bound)


def _spread_count_check(
    name: str,
    count,
    expected,
    n_range: tuple[int, int],
    L: int,
    sample: int,
    reach: int,
) -> CheckReport:
    """count(index, n) == expected(n) on _spread_codes(L, sample), n in range.

    count reads a factor index of each code that covers windows of length
    hi + reach: 0 for the factors themselves, 1 for their right extensions.
    """
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty factor-length range {lo}..{hi}")
    if not 1 <= sample <= 2**L:
        raise ValueError(f"sample must be in 1..{2**L} for codes of length {L}")
    need = min_code_length(hi + reach)
    if L < need:
        what = "right extensions of " if reach else ""
        raise ValueError(
            f"codes of length {L} are too short for {what}factor length {hi}: "
            f"minimum required length is {need}"
        )
    bound = f"n={lo}..{hi}, codes len {L}, sample {sample}"
    for code in _spread_codes(L, sample):
        index = _FactorIndex(code, hi + reach)
        for n in range(lo, hi + 1):
            got, want = count(index, n), expected(n)
            if got != want:
                return CheckReport(name, bound, (code.to_text(), n, got, want))
    return CheckReport(name, bound)


def complexity(
    n_range: tuple[int, int] = (6, 30), L: int = 14, sample: int = 16
) -> CheckReport:
    """Distinct length-n factor count of run-length words equals 4n + 4.

    Runs on a fixed spread of codes of effective length L; the windowed
    scan underneath guarantees every length-n factor appears in the scanned
    prefix, so the count is a property of the family, not the sample.
    """
    return _spread_count_check(
        "complexity", subword_complexity, lambda n: 4 * n + 4, n_range, L, sample, 0
    )


def right_special_exactly_four(
    n_range: tuple[int, int] = (6, 30), L: int = 14, sample: int = 16
) -> CheckReport:
    """Exactly four length-n factors admit two right extensions, each n in range.

    At n = 5 the true count is five, so ranges that include 5 fail with the
    witnessing count; the default range starts at 6 where the claim holds.
    """
    name = "right_special_exactly_four"
    return _spread_count_check(
        name, right_special_count, lambda n: 4, n_range, L, sample, 1
    )


# ---------------------------------------------------------------------------
# the start-relation suite (machine facts cross-checked against words)


def sp_suite(L: int = 8, machine=None) -> list[CheckReport]:
    """Eight structural checks of the run-start relation automaton.

    For every valid code with t <= L, the accepted (n, x) pairs are pulled
    out of the automaton and examined: (1) at most one x per n; (2) (0,0)
    accepted; (3) (1,1) accepted when t >= 1; (4) some x accepted at the
    final index 2**(t-1); (5) nothing accepted beyond it; (6) the word is
    constant from that final x onward; (7) accepted x increase strictly
    with n; (8) accepted x equal the decomposition's run starts.  Checks 6
    and 8 compare against run starts computed independently of the
    automaton.

    Every numeric pair of a length-t code fits in t bits, so each code is
    probed at widths t, t+1, and t+2; the three extractions must agree
    (checks 1 and 8 see any padding-dependence), which pins every accept
    bit the valid-code language can reach at these lengths.  The codes of
    each length are extracted in the blocks of _run_blocks, the empty code
    (t = 0) in one of its own, one call per block and width; a check's
    witness is its first failure by t, then code, then width.
    """
    bound = _codes_bound("sp_suite", L, 2)
    if machine is None:
        machine = infer_automaton(StartRelationOracle(), sample_depth=8)
    names = [
        "sp-functional",
        "sp-accepts-origin",
        "sp-first-run",
        "sp-last-run-exists",
        "sp-nothing-beyond",
        "sp-tail-constant",
        "sp-starts-increase",
        "sp-run-boundaries",
    ]
    failures: dict[str, tuple] = {}  # name -> the first witness found
    for t in range(0, L + 1):
        codes = code_matrix(t)
        for a, ends, lengths in _run_blocks(codes):
            block, starts = codes[a : a + len(ends)], ends - lengths + 1
            found: dict[str, tuple] = {}  # name -> (block row, witness tail)
            for width in (t, t + 1, t + 2):
                pairs = accepted_numeric_values(machine, block, width)
                hits = _sp_failures(pairs, starts, width)
                for name, hit in hits.items():
                    if name not in found or hit[0] < found[name][0]:
                        found[name] = hit
            for name, (r, tail) in found.items():
                text = _row_code(codes, a + r).to_text() or "(empty)"
                failures.setdefault(name, (text, *tail))
    return [CheckReport(name, bound, failures.get(name)) for name in names]


def _sp_failures(pairs, starts: np.ndarray, width: int) -> dict:
    """name -> (row, witness tail) for each sp check failing on a block.

    `pairs` is accepted_numeric_values' (row, (n, x)) output at `width` and
    starts[r] the 1-indexed run starts of row r, so the final index `last`
    is starts.shape[1].  Indices n <= last are checked on (row, n)
    matrices, the rest on the sorted entries.  A failure is the first bad
    (row, n), row-major; its tail is the witness without the code.
    """
    row, (n, x) = pairs[0], pairs[1].T
    rows, last = starts.shape
    key = row * 2**width + n  # sorted: one run of entries per (row, n)

    def xs(r: int, k: int) -> tuple:
        lo, hi = np.searchsorted(key, [r * 2**width + k, r * 2**width + k + 1])
        return tuple(x[lo:hi].tolist())

    def first(mask: np.ndarray):
        return divmod(int(mask.argmax()), mask.shape[1]) if mask.any() else None

    inside = n <= last
    cell = (row * (last + 1) + n)[inside]
    count = np.bincount(cell, minlength=rows * (last + 1)).reshape(rows, -1)
    head = np.ones(len(cell), dtype=bool)
    head[1:] = cell[1:] != cell[:-1]
    least = np.full(rows * (last + 1), -1, dtype=np.int64)  # the least x, or -1
    least[cell[head]] = x[inside][head]
    least = least.reshape(rows, -1)
    want = np.concatenate([np.zeros((rows, 1), dtype=np.int64), starts], axis=1)
    one = count == 1

    out = {}
    for e in np.flatnonzero(key[1:] == key[:-1])[:1]:  # the first n with two x
        r, k = int(row[e]), int(n[e])
        out["sp-functional"] = (r, (width, k, xs(r, k)))
    if hit := first(~(one[:, :1] & (least[:, :1] == 0))):
        out["sp-accepts-origin"] = (hit[0], (width, xs(hit[0], 0)))
    beyond = [(int(row[e]), int(n[e])) for e in np.flatnonzero(~inside)[:1]]
    for r, k in beyond:
        out["sp-nothing-beyond"] = (r, (width, k, xs(r, k)))
    # run boundaries: the first n whose x values are not [its run start]
    wrong = [(r, k, ()) for r, k in beyond]
    if hit := first(~one | (least != want)):
        wrong.append((*hit, (int(want[hit]),)))
    if wrong:
        r, k, run_start = min(wrong)
        out["sp-run-boundaries"] = (r, (width, k, xs(r, k), run_start))
    if not last:  # t = 0
        return out
    if hit := first(~(one[:, 1:2] & (least[:, 1:2] == 1))):
        out["sp-first-run"] = (hit[0], (width, xs(hit[0], 1)))
    if hit := first(count[:, last:] == 0):
        out["sp-last-run-exists"] = (hit[0], (width, last))
    # word[x - 1:] is constant exactly when x = 0 or x >= the last run start
    x_last = least[:, last:]
    if hit := first((x_last >= 1) & (x_last < starts[:, -1:])):
        out["sp-tail-constant"] = (hit[0], (width, int(x_last[hit])))
    # the x of each n accepting exactly one must increase: prev is the latest
    # such n before n, -1 for none
    latest = np.maximum.accumulate(np.where(one, np.arange(last + 1), -1), axis=1)
    prev = np.full((rows, last + 1), -1)
    prev[:, 1:] = latest[:, :-1]
    x_prev = np.take_along_axis(least, np.maximum(prev, 0), axis=1)
    if hit := first(one & (prev >= 0) & (x_prev >= least)):
        r, k = hit
        p = prev[r, k]
        rank = int(one[r, :p].sum())
        tail = (width, rank, int(least[r, p]), int(least[r, k]))
        out["sp-starts-increase"] = (r, tail)
    return out


# ---------------------------------------------------------------------------
# the regular-sequence suite


def gap_wellformedness(a: MultiTrackAutomaton, depth: int = 10) -> list:
    """Bounded totality/functionality/monotonicity/range checks for t(n).

    Returns CheckReports.  The expected gaps come from sieving the
    complement of H out of the regular run ends up to 2**depth - 1;
    totality is demanded exactly for the n whose t(n) fits the width.
    Below depth 2 no gap fits, so such depths are refused.
    """
    if depth < 2:
        raise ValueError(f"gap_wellformedness needs depth >= 2, got {depth}")
    gaps = _regular_gaps(2**depth - 1).tolist()
    row, xs = accepted_second_values(a, np.arange(1, len(gaps) + 1), depth)
    count = np.bincount(row, minlength=len(gaps))
    offset = np.cumsum(count) - count  # where each n's sorted x values begin
    seq = xs[offset[count > 0]].tolist()  # the least x of each n accepting any
    # range: accepted x-values vs the sieved gaps up to the largest of them
    upper = seq[-1] if seq else 0
    expected = [y for y in gaps if y <= upper]
    got = sorted(set(seq))
    off = None
    if got != expected:
        pairs = ((x, y) for x, y in zip(got, expected) if x != y)
        off = next(pairs, (len(got), len(expected)))
    bound = f"depth={depth}"
    return [
        _first("gap-total", bound, np.flatnonzero(count == 0), lambda i: i + 1),
        _first(
            "gap-functional",
            bound,
            np.flatnonzero(count > 1),
            lambda i: (i + 1, xs[offset[i] : offset[i] + count[i]].tolist()),
        ),
        _first(
            "gap-increasing", bound, np.flatnonzero(np.diff(seq) <= 0), lambda i: i + 1
        ),
        CheckReport("gap-range", bound, off),
    ]


def build_tt(sample_depth: int = 10) -> MultiTrackAutomaton:
    """Infer the automaton for the gap sequence t(n) and check it is well formed.

    Inference verifies the machine against GapOracle to `sample_depth`, and
    gap_wellformedness checks it at the same bound; raises InferenceError
    when any of those checks fails.
    """
    machine = infer_automaton(GapOracle(), sample_depth)
    bad = [r for r in gap_wellformedness(machine, depth=sample_depth) if not r.passed]
    if bad:
        raise InferenceError(f"gap automaton failed checks: {bad}")
    return machine


def regular_suite(
    N: int = 10**5,
    sum_bound: "int | None" = None,
    tt_machine=None,
) -> list[CheckReport]:
    """Index sweeps for the all-ones specializations plus tt well-formedness.

    Checks, for the regular (all-ones) word: the run length is 1 exactly at
    indices 2 and 7 mod 8 (n <= N); the run end doubles its index on
    n = 1 mod 4 (n <= N); the three composition identities g(h(i)+1) = 2,
    g(t(2i)) = 3, g(t(2i-1)) = 1 (i <= sum_bound, default min(N, 10**4),
    with t enumerated by sieving the complement of H = {h(n)+1}); a
    spot cross-check of the sieved t against the search-based evaluator;
    and the four well-formedness reports for the inferred gap automaton.
    """
    if N < 16:
        raise ValueError("regular_suite needs N >= 16")
    if sum_bound is None:
        sum_bound = min(N, 10**4)
    if sum_bound < 1:
        raise ValueError(f"regular_suite needs sum_bound >= 1, got {sum_bound}")

    # one run table covers every indexed lookup below; t(2k) sits near
    # 4.2k, so 5x the sum bound leaves the composition lookups in range
    g, h = _regular_run_data(max(N, 5 * sum_bound + 16))  # run i+1: g[i], h[i]

    ns = np.arange(1, N + 1, dtype=np.int64)
    should = (ns % 8 == 2) | (ns % 8 == 7)
    doubling = ns % 4 == 1
    n_d, h_d = ns[doubling], h[:N][doubling]
    # h(0) = 0 joins the ends so part (a) covers i = 0
    h_with0 = np.concatenate([[0], h[:sum_bound]])
    after_h = g[h_with0]  # the run after run h(i): run number h(i) + 1
    reports = [
        _first(
            "regular-length-ones-mod8",
            f"n<={N}",
            np.flatnonzero((g[:N] == 1) != should),
            lambda i: (i + 1, int(g[i])),
        ),
        _first(
            "regular-end-doubling",
            f"n<={N}, n=1 mod 4",
            np.flatnonzero(h_d != 2 * n_d),
            lambda i: (int(n_d[i]), int(h_d[i])),
        ),
        _first(
            "regular-sum-part-a",
            f"i<={sum_bound}",
            np.flatnonzero(after_h != 2),
            lambda i: (i, int(h_with0[i]), int(after_h[i])),
        ),
    ]

    tvals = _regular_gaps(int(h[3 * sum_bound]) + 2)  # tvals[k] = t(k+1)
    if tvals.size < 2 * sum_bound:
        raise RuntimeError("sieve window too small for the requested sum bound")
    even_ts = tvals[1 : 2 * sum_bound : 2]  # t(2i), i = 1..sum_bound
    odd_ts = tvals[0 : 2 * sum_bound : 2]  # t(2i-1)
    if int(even_ts[-1]) > g.size:
        raise RuntimeError("run window too small for the composition lookups")
    for name, ts, want in (
        ("regular-sum-part-b", even_ts, 3),
        ("regular-sum-part-c", odd_ts, 1),
    ):
        vals = g[ts - 1]
        reports.append(
            _first(
                name,
                f"i<={sum_bound}",
                np.flatnonzero(vals != want),
                lambda i: (i + 1, int(ts[i]), int(vals[i])),
            )
        )

    # the sieve and the binary-search evaluator must tell the same story
    probes = sorted(
        set(range(1, 17))
        | set(range(1, 2 * sum_bound + 1, max(1, (2 * sum_bound) // 97)))
    )
    cross_bad = next(
        (
            (k, int(tvals[k - 1]), regular_gap_value(k))
            for k in probes
            if int(tvals[k - 1]) != regular_gap_value(k)
        ),
        None,
    )
    bound = f"{len(probes)} probes, k<={2 * sum_bound}"
    reports.append(CheckReport("regular-gaps-cross", bound, cross_bad))

    if tt_machine is None:
        tt_machine = infer_automaton(GapOracle())
    reports.extend(gap_wellformedness(tt_machine))
    return reports


# ---------------------------------------------------------------------------
# the continued-fraction correspondence (arithmetic in `contfrac`)


def cf_theorem_check(n_max: int) -> CheckReport:
    """Sweep all sign vectors with 2 <= n <= n_max against the prediction.

    The witness on failure is (eps, computed, predicted), both canonical
    expansions.  Each vector is decided by value: the pair (p, q) of its
    family row of predicted expansions (contfrac._predicted_pairs, whose
    run lengths are unfolded with no word) against the pair of alpha,
    both in lowest terms; one contfrac._AlphaCarry over the whole sweep
    builds each alpha pair from the Horner prefixes it shares with the
    vector before.  canonical(x) is cf_from_rational(cf_to_rational(x))
    and cf_from_rational is injective, so equal values mean equal
    canonical expansions.  The first vector of each n is also checked
    through the one-vector path: predicted_cf(eps), built from its word,
    must be its family row, and the comparison by Fraction and the one by
    Euclid (predicted_cf is canonical by construction) must agree with the
    pair decision.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > contfrac.MAX_ALPHA_INDEX:
        raise ValueError(
            f"n_max capped at {contfrac.MAX_ALPHA_INDEX}; "
            f"denominators grow as 2**(2**n)"
        )
    name, bound = "cf-run-length-correspondence", f"n<={n_max}"
    alphas = contfrac._AlphaCarry()
    for n in range(2, n_max + 1):
        for k, (eps, row, pair) in enumerate(contfrac._predicted_pairs(n)):
            agrees = pair == alphas.pair(eps)
            if k == 0:
                _cross_check(eps, tuple(row.tolist()), agrees)
            if not agrees:
                computed = contfrac.cf_from_rational(contfrac.alpha_value(eps))
                witness = (eps, computed, contfrac.canonical(row.tolist()))
                return CheckReport(name, bound, witness)
    return CheckReport(name, bound)


def _cross_check(eps: tuple[int, ...], terms: tuple[int, ...], agrees: bool) -> None:
    """Decide one vector again through predicted_cf, Fraction and Euclid."""
    if contfrac.predicted_cf(eps) != terms:
        raise RuntimeError(f"family row and predicted_cf disagree at eps={eps!r}")
    alpha = contfrac.alpha_value(eps)
    by_value = contfrac.cf_to_rational(terms) == alpha
    by_euclid = contfrac.cf_from_rational(alpha) == terms
    if by_value != agrees or by_euclid != agrees:
        raise RuntimeError(
            f"pair, value and Euclid comparisons disagree at eps={eps!r}"
        )


# ---------------------------------------------------------------------------
# suite dispatch (what the verify subcommand runs)


def runs_suite(L: int = 10) -> list[CheckReport]:
    """All word/factor checks at a shared code-length bound."""
    return [
        prop1(min(L, 12)),
        prop4(min(L, 12)),
        thm3(min(L, 12)),
        overlapfree(L),
        squares_only(L),
        squares_present(L=7, flag_up_to=max(7, min(L, 10))),
        palindromes(),
        no_triple_extension(L),
        complexity(),
        right_special_exactly_four(),
    ]


def run_suite(
    name: str, max_code_len: int = 8, max_index: int = 10**4
) -> list[CheckReport]:
    """Dispatch one suite ('sp', 'runs', 'regular', 'cf') or 'all'."""
    if name == "all":
        out = []
        for part in SUITES:
            out.extend(run_suite(part, max_code_len, max_index))
        return out
    if name == "sp":
        return sp_suite(L=max_code_len)
    if name == "runs":
        return runs_suite(L=max_code_len)
    if name == "regular":
        return regular_suite(N=max(max_index, 16))
    if name == "cf":
        return [cf_theorem_check(n_max=max(2, min(max_code_len, 12)))]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
