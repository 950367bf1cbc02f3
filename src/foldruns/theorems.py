"""Named bounded checks for run-structure, factor, and regular-sequence claims.

Every check sweeps a finite family (codes up to a length bound, indices up
to a count bound), reports pass/fail with a machine-checkable witness on
failure, and is deterministic: same bounds, same report.  The registry is
what the `verify` CLI subcommand dispatches to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .foldcore import FoldCode, all_codes, code_matrix
from .runs import (
    RunCountError,
    _family_run_data,
    _palindromic_factors,
    _periodic_windows,
    _regular_gaps,
    _regular_run_data,
    _square_factors,
    find_squares,
    min_code_length,
    predicted_end_positions,
    right_special_count,
    run_length_word,
    subword_complexity,
)
from .automata import (
    GapOracle,
    StartRelationOracle,
    accepted_numeric_values,
    gap_wellformedness,
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named bounded check.

    A failing report always carries a witness tuple that re-evaluates to a
    genuine violation through plain word-level code; a passing report never
    carries one.  `note` holds non-fatal observations.
    """

    name: str
    bound: str
    passed: bool
    witness: "tuple | None" = None
    note: str = ""

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError(f"passing report {self.name!r} must not carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError(f"failing report {self.name!r} must carry a witness")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __str__(self) -> str:
        head = f"{'PASS' if self.passed else 'FAIL'} {self.name} [{self.bound}]"
        if self.witness is not None:
            head += f" witness={self.witness!r}"
        if self.note:
            head += f" note={self.note}"
        return head


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
    bound = f"codes t<={L}"
    for t in range(1, L + 1):
        try:
            _family_run_data(t)
        except RunCountError as exc:
            return CheckReport(
                name="prop1", bound=bound, passed=False, witness=exc.witness
            )
    return CheckReport(name="prop1", bound=bound, passed=True)


def prop4(L: int = 12) -> CheckReport:
    """Every run of every code of effective length t <= L has length 1, 2, or 3."""
    bound = f"codes t<={L}"
    for t in range(1, L + 1):
        codes, _, lengths, _ = _family_run_data(t)
        bad = np.argwhere((lengths < 1) | (lengths > 3))
        if bad.size:
            r, k = map(int, bad[0])
            return CheckReport(
                name="prop4",
                bound=bound,
                passed=False,
                witness=(_row_code(codes, r).to_text(), k + 1, int(lengths[r, k])),
            )
    return CheckReport(name="prop4", bound=bound, passed=True)


def thm3(L: int = 12) -> CheckReport:
    """Run ends satisfy E[n] = 2n - [P_g[n] = -1] with g the derived code.

    Swept for every code of effective length 2 <= t <= L over the full
    range 1 <= n <= 2**(t-1) - 1, comparing each decomposition's ends
    against predicted_end_positions.
    """
    bound = f"codes t<={L}"
    for t in range(2, L + 1):
        codes, _, _, ends = _family_run_data(t)
        for r in range(codes.shape[0]):
            code = _row_code(codes, r)
            predicted = predicted_end_positions(code)
            head = ends[r, : predicted.size]
            if not np.array_equal(head, predicted):
                j = int(np.flatnonzero(head != predicted)[0])
                return CheckReport(
                    name="thm3",
                    bound=bound,
                    passed=False,
                    witness=(code.to_text(), j + 1, int(head[j]), int(predicted[j])),
                )
    return CheckReport(name="thm3", bound=bound, passed=True)


# ---------------------------------------------------------------------------
# named checks: factors of run-length words


def overlapfree(L: int = 10) -> CheckReport:
    """Run-length words of all codes with t <= L contain no overlap axaxa."""
    bound = f"codes t<={L}"
    for t in range(1, L + 1):
        codes, _, lengths, _ = _family_run_data(t)
        for p, hit in _periodic_windows(lengths, 1):
            if hit.any():
                r, j = map(int, np.argwhere(hit)[0])
                return CheckReport(
                    name="overlapfree",
                    bound=bound,
                    passed=False,
                    witness=(
                        _row_code(codes, r).to_text(),
                        j + 1,
                        p,
                        tuple(int(v) for v in lengths[r, j : j + 2 * p + 1]),
                    ),
                )
    return CheckReport(name="overlapfree", bound=bound, passed=True)


def squares_only(L: int = 10) -> CheckReport:
    """The union of square factors over all codes with t <= L is the known trio."""
    bound = f"codes t<={L}"
    found: set = set()
    for t in range(1, L + 1):
        found |= _square_factors(_family_run_data(t)[2])
    if found == set(EXPECTED_SQUARES):
        return CheckReport(name="squares_only", bound=bound, passed=True)
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
        return CheckReport(
            name="squares_only",
            bound=bound,
            passed=False,
            witness=("unexpected", square, code),
        )
    return CheckReport(
        name="squares_only",
        bound=bound,
        passed=False,
        witness=("missing", missing[0]),
    )


def squares_present(L: int = 7, flag_up_to: int = 10) -> CheckReport:
    """Each code of effective length L contains all three known squares.

    Lengths L+1..flag_up_to are sampled as well; any code there missing a
    square is noted (not failed), since only the length-L statement carries
    a sweep guarantee.
    """
    bound = f"codes t={L}, sampled to t<={flag_up_to}"
    notes = []
    for t in range(L, max(L, flag_up_to) + 1):
        codes, _, lengths, _ = _family_run_data(t)
        m = lengths.shape[1]
        for square in sorted(EXPECTED_SQUARES):
            q = len(square)
            if m < q:
                hit_rows = np.zeros(codes.shape[0], dtype=bool)
            else:
                target = np.asarray(square, dtype=np.int8)
                windows = np.lib.stride_tricks.sliding_window_view(
                    lengths, q, axis=1
                )
                hit_rows = (windows == target).all(axis=2).any(axis=1)
            if not hit_rows.all():
                r = int(np.flatnonzero(~hit_rows)[0])
                if t == L:
                    return CheckReport(
                        name="squares_present",
                        bound=bound,
                        passed=False,
                        witness=(_row_code(codes, r).to_text(), square),
                    )
                notes.append(
                    f"t={t}: {_row_code(codes, r).to_text()} lacks "
                    f"{''.join(map(str, square))}"
                )
    return CheckReport(
        name="squares_present", bound=bound, passed=True, note="; ".join(notes)
    )


def palindromes(L: int = 9, max_len: int = 7) -> CheckReport:
    """Palindromic factors over all codes of effective length L match the eight.

    max_len 7 is exhaustive for the claim: a palindrome of length k contains
    one of length k - 2, so absence at 6 and 7 rules out everything longer.
    """
    bound = f"codes t={L}, factor len<={max_len}"
    found = _palindromic_factors(_family_run_data(L)[2], max_len)
    if found == set(EXPECTED_PALINDROMES):
        return CheckReport(name="palindromes", bound=bound, passed=True)
    extra = sorted(found - EXPECTED_PALINDROMES)
    missing = sorted(EXPECTED_PALINDROMES - found)
    return CheckReport(
        name="palindromes",
        bound=bound,
        passed=False,
        witness=("unexpected", extra[0]) if extra else ("missing", missing[0]),
    )


def no_triple_extension(L: int = 10, max_factor_len: int = 12) -> CheckReport:
    """No factor of length >= 2 of any run-length word has 3 right extensions."""
    bound = f"codes t<={L}, factor len 2..{max_factor_len}"
    for t in range(2, L + 1):
        codes, _, lengths, _ = _family_run_data(t)
        m = lengths.shape[1]
        arr = lengths.astype(np.int64)
        for n in range(2, min(max_factor_len, m - 1) + 1):
            pow4 = 4 ** np.arange(n, dtype=np.int64)
            windows = np.lib.stride_tricks.sliding_window_view(arr, n, axis=1)
            ids = windows @ pow4
            keys = np.unique(ids[:, :-1] * 4 + arr[:, n:])
            fids = keys >> 2
            uniq, counts = np.unique(fids, return_counts=True)
            bad = np.flatnonzero(counts >= 3)
            if bad.size:
                fid = int(uniq[bad[0]])
                factor = tuple((fid >> (2 * i)) & 3 for i in range(n))
                r, j = map(int, np.argwhere(ids == fid)[0])
                exts = tuple(
                    int(k & 3) for k in keys[fids == fid]
                )
                return CheckReport(
                    name="no_triple_extension",
                    bound=bound,
                    passed=False,
                    witness=(_row_code(codes, r).to_text(), factor, exts, j + 1),
                )
    return CheckReport(name="no_triple_extension", bound=bound, passed=True)


def complexity(
    n_range: tuple[int, int] = (6, 30), L: int = 14, sample: int = 16
) -> CheckReport:
    """Distinct length-n factor count of run-length words equals 4n + 4.

    Runs on a fixed spread of codes of effective length L; the windowed
    scan underneath guarantees every length-n factor appears in the scanned
    prefix, so the count is a property of the family, not the sample.
    """
    lo, hi = n_range
    need = min_code_length(hi)
    if L < need:
        raise ValueError(
            f"codes of length {L} are too short for factor length {hi}: "
            f"minimum required length is {need}"
        )
    bound = f"n={lo}..{hi}, codes len {L}, sample {sample}"
    for code in _spread_codes(L, sample):
        for n in range(lo, hi + 1):
            got = subword_complexity(code, n)
            if got != 4 * n + 4:
                return CheckReport(
                    name="complexity",
                    bound=bound,
                    passed=False,
                    witness=(code.to_text(), n, got, 4 * n + 4),
                )
    return CheckReport(name="complexity", bound=bound, passed=True)


def right_special_exactly_four(
    n_range: tuple[int, int] = (6, 30), L: int = 14, sample: int = 16
) -> CheckReport:
    """Exactly four length-n factors admit two right extensions, each n in range.

    At n = 5 the true count is five, so ranges that include 5 fail with the
    witnessing count; the default range starts at 6 where the claim holds.
    """
    lo, hi = n_range
    need = min_code_length(hi)
    if L < need:
        raise ValueError(
            f"codes of length {L} are too short for factor length {hi}: "
            f"minimum required length is {need}"
        )
    bound = f"n={lo}..{hi}, codes len {L}, sample {sample}"
    for code in _spread_codes(L, sample):
        for n in range(lo, hi + 1):
            got = right_special_count(code, n)
            if got != 4:
                return CheckReport(
                    name="right_special_exactly_four",
                    bound=bound,
                    passed=False,
                    witness=(code.to_text(), n, got, 4),
                )
    return CheckReport(name="right_special_exactly_four", bound=bound, passed=True)


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
    and 8 compare against words built independently of the automaton.

    Every numeric pair of a length-t code fits in t bits, so each code is
    probed at widths t, t+1, and t+2; the three extractions must agree
    (checks 1 and 8 see any padding-dependence), which pins every accept
    bit the valid-code language can reach at these lengths.
    """
    if L < 2:
        raise ValueError("sp_suite needs L >= 2")
    if machine is None:
        machine = infer_automaton(StartRelationOracle(), sample_depth=8, test_depth=5)
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
    failures: dict[str, tuple] = {}

    def note(name: str, witness: tuple) -> None:
        failures.setdefault(name, witness)

    def family(t: int):
        """(code, word, run starts) per code of length t; the empty code has none."""
        if t == 0:
            yield FoldCode(()), None, []
            return
        codes, words, lengths, ends = _family_run_data(t)
        starts = (ends - lengths + 1).tolist()
        for r in range(codes.shape[0]):
            yield _row_code(codes, r), words[r], starts[r]

    for t in range(0, L + 1):
        for code, word, starts in family(t):
            text = code.to_text() if t else "(empty)"
            semantic = {0: [0], **{n: [x] for n, x in enumerate(starts, start=1)}}
            last = 2 ** (t - 1) if t >= 1 else 0
            for width in (t, t + 1, t + 2):
                pairs = accepted_numeric_values(machine, code, width=width)
                by_n: dict[int, list[int]] = {}
                for n, x in pairs:
                    by_n.setdefault(n, []).append(x)
                multi = next((n for n, xs in by_n.items() if len(xs) > 1), None)
                if multi is not None:
                    note("sp-functional", (text, width, multi, tuple(by_n[multi])))
                if by_n.get(0) != [0]:
                    note("sp-accepts-origin", (text, width, tuple(by_n.get(0, ()))))
                beyond = next((n for n in by_n if n > last), None)
                if beyond is not None:
                    note(
                        "sp-nothing-beyond",
                        (text, width, beyond, tuple(by_n[beyond])),
                    )
                if by_n != semantic:
                    n_bad = next(
                        n
                        for n in sorted(set(by_n) | set(semantic))
                        if by_n.get(n) != semantic.get(n)
                    )
                    note(
                        "sp-run-boundaries",
                        (
                            text,
                            width,
                            n_bad,
                            tuple(by_n.get(n_bad, ())),
                            tuple(semantic.get(n_bad, ())),
                        ),
                    )
                if t == 0:
                    continue
                if by_n.get(1) != [1]:
                    note("sp-first-run", (text, width, tuple(by_n.get(1, ()))))
                if last not in by_n:
                    note("sp-last-run-exists", (text, width, last))
                if by_n.get(last):
                    x_last = by_n[last][0]
                    tail = word[x_last - 1 :]
                    if tail.size and not np.all(tail == tail[0]):
                        note("sp-tail-constant", (text, width, x_last))
                xs = [
                    by_n[n][0]
                    for n in range(0, last + 1)
                    if len(by_n.get(n, ())) == 1
                ]
                weak = next(
                    (i for i in range(len(xs) - 1) if xs[i] >= xs[i + 1]), None
                )
                if weak is not None:
                    note(
                        "sp-starts-increase",
                        (text, width, weak, xs[weak], xs[weak + 1]),
                    )
    bound = f"codes t<={L}"
    return [
        CheckReport(
            name=name,
            bound=bound,
            passed=name not in failures,
            witness=failures.get(name),
        )
        for name in names
    ]


# ---------------------------------------------------------------------------
# the regular-sequence suite


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

    # one run table covers every indexed lookup below; t(2k) sits near
    # 4.2k, so 5x the sum bound leaves the composition lookups in range
    g, h = _regular_run_data(max(N, 5 * sum_bound + 16))  # run i+1: g[i], h[i]

    reports = []
    ns = np.arange(1, N + 1, dtype=np.int64)

    is_one = g[:N] == 1
    should = (ns % 8 == 2) | (ns % 8 == 7)
    bad = np.flatnonzero(is_one != should)
    reports.append(
        CheckReport(
            name="regular-length-ones-mod8",
            bound=f"n<={N}",
            passed=bad.size == 0,
            witness=(int(ns[bad[0]]), int(g[bad[0]])) if bad.size else None,
        )
    )

    mask = ns % 4 == 1
    bad = np.flatnonzero(h[:N][mask] != 2 * ns[mask])
    reports.append(
        CheckReport(
            name="regular-end-doubling",
            bound=f"n<={N}, n=1 mod 4",
            passed=bad.size == 0,
            witness=(
                (int(ns[mask][bad[0]]), int(h[:N][mask][bad[0]]))
                if bad.size
                else None
            ),
        )
    )

    # h(0) = 0 joins the ends so part (a) covers i = 0
    h_with0 = np.concatenate([[0], h[:sum_bound]])
    vals = g[h_with0 + 1 - 1]
    bad = np.flatnonzero(vals != 2)
    reports.append(
        CheckReport(
            name="regular-sum-part-a",
            bound=f"i<={sum_bound}",
            passed=bad.size == 0,
            witness=(
                (int(bad[0]), int(h_with0[bad[0]]), int(vals[bad[0]]))
                if bad.size
                else None
            ),
        )
    )

    tvals = _regular_gaps(int(h[3 * sum_bound]) + 2)  # tvals[k] = t(k+1)
    if tvals.size < 2 * sum_bound:
        raise RuntimeError("sieve window too small for the requested sum bound")

    ii = np.arange(1, sum_bound + 1, dtype=np.int64)
    even_ts = tvals[2 * ii - 1]  # t(2i)
    if int(even_ts[-1]) > g.size:
        raise RuntimeError("run window too small for the composition lookups")
    vals = g[even_ts - 1]
    bad = np.flatnonzero(vals != 3)
    reports.append(
        CheckReport(
            name="regular-sum-part-b",
            bound=f"i<={sum_bound}",
            passed=bad.size == 0,
            witness=(
                (int(ii[bad[0]]), int(even_ts[bad[0]]), int(vals[bad[0]]))
                if bad.size
                else None
            ),
        )
    )

    odd_ts = tvals[2 * ii - 2]  # t(2i-1)
    vals = g[odd_ts - 1]
    bad = np.flatnonzero(vals != 1)
    reports.append(
        CheckReport(
            name="regular-sum-part-c",
            bound=f"i<={sum_bound}",
            passed=bad.size == 0,
            witness=(
                (int(ii[bad[0]]), int(odd_ts[bad[0]]), int(vals[bad[0]]))
                if bad.size
                else None
            ),
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
    reports.append(
        CheckReport(
            name="regular-gaps-cross",
            bound=f"{len(probes)} probes, k<={2 * sum_bound}",
            passed=cross_bad is None,
            witness=cross_bad,
        )
    )

    if tt_machine is None:
        tt_machine = infer_automaton(GapOracle())
    reports.extend(gap_wellformedness(tt_machine))
    return reports


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
    from .contfrac import cf_theorem_check

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
