"""Deterministic multi-track automata for run-structure relations.

Automata here read several tracks in parallel: track 0 (when present)
carries instruction symbols {-1, 0, +1}, the remaining tracks carry base-2
digits least-significant first, and every track may be padded with trailing
zeros.  A machine either accepts/rejects (relation mode) or attaches an
output value to each state (function mode).

The module provides the semantic oracles the relations are defined by,
an observation-table learner that reconstructs automata from oracle
queries, an exact bounded verifier, Moore minimization, and a
line-oriented text serialization plus DOT export.  Every machine is one
int32 successor table and one label vector.  Derived machines come
from one algebra: `product` (synchronous, with a label combiner),
`project` (existential, by subset construction), `pad_closure` (the
leading-zero closure) and `shortest_word` (emptiness with a witness).
Equivalence is the shortest word of a product, value combination a
product, and the all-ones specialization a projection of a padded product.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .runs import (
    _regular_gaps,
    _regular_run_data,
    _run_blocks,
    _span,
    regular_run_end,
    regular_run_span,
)
from .foldcore import (
    PAD,
    FoldCode,
    InvalidCodeError,
    as_code,
    code_matrix,
    is_valid_code,
)

INSTRUCTION_TRACK = (-1, 0, 1)
BIT_TRACK = (0, 1)
SAMPLE_BLOCK_ROWS = 2**15


class InferenceError(RuntimeError):
    """Raised when automaton inference cannot produce a consistent machine."""


class AutomatonFormatError(ValueError):
    """Raised for malformed automaton text; carries the offending line number."""

    def __init__(self, message: str, line: "int | None" = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MultiTrackAutomaton:
    """A complete deterministic automaton over a product alphabet.

    A symbol is a tuple with one component per track; `symbols` lists them
    all, track 0 most significant.  `table` is the int32[n_states,
    n_symbols] successor table, one row per state with its successors in
    `symbols` order (the columns `columns` numbers).  `labels` holds one
    label per state: the acceptance bit (bool) in accept mode, the output
    value (int64) in output mode.  State ids are 0..n-1 with 0 initial.
    Construction validates the shape, the successor range and the labels,
    so downstream algorithms can assume a complete deterministic machine;
    both arrays are read-only.
    """

    __slots__ = ("tracks", "symbols", "mode", "table", "labels", "_column")

    def __init__(
        self,
        tracks: Sequence[Sequence[int]],
        table,
        labels: Iterable[int],
        mode: str = "accept",
    ):
        self.tracks = tuple(tuple(t) for t in tracks)
        if not self.tracks or any(len(t) == 0 for t in self.tracks):
            raise ValueError("need at least one track, none empty")
        if mode not in ("accept", "output"):
            raise ValueError(f"mode must be 'accept' or 'output', got {mode!r}")
        self.mode = mode
        self.symbols = tuple(itertools.product(*self.tracks))
        self._column = {sym: j for j, sym in enumerate(self.symbols)}
        table = np.asarray(table, dtype=np.int64)
        n = len(table)
        if n == 0 or table.shape != (n, len(self.symbols)):
            raise ValueError(
                f"table of shape {table.shape} needs at least one state and "
                f"one row of {len(self.symbols)} successors per state"
            )
        unknown = np.argwhere((table < 0) | (table >= n))
        if len(unknown):
            q, j = unknown[0]
            raise ValueError(
                f"state {q} on {self.symbols[j]} goes to unknown state {table[q, j]}"
            )
        try:
            values = np.array([int(v) for v in labels], dtype=np.int64)
        except OverflowError:
            raise ValueError("a state label does not fit in int64") from None
        if values.shape != (n,):
            raise ValueError("labels must assign exactly one value per state")
        if mode == "accept":
            if not np.isin(values, (0, 1)).all():
                raise ValueError("accept-mode labels must be 0 or 1")
            values = values.astype(bool)
        self.table = table.astype(np.int32)
        self.labels = values
        self.table.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.table)

    def state_label(self, q: int):
        return self.labels.item(q)

    def columns(self, values: Sequence) -> np.ndarray:
        """Table columns of the symbols whose track j reads values[j].

        Mixed radix in `symbols` order: track 0 is the most significant
        digit and a value's digit is its index in its track, so instructions
        -1, 0, 1 read 0, 1, 2 and bits read themselves.  Arrays broadcast.
        """
        col = 0
        for track, v in zip(self.tracks, values):
            lo = min(track)
            digit = np.zeros(max(track) - lo + 1, dtype=np.intp)
            digit[np.subtract(track, lo)] = range(len(track))
            col = col * len(track) + digit[np.subtract(v, lo)]
        return col

    def step(self, q: int, symbol: tuple) -> int:
        return self.table.item(q, self._column[symbol])

    def run(self, word: Iterable[tuple], start: int = 0) -> int:
        q, table, column = start, self.table, self._column
        for sym in word:
            q = table.item(q, column[sym])
        return q

    def word_label(self, word: Iterable[tuple]):
        return self.state_label(self.run(word))

    def accepts(self, word: Iterable[tuple]) -> bool:
        if self.mode != "accept":
            raise ValueError("accepts() is for relation mode; use output()")
        return self.word_label(word)

    def output(self, word: Iterable[tuple]) -> int:
        if self.mode != "output":
            raise ValueError("output() is for function mode; use accepts()")
        return self.word_label(word)

    def bfs_renumbered(self) -> "MultiTrackAutomaton":
        """Same behavior, states renamed in BFS order, unreachable dropped."""
        return _closure(self, self.table, 0, self.labels.tolist().__getitem__)

    def dead_states(self) -> frozenset[int]:
        """States from which no accepting (or nonzero-output) state is reachable."""
        live = _backward_reach(self.table, self.labels != 0)
        return frozenset(np.flatnonzero(~live).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiTrackAutomaton):
            return NotImplemented
        return (
            self.tracks == other.tracks
            and self.mode == other.mode
            and np.array_equal(self.table, other.table)
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return (
            f"<MultiTrackAutomaton {self.mode} {self.n_states} states "
            f"{len(self.tracks)} tracks>"
        )


def build_semantic_automaton(
    tracks: Sequence[Sequence[int]],
    initial_state,
    step: Callable,
    classify: Callable,
    mode: str = "accept",
) -> MultiTrackAutomaton:
    """Close a hand-written state machine into a MultiTrackAutomaton.

    `initial_state` is any hashable semantic state, `step(state, symbol)`
    its successor, `classify(state)` its acceptance bit or output value.
    States are discovered by BFS, so numbering is already canonical.
    """
    symbols = tuple(itertools.product(*[tuple(t) for t in tracks]))
    index = {initial_state: 0}
    order = [initial_state]
    table = []
    for state in order:  # `order` grows as BFS discovers states
        row = []
        for sym in symbols:
            succ = step(state, sym)
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
            row.append(index[succ])
        table.append(row)
    return MultiTrackAutomaton(tracks, table, [classify(s) for s in order], mode)


def _closure(
    a: MultiTrackAutomaton, table: np.ndarray, start: int, classify: Callable
) -> MultiTrackAutomaton:
    """The BFS closure from `start` of a table over a's symbols, labeled by classify."""
    rows = table.tolist()
    return build_semantic_automaton(
        a.tracks, start, lambda q, sym: rows[q][a._column[sym]], classify, a.mode
    )


# ---------------------------------------------------------------------------
# input encoding


def encode_inputs(code, nums: Sequence[int], width: int) -> tuple[tuple, ...]:
    """Parallel-track word: the code on track 0, each number lsd-first after it.

    All tracks are padded with zeros to exactly `width` symbols; a width too
    small for the code or any number is rejected.
    """
    c = as_code(code)
    if width < c.effective_length:
        raise ValueError(
            f"width {width} cannot carry a code of effective length "
            f"{c.effective_length}"
        )
    vals = [int(v) for v in nums]
    for v in vals:
        if v < 0:
            raise ValueError("numeric tracks carry nonnegative integers")
        if v.bit_length() > width:
            raise ValueError(f"width {width} cannot carry the number {v}")
    track0 = c.effective + (0,) * (width - c.effective_length)
    word = []
    for i in range(width):
        word.append((track0[i], *(((v >> i) & 1) for v in vals)))
    return tuple(word)


def decode_raw(
    word: Sequence[tuple], numeric_tracks: "int | None" = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(raw track-0 symbols, values of the last `numeric_tracks` tracks).

    The one lsd-first decoder, without validation.  `numeric_tracks`
    defaults to every track after track 0; bit-only words ask for all of
    their tracks.  The empty word carries no arity, so `numeric_tracks`
    supplies it there (every numeric value of the empty word is 0).
    """
    if len(word) == 0:
        return (), (0,) * (numeric_tracks or 0)
    tracks = tuple(zip(*word))
    if numeric_tracks is None:
        numeric_tracks = len(tracks) - 1
    nums = []
    for track in tracks[len(tracks) - numeric_tracks :]:
        v = 0
        for bit in reversed(track):  # the last symbol carries the top bit
            v = v << 1 | bit & 1
        nums.append(v)
    return tracks[0], tuple(nums)


# ---------------------------------------------------------------------------
# semantic relations


def valid_code_length_automaton() -> MultiTrackAutomaton:
    """Two-track acceptor of (f, x): f a valid code of length t, x = 2**t - 1."""

    def step(state, sym):
        s, b = sym
        if state == "ones":
            if s != 0 and b == 1:
                return "ones"
            if s == 0 and b == 0:
                return "zeros"
            return "dead"
        if state == "zeros" and s == 0 and b == 0:
            return "zeros"
        return "dead"

    return build_semantic_automaton(
        (INSTRUCTION_TRACK, BIT_TRACK),
        "ones",
        step,
        classify=lambda st: st in ("ones", "zeros"),
    )


def regular_gap_value(n: int) -> int:
    """t(n): the n-th positive integer outside H = {run_end(m)+1} U {1}.

    Counts H directly from the regular run ends h(m), which increase and
    are 2m - 1 or 2m (thm3).  So the ends up to z are those of m <= z // 2,
    and m = z // 2 + 1 when h(m) = z: O(1) run-end calls per count, for any
    index.  Then 1..2n - 1 holds at most n - 1 integers outside H and
    1..2n + 1 holds n, so stepping y up from 2n stops by 2n + 1.
    """
    if n < 1:
        raise IndexError("gap index must be >= 1")

    def outside(y: int) -> int:  # how many of 1..y lie outside H
        z = y - 1
        return z - z // 2 - (regular_run_end(z // 2 + 1) == z)

    y = 2 * n
    while outside(y) < n:
        y += 1
    return y


# ---------------------------------------------------------------------------
# word-level oracles (the learner's and verifier's view of the relations)


class WordOracle:
    """Word-level wrapper of a semantic relation.

    An oracle provides `label(word)`, the machine's required verdict on any
    product word, and `samples(width)`, which enumerates, exactly once
    each, every input whose label differs from the default (False or 0)
    and whose least width is `width`: it fits `width` symbols but not one
    fewer.  An input of least width w is the same input at every width
    above w, its word padded with zeros, so samples(0..width) together
    list the non-default inputs of width `width`.  It yields grid blocks
    (codes int8[R, t] | None, first, values[R, K]) of at most
    SAMPLE_BLOCK_ROWS cells: cell (r, k) is the code codes[r] (entries
    +-1, t <= width), the index n = first + k and its value v, the label
    in function mode and the x accepted with n in relation mode.  Within
    a block the codes come in strictly increasing (length, code_matrix
    rank) order, and each block's first cell follows the last cell of the
    one before, which the verifier checks.
    """

    tracks: tuple = ()
    mode: str = "accept"
    name: str = ""

    @property
    def default(self):
        return False if self.mode == "accept" else 0

    @property
    def has_instruction_track(self) -> bool:
        return bool(self.tracks) and self.tracks[0] == INSTRUCTION_TRACK


class _RunOracle(WordOracle):
    """The oracle of an index function v(n), or v(f, n) with f on track 0.

    A function-mode oracle labels a word v, 0 off the domain; a
    relation-mode oracle reads x on its last track and accepts x = v.
    Subclasses give `_value(raw, n)`, v at one index (raw: the track-0
    symbols) or None off the domain, and `_tables(width)`, which yields
    (codes, first, values) with values[c, k] = v(codes[c], first + k) for
    every sample of least width `width` in order (codes None without a
    code track).
    """

    column: int  # run start, end or length: 0, 1 or 2

    def _pick(self, lengths, ends):
        """The run column of runs with these lengths and ends."""
        if self.column == 0:  # only the starts are computed
            return ends - lengths + 1
        return ends if self.column == 1 else lengths

    def label(self, word):
        raw, nums = decode_raw(word, len(self.tracks) - self.has_instruction_track)
        v = self._value(raw, nums[0])
        if self.mode == "output":
            return 0 if v is None else v
        return v is not None and nums[1] == v

    def samples(self, width: int) -> Iterator[tuple]:
        # whole rows per block, or column ranges of a row wider than a block
        for codes, first, values in self._tables(width):
            rows = max(1, SAMPLE_BLOCK_ROWS // max(1, values.shape[1]))
            for r in range(0, len(values), rows):
                block = None if codes is None else codes[r : r + rows]
                for lo in range(0, values.shape[1], SAMPLE_BLOCK_ROWS):
                    cells = values[r : r + rows, lo : lo + SAMPLE_BLOCK_ROWS]
                    yield block, first + lo, cells


class _CodeFamilyOracle(_RunOracle):
    """(f, n, ...) relations read off one run column of the word of code f.

    Subclasses choose the column, whether the empty code relates its
    virtual run 0, and the value at n = 0.
    """

    empty_code_relates: bool = False
    value_at_zero: int = 0

    def __init__(self):
        self._rows: dict[int, tuple] = {}

    def _value(self, raw: tuple[int, ...], n: int) -> "int | None":
        if not is_valid_code(raw):
            return None
        t = len(raw) - raw.count(0)
        if n == 0:
            return self.value_at_zero if t >= 1 or self.empty_code_relates else None
        if t < 1 or n > 2 ** (t - 1):
            return None
        s, e = _span(raw, t, n)  # a valid code's first t symbols are its instructions
        return self._pick(e - s + 1, e)

    def _table(self, t: int) -> tuple:
        """(codes, 0, values) of every code of length t; values[c, n] is for run n.

        Column 0 holds the value at the virtual run n = 0; t = 0 is the
        empty code alone.  Built once per t and kept.
        """
        hit = self._rows.get(t)
        if hit is None:
            codes = code_matrix(t)
            values = np.full((len(codes), 2**t // 2 + 1), self.value_at_zero, np.int32)
            for a, ends, lengths in _run_blocks(codes):
                values[a : a + len(ends), 1:] = self._pick(lengths, ends)
            hit = self._rows[t] = (codes, 0, values)
        return hit

    def _tables(self, width: int) -> Iterator[tuple]:
        # a code of length t needs t symbols, and its n and x fit in t bits
        if width or self.empty_code_relates:
            yield self._table(width)


class StartRelationOracle(_CodeFamilyOracle):
    """(f, n, x): x is the start of run n of the word of f; run 0 starts at 0."""

    tracks = (INSTRUCTION_TRACK, BIT_TRACK, BIT_TRACK)
    name = "run-start"
    column = 0
    empty_code_relates = True


class EndRelationOracle(_CodeFamilyOracle):
    """(f, n, x): x is the end of run n; the empty code accepts nothing."""

    tracks = (INSTRUCTION_TRACK, BIT_TRACK, BIT_TRACK)
    name = "run-end"
    column = 1


class RunLengthOracle(_CodeFamilyOracle):
    """(f, n) -> run length in {1,2,3}, 0 off-domain, 1 at the virtual n = 0.

    The n = 0 value is forced by composing the start/end relations with
    z = 1 + (end - start): both components accept (f, 0, 0) for a nonempty
    valid code, giving z = 1 there.
    """

    tracks = (INSTRUCTION_TRACK, BIT_TRACK)
    mode = "output"
    name = "run-length"
    column = 2
    value_at_zero = 1


class _RegularOracle(_RunOracle):
    """n -> v(n) for an index function v of the regular sequence, n >= 1.

    Column 3 is the gap t(n).  Relation-mode oracles read the graph (n, x)
    on two bit tracks, and those with `zero_relates` also (0, 0); a
    function-mode oracle reads n and outputs v(n), 0 at n = 0.  Samples
    read one run or gap table per width and keep its suffix whose index
    (function mode) or value (relation mode, where x >= n) needs all
    `width` bits; `label` evaluates v pointwise, so a large index builds
    no table.
    """

    tracks = (BIT_TRACK, BIT_TRACK)
    zero_relates: bool = False

    def _value(self, raw: tuple, n: int) -> "int | None":
        if n == 0:
            return 0 if self.zero_relates else None
        if self.column == 3:
            return regular_gap_value(n)
        s, e = regular_run_span(n)
        return self._pick(e - s + 1, e)

    def _tables(self, width: int) -> Iterator[tuple]:
        """One table: f(n) for every n >= 1 whose sample needs the width."""
        if width == 0:
            if self.zero_relates:  # (0, 0)
                yield None, 0, np.zeros((1, 1), dtype=np.int64)
            return
        top = 2**width - 1
        if self.column == 3:
            values = _regular_gaps(top)  # t(n) <= top forces n <= top
        else:
            values = self._pick(*_regular_run_data(top))
            if self.mode == "accept":
                values = values[values <= top]
        # the samples of n <= top // 2, or of increasing x <= top // 2, fit
        # one bit fewer
        lo = np.count_nonzero(values <= top // 2) if self.mode == "accept" else top // 2
        yield None, 1 + lo, values[None, lo:].astype(np.int64)


class RegularStartOracle(_RegularOracle):
    """(n, x): x is the start of run n of the regular sequence; (0,0) accepted."""

    name = "regular-run-start"
    column = 0
    zero_relates = True


class RegularEndOracle(_RegularOracle):
    """(n, x): x is the end of run n of the regular sequence; (0,0) accepted."""

    name = "regular-run-end"
    column = 1
    zero_relates = True


class RegularLengthOracle(_RegularOracle):
    """n -> length of run n of the regular sequence, 0 at n = 0."""

    tracks = (BIT_TRACK,)
    mode = "output"
    name = "regular-run-length"
    column = 2


class GapOracle(_RegularOracle):
    """(n, x): x = t(n), the n-th positive integer missing from H."""

    name = "regular-gaps"
    column = 3


# ---------------------------------------------------------------------------
# exact bounded verification


@dataclass(frozen=True)
class Counterexample:
    """A word where automaton and oracle disagree.

    `has_instruction_track` tells how to read the word: track 0 carries
    instructions, or every track carries a number (a bit-only alphabet).
    """

    word: tuple
    automaton_label: object
    oracle_label: object
    has_instruction_track: bool = True

    def __str__(self) -> str:
        if self.has_instruction_track:
            raw, nums = decode_raw(self.word)
            decoded = f"track0={raw}, values={nums}"
        else:
            _, nums = decode_raw(self.word, len(self.word[0]) if self.word else 0)
            decoded = f"values={nums}"
        return (
            f"word {self.word} ({decoded}): "
            f"automaton says {self.automaton_label}, oracle says {self.oracle_label}"
        )


def _padding(a: MultiTrackAutomaton, constrained: bool) -> np.ndarray:
    """1 for the symbols that pad track 0 (read 0 there), else 0.

    After a padding symbol only padding may follow, or track 0 stops being
    a code.  Unconstrained (bit-only) alphabets never pad, so every word is
    valid.
    """
    return np.array([constrained and sym[0] == 0 for sym in a.symbols], dtype=np.intp)


def _completion_counts(
    a: MultiTrackAutomaton, depth: int, constrained: bool
) -> tuple[list, list[np.ndarray]]:
    """(values, counts): counts[d][q, padded, k] counts the valid length-d
    completions from q that end in a state labeled values[k].

    values lists the distinct state labels in increasing order.  A
    completion from state q with padding flag `padded` is a word that keeps
    track 0 a valid code; it is counted under the label of the state it
    ends in.  counts[w][0, 0] counts the whole width-w universe.  Each
    depth is one gather of the previous counts by the table and one sum
    over the symbols each padding flag allows.
    """
    pads = _padding(a, constrained)
    allowed = np.stack([np.ones_like(pads), pads])[: 1 + constrained]
    values, label = np.unique(a.labels, return_inverse=True)
    first = np.zeros((a.n_states, len(allowed), len(values)), dtype=np.int64)
    first[np.arange(a.n_states), :, label] = 1
    counts = [first]
    for _ in range(depth):
        counts.append(allowed @ counts[-1][a.table, pads])
    return values.tolist(), counts


def _universe_size(oracle: WordOracle, width: int) -> int:
    sizes = [len(t) for t in oracle.tracks]
    if oracle.has_instruction_track:
        numeric = 1
        for s in sizes[1:]:
            numeric *= s**width
        return (2 ** (width + 1) - 1) * numeric
    total = 1
    for s in sizes:
        total *= s**width
    return total


def _find_overaccepted(
    a: MultiTrackAutomaton,
    oracle: WordOracle,
    values: list,
    counts: list,
    width: int,
    target,
) -> "Counterexample | None":
    """First word (DFS order) that A labels `target` but the oracle does not.

    Explores only branches that can still reach a `target`-labeled state
    through a valid-track-0 word, pruning on the completion counts.
    """
    constrained = oracle.has_instruction_track
    pads = _padding(a, constrained).tolist()
    rows = a.table.tolist()
    k = values.index(target)
    word: list = []

    def descend(q: int, padded: int, remaining: int) -> "Counterexample | None":
        if remaining == 0:
            got = oracle.label(tuple(word))
            if got != target:
                return Counterexample(tuple(word), target, got, constrained)
            return None
        for j, sym in enumerate(a.symbols):
            if padded and not pads[j]:
                continue
            dst = rows[q][j]
            if counts[remaining - 1][dst, pads[j], k] == 0:
                continue
            word.append(sym)
            hit = descend(dst, pads[j], remaining - 1)
            if hit is not None:
                return hit
            word.pop()
        return None

    return descend(0, 0, width)


def _final_states(
    flat: np.ndarray, digits: np.ndarray, n: np.ndarray, grid, relation: bool, wn: int
) -> np.ndarray:
    """The premultiplied state of every cell of a grid block after its word.

    digits[r, i] is the column part of code row r at position i, n the
    block's indices (weight wn) and grid its values, whose bits are read
    as x in relation mode.  A cell's state after i symbols depends only on
    its row and the low i bits of n, and of x in relation mode, so the walk
    first grows each row's table of those states, of shape (R, 2**i, 1) or
    (R, 2**i, 2**i), while a row's table is no larger than its K cells.
    Each cell then looks its state up once and walks the remaining
    positions on its own, in place.
    """
    (rows, cells), width = grid.shape, digits.shape[1]
    # a new entry's axes are (row, n bit i, low n bits, x bit i, low x bits),
    # so C order numbers its low bits b * 2**i + m and c * 2**i + y
    ns, xs = (np.arange(2) * wn)[:, None, None, None], np.arange(1 + relation)[:, None]
    i, table = 0, np.zeros((rows, 1, 1), dtype=np.intp)
    while i < width and 1 << (i + 1) * (1 + relation) <= cells:
        col = digits[:, i, None, None, None, None] + ns + xs
        table = flat[table[:, None, :, None, :] + col].reshape(rows, 2 << i, -1)
        i += 1
    mask = (1 << i) - 1
    if relation:
        q = table[np.arange(rows)[:, None], n & mask, grid & mask]
    else:
        q = table[:, n & mask, 0]
    for i in range(i, width):
        q += digits[:, i, None]
        q += (n >> i & 1) * wn
        if relation:
            q += grid >> i & 1
        np.take(flat, q, out=q)
    return q


def verify_exhaustive(
    a: MultiTrackAutomaton, oracle: WordOracle, depth: int
) -> "Counterexample | None":
    """Compare A with the oracle on every valid-track-0 word of length <= depth.

    Positive side: walk every grid block of non-default samples through one
    flat copy of the table, premultiplied by the symbol count
    (_final_states), and compare the labels as arrays.  Each sample is
    walked once, at its least width: the samples of smaller widths reach
    this width one padding symbol further on, so their per-state counts are
    carried through the padding map.  Only when a state holding some of
    them changes label on that symbol are they walked again at this width,
    in order, so the first mismatch is the one a walk of every sample of
    the width would find.  The codes of a width must come in strictly
    increasing order, each block must start past the last cell of the
    block before, and no sample may fit one symbol fewer, so no sample is
    counted twice.  Negative side: count words per label (valid track 0
    only) and match against the sample tally; a count mismatch means A
    labels some default word otherwise, which a pruned search then
    materializes.  Together these two sides are exactly word-by-word
    comparison over the whole universe.  A count mismatch that no word
    explains raises InferenceError.
    """
    if tuple(tuple(t) for t in oracle.tracks) != a.tracks:
        raise ValueError("automaton and oracle alphabets differ")
    if oracle.mode != a.mode:
        raise ValueError("automaton and oracle modes differ")
    if depth < 0:
        raise ValueError(f"verification depth must be >= 0, got {depth}")
    default, relation = oracle.default, a.mode == "accept"
    constrained = oracle.has_instruction_track
    numeric = len(a.tracks) - constrained
    # the int64 label counts need the universe below 2**63: with a code
    # track it is below 2**bits, without one it is 2**bits
    bits = (depth + 1 if constrained else 0) + depth * numeric
    if bits > 63 or (bits == 63 and not constrained):
        raise ValueError(f"label counts at depth {depth} do not fit in int64")
    values, counts = _completion_counts(a, depth, constrained)
    # a symbol's column: its digits in mixed radix, track 0 most significant;
    # an instruction's digit is its value + 1 (padding 1), a bit's the bit
    size = len(a.symbols)
    weight = [size // math.prod(map(len, a.tracks[: j + 1])) for j in range(2)]
    flat, pad = (a.table.astype(np.intp) * size).ravel(), weight[0] * constrained
    label = np.repeat(a.labels, size)  # the label of a premultiplied state
    after_pad = a.table[:, pad]  # the all-zero symbol's column is `pad`
    relabels = a.labels[after_pad] != a.labels
    reached = np.zeros(a.n_states, dtype=np.int64)  # samples per end state
    for width in range(depth + 1):
        # the samples of smaller widths end one padding symbol further on;
        # if that changes the label of any, walk them all again, in order
        rewalk = relabels[reached > 0].any()
        carried, reached = reached, np.zeros_like(reached)
        if not rewalk:
            np.add.at(reached, after_pad, carried)
        for least in range(0 if rewalk else width, width + 1):
            last = (-1, 0)  # (code key, n) of the previous block's last cell
            for codes, first, grid in oracle.samples(least):
                if grid.size == 0:
                    continue
                if codes is None:
                    codes = np.zeros((len(grid), 0), dtype=np.int8)
                n, last = _checked_block(oracle, least, codes, first, grid, last)
                t = codes.shape[1]
                digits = np.full((len(grid), width), pad, dtype=np.intp)
                digits[:, :t] = (codes + 1) * weight[0]
                q = _final_states(flat, digits, n, grid, relation, weight[constrained])
                got = label[q]
                bad = np.flatnonzero(got != (True if relation else grid))
                if len(bad):
                    r, k = divmod(bad[0].item(), grid.shape[1])
                    nums = [n[k].item(), grid[r, k].item()][:numeric]
                    tracks = [[(v >> i) & 1 for i in range(width)] for v in nums]
                    if constrained:
                        tracks.insert(0, codes[r].tolist() + [0] * (width - t))
                    want = True if relation else grid[r, k].item()
                    return Counterexample(
                        tuple(zip(*tracks)), got[r, k].item(), want, constrained
                    )
                reached += np.bincount(q.ravel(), minlength=len(flat))[::size]
        tally: dict = defaultdict(int)
        for lbl, count in zip(a.labels.tolist(), reached.tolist()):
            tally[lbl] += count
        tally[default] += _universe_size(oracle, width) - sum(tally.values())
        found = dict(zip(values, counts[width][0, 0].tolist()))
        labels = sorted(set(found) | set(tally))
        if any(found.get(lb, 0) != tally[lb] for lb in labels):
            over = next(lb for lb in labels if found.get(lb, 0) > tally[lb])
            cex = _find_overaccepted(a, oracle, values, counts, width, over)
            if cex is None:
                raise InferenceError(
                    f"{oracle.name}: the samples at width {width} disagree with labels"
                )
            return cex
    return None


def _checked_block(
    oracle: WordOracle, width: int, codes: np.ndarray, first: int, grid, last: tuple
) -> tuple[np.ndarray, tuple]:
    """(indices, last cell's (code key, n)) of a block of samples(width).

    Raises InferenceError unless every sample fits the width, has a code
    of +-1 entries, follows the cell `last` in (code key, n) order and
    does not fit one symbol fewer.
    """
    relation = oracle.mode == "accept"
    t, n = codes.shape[1], first + np.arange(grid.shape[1])
    if t > width or first < 0 or n[-1] >= 2**width or (
        relation and not 0 <= grid.min() <= grid.max() < 2**width
    ):
        raise InferenceError(
            f"{oracle.name}: a sample code or value does not fit width {width}"
        )
    minus = codes == -1
    if not (minus | (codes == 1)).all():
        raise InferenceError(
            f"{oracle.name}: a sample code at width {width} has an "
            "entry other than -1 or +1"
        )
    # the code of length t and code_matrix rank r is number 2**t - 1 + r
    keys = (1 << t) - 1 + minus @ (1 << np.arange(t)[::-1])
    if np.any(keys[1:] <= keys[:-1]) or (keys[0].item(), first) <= last:
        raise InferenceError(
            f"{oracle.name}: samples at width {width} repeat or are out of order"
        )
    if width and t < width:
        half = 1 << width - 1
        narrow = n < half
        if relation:
            narrow = narrow & (grid < half)
        if narrow.any():
            raise InferenceError(
                f"{oracle.name}: a sample at width {width} fits width {width - 1}"
            )
    return n, (keys[-1].item(), n[-1].item())


# ---------------------------------------------------------------------------
# inference


# Learner rounds before infer_automaton gives up.
MAX_ROUNDS = 200


def infer_automaton(oracle: WordOracle, sample_depth: int = 10) -> MultiTrackAutomaton:
    """Reconstruct the relation's automaton from oracle queries.

    Observation-table learning: access words with pairwise distinct
    residual signatures become states; the table is closed under one-symbol
    extensions; counterexamples from bounded verification contribute all
    their suffixes as new experiments.  Each word keeps its observation
    row across rounds, and a round extends it only with the cells of the
    new experiments; each distinct word is labeled by the oracle once, one
    `label` call per word.  Each round verifies its hypothesis once,
    against the oracle on every word of length <= sample_depth, and learns
    from the first mismatch by width; the returned machine is the
    minimization of the first hypothesis with none, proven equivalent to it
    at every length.
    """
    if sample_depth < 1:
        raise ValueError("sample depth must be >= 1")
    symbols = tuple(itertools.product(*oracle.tracks))
    memo: dict = {}

    def member(word: tuple):
        hit = memo.get(word)
        if hit is None:
            hit = memo[word] = oracle.label(word)
        return hit

    experiments: list[tuple] = [()]
    experiment_set = {()}
    observed: dict = {}  # word -> its cells for the experiments so far

    def row(word: tuple) -> tuple:
        cells = observed.get(word, ())
        if len(cells) < len(experiments):
            new = experiments[len(cells) :]
            cells = observed[word] = cells + tuple(member(word + e) for e in new)
        return cells

    access: list[tuple] = [()]

    for _ in range(MAX_ROUNDS):
        rows: dict = {}
        for i, u in enumerate(access):
            r = row(u)
            if r in rows:
                raise InferenceError(
                    f"access words {access[rows[r]]!r} and {u!r} collapsed to one "
                    f"signature; experiments cannot separate them"
                )
            rows[r] = i
        # close the table: every one-symbol extension must match a known
        # row; `access` grows while it is scanned, so each word is scanned once
        table = []
        for u in access:
            successors = []
            for sym in symbols:
                r = row(u + (sym,))
                if r not in rows:
                    rows[r] = len(access)
                    access.append(u + (sym,))
                successors.append(rows[r])
            table.append(successors)
        hypothesis = MultiTrackAutomaton(
            oracle.tracks, table, [row(u)[0] for u in access], oracle.mode
        )

        ce = verify_exhaustive(hypothesis, oracle, sample_depth)
        if ce is None:
            final = minimize(hypothesis)
            separating = equivalent(hypothesis, final)
            if separating is not None:
                raise InferenceError(
                    f"minimization changed behavior on {separating!r}"
                )
            return final
        # feed every suffix of the counterexample into the experiment set
        w = ce.word
        for i in range(len(w)):
            suffix = w[i:]
            if suffix not in experiment_set:
                experiment_set.add(suffix)
                experiments.append(suffix)
    raise InferenceError(f"no stable hypothesis after {MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# minimization


def minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Language/output-preserving minimization, canonical BFS numbering.

    Moore refinement (E. F. Moore, "Gedanken-experiments on sequential
    machines", 1956): blocks start as the label classes, and each round
    renames every state's signature, its own block followed by its
    successors' blocks, until the block count stops growing.  Equal blocks
    are then equivalent states, so the quotient, closed from the initial
    state's block, is the minimal machine.
    """
    _, block = np.unique(a.labels, return_inverse=True)
    while True:
        signature = np.column_stack([block, block[a.table]])
        _, refined = np.unique(signature, axis=0, return_inverse=True)
        if refined.max() == block.max():
            break
        block = refined
    # the quotient: block g behaves like its first member
    _, first = np.unique(block, return_index=True)
    return _closure(
        a, block[a.table[first]], block.item(0), a.labels[first].tolist().__getitem__
    )


# ---------------------------------------------------------------------------
# the automaton algebra: products, projections and closures


def product(
    machines: Sequence[MultiTrackAutomaton], combine: Callable, mode: str = "accept"
) -> MultiTrackAutomaton:
    """Synchronous product of machines over one alphabet, labeled by `combine`.

    A state's label is `combine` of the component labels; one machine gives
    a label map, e.g. the complement with `operator.not_`.
    """
    first = machines[0]
    if any(m.tracks != first.tracks for m in machines):
        raise ValueError("automata read different alphabets")
    rows = [m.table.tolist() for m in machines]
    labels = [m.labels.tolist() for m in machines]
    return build_semantic_automaton(
        first.tracks,
        (0,) * len(machines),
        lambda state, sym: tuple(
            r[q][first._column[sym]] for r, q in zip(rows, state)
        ),
        lambda state: combine(*(lab[q] for lab, q in zip(labels, state))),
        mode,
    )


def _join(mode: str, labels: Iterable):
    """The label of a set of states: any acceptance, or the one nonzero output."""
    if mode == "accept":
        return any(labels)
    values = sorted(set(labels) - {0})
    if len(values) > 1:
        raise InferenceError(
            f"projection is not single-valued: outputs {values} all reachable"
        )
    return values[0] if values else 0


def project(a: MultiTrackAutomaton, track: int) -> MultiTrackAutomaton:
    """Existential projection of `track`, determinized by subset construction.

    A word takes the _join of the labels of its extensions on `track`.
    """
    rows, labels = a.table.tolist(), a.labels.tolist()
    free = a.tracks[track]
    return build_semantic_automaton(
        a.tracks[:track] + a.tracks[track + 1 :],
        frozenset([0]),
        lambda states, sym: frozenset(
            rows[q][a._column[sym[:track] + (f,) + sym[track:]]]
            for q in states
            for f in free
        ),
        lambda states: _join(a.mode, (labels[q] for q in states)),
        a.mode,
    )


def _backward_reach(table: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """States with a path along `table`'s columns into the bool vector `reach`.

    The states of `reach` are included; the result is a bool vector too.
    """
    while True:
        more = reach | reach[table].any(axis=1)
        if np.array_equal(more, reach):
            return reach
        reach = more


def pad_closure(a: MultiTrackAutomaton, tracks: Sequence[int]) -> MultiTrackAutomaton:
    """Each state takes the _join of the labels it reaches while `tracks` read 0.

    The leading-zero fix-up after a projection: the projected track may
    need a longer word than the remaining tracks spell.
    """
    padding = a.table[
        :, [j for j, s in enumerate(a.symbols) if not any(s[i] for i in tracks)]
    ]
    reach = {
        v: _backward_reach(padding, a.labels == v)
        for v in set(a.labels.tolist()) - {0}
    }
    return _closure(
        a,
        a.table,
        0,
        lambda q: _join(a.mode, (v for v, back in reach.items() if back[q])),
    )


def shortest_word(a: MultiTrackAutomaton) -> "tuple | None":
    """The shortest, then least in symbol order, word with a non-default label.

    BFS numbering orders the states by their shortest-least access words,
    and each state's access word extends that of the first state with an
    edge into it.  None when every reachable label is the default.
    """
    a = a.bfs_renumbered()
    labeled = np.flatnonzero(a.labels)
    if not len(labeled):
        return None
    q = labeled[0]
    word = []
    while q:
        q, j = np.argwhere(a.table[:q] == q)[0]
        word.append(a.symbols[j])
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# derived machines: equivalence, value combination, specialization


def equivalent(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> "tuple | None":
    """None if the machines label every word alike, else a shortest separating word.

    An emptiness check on the finite product, so None holds at every length.
    """
    if a.mode != b.mode:
        raise ValueError("cannot compare accept mode with output mode")
    return shortest_word(product([a, b], operator.ne))


def combine_value_acceptors(
    acceptors: Sequence[MultiTrackAutomaton],
    values: Sequence[int],
    default: int = 0,
) -> MultiTrackAutomaton:
    """Product of disjoint acceptors into one function-mode machine.

    State output is the value of the unique accepting component (default
    when none accepts); overlapping acceptance is an error since the
    components are meant to partition a function's graph by value.
    """
    if len(acceptors) != len(values) or not acceptors:
        raise ValueError("need one value per acceptor")
    if any(m.mode != "accept" for m in acceptors):
        raise ValueError("components must be relation-mode automata")

    def combine(*accepted):
        hits = [v for v, hit in zip(values, accepted) if hit]
        if len(hits) > 1:
            raise ValueError(f"acceptors overlap: values {hits} accept one word")
        return hits[0] if hits else default

    return minimize(product(acceptors, combine, mode="output"))


def specialize_regular(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Project out track 0, restricted to all-ones codes, guarded to run indices.

    Realizes the defining shape of the specialized relations: there exists
    an all-ones code (1s then padding) whose word has more than n runs
    (n >= 1, 2n <= 2**t - 1, n read from the first remaining track) making
    the original automaton accept.  In relation mode the all-zero words are
    accepted too, mirroring the (n,x) = (0,0) base clause; in function mode
    off-domain words keep the default output 0.

    minimize(project(pad_closure(product([a, guard])))): the guard accepts
    that shape of track 0 and n, the closure lets the code run past the
    written word, and the projection guesses it.  In relation mode one more
    product adds the all-zero words.
    """
    if len(a.tracks) < 2 or a.tracks[0] != INSTRUCTION_TRACK:
        raise ValueError("track 0 must be the instruction track")

    # guard state: (padding, last n bit, 2n <= x so far, n > 0 so far) with
    # x = 2**t - 1, or None once track 0 leaves 1^t 0*.  Bit i of 2n is bit
    # i - 1 of n; its top bit, the last n bit, lies past the word.
    def guard(state, sym):
        if state is None or sym[0] == -1 or (state[0] and sym[0] == 1):
            return None
        _, prev, le, positive = state
        x, n = sym[0], sym[1]
        return (x == 0, n, prev < x or (prev == x and le), positive or n == 1)

    guard_machine = build_semantic_automaton(
        a.tracks,
        (False, 0, True, False),
        guard,
        lambda state: state is not None and state[1:] == (0, True, True),
    )
    guarded = product([a, guard_machine], lambda v, ok: v if ok else 0, a.mode)
    specialized = project(pad_closure(guarded, range(1, len(a.tracks))), 0)
    if a.mode == "accept":
        all_zero = build_semantic_automaton(
            specialized.tracks, True, lambda ok, sym: ok and not any(sym), bool
        )
        specialized = product([specialized, all_zero], operator.or_)
    return minimize(specialized)


def _free_track_values(
    a: MultiTrackAutomaton, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accepted values of tracks 1.. for each track-0 row of a (k, width) batch.

    Returns (row, values): one entry per accepted word, `row` its index in
    the batch and `values` its free tracks (one column each, bit tracks read
    lsd-first), sorted by row and then by values.  The walk runs on nodes
    row * states + state.  One backward pass gathers each position's node
    successors through the table viewed as (states, |track 0|, |free|) and
    marks the nodes that still reach acceptance; the forward frontier keeps
    only those, so it stays proportional to the number of accepted words
    even when the free tracks range over 4**width values.  Each entry's
    row and values are packed into one int64 sort key.
    """
    k, width = rows.shape
    free = np.array(list(itertools.product(*a.tracks[1:])), dtype=np.int64)
    n_free = free.shape[1]
    if k.bit_length() + n_free * width > 63:
        raise ValueError(f"{k} rows at width {width} overflow the int64 sort key")
    states, symbols = a.n_states, len(free)
    succ = a.table.reshape(states, len(a.tracks[0]), symbols)
    track0 = a.columns([rows, *free[0]]) // symbols  # digits of track 0
    shifts = width * np.arange(n_free - 1, -1, -1)  # track 1 most significant
    packed = (free << shifts).sum(axis=1)
    base = np.arange(0, k * states, states).reshape(k, 1, 1)
    succ_nodes, feasible = [], [np.broadcast_to(a.labels, (k, states)).ravel()]
    for i in range(width - 1, -1, -1):
        nxt = succ[:, track0[:, i]].transpose(1, 0, 2) + base
        succ_nodes.insert(0, nxt.reshape(k * states, symbols))
        feasible.insert(0, feasible[0][succ_nodes[0]].any(axis=1))
    node = np.flatnonzero(feasible[0][::states]) * states
    value = np.zeros(len(node), dtype=np.int64)
    for i in range(width):
        cand = succ_nodes[i][node]
        hits, js = np.nonzero(feasible[i + 1][cand])
        node, value = cand[hits, js], value[hits] | (packed[js] << i)
    key = np.sort((node // states << n_free * width) | value)
    return key >> n_free * width, (key[:, None] >> shifts) & ((1 << width) - 1)


def accepted_numeric_values(
    a: MultiTrackAutomaton, codes, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, values) accepted with track 0 fixed to each code, padded to `width`.

    `codes` is a batch of codes of one stored length: FoldCodes, '+-0'
    literals, symbol sequences, or the rows of a 2-D array such as
    code_matrix(t).  values[:, j] holds numeric track j + 1; see
    _free_track_values for the order.
    """
    if (
        a.mode != "accept"
        or len(a.tracks) < 2
        or a.tracks[0] != INSTRUCTION_TRACK
        or any(t != BIT_TRACK for t in a.tracks[1:])
    ):
        raise ValueError(
            "needs a relation automaton with an instruction track 0 and bit "
            f"tracks after it, got tracks {a.tracks} in {a.mode} mode"
        )
    if isinstance(codes, (str, FoldCode)):
        raise ValueError(f"needs a batch of codes, got the single code {codes!r}")
    if isinstance(codes, np.ndarray):
        if codes.ndim != 2:
            raise ValueError(f"a code array holds one code per row, got {codes.shape}")
        pad = codes == PAD
        bad = ~np.isin(codes, INSTRUCTION_TRACK) | ~pad & np.maximum.accumulate(pad, 1)
        if bad.any():
            r = int(bad.any(axis=1).argmax())
            raise InvalidCodeError(
                f"row {r} of the batch is no code: {codes[r].tolist()}"
            )
    else:
        symbols = [as_code(c).symbols for c in codes]
        length = len(symbols[0]) if symbols else 0
        for i, s in enumerate(symbols):
            if len(s) != length:
                raise ValueError(
                    f"code {i} of the batch has {len(s)} symbols, code 0 has {length}"
                )
        codes = np.reshape(symbols, (len(symbols), length))
    if codes.shape[1] > width:
        raise ValueError(
            f"width {width} shorter than code 0 of the batch ({codes.shape[1]} symbols)"
        )
    rows = np.zeros((len(codes), width), dtype=np.int64)
    rows[:, : codes.shape[1]] = codes
    return _free_track_values(a, rows)


def accepted_second_values(
    a: MultiTrackAutomaton, ns, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, x) for every (ns[row], x) a two-bit-track acceptor accepts at `width`.

    `ns` is a vector of indices; the pairs come sorted by row, then by x.
    """
    if a.mode != "accept" or a.tracks != (BIT_TRACK, BIT_TRACK):
        raise ValueError(
            "needs a two-bit-track relation automaton, got tracks "
            f"{a.tracks} in {a.mode} mode"
        )
    ns = np.asarray(ns)
    if ns.ndim != 1:
        raise ValueError(f"needs a vector of indices, got shape {ns.shape}")
    for n in ns.tolist():
        if not 0 <= operator.index(n) < 2**width:
            raise ValueError(f"width {width} cannot carry the index {n}")
    bits = (ns.astype(np.int64)[:, None] >> np.arange(width)) & 1
    row, vals = _free_track_values(a, bits)
    return row, vals[:, 0]


# ---------------------------------------------------------------------------
# serialization


def write_automaton(a: MultiTrackAutomaton, destination) -> None:
    """Write the exact text format; see read_automaton for the grammar."""
    lines = [f"tracks {len(a.tracks)}"]
    for i, t in enumerate(a.tracks):
        lines.append(f"track {i} " + " ".join(str(s) for s in t))
    lines.append(f"mode {a.mode}")
    for q, label in enumerate(a.labels.tolist()):
        lines.append(f"state {q} {int(label)}")
    packed = [";".join(str(c) for c in sym) for sym in a.symbols]
    for q, row in enumerate(a.table.tolist()):
        for sym, dst in zip(packed, row):
            lines.append(f"trans {q} {sym} {dst}")
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def read_automaton(source) -> MultiTrackAutomaton:
    """Parse the text format written by write_automaton.

    Grammar, one record per line: `tracks k`; k lines `track i s1 s2 ...`;
    `mode accept|output`; `state id value` for every state, 0 initial and
    ids consecutive; `trans src s1;..;sk dst`, exhaustive over states and
    symbols.  Errors carry the 1-based line number.  Malformed input of any
    kind raises AutomatonFormatError; only opening a path can raise OSError.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "rb") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise AutomatonFormatError(
                f"byte {text[exc.start]:#04x} is not ASCII", line=line
            ) from None
    lines = text.splitlines()

    def fail(i, msg):
        raise AutomatonFormatError(msg, line=i + 1)

    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise AutomatonFormatError("unexpected end of file", line=len(lines) or 1)
        pos += 1
        return pos - 1, lines[pos - 1].split()

    i, parts = next_line()
    if len(parts) != 2 or parts[0] != "tracks":
        fail(i, f"expected 'tracks <k>', got {lines[i]!r}")
    try:
        k = int(parts[1])
    except ValueError:
        fail(i, f"track count is not an integer: {parts[1]!r}")
    if k < 1:
        fail(i, "need at least one track")
    tracks = []
    for want in range(k):
        i, parts = next_line()
        if len(parts) < 3 or parts[0] != "track":
            fail(i, f"expected 'track {want} <symbols>', got {lines[i]!r}")
        if parts[1] != str(want):
            fail(i, f"tracks out of order: expected index {want}, got {parts[1]}")
        try:
            track = tuple(int(s) for s in parts[2:])
        except ValueError:
            fail(i, f"non-integer symbol in track {want}")
        seen: set = set()
        for s in track:
            if s in seen:
                fail(i, f"symbol {s} repeated in track {want}")
            seen.add(s)
        tracks.append(track)
    i, parts = next_line()
    if len(parts) != 2 or parts[0] != "mode" or parts[1] not in ("accept", "output"):
        fail(i, f"expected 'mode accept|output', got {lines[i]!r}")
    mode = parts[1]

    labels = {}
    first_trans = None
    while True:
        try:
            i, parts = next_line()
        except AutomatonFormatError:
            break
        if parts[0] == "trans":
            first_trans = (i, parts)
            break
        if len(parts) != 3 or parts[0] != "state":
            fail(i, f"expected 'state <id> <value>' or 'trans', got {lines[i]!r}")
        try:
            q, v = int(parts[1]), int(parts[2])
        except ValueError:
            fail(i, f"bad state record {lines[i]!r}")
        if q in labels:
            fail(i, f"state {q} declared twice")
        if mode == "accept" and v not in (0, 1):
            fail(i, f"acceptance value must be 0 or 1, got {v}")
        if not -(2**63) <= v < 2**63:
            fail(i, f"state {q} output {v} does not fit in int64")
        labels[q] = v
    n = len(labels)
    if n == 0:
        raise AutomatonFormatError("no state records found", line=pos)
    if sorted(labels) != list(range(n)):
        raise AutomatonFormatError(
            f"state ids must be 0..{n - 1}, got {sorted(labels)}", line=pos
        )

    alphabet = math.prod(len(t) for t in tracks)
    if n * alphabet > len(lines):
        # every (state, symbol) pair needs a trans line of its own
        raise AutomatonFormatError(
            f"{n} states of {alphabet} symbols need more transition lines "
            "than the file has",
            line=pos,
        )
    symbols = tuple(itertools.product(*tracks))
    column = {sym: j for j, sym in enumerate(symbols)}
    table = [[-1] * alphabet for _ in range(n)]
    records = [first_trans] if first_trans else []
    while True:
        try:
            records.append(next_line())
        except AutomatonFormatError:
            break
    for i, parts in records:
        if len(parts) != 4 or parts[0] != "trans":
            fail(i, f"expected 'trans <src> <symbol> <dst>', got {lines[i]!r}")
        try:
            src, dst = int(parts[1]), int(parts[3])
            sym = tuple(int(c) for c in parts[2].split(";"))
        except ValueError:
            fail(i, f"bad transition record {lines[i]!r}")
        if not 0 <= src < n or not 0 <= dst < n:
            fail(i, f"transition references unknown state: {lines[i]!r}")
        if sym not in column:
            fail(i, f"symbol {parts[2]!r} not in the declared alphabet")
        if table[src][column[sym]] >= 0:
            fail(i, f"duplicate transition for state {src} on {parts[2]!r}")
        table[src][column[sym]] = dst
    for q, row in enumerate(table):
        missing = [sym for sym, dst in zip(symbols, row) if dst < 0]
        if missing:
            raise AutomatonFormatError(
                f"state {q} is missing {len(missing)} transitions, "
                f"e.g. {sorted(missing)[:3]}",
                line=len(lines),
            )
    return MultiTrackAutomaton(tracks, table, [labels[q] for q in range(n)], mode)


def to_dot(a: MultiTrackAutomaton) -> str:
    """Deterministic DOT text: states in BFS order, one edge per symbol."""
    canon = a.bfs_renumbered()
    out = ["digraph automaton {", "  rankdir=LR;"]
    for q, label in enumerate(canon.labels.tolist()):
        if canon.mode == "accept":
            shape = "doublecircle" if label else "circle"
            out.append(f'  q{q} [label="{q}", shape={shape}];')
        else:
            out.append(f'  q{q} [label="{q}/{label}", shape=circle];')
    out.append("  start [shape=point];")
    out.append("  start -> q0;")
    packed = [";".join(str(c) for c in sym) for sym in canon.symbols]
    for q, row in enumerate(canon.table.tolist()):
        for sym, dst in zip(packed, row):
            out.append(f'  q{q} -> q{dst} [label="{sym}"];')
    out.append("}")
    return "\n".join(out) + "\n"
