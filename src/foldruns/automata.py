"""Deterministic multi-track automata for run-structure relations.

Automata here read several tracks in parallel: track 0 (when present)
carries instruction symbols {-1, 0, +1}, the remaining tracks carry base-2
digits least-significant first, and every track may be padded with trailing
zeros.  A machine either accepts/rejects (relation mode) or attaches an
output value to each state (function mode).

The module provides the semantic oracles the relations are defined by,
an observation-table learner that reconstructs automata from oracle
queries, an exact bounded verifier, Hopcroft minimization, product
equivalence, specialization to the all-ones instruction sequence, and a
line-oriented text serialization plus DOT export.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .runs import (
    _family_run_data,
    _regular_gaps,
    _regular_run_data,
    regular_run_end,
    regular_run_span,
    run_span,
)
from .foldcore import FoldCode, InvalidCodeError, as_code, is_valid_code

INSTRUCTION_TRACK = (-1, 0, 1)
BIT_TRACK = (0, 1)


class InferenceError(RuntimeError):
    """Raised when automaton inference cannot produce a consistent machine."""


class AutomatonFormatError(ValueError):
    """Raised for malformed automaton text; carries the offending line number."""

    def __init__(self, message: str, line: "int | None" = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MultiTrackAutomaton:
    """A complete deterministic automaton over a product alphabet.

    `delta` maps every (state, symbol) pair to a successor, where a symbol
    is a tuple with one component per track.  Exactly one of `accepting`
    (relation mode) or `outputs` (function mode) must be given.  State ids
    are 0..n-1 with 0 initial; construction validates completeness and
    determinism so downstream algorithms can assume both.
    """

    __slots__ = ("tracks", "symbols", "delta", "accepting", "outputs")

    def __init__(
        self,
        tracks: Sequence[Sequence[int]],
        delta: Sequence[dict],
        accepting: "Iterable[int] | None" = None,
        outputs: "Sequence[int] | None" = None,
    ):
        self.tracks = tuple(tuple(t) for t in tracks)
        if not self.tracks or any(len(t) == 0 for t in self.tracks):
            raise ValueError("need at least one track, none empty")
        self.symbols = tuple(itertools.product(*self.tracks))
        if (accepting is None) == (outputs is None):
            raise ValueError("exactly one of accepting/outputs must be given")
        n = len(delta)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        symbol_set = set(self.symbols)
        frozen = []
        for q, edges in enumerate(delta):
            if set(edges) != symbol_set:
                missing = symbol_set - set(edges)
                extra = set(edges) - symbol_set
                raise ValueError(
                    f"state {q} transition table mismatch: "
                    f"missing {sorted(missing)}, foreign {sorted(extra)}"
                )
            for sym, dst in edges.items():
                if not 0 <= dst < n:
                    raise ValueError(f"state {q} on {sym} goes to unknown state {dst}")
            frozen.append(dict(edges))
        self.delta = tuple(frozen)
        if accepting is not None:
            acc = frozenset(int(q) for q in accepting)
            if any(not 0 <= q < n for q in acc):
                raise ValueError("accepting set references unknown states")
            self.accepting = acc
            self.outputs = None
        else:
            outs = tuple(int(v) for v in outputs)
            if len(outs) != n:
                raise ValueError("outputs must assign exactly one value per state")
            self.accepting = None
            self.outputs = outs

    @property
    def mode(self) -> str:
        return "accept" if self.outputs is None else "output"

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @property
    def initial(self) -> int:
        return 0

    def state_label(self, q: int):
        if self.outputs is None:
            return q in self.accepting
        return self.outputs[q]

    def step(self, q: int, symbol: tuple) -> int:
        return self.delta[q][symbol]

    def run(self, word: Iterable[tuple], start: int = 0) -> int:
        q = start
        delta = self.delta
        for sym in word:
            q = delta[q][sym]
        return q

    def word_label(self, word: Iterable[tuple]):
        return self.state_label(self.run(word))

    def accepts(self, word: Iterable[tuple]) -> bool:
        if self.outputs is not None:
            raise ValueError("accepts() is for relation mode; use output()")
        return self.run(word) in self.accepting

    def output(self, word: Iterable[tuple]) -> int:
        if self.outputs is None:
            raise ValueError("output() is for function mode; use accepts()")
        return self.outputs[self.run(word)]

    def bfs_renumbered(self) -> "MultiTrackAutomaton":
        """Same behavior, states renamed in BFS order, unreachable dropped."""
        return build_semantic_automaton(
            self.tracks, 0, self.step, self.state_label, self.mode
        )

    def dead_states(self) -> frozenset[int]:
        """States from which no accepting (or nonzero-output) state is reachable."""
        if self.outputs is None:
            live = set(self.accepting)
        else:
            live = {q for q, v in enumerate(self.outputs) if v != 0}
        changed = True
        while changed:
            changed = False
            for q in range(self.n_states):
                if q not in live and any(
                    dst in live for dst in self.delta[q].values()
                ):
                    live.add(q)
                    changed = True
        return frozenset(set(range(self.n_states)) - live)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiTrackAutomaton):
            return NotImplemented
        return (
            self.tracks == other.tracks
            and self.delta == other.delta
            and self.accepting == other.accepting
            and self.outputs == other.outputs
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
    delta = []
    queue = deque([initial_state])
    while queue:
        state = queue.popleft()
        edges = {}
        for sym in symbols:
            succ = step(state, sym)
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
                queue.append(succ)
            edges[sym] = index[succ]
        delta.append(edges)
    labels = [classify(s) for s in order]
    if mode == "accept":
        return MultiTrackAutomaton(
            tracks, delta, accepting=[q for q, v in enumerate(labels) if v]
        )
    return MultiTrackAutomaton(tracks, delta, outputs=labels)


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


def decode_inputs(word: Sequence[tuple]) -> tuple[FoldCode, tuple[int, ...]]:
    """Inverse of encode_inputs: (stripped code, numeric values).

    Raises InvalidCodeError when track 0 has interior zeros.
    """
    raw, nums = decode_raw(word)
    return FoldCode(raw).stripped(), nums


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
    k = len(word[0])
    m = k - 1 if numeric_tracks is None else numeric_tracks
    raw = tuple(sym[0] for sym in word)
    nums = tuple(
        sum((sym[j] & 1) << i for i, sym in enumerate(word)) for j in range(k - m, k)
    )
    return raw, nums


# ---------------------------------------------------------------------------
# semantic relations


def lnk_accepts(f, x: int) -> bool:
    """True iff f is a valid code (as raw symbols) and x = 2**t - 1.

    Total: f may be any int sequence, including ones with interior zeros.
    """
    if isinstance(f, FoldCode):
        syms = f.symbols
    elif isinstance(f, str):
        try:
            syms = FoldCode.from_text(f).symbols
        except InvalidCodeError:
            return False
    else:
        syms = tuple(int(s) for s in f)
    if not is_valid_code(syms):
        return False
    t = sum(1 for s in syms if s != 0)
    return x == 2**t - 1


def valid_code_length_automaton() -> MultiTrackAutomaton:
    """Two-track acceptor for lnk_accepts: instructions, then the length bits."""

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

    Works by binary search on the counting function of the complement,
    using only the O(log) regular run-end recursion, so arbitrary indices
    are fine.  The minimal y reaching count n is never itself in H.
    """
    if n < 1:
        raise IndexError("gap index must be >= 1")

    def ends_upto(z: int) -> int:
        # number of m >= 1 with regular_run_end(m) <= z
        if z < 2:
            return 0
        lo, hi = 1, 1
        while regular_run_end(hi) <= z:
            hi *= 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if regular_run_end(mid) <= z:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def not_in_h_count(y: int) -> int:
        return y - 1 - ends_upto(y - 1)

    lo, hi = 1, 4
    while not_in_h_count(hi) < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if not_in_h_count(mid) >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# word-level oracles (the learner's and verifier's view of the relations)


class WordOracle:
    """Word-level wrapper of a semantic relation.

    `label(word)` is the machine's required verdict on any product word.
    `samples(width)` enumerates, exactly once each, every width-`width`
    input whose label differs from the default (False or 0), as
    (track0 | None, numeric values, label) triples.
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

    def label(self, word):
        raise NotImplementedError

    def samples(self, width: int) -> Iterator[tuple]:
        raise NotImplementedError


class _CodeFamilyOracle(WordOracle):
    """(f, n, ...) relations read off one run column of the word of code f.

    Subclasses choose the column of (starts, ends, lengths), whether the
    empty code relates its virtual run 0, and the value at n = 0.  In
    relation mode the last track carries the value x; in function mode the
    value is the label.
    """

    column: int
    empty_code_relates: bool = False
    value_at_zero: int = 0

    def __init__(self):
        self._rows: dict[int, tuple] = {}

    def _value(self, raw: tuple[int, ...], n: int) -> "int | None":
        if not is_valid_code(raw):
            return None
        t = sum(1 for s in raw if s != 0)
        if n == 0:
            return self.value_at_zero if t >= 1 or self.empty_code_relates else None
        if t < 1 or n > 2 ** (t - 1):
            return None
        s, e = run_span(FoldCode(raw), n)
        return (s, e, e - s + 1)[self.column]

    def label(self, word):
        raw, nums = decode_raw(word, len(self.tracks) - 1)
        v = self._value(raw, nums[0])
        if self.mode == "output":
            return 0 if v is None else v
        return v is not None and nums[1] == v

    def _family(self, t: int) -> tuple:
        """(codes, column values) of every code of length t, as Python lists."""
        hit = self._rows.get(t)
        if hit is None:
            codes, _, lengths, ends = _family_run_data(t)
            column = (ends - lengths + 1, ends, lengths)[self.column]
            hit = self._rows[t] = ([tuple(c) for c in codes.tolist()], column.tolist())
        return hit

    def samples(self, width: int) -> Iterator[tuple]:
        relation = self.mode == "accept"
        zero = (0, self.value_at_zero) if relation else (0,)
        zero_label = True if relation else self.value_at_zero
        if self.empty_code_relates:
            yield ((0,) * width, zero, zero_label)
        for t in range(1, width + 1):
            pad = (0,) * (width - t)
            for code, values in zip(*self._family(t)):
                track0 = code + pad
                yield (track0, zero, zero_label)
                for n, v in enumerate(values, start=1):
                    yield (track0, (n, v), True) if relation else (track0, (n,), v)


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


class _RegularOracle(WordOracle):
    """n -> f(n) for an index function f of the regular sequence, n >= 1.

    Subclasses choose f by `column` of (run start, run end, run length,
    gap t(n)).  Relation-mode oracles read the graph (n, x) on two bit
    tracks; a function-mode oracle reads n and outputs f(n), 0 at n = 0.
    `samples` reads one run or gap table per width; `label` evaluates f
    pointwise, so a large index builds no table.
    """

    tracks = (BIT_TRACK, BIT_TRACK)
    column: int
    zero_relates: bool = False

    def _value(self, n: int) -> int:
        if self.column == 3:
            return regular_gap_value(n)
        s, e = regular_run_span(n)
        return (s, e, e - s + 1)[self.column]

    def label(self, word):
        _, nums = decode_raw(word, len(self.tracks))
        n = nums[0]
        if self.mode == "output":
            return self._value(n) if n else 0
        if n == 0:
            return self.zero_relates and nums[1] == 0
        return nums[1] == self._value(n)

    def _table(self, width: int) -> list[int]:
        """f(1), f(2), ... over every n < 2**width whose sample fits the width."""
        top = 2**width - 1
        if self.column == 3:
            return _regular_gaps(top).tolist()  # t(n) <= top forces n <= top
        lengths, ends = _regular_run_data(top)
        values = (ends - lengths + 1, ends, lengths)[self.column]
        if self.mode == "accept":
            values = values[values <= top]
        return values.tolist()

    def samples(self, width: int) -> Iterator[tuple]:
        relation = self.mode == "accept"
        if self.zero_relates:
            yield (None, (0, 0), True)
        for n, v in enumerate(self._table(width), start=1):
            yield (None, (n, v), True) if relation else (None, (n,), v)


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


class ValueSliceOracle(WordOracle):
    """Relation view of one output value of a function-mode oracle.

    Accepts exactly the words the base oracle maps to `value`; the value
    must be nonzero so the sample stream of the base oracle is complete
    for it.
    """

    def __init__(self, base: WordOracle, value: int):
        if base.mode != "output":
            raise ValueError("base oracle must be function-mode")
        if value == base.default:
            raise ValueError("cannot slice on the default value")
        self.base = base
        self.value = value
        self.tracks = base.tracks
        self.mode = "accept"
        self.name = f"{base.name}={value}"

    def label(self, word) -> bool:
        return self.base.label(word) == self.value

    def samples(self, width: int) -> Iterator[tuple]:
        for track0, nums, lbl in self.base.samples(width):
            if lbl == self.value:
                yield (track0, nums, True)


# ---------------------------------------------------------------------------
# exact bounded verification


@dataclass(frozen=True)
class Counterexample:
    """A word where automaton and oracle disagree."""

    word: tuple
    automaton_label: object
    oracle_label: object

    def __str__(self) -> str:
        raw, nums = decode_raw(self.word)
        return (
            f"word {self.word} (track0={raw}, values={nums}): "
            f"automaton says {self.automaton_label}, oracle says {self.oracle_label}"
        )


def _materialize(track0, nums: Sequence[int], width: int) -> tuple[tuple, ...]:
    """The width-symbol word of a sample: track 0 (if any), then nums lsd-first."""
    tracks = [[(v >> i) & 1 for i in range(width)] for v in nums]
    if track0 is not None:
        tracks.insert(0, track0)
    return tuple(zip(*tracks))


def _next_padding(constrained: bool, sym: tuple, padded: int) -> "int | None":
    """Padding flag after reading `sym`; None where track 0 stops being a code.

    Unconstrained (bit-only) alphabets never pad, so every word is valid.
    """
    if not constrained:
        return 0
    if sym[0] == 0:
        return 1
    return None if padded else 0


def _completion_counts(
    a: MultiTrackAutomaton, depth: int, constrained: bool
) -> list[dict]:
    """table[d][(q, padded)]: label -> number of valid length-d completions.

    A completion from state q with padding flag `padded` is a word that
    keeps track 0 a valid code; it is counted under the label of the state
    it ends in.  table[w][(0, 0)] counts the whole width-w universe.
    """
    flags = (0, 1) if constrained else (0,)
    table = [{(q, p): {a.state_label(q): 1} for q in range(a.n_states) for p in flags}]
    for _ in range(depth):
        prev = table[-1]
        cur = {}
        for q in range(a.n_states):
            for p in flags:
                total: dict = defaultdict(int)
                for sym, dst in a.delta[q].items():
                    nxt = _next_padding(constrained, sym, p)
                    if nxt is not None:
                        for label, c in prev[(dst, nxt)].items():
                            total[label] += c
                cur[(q, p)] = dict(total)
        table.append(cur)
    return table


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
    a: MultiTrackAutomaton, oracle: WordOracle, table: list, width: int, target
) -> "Counterexample | None":
    """First word (DFS order) that A labels `target` but the oracle does not.

    Explores only branches that can still reach a `target`-labeled state
    through a valid-track-0 word, pruning on the completion counts.
    """
    constrained = oracle.has_instruction_track
    word: list = []

    def descend(q: int, padded: int, remaining: int) -> "tuple | None":
        if remaining == 0:
            w = tuple(word)
            if oracle.label(w) != target:
                return w
            return None
        for sym in a.symbols:
            nxt = _next_padding(constrained, sym, padded)
            if nxt is None:
                continue
            dst = a.delta[q][sym]
            if table[remaining - 1][(dst, nxt)].get(target, 0) == 0:
                continue
            word.append(sym)
            hit = descend(dst, nxt, remaining - 1)
            if hit is not None:
                return hit
            word.pop()
        return None

    w = descend(0, 0, width)
    if w is None:
        return None
    return Counterexample(w, target, oracle.label(w))


def verify_exhaustive(
    a: MultiTrackAutomaton, oracle: WordOracle, depth: int
) -> "Counterexample | None":
    """Compare A with the oracle on every valid-track-0 word of length <= depth.

    Positive side: walk every non-default sample and compare labels.
    Negative side: count words per label (valid track 0 only) and match
    against the sample tally; a count mismatch means A labels some
    default word otherwise, which a pruned search then materializes.
    Together these two sides are exactly word-by-word comparison over the
    whole universe.
    """
    if tuple(tuple(t) for t in oracle.tracks) != a.tracks:
        raise ValueError("automaton and oracle alphabets differ")
    if oracle.mode != a.mode:
        raise ValueError("automaton and oracle modes differ")
    default = oracle.default
    table = _completion_counts(a, depth, oracle.has_instruction_track)
    for width in range(depth + 1):
        tally: dict = defaultdict(int)
        for track0, nums, lbl in oracle.samples(width):
            word = _materialize(track0, nums, width)
            got = a.word_label(word)
            if got != lbl:
                return Counterexample(word, got, lbl)
            tally[lbl] += 1
        tally[default] += _universe_size(oracle, width) - sum(tally.values())
        counts = table[width][(0, 0)]
        labels = sorted(set(counts) | set(tally))
        if any(counts.get(lb, 0) != tally[lb] for lb in labels):
            over = next(lb for lb in labels if counts.get(lb, 0) > tally[lb])
            return _find_overaccepted(a, oracle, table, width, over)
    return None


# ---------------------------------------------------------------------------
# inference


def infer_automaton(
    oracle: WordOracle,
    sample_depth: int = 10,
    test_depth: int = 6,
    max_rounds: int = 200,
) -> MultiTrackAutomaton:
    """Reconstruct the relation's automaton from oracle queries.

    Observation-table learning: access words with pairwise distinct
    residual signatures become states; the table is closed under one-symbol
    extensions; counterexamples from bounded verification contribute all
    their suffixes as new experiments.  The hypothesis is verified against
    the oracle on every word of length <= sample_depth; the returned machine
    is its minimization, proven equivalent to it at every length.
    """
    if sample_depth < 1 or test_depth < 1:
        raise ValueError("depths must be >= 1")
    symbols = tuple(itertools.product(*oracle.tracks))
    memo: dict = {}

    def member(word: tuple):
        hit = memo.get(word)
        if hit is None:
            hit = memo[word] = oracle.label(word)
        return hit

    experiments: list[tuple] = [()]
    experiment_set = {()}

    def row(word: tuple) -> tuple:
        return tuple(member(word + e) for e in experiments)

    access: list[tuple] = [()]

    for round_no in range(max_rounds):
        # close the table: every one-symbol extension must match a known row
        rows = {row(u): i for i, u in enumerate(access)}
        if len(rows) < len(access):
            seen: dict = {}
            for u in access:
                r = row(u)
                if r in seen:
                    raise InferenceError(
                        f"access words {seen[r]!r} and {u!r} collapsed to one "
                        f"signature; experiments cannot separate them"
                    )
                seen[r] = u
        changed = True
        while changed:
            changed = False
            for u in list(access):
                for sym in symbols:
                    r = row(u + (sym,))
                    if r not in rows:
                        rows[r] = len(access)
                        access.append(u + (sym,))
                        changed = True

        delta = []
        for u in access:
            delta.append({sym: rows[row(u + (sym,))] for sym in symbols})
        labels = [member(u) for u in access]
        if oracle.mode == "accept":
            hypothesis = MultiTrackAutomaton(
                oracle.tracks,
                delta,
                accepting=[q for q, v in enumerate(labels) if v],
            )
        else:
            hypothesis = MultiTrackAutomaton(oracle.tracks, delta, outputs=labels)

        ce = verify_exhaustive(hypothesis, oracle, min(test_depth, sample_depth))
        if ce is None:
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
    raise InferenceError(f"no stable hypothesis after {max_rounds} rounds")


# ---------------------------------------------------------------------------
# minimization and equivalence


def minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Language/output-preserving minimization, canonical BFS numbering.

    Hopcroft partition refinement over the reachable part, with the initial
    partition given by state labels (acceptance bit or output value).
    """
    a = a.bfs_renumbered()
    groups: dict = defaultdict(set)
    for q in range(a.n_states):
        groups[a.state_label(q)].add(q)
    partition: list[set] = list(groups.values())
    part_of = [0] * a.n_states
    for gid, s in enumerate(partition):
        for q in s:
            part_of[q] = gid

    inverse: list[dict] = [defaultdict(set) for _ in a.symbols]
    for q in range(a.n_states):
        for j, sym in enumerate(a.symbols):
            inverse[j][a.delta[q][sym]].add(q)

    worklist = set(range(len(partition)))
    while worklist:
        aid = worklist.pop()
        splitter = set(partition[aid])
        for j in range(len(a.symbols)):
            x = set()
            for dst in splitter:
                x |= inverse[j].get(dst, set())
            if not x:
                continue
            for gid in {part_of[q] for q in x}:
                block = partition[gid]
                inside = block & x
                outside = block - x
                if not outside or not inside:
                    continue
                keep, split = (inside, outside) if len(inside) <= len(
                    outside
                ) else (outside, inside)
                partition[gid] = split
                new_gid = len(partition)
                partition.append(keep)
                for q in keep:
                    part_of[q] = new_gid
                if gid in worklist:
                    worklist.add(new_gid)
                else:
                    worklist.add(new_gid if len(keep) <= len(split) else gid)

    # the quotient: block g behaves like any of its members
    rep = [min(s) for s in partition]
    return build_semantic_automaton(
        a.tracks,
        part_of[0],
        lambda g, sym: part_of[a.delta[rep[g]][sym]],
        lambda g: a.state_label(rep[g]),
        a.mode,
    )


def equivalent(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> "tuple | None":
    """None if the machines label every word alike, else a shortest separating word.

    Breadth-first over the whole (finite) product graph, so the first
    separating word found is shortest and None holds at every length.
    """
    if a.tracks != b.tracks:
        raise ValueError("automata read different alphabets")
    if a.mode != b.mode:
        raise ValueError("cannot compare accept mode with output mode")
    start = (0, 0)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (qa, qb), word = queue.popleft()
        if a.state_label(qa) != b.state_label(qb):
            return word
        for sym in a.symbols:
            nxt = (a.delta[qa][sym], b.delta[qb][sym])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (sym,)))
    return None


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
    tracks = acceptors[0].tracks
    for m in acceptors:
        if m.tracks != tracks:
            raise ValueError("acceptors read different alphabets")
        if m.mode != "accept":
            raise ValueError("components must be relation-mode automata")

    def step(state, sym):
        return tuple(m.delta[q][sym] for m, q in zip(acceptors, state))

    def classify(state):
        hits = [v for m, q, v in zip(acceptors, state, values) if q in m.accepting]
        if len(hits) > 1:
            raise ValueError(f"acceptors overlap at product state {state}")
        return hits[0] if hits else default

    initial = tuple(0 for _ in acceptors)
    return minimize(
        build_semantic_automaton(tracks, initial, step, classify, mode="output")
    )


# ---------------------------------------------------------------------------
# specialization to the all-ones instruction sequence


def specialize_regular(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Project out track 0, restricted to all-ones codes, guarded to run indices.

    Realizes the defining shape of the specialized relations: there exists
    an all-ones code (1s then padding) whose word has more than n runs
    (n >= 1, 2n <= 2**t - 1, n read from the first remaining track) making
    the original automaton accept.  In relation mode the all-zero words are
    accepted too, mirroring the (n,x) = (0,0) base clause; in function mode
    off-domain words keep the default output 0.

    The construction runs the original machine nondeterministically over
    the guessed instruction bits, closes acceptance under zero-padding of
    the numeric tracks (a valid guess may extend past the written word),
    determinizes, and minimizes.
    """
    if len(a.tracks) < 2 or a.tracks[0] != INSTRUCTION_TRACK:
        raise ValueError("track 0 must be the instruction track")
    rest = a.tracks[1:]
    rest_symbols = tuple(itertools.product(*rest))

    # nfa state: (q, phase, prev_n_bit, flag_2n_le_x, n_positive)
    start = (0, 0, 0, True, False)

    def moves(state, rsym, choices):
        q, phase, prev, flag, npos = state
        out = []
        for f in choices if phase == 0 else ((0,) if 0 in a.tracks[0] else ()):
            sym = (f, *rsym)
            q2 = a.delta[q][sym]
            xbit = 1 if f == 1 else 0
            u = prev  # this position's bit of 2n is the previous n-bit
            if u < xbit:
                flag2 = True
            elif u > xbit:
                flag2 = False
            else:
                flag2 = flag
            nbit = rsym[0]
            out.append((q2, 0 if f == 1 else 1, nbit, flag2, nbit == 1 or npos))
        return out

    def is_hit(state, value_mode_value=None) -> bool:
        q, _, prev, flag, npos = state
        if not (npos and flag and prev == 0):
            return False
        if a.outputs is None:
            return q in a.accepting
        return a.outputs[q] == value_mode_value

    zero_rsym = tuple(0 for _ in rest)

    def zero_closure(targets_value=None) -> frozenset:
        # states from which some all-zero-numeric continuation hits acceptance
        hits = set()
        all_states = set()
        frontier = [start]
        seen = {start}
        # enumerate the reachable nfa state space first
        while frontier:
            st = frontier.pop()
            all_states.add(st)
            for rsym in rest_symbols:
                for nx in moves(st, rsym, (1, 0)):
                    if nx not in seen:
                        seen.add(nx)
                        frontier.append(nx)
        edges = defaultdict(set)
        for st in all_states:
            for nx in moves(st, zero_rsym, (1, 0)):
                edges[st].add(nx)
        closure = {st for st in all_states if is_hit(st, targets_value)}
        changed = True
        while changed:
            changed = False
            for st in all_states:
                if st not in closure and edges[st] & closure:
                    closure.add(st)
                    changed = True
        return frozenset(closure)

    if a.outputs is None:
        zc = zero_closure()

        def step(dstate, rsym):
            subset, allzero = dstate
            nxt = set()
            for st in subset:
                nxt.update(moves(st, rsym, (1, 0)))
            return (frozenset(nxt), allzero and rsym == zero_rsym)

        def classify(dstate):
            subset, allzero = dstate
            return allzero or bool(subset & zc)

        built = build_semantic_automaton(
            rest, (frozenset([start]), True), step, classify, mode="accept"
        )
        return minimize(built)

    value_range = sorted(set(a.outputs) - {0})
    closures = {v: zero_closure(v) for v in value_range}

    def step(subset, rsym):
        nxt = set()
        for st in subset:
            nxt.update(moves(st, rsym, (1, 0)))
        return frozenset(nxt)

    def classify(subset):
        hits = [v for v in value_range if subset & closures[v]]
        if len(hits) > 1:
            raise InferenceError(
                f"projection is not single-valued: outputs {hits} all reachable"
            )
        return hits[0] if hits else 0

    built = build_semantic_automaton(
        rest, frozenset([start]), step, classify, mode="output"
    )
    return minimize(built)


def build_tt(sample_depth: int = 10, test_depth: int = 6) -> MultiTrackAutomaton:
    """Infer the automaton for the gap sequence t(n) and check it is well formed.

    Raises InferenceError when any gap_wellformedness check fails at
    `sample_depth`, the bound inference certified.
    """
    machine = infer_automaton(GapOracle(), sample_depth, test_depth)
    bad = [r for r in gap_wellformedness(machine, depth=sample_depth) if not r.passed]
    if bad:
        raise InferenceError(f"gap automaton failed checks: {bad}")
    return machine


def _free_track_values(
    a: MultiTrackAutomaton, fixed: Sequence[int]
) -> list[tuple[int, ...]]:
    """Sorted values of tracks 1.. over the accepted words with track 0 = `fixed`.

    Every free track is a bit track read lsd-first over len(fixed) symbols.
    Backward feasibility pruning keeps the walk proportional to the number
    of accepted assignments, so full extraction stays cheap even when the
    free tracks could range over 4**width combinations.
    """
    width = len(fixed)
    free = tuple(itertools.product(*a.tracks[1:]))
    feasible = [set() for _ in range(width + 1)]
    feasible[width] = set(a.accepting)
    for i in range(width - 1, -1, -1):
        nxt = feasible[i + 1]
        feasible[i] = {
            q
            for q in range(a.n_states)
            if any(a.delta[q][(fixed[i], *bits)] in nxt for bits in free)
        }
    hits: list[tuple[int, ...]] = []

    def descend(q: int, i: int, vals: tuple[int, ...]) -> None:
        if i == width:
            hits.append(vals)  # feasible[width] holds only accepting states
            return
        for bits in free:
            dst = a.delta[q][(fixed[i], *bits)]
            if dst in feasible[i + 1]:
                descend(dst, i + 1, tuple(v | (b << i) for v, b in zip(vals, bits)))

    if 0 in feasible[0]:
        descend(0, 0, (0,) * len(free[0]))
    return sorted(hits)


def accepted_numeric_values(
    a: MultiTrackAutomaton, code, width: int
) -> list[tuple[int, ...]]:
    """All numeric-track tuples accepted with track 0 fixed to the padded code."""
    if a.mode != "accept" or not a.tracks or a.tracks[0] != INSTRUCTION_TRACK:
        raise ValueError("needs a relation automaton with an instruction track 0")
    return _free_track_values(a, as_code(code).padded(width).symbols)


def accepted_second_values(
    a: MultiTrackAutomaton, n: int, width: int
) -> list[int]:
    """All x with (n, x) accepted by a two-numeric-track acceptor at `width`."""
    if a.mode != "accept" or a.tracks != (BIT_TRACK, BIT_TRACK):
        raise ValueError("needs a two-bit-track relation automaton")
    if not 0 <= n < 2**width:
        raise ValueError(f"width {width} cannot carry the index {n}")
    return [x for (x,) in _free_track_values(a, [(n >> i) & 1 for i in range(width)])]


def gap_wellformedness(a: MultiTrackAutomaton, depth: int = 10) -> list:
    """Bounded totality/functionality/monotonicity/range checks for t(n).

    Returns CheckReports.  The expected gaps come from sieving the
    complement of H out of the regular run ends up to 2**depth - 1;
    totality is demanded exactly for the n whose t(n) fits the width.
    """
    from .theorems import CheckReport  # theorems depends on this module

    gaps = _regular_gaps(2**depth - 1).tolist()
    n_max = len(gaps)
    values: dict[int, list[int]] = {}
    for n in range(1, n_max + 1):
        values[n] = accepted_second_values(a, n, depth)

    def report(name, passed, witness=None):
        return CheckReport(
            name=name, bound=f"depth={depth}", passed=passed, witness=witness
        )

    out = []
    missing = next((n for n in range(1, n_max + 1) if not values[n]), None)
    out.append(report("gap-total", missing is None, missing))
    multi = next((n for n in range(1, n_max + 1) if len(values[n]) > 1), None)
    out.append(
        report("gap-functional", multi is None, (multi, values.get(multi)) if multi else None)
    )
    seq = [values[n][0] for n in range(1, n_max + 1) if values[n]]
    nondec = next(
        (i + 1 for i in range(len(seq) - 1) if seq[i] >= seq[i + 1]), None
    )
    out.append(report("gap-increasing", nondec is None, nondec))
    # range: accepted x-values vs the sieved gaps up to the largest of them
    upper = seq[-1] if seq else 0
    expected = [y for y in gaps if y <= upper]
    got = sorted(set(seq))
    out.append(
        report(
            "gap-range",
            got == expected,
            next(
                ((x, y) for x, y in zip(got, expected) if x != y),
                (len(got), len(expected)),
            )
            if got != expected
            else None,
        )
    )
    return out


# ---------------------------------------------------------------------------
# serialization


def _label_field(a: MultiTrackAutomaton, q: int) -> str:
    if a.outputs is None:
        return "1" if q in a.accepting else "0"
    return str(a.outputs[q])


def write_automaton(a: MultiTrackAutomaton, destination) -> None:
    """Write the exact text format; see read_automaton for the grammar."""
    lines = [f"tracks {len(a.tracks)}"]
    for i, t in enumerate(a.tracks):
        lines.append(f"track {i} " + " ".join(str(s) for s in t))
    lines.append(f"mode {a.mode}")
    for q in range(a.n_states):
        lines.append(f"state {q} {_label_field(a, q)}")
    for q in range(a.n_states):
        for sym in a.symbols:
            packed = ";".join(str(c) for c in sym)
            lines.append(f"trans {q} {packed} {a.delta[q][sym]}")
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
            raise AutomatonFormatError("unexpected end of file", line=len(lines))
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
        save = pos
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
        labels[q] = v
    n = len(labels)
    if n == 0:
        raise AutomatonFormatError("no state records found", line=pos)
    if sorted(labels) != list(range(n)):
        raise AutomatonFormatError(
            f"state ids must be 0..{n - 1}, got {sorted(labels)}", line=pos
        )

    alphabet = math.prod(len(t) for t in tracks)
    if alphabet > len(lines):
        # every (state, symbol) pair needs a trans line of its own
        raise AutomatonFormatError(
            f"{alphabet} symbols need more transition lines than the file has",
            line=pos,
        )
    symbols = tuple(itertools.product(*tracks))
    symbol_set = set(symbols)
    delta = [dict() for _ in range(n)]
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
        if sym not in symbol_set:
            fail(i, f"symbol {parts[2]!r} not in the declared alphabet")
        if sym in delta[src]:
            fail(i, f"duplicate transition for state {src} on {parts[2]!r}")
        delta[src][sym] = dst
    for q in range(n):
        if len(delta[q]) != len(symbols):
            missing = sorted(symbol_set - set(delta[q]))[:3]
            raise AutomatonFormatError(
                f"state {q} is missing {len(symbols) - len(delta[q])} "
                f"transitions, e.g. {missing}",
                line=len(lines),
            )
    if mode == "accept":
        return MultiTrackAutomaton(
            tracks, delta, accepting=[q for q, v in labels.items() if v]
        )
    return MultiTrackAutomaton(tracks, delta, outputs=[labels[q] for q in range(n)])


def to_dot(a: MultiTrackAutomaton) -> str:
    """Deterministic DOT text: states in BFS order, one edge per symbol."""
    canon = a.bfs_renumbered()
    out = ["digraph automaton {", "  rankdir=LR;"]
    for q in range(canon.n_states):
        if canon.outputs is None:
            shape = "doublecircle" if q in canon.accepting else "circle"
            out.append(f'  q{q} [label="{q}", shape={shape}];')
        else:
            out.append(f'  q{q} [label="{q}/{canon.outputs[q]}", shape=circle];')
    out.append("  start [shape=point];")
    out.append("  start -> q0;")
    for q in range(canon.n_states):
        for sym in canon.symbols:
            packed = ";".join(str(c) for c in sym)
            out.append(f'  q{q} -> q{canon.delta[q][sym]} [label="{packed}"];')
    out.append("}")
    return "\n".join(out) + "\n"
