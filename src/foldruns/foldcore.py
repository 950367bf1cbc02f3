"""Paperfolding words built from finite unfolding instruction codes.

A code is a finite sequence of instructions, each +1 or -1, optionally
followed by padding zeros.  A code with t effective instructions describes
a word of length 2**t - 1 over {+1, -1}: start from the empty word and
unfold once per instruction, oldest instruction first.  Words are
1-indexed throughout the public interface.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

PLUS = 1
MINUS = -1
PAD = 0

# Materializing a word for a code with more effective instructions than
# this is refused: at 24 the word has 2**24 - 1 terms and its run
# decomposition peaks near 320 MiB, doubling with each instruction.
# Single-term queries stay available at any size through paperfolding_term.
MAX_MATERIALIZED_CODE_LEN = 24

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_CHAR_TO_SYMBOL = {"+": PLUS, "-": MINUS, "0": PAD}
_SYMBOL_TO_CHAR = {PLUS: "+", MINUS: "-", PAD: "0"}


class InvalidCodeError(ValueError):
    """Raised for malformed instruction codes."""


class MaterializationLimitError(ValueError):
    """Raised when a whole-word construction would exceed the size cap."""


def _int64_terms(what: str, values) -> np.ndarray:
    """Integer values (array, list, tuple or range) as int64.

    Nothing is truncated or wrapped: a value that is not an integer raises
    TypeError and an integer outside int64 raises ValueError; `what` names
    the values in the message.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise TypeError(f"{what} holds {values.dtype}, not integers")
    else:
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in values
        ):
            raise TypeError(f"{what} holds a value that is not an integer")
        # numpy would type ints past int64 as uint64, float64 or object
        values = np.array(values, dtype=object)
    if not np.can_cast(values.dtype, np.int64) and values.size and not (
        _INT64_MIN <= int(values.min()) and int(values.max()) <= _INT64_MAX
    ):
        raise ValueError(f"{what} holds a value outside int64")
    return values.astype(np.int64, copy=False)


def is_valid_code(symbols: Sequence[int]) -> bool:
    """True iff every entry is in {+1, -1, 0} and zeros form a suffix.

    Total predicate: never raises, any sequence of ints is an acceptable
    question.  The empty sequence and all-zero sequences are valid (they
    carry zero effective instructions).
    """
    seen_pad = False
    for s in symbols:
        if s == PAD:
            seen_pad = True
        elif s == PLUS or s == MINUS:
            if seen_pad:
                return False
        else:
            return False
    return True


class FoldCode:
    """An immutable, validated instruction code.

    Stores the symbols as given (padding retained, so the stored length can
    matter for fixed-width automaton tracks) and exposes the effective
    instructions separately.  Instruction i is symbol i, 0-indexed, matching
    the order in which unfolds are applied.
    """

    __slots__ = ("_symbols", "_effective")

    def __init__(self, symbols: Iterable[int]):
        syms = tuple(int(s) for s in symbols)
        if not is_valid_code(syms):
            raise InvalidCodeError(
                "code must be +1/-1 instructions followed only by padding zeros: "
                f"{syms!r}"
            )
        self._symbols = syms
        self._effective = tuple(s for s in syms if s != PAD)

    @classmethod
    def from_text(cls, text: str) -> "FoldCode":
        """Parse a code literal over the characters '+', '-', '0'."""
        try:
            return cls(_CHAR_TO_SYMBOL[c] for c in text)
        except KeyError as exc:
            raise InvalidCodeError(
                f"bad character {exc.args[0]!r} in code literal {text!r}"
            ) from None

    def to_text(self) -> str:
        return "".join(_SYMBOL_TO_CHAR[s] for s in self._symbols)

    @property
    def symbols(self) -> tuple[int, ...]:
        """Symbols as stored, padding included."""
        return self._symbols

    @property
    def effective(self) -> tuple[int, ...]:
        """The instructions with padding stripped."""
        return self._effective

    @property
    def effective_length(self) -> int:
        return len(self._effective)

    def instruction(self, i: int) -> int:
        """Instruction i (0-indexed)."""
        if not 0 <= i < len(self._effective):
            raise IndexError(f"instruction index {i} out of range")
        return self._effective[i]

    def padded(self, width: int) -> "FoldCode":
        """The same code padded with zeros to `width` symbols."""
        if width < len(self._symbols):
            raise ValueError(f"width {width} shorter than stored length")
        return FoldCode(self._symbols + (PAD,) * (width - len(self._symbols)))

    def word_length(self) -> int:
        return 2 ** len(self._effective) - 1

    def __len__(self) -> int:
        return len(self._effective)

    def __iter__(self) -> Iterator[int]:
        return iter(self._effective)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldCode):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"FoldCode({self.to_text()!r})"


def as_code(code: "FoldCode | str | Sequence[int]") -> FoldCode:
    """Coerce a code argument: FoldCode, '+-0' literal, or symbol sequence."""
    if isinstance(code, FoldCode):
        return code
    if isinstance(code, str):
        return FoldCode.from_text(code)
    return FoldCode(code)


class PaperfoldingWord:
    """A finite word over {+1, -1}, indexed from 1.

    Thin wrapper over a read-only int8 array.  Iteration and item access
    hand out plain ints; bulk operations can use `.array` directly.
    """

    __slots__ = ("_arr",)

    def __init__(self, terms: "Iterable[int] | np.ndarray"):
        arr = np.asarray(
            terms if isinstance(terms, np.ndarray) else list(terms), dtype=np.int8
        )
        if arr.ndim != 1:
            raise ValueError("word terms must be one-dimensional")
        if arr.size and not (arr.min() >= -1 and arr.max() <= 1 and arr.all()):
            raise ValueError("word terms must be +1 or -1")
        arr = arr.copy()
        arr.setflags(write=False)
        self._arr = arr

    @property
    def array(self) -> np.ndarray:
        """Read-only int8 view of the terms, 0-indexed."""
        return self._arr

    @property
    def terms(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self._arr)

    def __len__(self) -> int:
        return int(self._arr.size)

    def __getitem__(self, n: int) -> int:
        """Term at position n, 1-indexed."""
        if not 1 <= n <= self._arr.size:
            raise IndexError(f"position {n} outside 1..{self._arr.size}")
        return int(self._arr[n - 1])

    def __iter__(self) -> Iterator[int]:
        return (int(v) for v in self._arr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PaperfoldingWord):
            return np.array_equal(self._arr, other._arr)
        if isinstance(other, (tuple, list)):
            return self.terms == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if len(self) <= 32:
            body = " ".join(str(int(v)) for v in self._arr)
        else:
            body = " ".join(str(int(v)) for v in self._arr[:8]) + f" ... ({len(self)} terms)"
        return f"<PaperfoldingWord {body}>"


def code_matrix(t: int) -> np.ndarray:
    """Row r holds the symbols of the r-th code of effective length t.

    Deterministic order: instruction 0 varies slowest, +1 before -1.
    """
    if t < 0:
        raise ValueError("code length must be nonnegative")
    idx = np.arange(2**t, dtype=np.int64)
    out = np.empty((2**t, t), dtype=np.int8)
    for i in range(t):
        out[:, i] = np.where((idx >> (t - 1 - i)) & 1, MINUS, PLUS)
    return out


def word_matrix(codes: np.ndarray) -> np.ndarray:
    """Row r holds the paperfolding word of codes[r] (padding-free rows).

    Builds every row in place in one array: instruction k sits at position
    2**k - 1, and the block after it is the reversed negation of the block
    before it.  O(final size) total.
    """
    rows, t = codes.shape
    out = np.empty((rows, 2**t - 1), dtype=np.int8)
    out[:, 2 ** np.arange(t) - 1] = codes
    for k in range(1, t):
        mid = 2**k - 1
        np.negative(out[:, :mid], out=out[:, 2 * mid : mid : -1])
    return out


def paperfolding_word(code: "FoldCode | str | Sequence[int]") -> PaperfoldingWord:
    """Materialize the full word for a code (2**t - 1 terms, t effective).

    The one-row case of word_matrix.  Codes longer than
    MAX_MATERIALIZED_CODE_LEN effective instructions are refused; use
    paperfolding_term for pointwise access at any size.
    """
    c = as_code(code)
    t = c.effective_length
    if t > MAX_MATERIALIZED_CODE_LEN:
        raise MaterializationLimitError(
            f"code has {t} effective instructions; materialization is capped at "
            f"{MAX_MATERIALIZED_CODE_LEN} (word would have 2**{t} - 1 terms)"
        )
    codes = np.array(c.effective, dtype=np.int8).reshape(1, t)
    return PaperfoldingWord(word_matrix(codes)[0])


def paperfolding_term(code: "FoldCode | str | Sequence[int]", n: int) -> int:
    """Term n (1-indexed) of the word, without materializing it.

    Write n = m * 2**k with m odd; the term is instruction k when
    m % 4 == 1 and its negation when m % 4 == 3.  O(1) beyond parsing.
    """
    c = as_code(code)
    if not 1 <= n <= c.word_length():
        raise IndexError(
            f"position {n} outside 1..{c.word_length()} for a length-"
            f"{c.effective_length} code"
        )
    k = (n & -n).bit_length() - 1
    m = n >> k
    f_k = c.instruction(k)
    return f_k if m % 4 == 1 else -f_k


def all_codes(t: int) -> Iterator[FoldCode]:
    """All 2**t padding-free codes with exactly t effective instructions.

    The rows of code_matrix(t), in its order.
    """
    for row in code_matrix(t).tolist():
        yield FoldCode(row)
