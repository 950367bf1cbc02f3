"""Per-layer spans and counters, recorded from outside the program.

`Tracer.installed()` wraps the public functions and oracle methods of each
foldruns module for the duration of a `with` block.  A wrapped name is
rebound in *every* foldruns module namespace that holds it: `cli` binds
names with `from ... import`, so patching only the defining module would
miss the calls the CLI makes, while intra-module calls such as
`infer_automaton -> verify_exhaustive` go through the defining module's
global and are caught there.

A span's self time is its duration minus the time its child spans cover.
A call made while the same stage is already the innermost open span
(`regular_run_start -> regular_run_span`, a value-slice oracle delegating
`label` to its base) belongs to the enclosing span, so `calls` counts
entries into a layer from outside it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, stage): one span per call.
SPANS = (
    ("foldcore", "paperfolding_word", "foldcore.word"),
    ("runs", "run_decompose", "runs.decompose"),
    ("runs", "find_overlaps", "runs.factor_scan"),
    ("runs", "find_squares", "runs.factor_scan"),
    ("runs", "find_palindromes", "runs.factor_scan"),
    ("runs", "subword_complexity", "runs.factor_scan"),
    ("runs", "right_special_count", "runs.factor_scan"),
    ("runs", "regular_run_span", "runs.regular_span"),
    ("runs", "regular_run_start", "runs.regular_span"),
    ("runs", "regular_run_end", "runs.regular_span"),
    ("runs", "regular_run_length", "runs.regular_span"),
    ("automata", "verify_exhaustive", "automata.verify"),
    ("automata", "infer_automaton", "automata.infer"),
    ("automata", "minimize", "automata.minimize"),
    ("automata", "accepted_numeric_values", "automata.accepted_values"),
    ("automata", "accepted_second_values", "automata.accepted_values"),
    ("automata", "regular_gap_value", "automata.gap_value"),
    ("theorems", "sp_suite", "theorems.sp_suite"),
    ("theorems", "runs_suite", "theorems.runs_suite"),
    ("theorems", "regular_suite", "theorems.regular_suite"),
    ("contfrac", "cf_from_rational", "contfrac.euclid"),
    ("contfrac", "cf_to_rational", "contfrac.to_rational"),
    ("contfrac", "alpha_value", "contfrac.alpha"),
    ("contfrac", "predicted_cf", "contfrac.predicted"),
)

# Work counters read off a span's result: stage -> (counter, size of result).
RESULT_COUNTERS = {
    "foldcore.word": ("foldcore.word.symbols", len),
    "contfrac.euclid": ("contfrac.euclid.terms", len),
    "automata.verify": ("automata.verify.counterexamples", lambda ce: ce is not None),
}

# Plain counters: function -> counter summing its return values.  The
# verifier calls `_universe_size` once per width it certifies by counting.
SUM_COUNTERS = (("automata", "_universe_size", "automata.verify.universe"),)

ORACLE_LABEL_STAGE = "automata.label"
ORACLE_SAMPLES_STAGE = "automata.samples"


class Tracer:
    """Span and counter registry for one traced operation at a time."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans, innermost last: [stage, time covered by child spans]
        self._stack: list[list] = []

    def _enter(self, stage: str) -> "list | None":
        if self._stack and self._stack[-1][0] == stage:
            return None
        frame = [stage, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, duration: float) -> None:
        self._stack.pop()
        stage = frame[0]
        self.calls[stage] += 1
        self.self_s[stage] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, stage: str, fn, *args, **kwargs):
        """Run fn inside a span named `stage`."""
        frame = self._enter(stage)
        if frame is None:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame, time.perf_counter() - t0)

    def _span_wrapper(self, stage: str, fn, measure=None):
        def traced(*args, **kwargs):
            result = self.call(stage, fn, *args, **kwargs)
            if measure is not None:
                counter, size = measure
                self.counts[counter] += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _sum_wrapper(self, counter: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[counter] += result
            return result

        counted.__wrapped__ = fn
        return counted

    def _samples_wrapper(self, fn):
        tracer = self

        def samples(oracle, width):
            return tracer._timed_items(fn(oracle, width))

        samples.__wrapped__ = fn
        return samples

    def _timed_items(self, items):
        """Yield from `items`, timing each `next` as an automata.samples span."""
        stage = ORACLE_SAMPLES_STAGE
        counter = stage + ".items"
        it = iter(items)
        while True:
            # None when a delegating oracle's inner generator runs inside ours
            frame = self._enter(stage)
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if frame is not None:
                    self._leave(frame, time.perf_counter() - t0)
            if frame is not None:
                self.counts[counter] += 1
            yield item

    def _patches(self):
        """(original, replacement) pairs for every traced callable."""
        pkg = _foldruns_modules()
        out = []
        for mod, name, stage in SPANS:
            fn = getattr(pkg[mod], name)
            out.append((fn, self._span_wrapper(stage, fn, RESULT_COUNTERS.get(stage))))
        for mod, name, counter in SUM_COUNTERS:
            fn = getattr(pkg[mod], name)
            out.append((fn, self._sum_wrapper(counter, fn)))
        return out

    def _oracle_methods(self):
        """(class, attribute, replacement) for every oracle's own label/samples."""
        automata = _foldruns_modules()["automata"]
        out = []
        for cls in vars(automata).values():
            if not (inspect.isclass(cls) and issubclass(cls, automata.WordOracle)):
                continue
            own = vars(cls)
            if "label" in own:
                out.append(
                    (cls, "label", self._span_wrapper(ORACLE_LABEL_STAGE, own["label"]))
                )
            if "samples" in own:
                out.append((cls, "samples", self._samples_wrapper(own["samples"])))
        return out

    @contextmanager
    def installed(self):
        """Wrap every traced callable in every foldruns namespace; undo on exit."""
        undo = []
        try:
            replacement = {id(fn): (fn, new) for fn, new in self._patches()}
            for module in _foldruns_modules().values():
                for name, value in list(vars(module).items()):
                    hit = replacement.get(id(value))
                    if hit is not None and hit[0] is value:
                        undo.append((module, name, value))
                        setattr(module, name, hit[1])
            for cls, attr, new in self._oracle_methods():
                undo.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, new)
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)


def _foldruns_modules() -> dict:
    """Short name -> module for the loaded foldruns package and submodules."""
    out = {}
    for full, module in list(sys.modules.items()):
        if module is None:
            continue
        if full == "foldruns":
            out["foldruns"] = module
        elif full.startswith("foldruns."):
            out[full.split(".", 1)[1]] = module
    return out
