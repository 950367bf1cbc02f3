"""Single-edit copies of a machine, for the mutation and differential tests."""

import random

from foldruns import MultiTrackAutomaton


def mutated_transition(a: MultiTrackAutomaton, q: int, symbol: tuple, dst: int):
    """Copy of `a` with the edge from q on `symbol` redirected to dst."""
    if not 0 <= q < a.n_states or not 0 <= dst < a.n_states:
        raise ValueError("state out of range")
    if symbol not in a.symbols:
        raise ValueError(f"unknown symbol {symbol!r}")
    table = a.table.copy()
    table[q, a.symbols.index(symbol)] = dst
    return MultiTrackAutomaton(a.tracks, table, a.labels, a.mode)


def mutated_label(a: MultiTrackAutomaton, q: int):
    """Copy of `a` with state q's acceptance flipped (or output bumped mod 4)."""
    if not 0 <= q < a.n_states:
        raise ValueError("state out of range")
    labels = a.labels.tolist()
    labels[q] = not labels[q] if a.mode == "accept" else (labels[q] + 1) % 4
    return MultiTrackAutomaton(a.tracks, a.table, labels, a.mode)


def seeded_transition_mutants(a: MultiTrackAutomaton, count: int, seed: int):
    """`count` distinct single-edge mutants of `a`, drawn from a seeded stream."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        q, dst = rng.randrange(a.n_states), rng.randrange(a.n_states)
        symbol = rng.choice(a.symbols)
        if dst == a.step(q, symbol) or (q, symbol) in seen:
            continue
        seen.add((q, symbol))
        out.append(mutated_transition(a, q, symbol, dst))
    return out
