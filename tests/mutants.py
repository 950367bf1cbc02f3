"""Single-edit copies of a machine, for the mutation and differential tests."""

from foldruns import MultiTrackAutomaton


def mutated_transition(a: MultiTrackAutomaton, q: int, symbol: tuple, dst: int):
    """Copy of `a` with the edge from q on `symbol` redirected to dst."""
    if not 0 <= q < a.n_states or not 0 <= dst < a.n_states:
        raise ValueError("state out of range")
    if symbol not in a.delta[q]:
        raise ValueError(f"unknown symbol {symbol!r}")
    delta = [dict(edges) for edges in a.delta]
    delta[q][symbol] = dst
    if a.outputs is None:
        return MultiTrackAutomaton(a.tracks, delta, accepting=a.accepting)
    return MultiTrackAutomaton(a.tracks, delta, outputs=a.outputs)


def mutated_label(a: MultiTrackAutomaton, q: int):
    """Copy of `a` with state q's acceptance flipped (or output bumped mod 4)."""
    if not 0 <= q < a.n_states:
        raise ValueError("state out of range")
    if a.outputs is None:
        return MultiTrackAutomaton(a.tracks, a.delta, accepting=a.accepting ^ {q})
    outs = list(a.outputs)
    outs[q] = (outs[q] + 1) % 4
    return MultiTrackAutomaton(a.tracks, a.delta, outputs=outs)
