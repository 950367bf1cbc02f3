"""Repetitions found straight from their definition, for the factor-scan tests."""

import numpy as np


def periodic_hits(rows, extra):
    """(row, start, period) of every window rows[r, i : i + 2p + extra] of period p.

    Straight from the definition: the window has period p when each of its
    first p + extra symbols equals the one p places later.
    """
    hits = []
    width = rows.shape[1]
    for p in range(1, (width - extra) // 2 + 1):
        n = p + extra
        agree = np.zeros((rows.shape[0], width - p + 1), dtype=np.int64)
        np.cumsum(rows[:, p:] == rows[:, :-p], axis=1, out=agree[:, 1:])
        r, i = np.nonzero(agree[:, n:] - agree[:, : width - p + 1 - n] == n)
        hits += zip(r.tolist(), i.tolist(), [p] * r.size)
    return hits
