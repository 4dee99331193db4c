"""Cumulative Simpson quadrature, its midpoint grids and the span rule _spans.

All three are shared by the atom and trap modules.  Every batched pass over
a grid walks it in the spans of _spans, at most _SPAN intervals each: the
RK4 step matrices (in whole scan chunks), the mixing angle, the branch
projection, and pulses._span_walk, which fills rap's adiabaticity monitor
and cd-terms' C and monitor.  So none of them holds a full-length sample.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Most intervals per span.  The sweep's transient, about 273 bytes per span
# step, stays under the atom sweep's scan (the step matrices beside the
# states), which sets its peak; the angle and the projection gave the same
# peaks at 1,536 and 4,096.  When the transient was about 420 bytes per step
# and set the atom runs' peaks, spans of 1,024 cut `sta check`'s peak from
# 3.02 to 2.85 MB but slowed the atom's propagate by about 5% (median of 60
# interleaved calls); 1,792 and 2,048 raised the oscillator's from 0.96 to
# 1.07 and 1.18 MB (tracemalloc, one bench/run.py run, numpy 2.4.6).
_SPAN = 1536


def _spans(n: int, unit: int = 1) -> Iterator[tuple[int, int]]:
    """Bounds (a, b) of consecutive spans that cover the n intervals of a grid.

    Each span holds the most whole units of unit intervals that fit in
    _SPAN, and at least one unit; the last one ends at n.  n = 0 gives none.
    """
    step = unit * max(1, _SPAN // unit)
    for a in range(0, n, step):
        yield a, min(a + step, n)


def _refine(grid: np.ndarray) -> np.ndarray:
    """Grid with its interval midpoints inserted: nodes at [0::2], midpoints at [1::2]."""
    dense = np.empty(2 * len(grid) - 1)
    dense[0::2] = grid
    dense[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return dense


def _cumulative_simpson(f_nodes: np.ndarray, f_mids: np.ndarray, h, start=None) -> np.ndarray:
    """Running integral of f from the first node, one Simpson panel per interval.

    f_nodes holds f on n nodes, f_mids on the n - 1 interval midpoints and h
    the interval widths (an array of n - 1 or one scalar).  Panel k adds
    (h_k/6) (f_k + 4 f_mid_k + f_k+1); the n partial sums start at 0.  On
    uniformly spaced nodes this is the composite Simpson rule on the grid
    with the midpoints inserted.  start continues the sums of a previous
    span that ended at f_nodes[0]: the sums start at start, which is added
    to the first panel, so span by span the additions are those of one
    running sum over the whole grid.
    """
    inc = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])
    out = np.zeros(len(f_nodes), dtype=inc.dtype)
    if start is not None:
        out[0] = start
        inc[:1] += start
    np.cumsum(inc, out=out[1:])
    return out
