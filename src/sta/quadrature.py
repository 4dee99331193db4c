"""Cumulative Simpson quadrature, its midpoint grids and the tile length _TILE.

All three are shared by the atom and trap modules.  _TILE bounds the grid
intervals of two batched evaluations: mixing_angle_values evaluates the
mixing-angle rate and branch_projection builds the basis vectors one tile
of at most _TILE intervals at a time, so neither holds a full-length
sample of a long grid.  propagate samples H(t) in shorter spans of its own
(propagate._SPAN), which cut the oscillator's 3,002-step sweep in two.
That run took about 112 minor page faults against 132-151 with one
4,096-step tile (getrusage around 40 in-process bench/run.py runs): the
glibc trim faults of shorter H samples in the CSV writer did not return.
"""

from __future__ import annotations

import numpy as np

_TILE = 4096


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
    tile that ended at f_nodes[0]: the sums start at start, which is added
    to the first panel, so tile by tile the additions are those of one
    running sum over the whole grid.
    """
    inc = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])
    out = np.zeros(len(f_nodes), dtype=inc.dtype)
    if start is not None:
        out[0] = start
        inc[:1] += start
    np.cumsum(inc, out=out[1:])
    return out
