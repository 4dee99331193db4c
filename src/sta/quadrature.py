"""Cumulative Simpson quadrature and its midpoint grids, shared by the atom and trap modules."""

from __future__ import annotations

import numpy as np


def _refine(grid: np.ndarray) -> np.ndarray:
    """Grid with its interval midpoints inserted: nodes at [0::2], midpoints at [1::2]."""
    dense = np.empty(2 * len(grid) - 1)
    dense[0::2] = grid
    dense[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return dense


def _cumulative_simpson(f_nodes: np.ndarray, f_mids: np.ndarray, h) -> np.ndarray:
    """Running integral of f from the first node, one Simpson panel per interval.

    f_nodes holds f on n nodes, f_mids on the n - 1 interval midpoints and h
    the interval widths (an array of n - 1 or one scalar).  Panel k adds
    (h_k/6) (f_k + 4 f_mid_k + f_k+1); the n partial sums start at 0.  On
    uniformly spaced nodes this is the composite Simpson rule on the grid
    with the midpoints inserted.
    """
    inc = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])
    out = np.zeros(len(f_nodes), dtype=inc.dtype)
    out[1:] = np.cumsum(inc)
    return out
