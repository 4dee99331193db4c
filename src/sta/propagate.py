"""Fixed-step RK4 propagation of two-component Schrodinger states.

Integrates i d/dt psi = H(t) psi (hbar = 1) with the classical fourth-order
Runge-Kutta rule on a fixed grid.  No step-size adaptation: determinism and
a clean convergence order matter here, and the schedules are smooth.  The
adjoint pair (psi, psi_hat) propagated under (H, H^dag) keeps the
biorthogonal overlap <psi_hat|psi> exactly constant in exact arithmetic,
which makes the overlap drift a sharp integrator check.

The ODE y' = A(t) y is linear, so one RK4 step is one 2x2 matrix,
M_k = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0, K2 = Am (I + dt/2 K1),
K3 = Am (I + dt/2 K2) and K4 = A1 (I + dt K3), and y_{k+1} = M_k y_k.  The
M_k are built in batched numpy passes over blocks of _BLOCK steps, with the
products written out by component (_matmul_2x2): numpy's @ on a stack of
tiny matrices costs about 0.4-0.5 us per matrix, several times as much,
and building a long grid at once would hold several (n, 2, 2) temporaries.
The adjoint sweep under H^dag takes its generator -A^dag block by block
from the forward one, so a pair keeps one sampled copy of A.

The recurrence is then solved by a two-level scan (Blelloch, "Prefix sums
and their applications", 1990) over chunks of about sqrt(n) steps, whose
matrices are stored with the chunk index last so that each numpy pass
below covers every chunk at once:
  1. the chunk propagators, products of each chunk's M_k, in one pass per
     step within a chunk;
  2. the chunk-start states, one scalar 2x2 product per chunk;
  3. the states inside the chunks, again one pass per step within a chunk.
That is O(n) work in O(sqrt(n)) numpy calls and Python iterations.  A
chunk propagator can overflow where the states stay finite (a zero or tiny
component meets an entry that grows past the largest double); such a chunk is stepped one M_k at a
time, so a sweep fails exactly when, and at the step where, the
step-by-step recurrence does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .counterdiabatic import BasisTrajectory, _refine
from .errors import NonFiniteState, StaError

__all__ = [
    "StateTrajectory",
    "propagate",
    "propagate_pair",
    "branch_projection",
    "convergence_order",
]

# Steps per batched build of the RK4 step matrices.
_BLOCK = 1024


@dataclass(frozen=True)
class StateTrajectory:
    """States on a time grid, with the adjoint companion when pair-propagated."""

    grid: np.ndarray
    states: np.ndarray
    adjoint_states: np.ndarray | None = None

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.states.setflags(write=False)
        if self.adjoint_states is not None:
            self.adjoint_states.setflags(write=False)

    @property
    def p1(self) -> np.ndarray:
        """Ground-state population |psi_1|^2."""
        return np.abs(self.states[:, 0]) ** 2

    @property
    def p2(self) -> np.ndarray:
        """Excited-state population |psi_2|^2."""
        return np.abs(self.states[:, 1]) ** 2

    @property
    def norm2(self) -> np.ndarray:
        """Squared Euclidean norm; decays under Gamma > 0, constant otherwise."""
        return self.p1 + self.p2

    @property
    def biorth_overlap(self) -> np.ndarray:
        """Conserved overlap <psi_hat(t)|psi(t)> of a propagated pair."""
        if self.adjoint_states is None:
            raise ValueError("no adjoint states: use propagate_pair")
        return np.einsum("tj,tj->t", self.adjoint_states.conj(), self.states)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _sample_hamiltonian(hfun, times: np.ndarray) -> np.ndarray:
    """Evaluate H on all times, batched when the callable broadcasts.

    A callable that rejects an array argument (TypeError or ValueError) or
    returns the wrong shape is sampled pointwise; a StaError always
    propagates.
    """
    try:
        h = np.asarray(hfun(times), dtype=complex)
    except StaError:
        raise
    except (TypeError, ValueError):
        pass
    else:
        if h.shape == (len(times), 2, 2):
            return h
    out = np.empty((len(times), 2, 2), dtype=complex)
    for i, t in enumerate(times):
        out[i] = hfun(float(t))
    return out


def _matmul_2x2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for (B, 2, 2) stacks, one output column at a time, summed in place."""
    out = np.empty(x.shape, dtype=np.result_type(x, y))
    for j in range(2):
        np.multiply(x[:, :, 0], y[:, 0, j, None], out=out[:, :, j])
        out[:, :, j] += x[:, :, 1] * y[:, 1, j, None]
    return out


def _scale_add(x: np.ndarray, c, y) -> np.ndarray:
    """c x + y, computed in x in place."""
    x *= c
    x += y
    return x


def _step_block(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """RK4 step matrices from A at the nodes (a0, a1) and midpoints (am) of a block.

    I + dt/6 (a0 + 2 (k2 + k3) + k4) with k2 = am + dt/2 am a0,
    k3 = am + dt/2 am k2 and k4 = a1 + dt a1 k3, summed in place: the same
    floating-point operations as the written-out expression, with fewer
    temporaries.
    """
    k2 = _scale_add(_matmul_2x2(am, a0), 0.5 * dt, am)
    k3 = _scale_add(_matmul_2x2(am, k2), 0.5 * dt, am)
    k4 = _scale_add(_matmul_2x2(a1, k3), dt, a1)
    k2 += k3
    k2 = _scale_add(k2, 2.0, a0)
    k2 += k4
    return _scale_add(k2, dt / 6.0, np.eye(2))


def _step_matrices(a: np.ndarray, steps: np.ndarray, width: int, adjoint: bool) -> np.ndarray:
    """RK4 step matrices laid out by chunks of width steps.

    Returns m with m[i, :, :, j] = M_{j width + i}; identities pad the last
    chunk.  a holds the generator A sampled as in _rk4, and adjoint=True
    builds the steps of y' = A^dag(t) y, taking -A^dag block by block.
    """
    n = len(steps)
    m = np.empty((width, 2, 2, -(-n // width)), dtype=complex)
    m[:, :, :, -1] = np.eye(2)
    by_step = m.transpose(3, 0, 1, 2)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        blk = a[2 * s:2 * e + 1]
        if adjoint:
            blk = -blk.conj().transpose(0, 2, 1)
        by_step[np.divmod(np.arange(s, e), width)] = _step_block(
            blk[0:-1:2], blk[1::2], blk[2::2], steps[s:e, None, None])
    return m


def _rk4(a: np.ndarray, y0: np.ndarray, steps: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """RK4 sweep for y' = A(t) y given A pre-sampled on nodes and midpoints.

    For n steps a has shape (2 n + 1, 2, 2): a[2k] at node k, a[2k+1] at
    the midpoint of step k.  adjoint=True sweeps y' = A^dag(t) y instead.
    Raises NonFiniteState naming a non-finite initial state, or else the
    first step whose state is not finite.
    """
    where = "adjoint" if adjoint else "forward"
    if not np.isfinite(y0).all():
        raise NonFiniteState(f"non-finite {where} initial state {y0}")
    n = len(steps)
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) steps per chunk
    chunks = -(-n // width)
    out = np.empty((chunks * width + 1, 2), dtype=complex)
    out[0] = y0
    # blow-ups surface as NonFiniteState below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # chunks run along the last, contiguous axis of m, so each product
        # below is one pass over all chunks
        m = _step_matrices(a, steps, width, adjoint)
        # 1. propagators M_{j width + width - 1} ... M_{j width} of all chunks but the last
        prop = m[0, :, :, :-1]
        for q in m[1:, :, :, :-1]:
            prop = q[:, 0, None] * prop[0] + q[:, 1, None] * prop[1]
        # 2. chunk-start states, one scalar step per chunk
        y, z = complex(y0[0]), complex(y0[1])
        ys, zs = [y], [z]
        for j, (p00, p01, p10, p11) in enumerate(zip(*prop.reshape(4, -1).tolist())):
            y1, z1 = p00 * y + p01 * z, p10 * y + p11 * z
            if not (cmath.isfinite(y1) and cmath.isfinite(z1)):
                # a product can overflow where the states do not: step the chunk
                y1, z1 = y, z
                for m00, m01, m10, m11 in m[:, :, :, j].reshape(-1, 4).tolist():
                    y1, z1 = m00 * y1 + m01 * z1, m10 * y1 + m11 * z1
                if not (cmath.isfinite(y1) and cmath.isfinite(z1)):
                    break  # blown up in chunk j: the fill below finds the step
            y, z = y1, z1
            ys.append(y)
            zs.append(z)
        # 3. states inside the chunks, one step of every chunk at a time
        filled = len(ys)
        out[1 + filled * width:] = np.nan  # rows past a blow-up never pass as finite
        states = out[1:].reshape(chunks, width, 2).transpose(1, 2, 0)[:, :, :filled]
        prev = np.array([ys, zs])
        for q, state in zip(m[:, :, :, :filled], states):
            np.multiply(q[:, 0], prev[0], out=state)
            state += q[:, 1] * prev[1]
            prev = state
    out = out[:n + 1]
    if not np.isfinite(out.view(float)).all():
        step = int(np.isfinite(out).all(axis=1).argmin())
        raise NonFiniteState(
            f"non-finite {where} state after step {step} of {n}; reduce dt or check the schedule"
        )
    return out


def propagate(hfun, psi0, grid) -> StateTrajectory:
    """Propagate psi0 through i psi' = H(t) psi on a fixed grid.

    hfun maps time to a 2x2 array; callables that broadcast over a time
    array are sampled in one call, anything else is sampled pointwise.
    """
    grid = _check_grid(grid)
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    a = -1j * _sample_hamiltonian(hfun, _refine(grid))
    states = _rk4(a, psi0, np.diff(grid))
    return StateTrajectory(grid=grid, states=states)


def propagate_pair(hfun, psi0, psihat0, grid) -> StateTrajectory:
    """Co-propagate psi under H and the adjoint companion psi_hat under H^dag.

    <psi_hat|psi> is a constant of motion of the exact flow, whatever the
    non-Hermitian H; its numerical drift measures integrator error.
    """
    grid = _check_grid(grid)
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    psihat0 = np.asarray(psihat0, dtype=complex).reshape(2)
    a = -1j * _sample_hamiltonian(hfun, _refine(grid))
    steps = np.diff(grid)
    states = _rk4(a, psi0, steps)
    adjoint = _rk4(a, psihat0, steps, adjoint=True)
    return StateTrajectory(grid=grid, states=states, adjoint_states=adjoint)


def branch_projection(traj: StateTrajectory, basis: BasisTrajectory) -> np.ndarray:
    """Branch amplitudes c_n(t) = <l_n(t)|psi(t)> along a trajectory.

    Because the basis closes, sum_n c_n(t) r_n(t) rebuilds psi(t) exactly.
    """
    if traj.grid.shape != basis.grid.shape or not np.allclose(traj.grid, basis.grid):
        raise ValueError("trajectory and basis live on different grids")
    return np.einsum("tnj,tj->tn", basis.left.conj(), traj.states)


def convergence_order(hfun, psi0, window, n0: int = 512) -> float:
    """Empirical RK4 order from endpoint errors at n0 and 2 n0 steps.

    The reference is the 8 n0 run; returns log2(error(n0) / error(2 n0)),
    which sits near 4 inside the asymptotic regime.
    """
    t0, t1 = window
    runs = {}
    for n in (n0, 2 * n0, 8 * n0):
        grid = np.linspace(t0, t1, n + 1)
        runs[n] = propagate(hfun, psi0, grid).states[-1]
    e1 = np.linalg.norm(runs[n0] - runs[8 * n0])
    e2 = np.linalg.norm(runs[2 * n0] - runs[8 * n0])
    if e1 == 0.0 or e2 == 0.0:
        raise ValueError("errors vanished; convergence order undefined")
    return float(np.log2(e1 / e2))
