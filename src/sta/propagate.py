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
M_k are built in batched numpy passes and then applied in a scalar Python
loop, which for 2x2 complex matrices is several times faster than numpy
per-step calls.  The products inside the build are written out by
component (_matmul_2x2) rather than with numpy's @, which on a stack of
tiny matrices costs about 0.4-0.5 us per matrix, several times as much.
The work goes in blocks of _BLOCK steps: building every M_k of a long grid
at once would hold several (n, 2, 2) temporaries and raise the peak memory
above that of sampling H, while a block keeps them small and still
amortises the numpy call overhead.
"""

from __future__ import annotations

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
    """x @ y for (B, 2, 2) stacks, one output column at a time."""
    out = np.empty(x.shape, dtype=np.result_type(x, y))
    for j in range(2):
        out[:, :, j] = x[:, :, 0] * y[:, 0, j, None] + x[:, :, 1] * y[:, 1, j, None]
    return out


def _rk4(a: np.ndarray, y0: np.ndarray, steps: np.ndarray, where: str) -> np.ndarray:
    """RK4 sweep for y' = A(t) y given A pre-sampled on nodes and midpoints.

    For n steps a has shape (2 n + 1, 2, 2): a[2k] at node k, a[2k+1] at
    the midpoint of step k.
    Raises NonFiniteState naming the first step whose state is not finite.
    """
    n = len(steps)
    out = np.empty((n + 1, 2), dtype=complex)
    out[0] = y0
    y, z = complex(y0[0]), complex(y0[1])
    eye = np.eye(2)
    # blow-ups surface as NonFiniteState below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            dt = steps[s:e, None, None]
            a0, am, a1 = a[2 * s:2 * e:2], a[2 * s + 1:2 * e:2], a[2 * s + 2:2 * e + 1:2]
            k2 = am + (0.5 * dt) * _matmul_2x2(am, a0)
            k3 = am + (0.5 * dt) * _matmul_2x2(am, k2)
            k4 = a1 + dt * _matmul_2x2(a1, k3)
            m = eye + (dt / 6.0) * (a0 + 2.0 * (k2 + k3) + k4)
            ys, zs = [], []
            for m00, m01, m10, m11 in m.reshape(-1, 4).tolist():
                y, z = m00 * y + m01 * z, m10 * y + m11 * z
                ys.append(y)
                zs.append(z)
            block = out[s + 1:e + 1]
            block[:, 0] = ys
            block[:, 1] = zs
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise NonFiniteState(
                    f"non-finite {where} state after step {s + 1 + int(finite.argmin())} "
                    f"of {n}; reduce dt or check the schedule"
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
    states = _rk4(a, psi0, np.diff(grid), "forward")
    return StateTrajectory(grid=grid, states=states)


def propagate_pair(hfun, psi0, psihat0, grid) -> StateTrajectory:
    """Co-propagate psi under H and the adjoint companion psi_hat under H^dag.

    <psi_hat|psi> is a constant of motion of the exact flow, whatever the
    non-Hermitian H; its numerical drift measures integrator error.
    """
    grid = _check_grid(grid)
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    psihat0 = np.asarray(psihat0, dtype=complex).reshape(2)
    h = _sample_hamiltonian(hfun, _refine(grid))
    steps = np.diff(grid)
    states = _rk4(-1j * h, psi0, steps, "forward")
    adjoint = _rk4(-1j * h.conj().transpose(0, 2, 1), psihat0, steps, "adjoint")
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
