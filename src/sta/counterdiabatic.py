"""Counterdiabatic driving of a decaying two-level atom.

The bare rotating-wave Hamiltonian (hbar = 1, time in ns, rates in rad/ns)

    H_0(t) = 1/2 [[-Delta,            Omega_R],
                  [ Omega_R,  Delta - i Gamma]]

has spectral branches chi_+ = (sin(alpha/2), cos(alpha/2)) and
chi_- = (cos(alpha/2), -sin(alpha/2)) parametrized by a complex mixing
angle, tan(alpha) = Omega_R / (Delta - i Gamma/2).  The half-rate shift
in the denominator is what makes the angle, the branch energies

    E_pm = ( -i Gamma +- sqrt(-(Gamma + 2 i Delta)^2 + 4 Omega_R^2) ) / 4

and the turning rate alpha_dot mutually consistent.  Adding the
counterdiabatic term

    H_1(t) = [[0, C], [-C, 0]],        C = i alpha_dot / 2,

cancels transitions between the branches exactly, so the corrected drive
H_0 + H_1 transports chi_+ without leakage no matter how fast the sweep.
Since alpha is complex, C has a real part: the correction is non-Hermitian.
Dropping Re C gives the closest Hermitian (hence implementable) drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import eigensystem_2x2
from .errors import BranchJump, ZeroGap
from .pulses import PulseSchedule
from .quadrature import _cumulative_simpson

__all__ = [
    "MixingAngleState",
    "MixingAngleTrajectory",
    "PhasePair",
    "XiPolicy",
    "BasisTrajectory",
    "bare_hamiltonian",
    "alpha_dot",
    "mixing_angle_anchor",
    "mixing_angle_values",
    "mixing_angle_trajectory",
    "cd_coupling",
    "cd_correction",
    "cd_hamiltonian",
    "cd_hamiltonian_approx",
    "branch_energies",
    "adiabatic_phase",
    "adiabatic_phase_values",
    "zero_policy",
    "canonical_policy",
    "phase_shaped_hamiltonian",
    "eigenvector_derivative",
    "cd_correction_numeric",
    "adiabatic_basis",
]


def _mat2(m11, m12, m21, m22) -> np.ndarray:
    """Stack four broadcastable entries into a (..., 2, 2) array."""
    m11, m12, m21, m22 = np.broadcast_arrays(m11, m12, m21, m22)
    return np.stack(
        [np.stack([m11, m12], axis=-1), np.stack([m21, m22], axis=-1)], axis=-2
    )


def bare_hamiltonian(s: PulseSchedule, t) -> np.ndarray:
    """Rotating-wave Hamiltonian of the driven atom with upper-level decay."""
    d, o, g = s.delta(t), s.rabi(t), s.gamma(t)
    zero = np.zeros(np.shape(t))
    return 0.5 * _mat2(-d + 0j, o + zero * 1j, o + zero * 1j, d - 1j * g)


def alpha_dot(s: PulseSchedule, t):
    """Turning rate of the complex mixing angle.

    alpha_dot = [ Omega_R' (Delta - i Gamma/2) - Omega_R (Delta' - i Gamma'/2) ]
                / [ (Delta - i Gamma/2)^2 + Omega_R^2 ]

    Raises
    ------
    ZeroGap
        If the denominator magnitude falls below 1e-300 (exceptional point).
    """
    d = s.delta(t) - 0.5j * s.gamma(t)
    o = s.rabi(t)
    num = s.rabi_dot(t) * d - o * (s.delta_dot(t) - 0.5j * s.gamma_dot(t))
    den = d * d + o * o
    if np.any(np.abs(den) < 1e-300):
        raise ZeroGap("mixing-angle rate diverges: (Delta - i Gamma/2)^2 + Omega_R^2 ~ 0")
    return num / den


def cd_coupling(s: PulseSchedule, t):
    """Counterdiabatic coupling C(t) = i alpha_dot / 2."""
    return 0.5j * alpha_dot(s, t)


def cd_correction(s: PulseSchedule, t) -> np.ndarray:
    """Counterdiabatic term H_1 = [[0, C], [-C, 0]]; traceless, m12 = -m21."""
    c = np.asarray(cd_coupling(s, t))
    zero = np.zeros_like(c)
    return _mat2(zero, c, -c, zero)


def cd_hamiltonian(s: PulseSchedule, t) -> np.ndarray:
    """Exactly corrected drive H = H_0 + H_1 (non-Hermitian off-diagonals)."""
    return bare_hamiltonian(s, t) + cd_correction(s, t)


def cd_hamiltonian_approx(s: PulseSchedule, t) -> np.ndarray:
    """Corrected drive with Re C dropped, leaving a Hermitian correction.

    Keeping only i Im C makes H - H_0 Hermitian, which a phase- and
    amplitude-modulated laser can implement; the price is that branch
    transport is no longer exact.
    """
    c = np.asarray(cd_coupling(s, t))
    ci = 1j * c.imag
    zero = np.zeros_like(ci)
    return bare_hamiltonian(s, t) + _mat2(zero, ci, -ci, zero)


@dataclass(frozen=True)
class MixingAngleState:
    """Complex mixing angle at one instant."""

    t: float
    alpha: complex


class MixingAngleTrajectory:
    """Branch-continuous mixing angle sampled on a time grid.

    Behaves as a sequence of MixingAngleState; the raw arrays are exposed
    as ``grid`` and ``alpha`` for vectorized work.
    """

    def __init__(self, grid: np.ndarray, alpha: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.alpha = np.asarray(alpha, dtype=complex)
        if self.grid.shape != self.alpha.shape:
            raise ValueError("grid and alpha must have matching shapes")
        self.grid.setflags(write=False)
        self.alpha.setflags(write=False)

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, i) -> MixingAngleState:
        return MixingAngleState(t=float(self.grid[i]), alpha=complex(self.alpha[i]))


def mixing_angle_anchor(s: PulseSchedule, t) -> complex:
    """Principal-branch mixing angle at one time, the continuation anchor."""
    d = complex(s.delta(t)) - 0.5j * complex(s.gamma(t))
    o = complex(s.rabi(t))
    if d == 0.0:
        if o == 0.0:
            raise ZeroGap("mixing angle undefined: Omega_R = 0 and Delta - i Gamma/2 = 0")
        return np.pi / 2
    return complex(np.arctan(o / d))


def mixing_angle_values(s: PulseSchedule, times: np.ndarray) -> np.ndarray:
    """Mixing angle on an arbitrary increasing time array, kept continuous.

    The anchor is the principal arctan at times[0]; later samples integrate
    alpha_dot with per-interval Simpson steps (midpoint evaluations), which
    tracks the branch through the resonance crossing where the pointwise
    principal angle would jump.
    """
    times = np.asarray(times, dtype=float)
    mids = 0.5 * (times[:-1] + times[1:])
    f_nodes = np.asarray(alpha_dot(s, times))
    f_mids = np.asarray(alpha_dot(s, mids))
    return mixing_angle_anchor(s, times[0]) + _cumulative_simpson(f_nodes, f_mids, np.diff(times))


def mixing_angle_trajectory(s: PulseSchedule, grid: np.ndarray) -> MixingAngleTrajectory:
    """Continuous mixing-angle history on a grid.

    Raises BranchJump (a ValueError) if consecutive samples differ by pi/2
    or more, which signals a grid too coarse to keep the branch labeling
    trustworthy, or an exceptional point on the sweep.
    """
    alpha = mixing_angle_values(s, grid)
    step = np.abs(np.diff(alpha))
    if step.size and step.max() >= np.pi / 2:
        raise BranchJump(
            "mixing angle jumps by >= pi/2 between samples; refine the grid "
            "or move the sweep off the exceptional point"
        )
    return MixingAngleTrajectory(grid, alpha)


def branch_energies(s: PulseSchedule, t, alpha):
    """Branch energies (E_+, E_-) consistent with a continued mixing angle.

    The complex hypotenuse sigma = sqrt((Delta - i Gamma/2)^2 + Omega_R^2)
    is recovered from whichever of Omega_R/sin(alpha), (Delta - i Gamma/2)/
    cos(alpha) is better conditioned, so its branch follows alpha rather
    than the principal square root.  Then E_pm = -i Gamma/4 +- sigma/2.
    """
    d = np.asarray(s.delta(t) - 0.5j * s.gamma(t))
    o = np.asarray(s.rabi(t), dtype=complex)
    alpha = np.asarray(alpha)
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    use_sin = np.abs(sin_a) >= np.abs(cos_a)
    sigma = np.where(
        use_sin,
        o / np.where(use_sin, sin_a, 1.0),
        d / np.where(use_sin, 1.0, cos_a),
    )
    e0 = -0.25j * np.asarray(s.gamma(t))
    return e0 + 0.5 * sigma, e0 - 0.5 * sigma


@dataclass(frozen=True)
class PhasePair:
    """Adiabatic phase of a branch and its left-basis partner (the conjugate)."""

    beta: complex
    beta_hat: complex


def _refine(grid: np.ndarray) -> np.ndarray:
    """Insert midpoints, doubling the resolution of a grid."""
    dense = np.empty(2 * len(grid) - 1)
    dense[0::2] = grid
    dense[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return dense


def adiabatic_phase_values(s: PulseSchedule, grid: np.ndarray):
    """Adiabatic phases beta_pm(t) = -integral of E_pm from grid[0], on the grid.

    For this branch parametrization <chi_hat_n | d/dt chi_n> = 0, so the
    geometric contribution vanishes and only the dynamical integral is left.
    Cumulative per-interval Simpson with midpoint evaluations.
    """
    grid = np.asarray(grid, dtype=float)
    dense = _refine(grid)
    alpha = mixing_angle_values(s, dense)
    ep, em = branch_energies(s, dense, alpha)
    neg_h = -np.diff(grid)  # beta is minus the integral of E
    return tuple(_cumulative_simpson(e[0::2], e[1::2], neg_h) for e in (ep, em))


def adiabatic_phase(s: PulseSchedule, branch: int, t: float, num: int = 2001) -> PhasePair:
    """Adiabatic phase accumulated by one branch from the window start to t.

    branch is +1 or -1.  The left-basis phase is the complex conjugate.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    t0 = s.window[0]
    if t == t0:
        return PhasePair(beta=0.0 + 0.0j, beta_hat=0.0 - 0.0j)
    grid = np.linspace(t0, t, num)
    bp, bm = adiabatic_phase_values(s, grid)
    beta = complex(bp[-1] if branch == +1 else bm[-1])
    return PhasePair(beta=beta, beta_hat=np.conj(beta))


@dataclass(frozen=True)
class XiPolicy:
    """Phase policy xi_pm(t) assigning each branch a transport phase.

    xi functions vanish at the window start; only the derivatives enter the
    shaped Hamiltonian.  The zero policy reproduces the plain
    counterdiabatic term; the canonical policy (xi_dot = -E) reproduces the
    full corrected drive.
    """

    xi_plus: Callable
    xi_minus: Callable
    xi_dot_plus: Callable
    xi_dot_minus: Callable


def zero_policy() -> XiPolicy:
    """Policy with xi_pm identically zero."""
    z = lambda t: np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    return XiPolicy(xi_plus=z, xi_minus=z, xi_dot_plus=z, xi_dot_minus=z)


def canonical_policy(s: PulseSchedule, traj: MixingAngleTrajectory) -> XiPolicy:
    """Policy xi_dot_pm = -E_pm, which turns phase shaping into the exact drive.

    Values between the trajectory nodes are linearly interpolated; on the
    nodes they are exact.
    """
    grid = traj.grid
    ep, em = branch_energies(s, grid, traj.alpha)
    bp, bm = adiabatic_phase_values(s, grid)

    def interp(values):
        return lambda t: np.interp(t, grid, values)

    return XiPolicy(
        xi_plus=interp(bp),
        xi_minus=interp(bm),
        xi_dot_plus=interp(-ep),
        xi_dot_minus=interp(-em),
    )


def phase_shaped_hamiltonian(s: PulseSchedule, policy: XiPolicy, t, alpha) -> np.ndarray:
    """Drive that transports the branches with prescribed phases xi_pm.

        H_xi = [[ -sin^2(a/2) xp - cos^2(a/2) xm,   sin(a)/2 (xm - xp) + C ],
                [  sin(a)/2 (xm - xp) - C,         -cos^2(a/2) xp - sin^2(a/2) xm ]]

    with xp = xi_dot_plus, xm = xi_dot_minus, a = alpha.  Whatever the
    policy, m12 - m21 = 2C: the counterdiabatic coupling cannot be shaped
    away by phase choices alone.

    alpha must be the continued mixing angle at t (see
    mixing_angle_trajectory), so that the branch labels of the policy and
    of the angle agree.
    """
    alpha = np.asarray(alpha)
    xp = np.asarray(policy.xi_dot_plus(t))
    xm = np.asarray(policy.xi_dot_minus(t))
    c = np.asarray(cd_coupling(s, t))
    sh2 = np.sin(alpha / 2.0) ** 2
    ch2 = np.cos(alpha / 2.0) ** 2
    off = 0.5 * np.sin(alpha) * (xm - xp)
    return _mat2(
        -sh2 * xp - ch2 * xm,
        off + c,
        off - c,
        -ch2 * xp - sh2 * xm,
    )


def eigenvector_derivative(hfun, t: float, h: float = 1e-4, tol: float = 1e-9) -> np.ndarray:
    """Central-difference time derivative of the gauge-aligned eigenvectors.

    Branches at t +- h are matched to the branches at t by eigenvalue
    proximity, then each is rescaled by a pure phase so that
    <l_n(t) | r_n(t +- h)> is real-positive before differencing.  Returns
    deriv with deriv[n] = d/dt r_n(t), accurate to O(h^2).
    """
    base = eigensystem_2x2(hfun(t), tol=tol)
    shifted = []
    for tp in (t + h, t - h):
        b = eigensystem_2x2(hfun(tp), tol=tol)
        straight = abs(b.values[0] - base.values[0]) + abs(b.values[1] - base.values[1])
        crossed = abs(b.values[0] - base.values[1]) + abs(b.values[1] - base.values[0])
        order = (0, 1) if straight <= crossed else (1, 0)
        vecs = np.empty((2, 2), dtype=complex)
        for n in range(2):
            v = b.right[order[n]]
            ov = np.vdot(base.left[n], v)
            if ov == 0.0:
                raise ZeroGap("cannot gauge-align eigenvectors across the step")
            vecs[n] = v * (np.conj(ov) / np.abs(ov))
        shifted.append(vecs)
    return (shifted[0] - shifted[1]) / (2.0 * h)


def cd_correction_numeric(hfun, t: float, h: float = 1e-4, tol: float = 1e-9) -> np.ndarray:
    """Counterdiabatic term from spectral data alone,

        H_1 = i sum_n ( |dr_n/dt><l_n| - <l_n|dr_n/dt> |r_n><l_n| ),

    gauge independent because the diagonal piece is subtracted.  Matches
    cd_correction for the two-level atom to O(h^2) without ever using the
    mixing-angle parametrization.
    """
    basis = eigensystem_2x2(hfun(t), tol=tol)
    deriv = eigenvector_derivative(hfun, t, h=h, tol=tol)
    h1 = np.zeros((2, 2), dtype=complex)
    for n in range(2):
        lc = basis.left[n].conj()
        h1 += 1j * (np.outer(deriv[n], lc)
                    - np.vdot(basis.left[n], deriv[n]) * np.outer(basis.right[n], lc))
    return h1


@dataclass(frozen=True)
class BasisTrajectory:
    """Instantaneous spectral basis along a grid, branch labels continuous.

    values[i, 0] is E_+ at grid[i]; right[i, n] / left[i, n] the paired
    eigenvectors.  Built from the mixing-angle parametrization, so row n
    follows one branch smoothly through the sweep.
    """

    grid: np.ndarray
    values: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def __post_init__(self):
        for name in ("grid", "values", "right", "left"):
            getattr(self, name).setflags(write=False)


def adiabatic_basis(s: PulseSchedule, traj: MixingAngleTrajectory) -> BasisTrajectory:
    """Branch basis chi_pm(t) along a mixing-angle trajectory.

    chi_+ = (sin(a/2), cos(a/2)), chi_- = (cos(a/2), -sin(a/2)); the left
    partners carry conjugated components, so <chi_hat_n | chi_m> = delta_nm
    holds exactly (bilinear trigonometric identity).
    """
    a = traj.alpha
    sh, ch = np.sin(a / 2.0), np.cos(a / 2.0)
    n = len(traj.grid)
    right = np.empty((n, 2, 2), dtype=complex)
    right[:, 0, 0], right[:, 0, 1] = sh, ch
    right[:, 1, 0], right[:, 1, 1] = ch, -sh
    left = right.conj()
    ep, em = branch_energies(s, traj.grid, a)
    values = np.stack([ep, em], axis=-1)
    return BasisTrajectory(grid=traj.grid.copy(), values=values, right=right, left=left)
