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

Along a grid, the mixing angle is integrated from alpha_dot sampled one
span of quadrature._spans at a time.  The angle, 16 bytes per point, is
all the branch basis holds: MixingAngleTrajectory builds the (N, 2, 2)
vector stacks right and left, or the rows of some grid points, from
sin(alpha/2) and cos(alpha/2) when read.  The corrected drives read one
sample of the schedule's rates per call, take C (pulses._alpha_dot) and
H_0 from it, and add +-C into the stack of H_0 in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import _empty_stack, _fd_spectrum, _mat2, _store_views
from .errors import BranchJump, ZeroGap
from .pulses import PulseRates, PulseSchedule, _alpha_dot
from .quadrature import _cumulative_simpson, _refine, _spans

__all__ = [
    "MixingAngleTrajectory",
    "XiPolicy",
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
    "adiabatic_phase_values",
    "zero_policy",
    "canonical_policy",
    "phase_shaped_hamiltonian",
    "cd_correction_numeric",
    "adiabatic_basis",
]


def bare_hamiltonian(s: PulseSchedule, t) -> np.ndarray:
    """Rotating-wave Hamiltonian of the driven atom with upper-level decay."""
    return _bare_hamiltonian(s.rates(t))


def _bare_hamiltonian(r: PulseRates) -> np.ndarray:
    """H_0 from one sample r of the schedule's rates.

    The stack is component-major (biortho._empty_stack), a (..., 2, 2)
    view of (2, 2, ...) memory: each entry write below and the -i multiply
    of propagate's sampler (_generator) over the stack read contiguous rows.
    """
    d, _, o, _, g, _ = r
    # each entry is written in place by the ufuncs of -d + 0j, o and d - 1j g,
    # so no complex temporaries are held beside the stack
    h = _empty_stack(np.shape(d))
    np.add(-d, 0j, out=h[..., 0, 0])
    h[..., 0, 1] = h[..., 1, 0] = o
    np.multiply(1j, g, out=h[..., 1, 1])
    np.subtract(d, h[..., 1, 1], out=h[..., 1, 1])
    np.multiply(0.5, h, out=h)
    return h


def alpha_dot(s: PulseSchedule, t):
    """Turning rate of the complex mixing angle.

    alpha_dot = [ Omega_R' (Delta - i Gamma/2) - Omega_R (Delta' - i Gamma'/2) ]
                / [ (Delta - i Gamma/2)^2 + Omega_R^2 ]

    Raises
    ------
    ZeroGap
        If the denominator magnitude falls below 1e-300 (exceptional point).
    """
    return _alpha_dot(s.rates(t))


def cd_coupling(s: PulseSchedule, t):
    """Counterdiabatic coupling C(t) = i alpha_dot / 2."""
    return 0.5j * alpha_dot(s, t)


def cd_correction(s: PulseSchedule, t) -> np.ndarray:
    """Counterdiabatic term H_1 = [[0, C], [-C, 0]]; traceless, m12 = -m21."""
    c = cd_coupling(s, t)
    return _mat2(0.0, c, -c, 0.0)


def _add_coupling(r: PulseRates, c) -> np.ndarray:
    """H_0 + [[0, c], [-c, 0]] from one sample r of the rates, c added into H_0 in place.

    The callers compute c before H_0 is built here, so the temporaries of
    alpha_dot and the H_0 stack are not held at once.
    """
    h = _bare_hamiltonian(r)
    h[..., 0, 1] += c
    h[..., 1, 0] -= c
    # H_0[1, 1] has real part -0.0 where Gamma = 0 and Delta = -0.0; adding
    # the zero diagonal of H_1, as the sum H_0 + H_1 does, makes it +0.0
    h[..., 1, 1] += 0.0
    return h


def cd_hamiltonian(s: PulseSchedule, t) -> np.ndarray:
    """Exactly corrected drive H = H_0 + H_1 (non-Hermitian off-diagonals)."""
    r = s.rates(t)
    return _add_coupling(r, 0.5j * _alpha_dot(r))


def cd_hamiltonian_approx(s: PulseSchedule, t) -> np.ndarray:
    """Corrected drive with Re C dropped, leaving a Hermitian correction.

    Keeping only i Im C makes H - H_0 Hermitian, which a phase- and
    amplitude-modulated laser can implement; the price is that branch
    transport is no longer exact.
    """
    r = s.rates(t)
    return _add_coupling(r, 1j * np.imag(0.5j * _alpha_dot(r)))


@dataclass(frozen=True)
class MixingAngleTrajectory:
    """Branch-continuous mixing angle alpha on a time grid, both read-only.

    The angle is the whole branch basis.  right[i, n] / left[i, n], the
    paired eigenvectors chi_n at grid[i] (see adiabatic_basis), are built
    from alpha when read: a new read-only (N, 2, 2) stack per access, with
    left the conjugate of right.  right_at builds the rows of some grid
    points only.  Row n follows one branch smoothly through the sweep.
    """

    grid: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        grid, alpha = np.asarray(self.grid, dtype=float), np.asarray(self.alpha, dtype=complex)
        if grid.shape != alpha.shape:
            raise ValueError("grid and alpha must have matching shapes")
        _store_views(self, grid=grid, alpha=alpha)

    def right_at(self, index, branch=None) -> np.ndarray:
        """right[index]: (2, 2) at one grid point, (k, 2, 2) for a slice of them.

        With branch n, only row n: right[index, n], of shape (2,) or (k, 2).
        sin and cos of the half-angle x + iy are built from real functions,
        sin = sin x cosh y + i cos x sinh y and cos = cos x cosh y - i sin x
        sinh y.  On 4,096 points this took about 0.16 ms against
        0.36 ms with numpy's complex sin and cos (numpy 2.4.6, shared 2-vCPU
        x86-64 host), and on the atom's angles the two differ by at most
        2.5e-16.
        """
        if branch not in (None, 0, 1):
            raise ValueError(f"branch must be 0, 1 or None, got {branch!r}")
        half = self.alpha[index] / 2.0
        sin_x, cos_x = np.sin(half.real), np.cos(half.real)
        cosh_y, sinh_y = np.cosh(half.imag), np.sinh(half.imag)
        sin_cos = np.empty((2,) + np.shape(half), dtype=complex)
        sh, ch = sin_cos[0, ...], sin_cos[1, ...]
        np.multiply(sin_x, cosh_y, out=sh.real)
        np.multiply(cos_x, sinh_y, out=sh.imag)
        np.multiply(cos_x, cosh_y, out=ch.real)
        np.multiply(sin_x, -sinh_y, out=ch.imag)
        if branch is None:
            return _mat2(sh, ch, ch, -sh)
        return np.stack((sh, ch) if branch == 0 else (ch, -sh), axis=-1)

    @property
    def right(self) -> np.ndarray:
        right = self.right_at(slice(None))
        right.setflags(write=False)
        return right

    @property
    def left(self) -> np.ndarray:
        left = self.right_at(slice(None)).conj()
        left.setflags(write=False)
        return left


def mixing_angle_anchor(s: PulseSchedule, t) -> complex:
    """Principal-branch mixing angle at one time, the continuation anchor."""
    delta, _, o, _, gamma, _ = map(complex, s.rates(t))
    d = delta - 0.5j * gamma
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
    principal angle would jump.  alpha_dot is evaluated one span of
    _spans at a time, and each span's running sum continues the last one's,
    so the angle is the same to the bit as from one evaluation over all of
    times.  Each span's sample is freed before the next is taken.
    """
    times = np.asarray(times, dtype=float)
    alpha = np.zeros(len(times), dtype=complex)
    for a, b in _spans(len(times) - 1):
        span = times[a:b + 1]
        f = np.asarray(alpha_dot(s, _refine(span)))
        alpha[a:b + 1] = _cumulative_simpson(f[0::2], f[1::2], np.diff(span),
                                             start=alpha[a] if a else None)
        del f  # before the next span is sampled
    alpha += mixing_angle_anchor(s, times[0])
    return alpha


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
    delta, _, rabi, _, gamma, _ = s.rates(t)
    d = np.asarray(delta - 0.5j * gamma)
    o = np.asarray(rabi, dtype=complex)
    alpha = np.asarray(alpha)
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    use_sin = np.abs(sin_a) >= np.abs(cos_a)
    sigma = np.where(
        use_sin,
        o / np.where(use_sin, sin_a, 1.0),
        d / np.where(use_sin, 1.0, cos_a),
    )
    e0 = -0.25j * np.asarray(gamma)
    return e0 + 0.5 * sigma, e0 - 0.5 * sigma


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


@dataclass(frozen=True)
class XiPolicy:
    """Phase policy: the rates xi_dot_pm(t) of each branch's transport phase.

    Only these rates enter the shaped Hamiltonian.  The zero policy
    reproduces the plain counterdiabatic term; the canonical policy
    (xi_dot = -E) reproduces the full corrected drive.
    """

    xi_dot_plus: Callable
    xi_dot_minus: Callable


def zero_policy() -> XiPolicy:
    """Policy with xi_pm identically zero."""
    return XiPolicy(xi_dot_plus=np.zeros_like, xi_dot_minus=np.zeros_like)


def canonical_policy(s: PulseSchedule, traj: MixingAngleTrajectory) -> XiPolicy:
    """Policy xi_dot_pm = -E_pm, which turns phase shaping into the exact drive.

    Rates between the trajectory nodes are linearly interpolated; on the
    nodes they are exact.
    """
    grid = traj.grid
    ep, em = branch_energies(s, grid, traj.alpha)

    def interp(values):
        return lambda t: np.interp(t, grid, values)

    return XiPolicy(xi_dot_plus=interp(-ep), xi_dot_minus=interp(-em))


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


def cd_correction_numeric(hfun, t: float, h: float = 1e-4) -> np.ndarray:
    """Counterdiabatic term from spectral data alone,

        H_1 = i sum_n ( |dr_n/dt><l_n| - <l_n|dr_n/dt> |r_n><l_n| ),

    gauge independent because the diagonal piece is subtracted.  Matches
    cd_correction for the two-level atom to O(h^2) without ever using the
    mixing-angle parametrization.
    """
    basis, deriv = _fd_spectrum(hfun, t, h)
    lc = basis.left.conj()
    transverse = deriv - np.sum(lc * deriv, axis=-1)[:, None] * basis.right
    return 1j * np.einsum("ni,nj->ij", transverse, lc)


def adiabatic_basis(s: PulseSchedule, traj: MixingAngleTrajectory) -> MixingAngleTrajectory:
    """Branch basis chi_pm(t) along a mixing-angle trajectory: traj itself.

    chi_+ = (sin(a/2), cos(a/2)), chi_- = (cos(a/2), -sin(a/2)); the left
    partners carry conjugated components, so <chi_hat_n | chi_m> = delta_nm
    holds exactly (bilinear trigonometric identity).  traj builds these
    vectors from its angle when read, so nothing is computed here; s is not
    read.
    """
    return traj
