"""Invariant-based inverse engineering of a harmonic trap expansion.

To widen a harmonic trap from omega_0 to omega_f in a finite time t_f
without exciting the final motion, prescribe a scaling function rho(t)
with rho(0) = 1, rho(t_f) = sqrt(omega_0/omega_f) and vanishing first and
second derivatives at both ends, then read the required trap frequency off
the Ermakov equation,

    omega(t)^2 = omega_0^2 / rho(t)^4 - rho_ddot(t) / rho(t).

The quadratic dynamical invariant, written here as the 2x2 matrix

    I(t) = [[b, c], [-a, -b]],      a = m (omega_0/rho^2 + rho_dot^2/omega_0),
                                    b = -rho rho_dot / omega_0,
                                    c = rho^2 / (omega_0 m),

satisfies b^2 - a c = -1 identically and dI/dt = i [I, H] with the linear
effective Hamiltonian H = i [[0, 1/m], [-m omega^2, 0]] acting on (q, p).
Its eigendirections transport classical trajectories exactly:

    q(t) = R rho cos(theta),  p(t) = -(m omega_0 / rho) R sin(theta)
                                     + m rho_dot R cos(theta),

with theta(t) = omega_0 * integral of dt'/rho^2 + theta_0.  The energy then
drops by exactly omega_f/omega_0 however short t_f is.

Units are SI throughout this module (kg, m, s, rad/s).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InconsistentInitialConditions
from .propagate import _check_grid, propagate
from .quadrature import _cumulative_simpson

# Largest omega dt of one RK4 substep in hamilton_trajectory.
_OMEGA_DT = 0.1

__all__ = [
    "ExpansionSpec",
    "ErmakovPlan",
    "InvariantMatrix",
    "PhaseSpaceTrajectory",
    "EnergyAudit",
    "plan_expansion",
    "invariant_at",
    "invariance_residual",
    "effective_hamiltonian",
    "lr_phases",
    "closed_form_trajectory",
    "hamilton_trajectory",
    "energy_audit",
]


@dataclass(frozen=True)
class ExpansionSpec:
    """Target of the expansion and the classical initial conditions.

    theta0 left as None is derived from (q0, v0); a supplied value is
    checked against that mapping and rejected if they disagree.
    """

    omega0: float
    omegaf: float
    tf: float
    mass: float
    q0: float = 0.0
    v0: float = 0.0
    theta0: float | None = None

    def __post_init__(self):
        for name in ("omega0", "omegaf", "tf", "mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _derive_angle(spec: ExpansionSpec) -> tuple[float, float]:
    """Amplitude R and launch phase theta_0 from (q0, v0)."""
    r = float(np.hypot(spec.q0, spec.v0 / spec.omega0))
    if r == 0.0:
        warnings.warn("q0 = v0 = 0: rest solution, trajectory is identically zero",
                      stacklevel=3)
        return 0.0, 0.0 if spec.theta0 is None else float(spec.theta0)
    theta0 = float(np.arctan2(-spec.v0 / spec.omega0, spec.q0))
    if spec.theta0 is not None:
        mismatch = (spec.theta0 - theta0 + np.pi) % (2.0 * np.pi) - np.pi
        if abs(mismatch) > 1e-9:
            raise InconsistentInitialConditions(
                f"theta0 = {spec.theta0} contradicts (q0, v0), which give {theta0}"
            )
    return r, theta0


@dataclass(frozen=True)
class ErmakovPlan:
    """Planned scaling function and everything derived from it.

    coeffs are the polynomial coefficients of rho in reduced time s = t/tf
    (ascending).  Outside [0, tf] the plan is clamped: rho sits at its
    boundary value with zero derivatives, so omega^2 continues as omega_0^2
    before the ramp and omega_f^2 after it.  min_omega_sq and
    max_abs_omega_sq come from the scan of omega^2 over the ramp.
    """

    omega0: float
    tf: float
    mass: float
    coeffs: np.ndarray
    amplitude: float
    theta0: float
    min_omega_sq: float = np.nan
    max_abs_omega_sq: float = np.nan

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def rho_final(self) -> float:
        return float(npoly.polyval(1.0, self.coeffs))

    @property
    def trap_inverted(self) -> bool:
        """True when the planned omega^2 dips negative (transient expulsive trap)."""
        return bool(self.min_omega_sq < 0.0)

    def rho(self, t):
        s = np.clip(np.asarray(t, dtype=float) / self.tf, 0.0, 1.0)
        return npoly.polyval(s, self.coeffs)

    def rho_dot(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.tf)
        s = np.clip(t / self.tf, 0.0, 1.0)
        return np.where(inside, npoly.polyval(s, npoly.polyder(self.coeffs)) / self.tf, 0.0)

    def rho_ddot(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.tf)
        s = np.clip(t / self.tf, 0.0, 1.0)
        return np.where(inside, npoly.polyval(s, npoly.polyder(self.coeffs, 2)) / self.tf**2, 0.0)

    def omega_sq(self, t):
        """Planned squared trap frequency; may transiently be negative."""
        rho = self.rho(t)
        return self.omega0**2 / rho**4 - self.rho_ddot(t) / rho

    def phase_integral(self, t, num: int = 2001):
        """omega_0 * integral_0^t dt'/rho^2 at one time or an array of times.

        One cumulative composite-Simpson table of 1/rho^2 is built on num
        (at least 2001, made odd) nodes over [0, tf]; each t then adds a
        single Simpson panel from the last even node at or before it.  The
        cost is O(len(t) + num) whatever the grid, sorted or not.  Outside
        the ramp rho is constant and the integral linear.  Each value
        depends on its own t only, so scalar and array calls give
        bit-identical results elementwise: the invariant phases and the
        closed-form trajectory share their angles exactly.
        """
        t = np.asarray(t, dtype=float)
        n = max(int(num), 2001) | 1  # odd, so the nodes pair into panels
        nodes = np.linspace(0.0, self.tf, n)
        y = 1.0 / self.rho(nodes) ** 2
        even, y_even = nodes[0::2], y[0::2]
        table = _cumulative_simpson(y_even, y[1::2], np.diff(even))
        inside = np.clip(t, 0.0, self.tf)
        k = np.searchsorted(even, inside, side="right") - 1
        y_mid, y_end = 1.0 / self.rho(np.stack([0.5 * (even[k] + inside), inside])) ** 2
        panel = ((inside - even[k]) / 6.0) * (y_even[k] + 4.0 * y_mid + y_end)
        head = np.where(t > self.tf, self.omega0 / self.rho_final**2 * (t - self.tf), 0.0)
        phase = np.where(t < 0.0, self.omega0 * t, head + self.omega0 * (table[k] + panel))
        return phase if phase.ndim else float(phase)

    def theta(self, t, num: int = 2001):
        """Rotation angle theta(t) of the transported trajectory (scalar or array)."""
        return self.theta0 + self.phase_integral(t, num=num)


def plan_expansion(spec: ExpansionSpec, scan_samples: int = 10001) -> ErmakovPlan:
    """Solve the six boundary conditions for a quintic scaling polynomial.

    In reduced time s = t/tf the conditions rho(0) = 1, rho(1) = rho_f and
    vanishing first and second derivatives at both ends form a linear 6x6
    system in the monomial coefficients.  omega^2 over the ramp is scanned
    on scan_samples points and its minimum and largest magnitude recorded
    on the plan; a negative minimum is reported, not treated as an error,
    since a transiently expulsive trap is physical.
    """
    rho_f = float(np.sqrt(spec.omega0 / spec.omegaf))
    rows = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],    # rho(0) = 1
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],    # rho'(0) = 0
        [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],    # rho''(0) = 0
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],    # rho(1) = rho_f
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],    # rho'(1) = 0
        [0.0, 0.0, 2.0, 6.0, 12.0, 20.0],  # rho''(1) = 0
    ])
    rhs = np.array([1.0, 0.0, 0.0, rho_f, 0.0, 0.0])
    coeffs = np.linalg.solve(rows, rhs)
    amplitude, theta0 = _derive_angle(spec)
    plan = ErmakovPlan(
        omega0=spec.omega0, tf=spec.tf, mass=spec.mass,
        coeffs=coeffs, amplitude=amplitude, theta0=theta0,
    )
    w2 = plan.omega_sq(np.linspace(0.0, spec.tf, int(scan_samples)))
    return replace(plan, min_omega_sq=float(np.min(w2)),
                   max_abs_omega_sq=float(np.max(np.abs(w2))))


@dataclass(frozen=True)
class InvariantMatrix:
    """Quadratic invariant I = [[b, c], [-a, -b]] with b^2 - a c = -1.

    The coefficients are floats at one time and arrays over a time array;
    matrix and eigenvalues take the float form only.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.b, self.c], [-self.a, -self.b]])

    @property
    def eigenvalues(self) -> np.ndarray:
        """Time-independent pair (-i, +i): det I = ac - b^2 = 1, zero trace."""
        root = np.sqrt(complex(self.a * self.c - self.b**2))
        return np.array([-1j * root, 1j * root])


def invariant_at(plan: ErmakovPlan, spec: ExpansionSpec, t) -> InvariantMatrix:
    """Invariant coefficients a, b, c evaluated on the plan at one time or a time array."""
    rho = np.asarray(plan.rho(t))
    rho_dot = np.asarray(plan.rho_dot(t))
    w0, m = spec.omega0, spec.mass
    coeffs = {
        "a": m * (w0 / rho**2 + rho_dot**2 / w0),
        "b": -rho * rho_dot / w0,
        "c": rho**2 / (w0 * m),
    }
    return InvariantMatrix(**{k: x if x.ndim else float(x) for k, x in coeffs.items()})


def effective_hamiltonian(plan: ErmakovPlan, spec: ExpansionSpec):
    """Linear generator of Hamilton's equations, H = i [[0, 1/m], [-m w^2, 0]].

    With x = (q, p), i x' = H x reproduces q' = p/m, p' = -m omega^2 q, so
    the Schrodinger-style propagator drives the classical oscillator.  The
    callable broadcasts over time arrays.
    """
    m = spec.mass

    def hfun(t):
        w2 = np.asarray(plan.omega_sq(t))
        zero = np.zeros_like(w2)
        top = np.stack([zero, np.full_like(w2, 1.0 / m)], axis=-1)
        bot = np.stack([-m * w2, zero], axis=-1)
        return 1j * np.stack([top, bot], axis=-2)

    return hfun


def invariance_residual(plan: ErmakovPlan, spec: ExpansionSpec, t: float) -> float:
    """Frobenius norm of dI/dt - i [I, H] at time t; zero on a consistent plan.

    dI/dt uses the analytic coefficient derivatives, the commutator the
    effective Hamiltonian, so the two sides come from different routes.
    """
    rho = float(plan.rho(t))
    rho_dot = float(plan.rho_dot(t))
    rho_ddot = float(plan.rho_ddot(t))
    w0, m = spec.omega0, spec.mass
    a_dot = m * (-2.0 * w0 * rho_dot / rho**3 + 2.0 * rho_dot * rho_ddot / w0)
    b_dot = -(rho_dot**2 + rho * rho_ddot) / w0
    c_dot = 2.0 * rho * rho_dot / (w0 * m)
    i_dot = np.array([[b_dot, c_dot], [-a_dot, -b_dot]], dtype=complex)
    i_mat = invariant_at(plan, spec, t).matrix.astype(complex)
    h = effective_hamiltonian(plan, spec)(t)
    return float(np.linalg.norm(i_dot - 1j * (i_mat @ h - h @ i_mat)))


def lr_phases(plan: ErmakovPlan, spec: ExpansionSpec, t: float, num: int = 2001):
    """Transport phases of the two invariant eigendirections,

        alpha_pm(t) = i ln sqrt(c(t)/c(0)) +- omega_0 integral_0^t dt'/rho^2.

    Imaginary parts are equal (ln rho), real parts opposite.
    """
    rho = float(plan.rho(t))
    common = 1j * np.log(rho)
    phase = plan.phase_integral(t, num=num)
    return common + phase, common - phase


@dataclass(frozen=True)
class PhaseSpaceTrajectory:
    """Classical (q, p) samples on a time grid."""

    grid: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("grid", "q", "p"):
            getattr(self, name).setflags(write=False)

    def energy(self, plan: ErmakovPlan, spec: ExpansionSpec) -> np.ndarray:
        """Instantaneous oscillator energy p^2/2m + m omega^2 q^2 / 2.

        The kinetic term is taken as (p/m) p / 2, so that it overflows only
        when the energy itself does, not when p^2 alone would (a heavy mass).
        """
        w2 = np.asarray(plan.omega_sq(self.grid))
        return 0.5 * (self.p / spec.mass) * self.p + 0.5 * spec.mass * w2 * self.q**2


def closed_form_trajectory(plan: ErmakovPlan, spec: ExpansionSpec, grid) -> PhaseSpaceTrajectory:
    """Exact transported trajectory from the invariant eigendirections.

    Valid on and beyond the ramp: outside [0, tf] the clamped plan turns
    the formulas into plain harmonic motion at omega_0 or omega_f, so
    display segments before t = 0 and after t = tf continue smoothly.
    """
    grid = np.asarray(grid, dtype=float)
    r, theta0 = plan.amplitude, plan.theta0
    m, w0 = spec.mass, spec.omega0
    rho = np.asarray(plan.rho(grid))
    rho_dot = np.asarray(plan.rho_dot(grid))
    theta = plan.theta(grid)
    q = r * rho * np.cos(theta)
    p = -(m * w0 / rho) * r * np.sin(theta) + m * rho_dot * r * np.cos(theta)
    return PhaseSpaceTrajectory(grid=grid.copy(), q=q, p=p)


def _substep_grid(plan: ErmakovPlan, spec: ExpansionSpec, grid: np.ndarray) -> np.ndarray:
    """grid with each interval cut into k equal substeps of omega dt <= _OMEGA_DT.

    omega is bounded by omega_0 before the ramp, omega_f after it, and on
    any interval that overlaps the ramp by the scanned max |omega^2| or
    either end, whichever is larger.  k = 1 where the grid already resolves
    omega, and the points of grid stay exact points of the result.
    """
    lo, hi = grid[:-1], grid[1:]
    w0_sq, wf_sq = spec.omega0**2, spec.omegaf**2
    # fmax skips the nan of a plan built without the scan
    ramp_sq = np.fmax(plan.max_abs_omega_sq, max(w0_sq, wf_sq))
    w_sq = np.where(hi <= 0.0, w0_sq, np.where(lo >= plan.tf, wf_sq, ramp_sq))
    k = np.maximum(1, np.ceil(np.sqrt(w_sq) * (hi - lo) / _OMEGA_DT)).astype(int)
    ends = np.concatenate([[0], np.cumsum(k)])  # fine-grid index of each grid point
    return np.interp(np.arange(ends[-1] + 1), ends, grid)


def hamilton_trajectory(plan: ErmakovPlan, spec: ExpansionSpec, grid) -> PhaseSpaceTrajectory:
    """RK4 integration of Hamilton's equations with the planned omega^2(t).

    Starts from the closed-form point at grid[0] and never touches the
    invariant afterwards; the independent cross-check of the transport
    formulas.  The integration runs on _substep_grid, so a grid too coarse
    for omega gets substeps, and the states are returned at the points of
    grid.
    """
    grid = _check_grid(grid)
    start = closed_form_trajectory(plan, spec, grid[:1])
    x0 = np.array([start.q[0], start.p[0]], dtype=complex)
    fine = _substep_grid(plan, spec, grid)
    states = propagate(effective_hamiltonian(plan, spec), x0, fine).states
    at_grid = np.take(states, np.searchsorted(fine, grid), axis=0)
    return PhaseSpaceTrajectory(
        grid=grid.copy(), q=at_grid[:, 0].real.copy(), p=at_grid[:, 1].real.copy()
    )


@dataclass(frozen=True)
class EnergyAudit:
    """Initial and final oscillator energy and their ratio."""

    e_initial: float
    e_final: float
    ratio: float


def energy_audit(plan: ErmakovPlan, spec: ExpansionSpec) -> EnergyAudit:
    """Energies at t = 0 and t = tf of the transported trajectory.

    Checks E(0) = m omega_0^2 R^2 / 2 and E(tf)/E(0) = omega_f/omega_0
    against the closed-form evaluation and raises ValueError if either
    identity fails beyond 1e-9 relative; the shortcut would be broken.
    """
    ends = closed_form_trajectory(plan, spec, np.array([0.0, plan.tf]))
    e = ends.energy(plan, spec)
    e0, ef = float(e[0]), float(e[1])
    w0 = spec.omega0
    wf = w0 / plan.rho_final**2
    e0_expected = 0.5 * spec.mass * w0**2 * plan.amplitude**2
    if e0 == 0.0:
        return EnergyAudit(e_initial=0.0, e_final=ef, ratio=np.nan)
    if abs(e0 - e0_expected) > 1e-9 * e0_expected:
        raise ValueError(f"E(0) = {e0} deviates from m w0^2 R^2/2 = {e0_expected}")
    ratio = ef / e0
    if abs(ratio - wf / w0) > 1e-9 * (wf / w0):
        raise ValueError(f"E(tf)/E(0) = {ratio} deviates from omega_f/omega_0 = {wf / w0}")
    return EnergyAudit(e_initial=e0, e_final=ef, ratio=ratio)
