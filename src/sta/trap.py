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

plan_expansion turns an ExpansionSpec into the ErmakovPlan that every other
function here takes alone.  Units are SI (kg, m, s, rad/s); the invariant,
its derivative and H are complex (..., 2, 2) stacks over a time array's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biortho import _mat2, _store_views
from .diagnostics import energy_claim_error
from .propagate import _check_grid, _require_steps, propagate
from .pulses import _require_finite
from .quadrature import _cumulative_simpson

_OMEGA_DT = 0.025  # largest omega dt of one RK4 substep in hamilton_trajectory
_PHASE_NODES = 2001  # odd node count of the Simpson table behind phase_integral
_SCAN_SAMPLES = 10001  # points of the omega^2 scan of every ErmakovPlan

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

    The input of plan_expansion, which copies every field the trap
    functions need onto the plan.
    """

    omega0: float
    omegaf: float
    tf: float
    mass: float
    q0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        _require_finite(**vars(self))
        for name in ("omega0", "omegaf", "tf", "mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _derive_angle(spec: ExpansionSpec) -> tuple[float, float]:
    """Amplitude R and launch phase theta_0 from (q0, v0)."""
    r = float(np.hypot(spec.q0, spec.v0 / spec.omega0))
    if r == 0.0:  # the rest orbit; arctan2(-0.0, 0.0) would give theta_0 = -0.0
        return 0.0, 0.0
    return r, float(np.arctan2(-spec.v0 / spec.omega0, spec.q0))


@dataclass(frozen=True)
class ErmakovPlan:
    """Planned scaling function and everything derived from it.

    The one argument of every trap function.  omega0, omegaf, tf and mass
    are copied from the ExpansionSpec; amplitude R and theta0 launch the
    transported orbit.  coeffs are the polynomial coefficients of rho in
    reduced time s = t/tf (ascending).  Outside [0, tf] the plan is
    clamped: rho sits at its boundary value with zero derivatives, so
    omega^2 continues as omega_0^2 before the ramp and omega_f^2 after it.
    rho, rho' and rho'' are one routine of the derivative order over coeffs.
    min_omega_sq and max_abs_omega_sq are no arguments: each plan scans its
    own omega^2 on _SCAN_SAMPLES points of the ramp when it is built.
    """

    omega0: float
    omegaf: float
    tf: float
    mass: float
    coeffs: np.ndarray
    amplitude: float
    theta0: float
    min_omega_sq: float = field(init=False)
    max_abs_omega_sq: float = field(init=False)

    def __post_init__(self):
        _store_views(self, coeffs=self.coeffs)
        w2 = self.omega_sq(np.linspace(0.0, self.tf, _SCAN_SAMPLES))
        object.__setattr__(self, "min_omega_sq", float(np.min(w2)))
        object.__setattr__(self, "max_abs_omega_sq", float(np.max(np.abs(w2))))

    @property
    def rho_final(self) -> float:
        return float(_polyval(1.0, self.coeffs))

    @property
    def trap_inverted(self) -> bool:
        """True when the planned omega^2 dips negative (transient expulsive trap)."""
        return bool(self.min_omega_sq < 0.0)

    def _rho(self, t, order: int):
        """The order-th time derivative of rho at t; for order >= 1, 0 outside [0, tf].

        coeffs are differentiated by npoly.polyder's own products j c_j, bit for bit.
        """
        t = np.asarray(t, dtype=float)
        s = np.clip(t / self.tf, 0.0, 1.0)
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = np.arange(1.0, len(coeffs)) * coeffs[1:]
        if order == 0:
            return _polyval(s, coeffs)
        inside = (t >= 0.0) & (t <= self.tf)
        return np.where(inside, _polyval(s, coeffs) / self.tf**order, 0.0)

    def rho(self, t):
        return self._rho(t, 0)

    def rho_dot(self, t):
        return self._rho(t, 1)

    def rho_ddot(self, t):
        return self._rho(t, 2)

    def omega_sq(self, t):
        """Planned squared trap frequency; may transiently be negative."""
        return self._omega_sq(self.rho(t), self.rho_ddot(t))

    def _omega_sq(self, rho, rho_ddot):
        """omega^2 from the Ermakov equation, given rho and rho'' at the same times."""
        return self.omega0**2 / rho**4 - rho_ddot / rho

    def phase_integral(self, t):
        """omega_0 * integral_0^t dt'/rho^2 at one time or an array of times.

        Before the ramp rho is 1 and the integral is omega_0 t.  If some t
        is not before it, one cumulative composite-Simpson table of 1/rho^2
        is built on _PHASE_NODES nodes over [0, tf]; each t then adds a
        single Simpson panel from the last even node at or before it.  The
        cost is O(len(t)), plus O(_PHASE_NODES) when the table is built,
        whatever the grid, sorted or not.  After the ramp rho is constant
        and the integral linear.  Each value depends on its own t only, so
        scalar and array calls give bit-identical results elementwise: the
        invariant phases and the closed-form trajectory share their angles
        exactly.
        """
        t = np.asarray(t, dtype=float)
        phase = self.omega0 * t
        if not np.all(t < 0.0):
            nodes = np.linspace(0.0, self.tf, _PHASE_NODES)
            y = 1.0 / self.rho(nodes) ** 2
            even, y_even = nodes[0::2], y[0::2]
            table = _cumulative_simpson(y_even, y[1::2], np.diff(even))
            inside = np.clip(t, 0.0, self.tf)
            k = np.searchsorted(even, inside, side="right") - 1
            y_mid, y_end = 1.0 / self.rho(np.stack([0.5 * (even[k] + inside), inside])) ** 2
            panel = ((inside - even[k]) / 6.0) * (y_even[k] + 4.0 * y_mid + y_end)
            head = np.where(t > self.tf, self.omega0 / self.rho_final**2 * (t - self.tf), 0.0)
            phase = np.where(t < 0.0, phase, head + self.omega0 * (table[k] + panel))
        return phase if phase.ndim else float(phase)

    def theta(self, t):
        """Rotation angle theta(t) of the transported trajectory (scalar or array)."""
        return self.theta0 + self.phase_integral(t)


def _polyval(s, coeffs: np.ndarray):
    """npoly.polyval(s, coeffs) for 1-d float coeffs, bit for bit, in one array updated in place.

    The same Horner steps, s * 0 + c[-1] and then c[k] + acc * s, each a
    commutative product or sum of the same two operands; polyval allocates
    two arrays per step, which cost rho and its derivatives a third of
    their time on the oscillator's grids.
    """
    acc = s * 0.0
    acc += coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= s
        acc += c
    return acc


def plan_expansion(spec: ExpansionSpec) -> ErmakovPlan:
    """Solve the six boundary conditions for a quintic scaling polynomial.

    In reduced time s = t/tf the conditions rho(0) = 1, rho(1) = rho_f and
    vanishing first and second derivatives at both ends form a linear 6x6
    system in the monomial coefficients.  The plan's scan of omega^2
    records its minimum and largest magnitude; a negative minimum is
    reported, not treated as an error, since a transiently expulsive trap
    is physical.
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
    return ErmakovPlan(
        omega0=spec.omega0, omegaf=spec.omegaf, tf=spec.tf, mass=spec.mass,
        coeffs=coeffs, amplitude=amplitude, theta0=theta0,
    )


@dataclass(frozen=True)
class InvariantMatrix:
    """Quadratic invariant I = [[b, c], [-a, -b]] with b^2 - a c = -1.

    The coefficients are floats at one time and arrays over a time array;
    matrix then has shape (2, 2) or (..., 2, 2), eigenvalues (2,) or (..., 2).
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return _mat2(self.b, self.c, -self.a, -self.b)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Time-independent pair (-i, +i): det I = ac - b^2 = 1, zero trace."""
        root = np.sqrt(np.asarray(self.a * self.c - self.b**2, dtype=complex))
        return root[..., None] * np.array([-1j, 1j])


def invariant_at(plan: ErmakovPlan, t) -> InvariantMatrix:
    """Invariant coefficients a, b, c evaluated on the plan at one time or a time array."""
    rho = np.asarray(plan.rho(t))
    rho_dot = np.asarray(plan.rho_dot(t))
    w0, m = plan.omega0, plan.mass
    coeffs = {
        "a": m * (w0 / rho**2 + rho_dot**2 / w0),
        "b": -rho * rho_dot / w0,
        "c": rho**2 / (w0 * m),
    }
    return InvariantMatrix(**{k: x if x.ndim else float(x) for k, x in coeffs.items()})


def effective_hamiltonian(plan: ErmakovPlan):
    """Linear generator of Hamilton's equations, H = i [[0, 1/m], [-m w^2, 0]].

    With x = (q, p), i x' = H x reproduces q' = p/m, p' = -m omega^2 q, so
    the Schrodinger-style propagator drives the classical oscillator.  The
    callable broadcasts over time arrays; its stacks are _mat2's,
    component-major, so the -i multiply of propagate's sampler reads
    contiguous rows.  H has no real part, so the sampler of a sweep from a
    real (q, p) returns Im H in float64 (propagate._generator).
    """
    m = plan.mass

    def hfun(t):
        w2 = np.asarray(plan.omega_sq(t))
        return _mat2(0.0, 1j / m, 1j * (-m * w2), 0.0)

    return hfun


def invariance_residual(plan: ErmakovPlan, t):
    """Frobenius norm of dI/dt - i [I, H] at one time or a time array.

    Zero on a consistent plan.  dI/dt uses the analytic coefficient
    derivatives, the commutator the effective Hamiltonian, so the two sides
    come from different routes.  A float for a scalar t; an array call
    matches the scalar calls elementwise.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    rho, rho_dot, rho_ddot = plan.rho(ts), plan.rho_dot(ts), plan.rho_ddot(ts)
    w0, m = plan.omega0, plan.mass
    a_dot = m * (-2.0 * w0 * rho_dot / rho**3 + 2.0 * rho_dot * rho_ddot / w0)
    b_dot = -(rho_dot**2 + rho * rho_ddot) / w0
    c_dot = 2.0 * rho * rho_dot / (w0 * m)
    i_dot = _mat2(b_dot, c_dot, -a_dot, -b_dot)
    i_mat = invariant_at(plan, ts).matrix
    h = effective_hamiltonian(plan)(ts)
    res = np.linalg.norm(i_dot - 1j * (i_mat @ h - h @ i_mat), axis=(-2, -1))
    return res if np.ndim(t) else float(res[0])


def lr_phases(plan: ErmakovPlan, t):
    """Transport phases of the two invariant eigendirections,

        alpha_pm(t) = i ln sqrt(c(t)/c(0)) +- omega_0 integral_0^t dt'/rho^2.

    Imaginary parts are equal (ln rho), real parts opposite.  t is one
    time or an array of times, and the phases have its shape.
    """
    common = 1j * np.log(plan.rho(t))
    phase = plan.phase_integral(t)
    return common + phase, common - phase


@dataclass(frozen=True)
class PhaseSpaceTrajectory:
    """Classical (q, p) samples on a time grid."""

    grid: np.ndarray
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _store_views(self, grid=self.grid, q=self.q, p=self.p)

    def energy(self, plan: ErmakovPlan) -> np.ndarray:
        """Instantaneous oscillator energy p^2/2m + m omega^2 q^2 / 2.

        The kinetic term is taken as (p/m) p / 2, so that it overflows only
        when the energy itself does, not when p^2 alone would (a heavy mass).
        """
        return _energy(self.q, self.p, plan.mass, np.asarray(plan.omega_sq(self.grid)))


def _energy(q, p, mass: float, w2):
    """PhaseSpaceTrajectory.energy's formula, with omega^2 given as w2 at the times of q and p."""
    return 0.5 * (p / mass) * p + 0.5 * mass * w2 * q**2


def closed_form_trajectory(plan: ErmakovPlan, grid) -> PhaseSpaceTrajectory:
    """Exact transported trajectory from the invariant eigendirections.

    Valid on and beyond the ramp: outside [0, tf] the clamped plan turns
    the formulas into plain harmonic motion at omega_0 or omega_f, so
    display segments before t = 0 and after t = tf continue smoothly.
    """
    grid = np.asarray(grid, dtype=float)
    r, theta0 = plan.amplitude, plan.theta0
    m, w0 = plan.mass, plan.omega0
    rho = np.asarray(plan.rho(grid))
    rho_dot = np.asarray(plan.rho_dot(grid))
    theta = plan.theta(grid)
    cos = np.cos(theta)
    q = r * rho * cos
    p = -(m * w0 / rho) * r * np.sin(theta) + m * rho_dot * r * cos
    return PhaseSpaceTrajectory(grid=grid, q=q, p=p)


def _substep_grid(plan: ErmakovPlan, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grid with each interval cut into k equal substeps of omega dt <= _OMEGA_DT.

    omega is bounded by omega_0 before the ramp, omega_f after it, and on
    any interval that overlaps the ramp by the scanned max |omega^2| or
    either end, whichever is larger.  k = 1 where the grid already resolves
    omega, and the points of grid stay exact points of the result.  The
    counts are summed as floats and held to the step ceiling (ConfigError)
    before any integer array is built, so they cannot wrap.  Returns the
    fine grid, grid itself where no interval is cut, and ends, the
    fine-grid index of each point of grid.
    """
    lo, hi = grid[:-1], grid[1:]
    w0_sq, wf_sq = plan.omega0**2, plan.omegaf**2
    ramp_sq = max(plan.max_abs_omega_sq, w0_sq, wf_sq)
    w_sq = np.where(hi <= 0.0, w0_sq, np.where(lo >= plan.tf, wf_sq, ramp_sq))
    k = np.maximum(1, np.ceil(np.sqrt(w_sq) * (hi - lo) / _OMEGA_DT))
    _require_steps(float(np.sum(k)), f"the trap's grid at omega dt <= {_OMEGA_DT}")
    ends = np.concatenate([[0], np.cumsum(k.astype(int))])  # fine-grid index of each grid point
    if ends[-1] == len(grid) - 1:  # no copy, so ends costs the sweep no memory
        return grid, ends
    return np.interp(np.arange(ends[-1] + 1), ends, grid), ends


def hamilton_trajectory(plan: ErmakovPlan, grid) -> PhaseSpaceTrajectory:
    """RK4 integration of Hamilton's equations with the planned omega^2(t).

    Starts from the closed-form point at grid[0] and never touches the
    invariant afterwards; the independent cross-check of the transport
    formulas.  The integration runs on _substep_grid, so a grid too coarse
    for omega gets substeps, and the states are returned at the points of
    grid.  The start and H are real, so the sweep is float64, bitwise the
    real parts of the complex one.
    """
    grid = _check_grid(grid)
    start = closed_form_trajectory(plan, grid[:1])
    x0 = np.array([start.q[0], start.p[0]])
    fine, ends = _substep_grid(plan, grid)
    at_grid = propagate(effective_hamiltonian(plan), x0, fine).states[ends]
    return PhaseSpaceTrajectory(
        grid=grid, q=at_grid[:, 0].real.copy(), p=at_grid[:, 1].real.copy()
    )


@dataclass(frozen=True)
class EnergyAudit:
    """Initial and final oscillator energy and their ratio."""

    e_initial: float
    e_final: float
    ratio: float


def energy_audit(plan: ErmakovPlan) -> EnergyAudit:
    """Energies at t = 0 and t = tf of the transported trajectory.

    ValueError with energy_claim_error's reason if they break the claim (a
    moving orbit whose E(0) is 0 does); the rest orbit's ratio is nan.
    """
    ends = closed_form_trajectory(plan, np.array([0.0, plan.tf]))
    e0, ef = (float(e) for e in ends.energy(plan))
    reason = energy_claim_error(plan, e0, ef)
    if reason is not None:
        raise ValueError(reason)
    return EnergyAudit(e_initial=e0, e_final=ef, ratio=ef / e0 if e0 else np.nan)
