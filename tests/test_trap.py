"""Invariant-based inverse engineering of the harmonic trap expansion.

Proves:
  - quintic plan: closed-form coefficients, boundary conditions, midpoint
  - Ermakov residual is an identity to roundoff, omega endpoints exact
  - invariant coefficients at ends and midpoint, unit determinant defect,
    eigenvalues -+i, invariance residual at roundoff relative to ||I||,
    residual grows linearly under an omega^2 perturbation; a time array
    gives the scalar calls' coefficients, matrices, eigenvalues and
    residuals elementwise
  - the effective Hamiltonian is bitwise (zero signs included) the
    nested-np.stack assembly it replaced
  - Lewis-Riesenfeld phases: constant-trap limit, log-amplitude imaginary
    part, shared quadrature with the trajectory angle (bit-identical)
  - phase integral over a grid: array and scalar calls bit-identical,
    accuracy independent of the output grid, order of the grid irrelevant,
    rho evaluated on O(len(grid) + 2001) points
  - closed-form trajectory: initial conditions, constant-trap circle,
    agreement with the independent Hamilton-equations run, reversibility;
    the Hamilton run substeps coarse grids and leaves resolved ones alone,
    reading its states at the fine-grid index of each grid point
  - energy audit: quoted initial energy, exact hundredfold drop, identity
    expansion, rest solution (no Python warning), transit is genuinely non-adiabatic
  - validation: bad spec values, inversion flag
  - one routine for rho and its derivatives: rho, rho', rho'', omega^2 and
    rho_final are bitwise the forms that take npoly.polyval and polyder,
    for scalar and array t inside and outside [0, tf], on random,
    replaced and subclassed plans; times before the ramp give omega_0 t
    bitwise and build no phase table
"""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sta import (
    ErmakovPlan,
    ExpansionSpec,
    closed_form_trajectory,
    effective_hamiltonian,
    energy_audit,
    hamilton_trajectory,
    invariance_residual,
    invariant_at,
    lr_phases,
    plan_expansion,
    propagate,
)
import sta.trap as trap_module
from sta.quadrature import _refine

TWO_PI = 2.0 * np.pi


def test_quintic_closed_form(expansion_plan):
    # rho(s) = 1 + (rho_f - 1)(10 s^3 - 15 s^4 + 6 s^5) with rho_f = 10
    np.testing.assert_allclose(expansion_plan.coeffs, [1.0, 0.0, 0.0, 90.0, -135.0, 54.0],
                               atol=1e-10)
    s = np.linspace(0.0, 1.0, 17)
    ref = 1.0 + 9.0 * (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)
    np.testing.assert_allclose(expansion_plan.rho(s * expansion_plan.tf), ref, rtol=1e-12)


def test_boundary_conditions(expansion_spec, expansion_plan):
    p, tf = expansion_plan, expansion_spec.tf
    assert abs(p.rho(0.0) - 1.0) < 1e-10
    assert abs(p.rho_dot(0.0)) < 1e-10
    assert abs(p.rho_ddot(0.0)) < 1e-10
    assert abs(p.rho(tf) - 10.0) < 1e-10
    assert abs(p.rho_dot(tf)) < 1e-7   # scaled by 1/tf
    assert abs(p.rho_ddot(tf)) < 1e-4  # scaled by 1/tf^2
    assert abs(p.rho_final - 10.0) < 1e-10


def test_rho_midpoint(expansion_spec, expansion_plan):
    np.testing.assert_allclose(expansion_plan.rho(expansion_spec.tf / 2.0), 5.5, rtol=1e-13)


def test_identity_expansion():
    spec = ExpansionSpec(omega0=TWO_PI * 50.0, omegaf=TWO_PI * 50.0, tf=0.01, mass=1e-25,
                         q0=1e-6)
    plan = plan_expansion(spec)
    ts = np.linspace(0.0, spec.tf, 101)
    np.testing.assert_allclose(plan.rho(ts), 1.0, atol=1e-12)
    np.testing.assert_allclose(plan.omega_sq(ts), spec.omega0**2, rtol=1e-9)
    assert not plan.trap_inverted


def test_omega_boundaries(expansion_spec, expansion_plan):
    w0, tf = expansion_spec.omega0, expansion_spec.tf
    wf = expansion_spec.omegaf
    np.testing.assert_allclose(expansion_plan.omega_sq(0.0), w0**2, rtol=1e-12)
    np.testing.assert_allclose(expansion_plan.omega_sq(tf), wf**2, rtol=1e-11)
    # clamped continuation outside the ramp
    np.testing.assert_allclose(expansion_plan.omega_sq(-1.0), w0**2, rtol=1e-12)
    np.testing.assert_allclose(expansion_plan.omega_sq(tf + 1.0), wf**2, rtol=1e-11)


def test_ermakov_residual(expansion_spec, expansion_plan):
    ts = np.linspace(0.0, expansion_spec.tf, 10001)
    rho = np.asarray(expansion_plan.rho(ts))
    res = np.abs(np.asarray(expansion_plan.rho_ddot(ts))
                 + np.asarray(expansion_plan.omega_sq(ts)) * rho
                 - expansion_spec.omega0**2 / rho**3)
    assert np.max(res) < 1e-9 * expansion_spec.omega0**2


def test_trap_stays_confining_by_default(expansion_plan):
    # omega^2 dips to ~67 rad^2/s^2 near the end of the ramp but stays positive
    assert 60.0 < expansion_plan.min_omega_sq < 70.0
    assert not expansion_plan.trap_inverted


def test_trap_inversion_flagged():
    # same expansion crammed into 1 ms needs a transiently expulsive trap
    spec = ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 2.5, tf=0.001,
                         mass=1.44e-25, q0=1e-6)
    plan = plan_expansion(spec)
    assert plan.min_omega_sq < 0.0
    assert plan.trap_inverted


def test_invariant_endpoints(expansion_spec, expansion_plan):
    m, w0 = expansion_spec.mass, expansion_spec.omega0
    inv0 = invariant_at(expansion_plan, 0.0)
    np.testing.assert_allclose(inv0.a, m * w0, rtol=1e-12)
    assert abs(inv0.b) < 1e-12  # b swings to ~2.4 mid-ramp, so this is a tight zero
    np.testing.assert_allclose(inv0.c, 1.0 / (m * w0), rtol=1e-12)
    invf = invariant_at(expansion_plan, expansion_spec.tf)
    np.testing.assert_allclose(invf.a, m * w0 / 100.0, rtol=1e-9)
    assert abs(invf.b) < 1e-9
    np.testing.assert_allclose(invf.c, 100.0 / (m * w0), rtol=1e-9)


def test_invariant_midpoint(expansion_spec, expansion_plan):
    tf, w0 = expansion_spec.tf, expansion_spec.omega0
    inv = invariant_at(expansion_plan, tf / 2.0)
    rho_dot_mid = 9.0 * 1.875 / tf  # quintic derivative at s = 1/2
    np.testing.assert_allclose(inv.b, -5.5 * rho_dot_mid / w0, rtol=1e-12)
    np.testing.assert_allclose(inv.b, -2.3634509049146386, rtol=1e-12)


def test_determinant_identity(expansion_spec, expansion_plan):
    worst = 0.0
    for t in np.linspace(0.0, expansion_spec.tf, 101):
        inv = invariant_at(expansion_plan, float(t))
        worst = max(worst, abs(inv.b**2 - inv.a * inv.c + 1.0))
    assert worst < 1e-12


def test_invariant_eigenvalues(expansion_spec, expansion_plan):
    inv = invariant_at(expansion_plan, expansion_spec.tf / 3.0)
    np.testing.assert_allclose(inv.eigenvalues, [-1j, 1j], atol=1e-12)
    np.testing.assert_allclose(np.trace(inv.matrix), 0.0, atol=1e-20)


def test_invariant_at_array_matches_scalar(expansion_spec, expansion_plan):
    ts = np.linspace(-0.2 * expansion_spec.tf, 1.2 * expansion_spec.tf, 101)
    inv = invariant_at(expansion_plan, ts)
    assert inv.a.shape == inv.b.shape == inv.c.shape == (101,)
    for i, t in enumerate(ts):
        one = invariant_at(expansion_plan, float(t))
        assert all(type(x) is float for x in (one.a, one.b, one.c))
        assert (one.a, one.b, one.c) == (inv.a[i], inv.b[i], inv.c[i])


def test_invariant_array_matrix_and_eigenvalues(expansion_spec, expansion_plan):
    ts = np.linspace(-0.2 * expansion_spec.tf, 1.2 * expansion_spec.tf, 7)
    inv = invariant_at(expansion_plan, ts)
    assert inv.matrix.shape == (7, 2, 2)
    assert inv.eigenvalues.shape == (7, 2)
    np.testing.assert_allclose(inv.eigenvalues, np.tile([-1j, 1j], (7, 1)), atol=1e-12)
    for i, t in enumerate(ts):
        one = invariant_at(expansion_plan, float(t))
        np.testing.assert_array_equal(inv.matrix[i], one.matrix)
        np.testing.assert_array_equal(inv.eigenvalues[i], one.eigenvalues)


def test_invariance_residual_array_matches_scalar(expansion_spec, expansion_plan):
    ts = np.linspace(-0.2 * expansion_spec.tf, 1.2 * expansion_spec.tf, 41)
    res = invariance_residual(expansion_plan, ts)
    assert res.shape == (41,)
    for i, t in enumerate(ts):
        one = invariance_residual(expansion_plan, float(t))
        assert type(one) is float and one == res[i]


def test_invariance_residual_roundoff(expansion_spec, expansion_plan):
    # the defect is pure floating-point noise: compare against ||I||, whose
    # SI-unit entries span ~45 orders of magnitude between a and c
    for t in np.linspace(0.0, expansion_spec.tf, 41):
        res = invariance_residual(expansion_plan, float(t))
        scale = np.linalg.norm(invariant_at(expansion_plan, float(t)).matrix)
        assert res < 1e-9 * scale


def test_invariance_residual_constant_trap():
    spec = ExpansionSpec(omega0=1.0, omegaf=1.0, tf=3.0, mass=1.0, q0=1.0)
    plan = plan_expansion(spec)
    res = invariance_residual(plan, 1.0)
    assert res < 1e-12


@dataclasses.dataclass(frozen=True)
class _ScaledOmegaPlan(ErmakovPlan):
    """Plan whose executed trap frequency misses the target by a fixed factor."""

    factor: float = 1.0

    def omega_sq(self, t):
        return self.factor * ErmakovPlan.omega_sq(self, t)


def _scaled_omega_plan(plan, factor):
    return _ScaledOmegaPlan(omega0=plan.omega0, omegaf=plan.omegaf, tf=plan.tf, mass=plan.mass,
                            coeffs=plan.coeffs, amplitude=plan.amplitude,
                            theta0=plan.theta0, factor=factor)


def test_plan_scans_its_own_omega_sq(expansion_plan):
    # a plan made by replace or by a subclass scans its own omega^2; none
    # carries the scan of the plan it was made from
    ts = np.linspace(0.0, expansion_plan.tf, 10001)
    steeper = plan_expansion(ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 0.25,
                                           tf=0.025, mass=1.44e-25, q0=1e-6))
    replaced = dataclasses.replace(expansion_plan, coeffs=steeper.coeffs)
    w2 = np.asarray(replaced.omega_sq(ts))
    assert replaced.min_omega_sq == float(np.min(w2)) != expansion_plan.min_omega_sq
    assert replaced.max_abs_omega_sq == float(np.max(np.abs(w2)))
    doubled = _scaled_omega_plan(expansion_plan, 2.0)
    assert doubled.min_omega_sq == 2.0 * expansion_plan.min_omega_sq
    assert doubled.max_abs_omega_sq == 2.0 * expansion_plan.max_abs_omega_sq


def _random_plans(n=6, seed=33):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield plan_expansion(ExpansionSpec(
            omega0=TWO_PI * rng.uniform(10.0, 500.0), omegaf=TWO_PI * rng.uniform(0.5, 600.0),
            tf=rng.uniform(1e-3, 0.3), mass=1.44e-25, q0=rng.normal(0.0, 1e-6)))


def _polyder_forms(plan, t):
    """rho, rho', rho'' and omega^2 by npoly.polyval, with polyder taken at each call.

    omega^2 carries a _ScaledOmegaPlan's factor, which is bitwise the identity at 1.
    """
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= plan.tf)
    s = np.clip(t / plan.tf, 0.0, 1.0)
    rho = npoly.polyval(s, plan.coeffs)
    rho_dot = np.where(inside, npoly.polyval(s, npoly.polyder(plan.coeffs)) / plan.tf, 0.0)
    rho_ddot = np.where(inside, npoly.polyval(s, npoly.polyder(plan.coeffs, 2)) / plan.tf**2,
                        0.0)
    w2 = getattr(plan, "factor", 1.0) * (plan.omega0**2 / rho**4 - rho_ddot / rho)
    return rho, rho_dot, rho_ddot, w2


def _ramp(plan, t):
    return plan.rho(t), plan.rho_dot(t), plan.rho_ddot(t), plan.omega_sq(t)


def test_ramp_quantities_are_bitwise_the_polyval_and_polyder_forms(expansion_plan):
    # a plan made by replace or by a subclass evaluates its own coefficients
    steeper = plan_expansion(ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 0.25,
                                           tf=0.025, mass=1.44e-25, q0=1e-6))
    replaced = dataclasses.replace(expansion_plan, coeffs=steeper.coeffs)
    for plan in [*_random_plans(), replaced, _scaled_omega_plan(steeper, 2.0)]:
        assert type(plan.rho_final) is float
        assert np.float64(plan.rho_final).tobytes() == npoly.polyval(1.0, plan.coeffs).tobytes()
        tf = plan.tf
        ts = np.concatenate([[-tf, -0.0, 0.0, tf, np.nextafter(tf, np.inf), 2.0 * tf],
                             np.random.default_rng(1).uniform(-0.5 * tf, 1.5 * tf, 257)])
        for x, y in zip(_ramp(plan, ts), _polyder_forms(plan, ts)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for t in [*ts[:12], 0.3 * tf]:  # numpy scalars, and a Python float
            for x, y in zip(_ramp(plan, t), _polyder_forms(plan, t)):
                assert type(x) is type(y) and np.shape(x) == np.shape(y) == ()
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_phase_integral_before_the_ramp_is_omega0_t_and_builds_no_table(monkeypatch):
    points = []
    rho = ErmakovPlan.rho
    monkeypatch.setattr(ErmakovPlan, "rho", lambda plan, t: points.append(np.size(t))
                        or rho(plan, t))
    for plan in _random_plans():
        before = np.linspace(-TWO_PI / plan.omega0, -1e-300, 101)
        points.clear()
        assert plan.phase_integral(before).tobytes() == (plan.omega0 * before).tobytes()
        assert plan.phase_integral(before[0]) == plan.omega0 * before[0]
        assert points == []
        # one time on the ramp builds the table for all; each value is still its own call's
        mixed = np.concatenate([before[::10], [0.0, 0.3 * plan.tf, plan.tf, 1.5 * plan.tf]])
        array = plan.phase_integral(mixed)
        assert len(points) == 2
        assert array[:11].tobytes() == (plan.omega0 * mixed[:11]).tobytes()
        np.testing.assert_array_equal(array, [plan.phase_integral(t) for t in mixed])


def test_invariance_residual_sensitivity():
    # natural units so the proportional growth is not buried in SI-scale noise
    spec = ExpansionSpec(omega0=1.0, omegaf=0.01, tf=3.0, mass=1.0, q0=1.0)
    plan = plan_expansion(spec)
    t = spec.tf / 3.0
    base = invariance_residual(plan, t)
    r1 = invariance_residual(_scaled_omega_plan(plan, 1.01), t)
    r2 = invariance_residual(_scaled_omega_plan(plan, 1.02), t)
    assert base < 1e-12
    assert r1 > 1e3 * max(base, 1e-18)
    np.testing.assert_allclose(r2 / r1, 2.0, rtol=1e-2)


def test_lr_phases_constant_trap():
    spec = ExpansionSpec(omega0=2.0, omegaf=2.0, tf=5.0, mass=1.0, q0=1.0, v0=0.0)
    plan = plan_expansion(spec)
    for t in (0.5, 2.0, 5.0):
        ap, am = lr_phases(plan, t)
        np.testing.assert_allclose(ap, +spec.omega0 * t, atol=1e-9)
        np.testing.assert_allclose(am, -spec.omega0 * t, atol=1e-9)


def test_lr_phases_expansion(expansion_spec, expansion_plan):
    ap, am = lr_phases(expansion_plan, expansion_spec.tf)
    np.testing.assert_allclose(ap.imag, np.log(10.0), rtol=1e-12)
    np.testing.assert_allclose(am.imag, np.log(10.0), rtol=1e-12)
    assert ap.real == -am.real
    np.testing.assert_allclose(ap.real, 8.324147378439363, rtol=1e-12)
    # same quadrature as the trajectory angle: bit-identical
    assert ap.real == expansion_plan.phase_integral(expansion_spec.tf)
    assert expansion_plan.theta(1.7 * expansion_spec.tf) - expansion_plan.theta0 == \
        lr_phases(expansion_plan, 1.7 * expansion_spec.tf)[0].real


def test_lr_phases_take_time_arrays(expansion_spec, expansion_plan):
    ts = np.array([-0.003, 0.0, 0.01, 0.02, expansion_spec.tf, 1.7 * expansion_spec.tf])
    ap, am = lr_phases(expansion_plan, ts)
    assert ap.shape == am.shape == ts.shape
    for i, t in enumerate(ts):
        sp, sm = lr_phases(expansion_plan, t)
        assert isinstance(sp, complex) and isinstance(sm, complex)
        assert ap[i] == sp and am[i] == sm


def test_phase_integral_linear_outside(expansion_spec, expansion_plan):
    w0, tf = expansion_spec.omega0, expansion_spec.tf
    np.testing.assert_allclose(expansion_plan.phase_integral(-0.003), -w0 * 0.003, rtol=1e-15)
    inside = expansion_plan.phase_integral(tf)
    np.testing.assert_allclose(expansion_plan.phase_integral(tf + 0.01) - inside,
                               (w0 / 100.0) * 0.01, rtol=1e-12)


def _cli_grid(spec, n_shortcut=2001, n_ellipse=501):
    """Display grid of `sta oscillator`: one period either side of the ramp."""
    lead = np.linspace(-TWO_PI / spec.omega0, 0.0, n_ellipse + 1)[:-1]
    ramp = np.linspace(0.0, spec.tf, n_shortcut)
    tail = np.linspace(spec.tf, spec.tf + TWO_PI / spec.omegaf, n_ellipse + 1)[1:]
    return np.concatenate([lead, ramp, tail])


def _reference_phase(plan, t, num=200_001):
    ts = np.linspace(0.0, t, num)
    y = 1.0 / plan.rho(ts) ** 2
    h = ts[1] - ts[0]
    return plan.omega0 * (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                                      + 2.0 * y[2:-1:2].sum())


def test_closed_form_angle_matches_scalar_theta(expansion_spec, expansion_plan):
    plan, grid = expansion_plan, _cli_grid(expansion_spec)
    pointwise = np.array([plan.theta(t) for t in grid])
    np.testing.assert_array_equal(plan.theta(grid), pointwise)
    # the trajectory built from the pointwise angles is the closed form, bit for bit
    rho, rho_dot, m, r = plan.rho(grid), plan.rho_dot(grid), expansion_spec.mass, plan.amplitude
    q = r * rho * np.cos(pointwise)
    p = (-(m * expansion_spec.omega0 / rho) * r * np.sin(pointwise)
         + m * rho_dot * r * np.cos(pointwise))
    traj = closed_form_trajectory(plan, grid)
    np.testing.assert_array_equal(traj.q, q)
    np.testing.assert_array_equal(traj.p, p)


@pytest.mark.parametrize("n_ramp", [2, 7])
def test_phase_accuracy_independent_of_grid(expansion_spec, expansion_plan, n_ramp):
    grid = np.linspace(0.0, expansion_spec.tf, n_ramp)
    ref = np.array([_reference_phase(expansion_plan, t) for t in grid])
    assert np.max(np.abs(expansion_plan.phase_integral(grid) - ref)) < 1e-10


def test_unsorted_grid_gives_sorted_values(expansion_spec, expansion_plan):
    grid = _cli_grid(expansion_spec, n_shortcut=101, n_ellipse=11)
    order = np.random.default_rng(3).permutation(len(grid))
    ordered = closed_form_trajectory(expansion_plan, grid)
    shuffled = closed_form_trajectory(expansion_plan, grid[order])
    np.testing.assert_array_equal(shuffled.q, ordered.q[order])
    np.testing.assert_array_equal(shuffled.p, ordered.p[order])


def test_closed_form_rho_evaluations_linear(monkeypatch, expansion_spec, expansion_plan):
    points = []
    rho = ErmakovPlan.rho

    def counted(plan, t):
        points.append(np.size(t))
        return rho(plan, t)

    monkeypatch.setattr(ErmakovPlan, "rho", counted)
    grid = _cli_grid(expansion_spec)
    closed_form_trajectory(expansion_plan, grid)
    assert sum(points) <= 4 * len(grid) + 2 * 2001


def test_closed_form_initial_conditions():
    spec = ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 2.5, tf=0.025,
                         mass=1.44e-25, q0=1e-6, v0=2e-3)
    plan = plan_expansion(spec)
    traj = closed_form_trajectory(plan, np.array([0.0, spec.tf]))
    np.testing.assert_allclose(traj.q[0], spec.q0, rtol=1e-12)
    np.testing.assert_allclose(traj.p[0] / spec.mass, spec.v0, rtol=1e-12)


def test_closed_form_circle_constant_trap():
    spec = ExpansionSpec(omega0=2.0, omegaf=2.0, tf=5.0, mass=1.5, q0=0.7, v0=0.4)
    plan = plan_expansion(spec)
    grid = np.linspace(0.0, 5.0, 301)
    traj = closed_form_trajectory(plan, grid)
    radius_sq = traj.q**2 + (traj.p / (spec.mass * spec.omega0)) ** 2
    np.testing.assert_allclose(radius_sq, plan.amplitude**2, rtol=1e-9)


def test_hamilton_constant_trap_cosine():
    spec = ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 250.0, tf=0.004,
                         mass=1.44e-25, q0=1e-6)
    plan = plan_expansion(spec)
    grid = np.linspace(0.0, spec.tf, 4001)
    traj = hamilton_trajectory(plan, grid)
    np.testing.assert_allclose(traj.q, spec.q0 * np.cos(spec.omega0 * grid),
                               atol=1e-9 * spec.q0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hamilton_rejects_non_finite_grid(expansion_plan, bad):
    with pytest.raises(ValueError, match="grid must be finite"):
        hamilton_trajectory(expansion_plan, [0.0, bad, 0.01])


def test_closed_form_matches_hamilton(expansion_spec, expansion_plan):
    grid = np.linspace(0.0, expansion_spec.tf, 2001)
    closed = closed_form_trajectory(expansion_plan, grid)
    oracle = hamilton_trajectory(expansion_plan, grid)
    assert np.max(np.abs(closed.q - oracle.q)) < 1e-6 * np.max(np.abs(closed.q))
    assert np.max(np.abs(closed.p - oracle.p)) < 1e-6 * np.max(np.abs(closed.p))


def test_hamilton_coarse_grid_is_substepped():
    # omega dt = pi/2 per display interval; the oracle must not depend on it
    spec = ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 250.0, tf=0.004,
                         mass=1.44e-25, q0=1e-6)
    plan = plan_expansion(spec)
    grid = np.linspace(0.0, spec.tf, 5)
    traj = hamilton_trajectory(plan, grid)
    np.testing.assert_allclose(traj.q, spec.q0 * np.cos(spec.omega0 * grid),
                               atol=1e-5 * spec.q0)


def test_substep_grid_holds_the_grid_points_at_ends(expansion_plan):
    # 4 intervals at omega dt = pi/2 cut into 63 substeps each; a resolved grid
    # is its own fine grid, with ends 0, 1, 2, ...
    spec = ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 250.0, tf=0.004,
                         mass=1.44e-25, q0=1e-6)
    plan = plan_expansion(spec)
    grid = np.linspace(0.0, spec.tf, 5)
    fine, ends = trap_module._substep_grid(plan, grid)
    assert np.array_equal(ends, 63 * np.arange(5)) and len(fine) == 253
    assert np.array_equal(fine[ends], grid) and np.all(np.diff(fine) > 0.0)
    oracle = hamilton_trajectory(plan, grid)
    start = closed_form_trajectory(plan, grid[:1])
    states = propagate(effective_hamiltonian(plan),
                       np.array([start.q[0], start.p[0]], dtype=complex), fine).states
    assert np.array_equal(oracle.q, states[ends, 0].real)
    assert np.array_equal(oracle.p, states[ends, 1].real)
    resolved = np.linspace(0.0, 0.01, 2001)
    fine, ends = trap_module._substep_grid(expansion_plan, resolved)
    assert fine is resolved and np.array_equal(ends, np.arange(2001))


def test_hamilton_resolved_grid_is_not_substepped(expansion_spec, expansion_plan):
    # the oscillator CLI's default grid already has omega dt < 0.1 everywhere
    w0, wf = expansion_spec.omega0, expansion_spec.omegaf
    grid = np.concatenate([np.linspace(-TWO_PI / w0, 0.0, 502)[:-1],
                           np.linspace(0.0, expansion_spec.tf, 2001),
                           np.linspace(expansion_spec.tf, expansion_spec.tf + TWO_PI / wf,
                                       502)[1:]])
    oracle = hamilton_trajectory(expansion_plan, grid)
    start = closed_form_trajectory(expansion_plan, grid[:1])
    plain = propagate(effective_hamiltonian(expansion_plan),
                      np.array([start.q[0], start.p[0]], dtype=complex), grid)
    assert np.array_equal(oracle.q, plain.states[:, 0].real)
    assert np.array_equal(oracle.p, plain.states[:, 1].real)


def test_hamilton_reversibility(expansion_spec, expansion_plan):
    grid = np.linspace(0.0, expansion_spec.tf, 4001)
    forward = hamilton_trajectory(expansion_plan, grid)
    hfun = effective_hamiltonian(expansion_plan)
    x_end = np.array([forward.q[-1], forward.p[-1]], dtype=complex)
    back = propagate(lambda t: -hfun(expansion_spec.tf - np.asarray(t)), x_end, grid)
    assert abs(back.states[-1, 0].real - forward.q[0]) < 1e-8 * np.max(np.abs(forward.q))
    assert abs(back.states[-1, 1].real - forward.p[0]) < 1e-8 * np.max(np.abs(forward.p))


def test_energy_audit(expansion_spec, expansion_plan):
    audit = energy_audit(expansion_plan)
    e0_expected = 0.5 * expansion_spec.mass * expansion_spec.omega0**2 * expansion_spec.q0**2
    np.testing.assert_allclose(audit.e_initial, e0_expected, rtol=1e-12)
    np.testing.assert_allclose(audit.e_initial, 1.7765287921960842e-31, rtol=1e-12)
    np.testing.assert_allclose(audit.ratio, 0.01, rtol=1e-9)


def test_energy_audit_identity_expansion():
    spec = ExpansionSpec(omega0=2.0, omegaf=2.0, tf=5.0, mass=1.0, q0=1.0)
    audit = energy_audit(plan_expansion(spec))
    np.testing.assert_allclose(audit.ratio, 1.0, rtol=1e-9)


def test_rest_solution_emits_no_warning():
    # the command line says that the orbit rests (diagnostics.oscillator_warning)
    spec = ExpansionSpec(omega0=2.0, omegaf=1.0, tf=5.0, mass=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = plan_expansion(spec)
    assert plan.amplitude == 0.0
    traj = closed_form_trajectory(plan, np.linspace(0.0, 5.0, 11))
    audit = energy_audit(plan)
    assert np.all(traj.q == 0.0) and np.all(traj.p == 0.0)
    assert audit.e_initial == 0.0 and np.isnan(audit.ratio)


def test_transit_is_not_adiabatic(expansion_spec, expansion_plan):
    # E/omega matches at the endpoints yet swings hard in between
    grid = np.linspace(0.0, expansion_spec.tf, 2001)
    traj = closed_form_trajectory(expansion_plan, grid)
    energy = traj.energy(expansion_plan)
    w = np.sqrt(np.asarray(expansion_plan.omega_sq(grid)))
    e_over_w = energy / w
    np.testing.assert_allclose(e_over_w[-1], e_over_w[0], rtol=1e-9)
    assert np.max(np.abs(e_over_w - e_over_w[0])) > 0.01 * e_over_w[0]


def test_spec_validation():
    for bad in (dict(omega0=0.0), dict(omegaf=-1.0), dict(tf=0.0), dict(mass=-1e-25)):
        kwargs = dict(omega0=1.0, omegaf=0.5, tf=1.0, mass=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ExpansionSpec(**kwargs)


def test_effective_hamiltonian_broadcast(expansion_spec, expansion_plan):
    hfun = effective_hamiltonian(expansion_plan)
    one = hfun(0.003)
    assert one.shape == (2, 2)
    many = hfun(np.linspace(0.0, 0.02, 7))
    assert many.shape == (7, 2, 2)
    np.testing.assert_array_equal(many[1], hfun(np.linspace(0.0, 0.02, 7)[1]))


@pytest.mark.parametrize("where", ["grid", 0.01, -0.001])
def test_effective_hamiltonian_bitwise_match_stacked_reference(expansion_spec, expansion_plan,
                                                               where):
    w0, wf, tf = expansion_spec.omega0, expansion_spec.omegaf, expansion_spec.tf
    grid = np.concatenate([np.linspace(-TWO_PI / w0, 0.0, 502)[:-1], np.linspace(0.0, tf, 2001),
                           np.linspace(tf, tf + TWO_PI / wf, 502)[1:]])
    t = _refine(grid) if where == "grid" else where
    m = expansion_spec.mass
    w2 = np.asarray(expansion_plan.omega_sq(t))
    zero = np.zeros_like(w2)
    top = np.stack([zero, np.full_like(w2, 1.0 / m)], axis=-1)
    bot = np.stack([-m * w2, zero], axis=-1)
    ref = 1j * np.stack([top, bot], axis=-2)
    got = effective_hamiltonian(expansion_plan)(t)
    assert got.shape == ref.shape and got.dtype == ref.dtype == complex
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), ref.view(np.uint64))
    if where == "grid":  # component-major: each entry one contiguous row
        assert got.transpose(1, 2, 0).flags.c_contiguous
