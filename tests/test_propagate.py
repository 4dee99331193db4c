"""Fixed-step RK4 propagation of two-component states.

Proves:
  - pure-decay analytic law to integrator precision
  - norm conservation for constant Hermitian generators
  - matrix-exponential oracle agreement for random constant non-Hermitian
    generators, single and paired runs
  - conserved biorthogonal overlap along the swept-atom scenario
  - branch projection: exactness, reconstruction, grid mismatch rejection;
    contracting with right one span at a time is bitwise the contraction
    with the conjugated left stack at span edges, and one branch's |c_n|
    from row n alone is bitwise the modulus of that column
  - transitionless driving keeps branch leakage tiny; the bare drive leaks
  - empirical convergence order ~4 and the 16x error drop per halving; the
    order is refused when the errors vanish
  - population bounds, monotone decay, non-finite and bad-grid rejection;
    the returned grid is read-only and the caller's stays writeable, and
    StateTrajectory, trap.PhaseSpaceTrajectory, BiorthoBasis and
    ErmakovPlan store read-only views, leaving the caller's grid, states,
    q, p, eigensystem and coefficients writeable; the last two take lists
  - the first non-finite step is named, inside and after the first span,
    and a non-finite initial state is named as such, before H is sampled
  - an overflowing chunk propagator neither breaks a finite sweep nor
    moves the step a blow-up is reported at, and a state that overflows
    inside a chunk whose propagator and later chunk starts stay finite is
    named at its step
  - H(t) is sampled in one call whose result must broadcast to (N, 2, 2):
    a constant 2x2 matrix works, any other shape is a ValueError naming
    it, and package errors from the callable reach the caller
  - the step-matrix RK4 matches a per-step vector RK4 reference, forward
    and adjoint, on sizes at chunk and span edges, and with spans of one
    chunk
  - the seam: _sweep_matrices sees A = -i H only through a sampler, fed
    here by fakes.  It calls the sampler once per span, in order, on the
    span's nodes, then its midpoints (the bits of _refine's); a float
    sampler gives float64 matrices and states, bitwise the per-step RK4 of
    the written-out step matrices, forward and adjoint; a complex span
    after float ones gives bitwise the states of the all-complex sweep
  - propagate's sampler (_generator) is bitwise -1j H from a C-ordered, a
    component-major or a constant H, and Im H as float64 for a real sweep
    while H has no real part, complex from the first H with a real part
    on; the step matrices built from a sample are bitwise the written-out
    RK4 expression, and the adjoint ones, built from the same array turned
    into -A^dag in place, bitwise those of the conjugate-transposed
    generator, with signed zeros, infinities and NaNs among the entries
    too; every ufunc of the step build that reads the generator or a dt
    factor acts on contiguous (B,) rows of one dtype
  - the component-wise 2x2 product of component-major stacks matches numpy's @
  - sampling H and building the step matrices one span at a time gives
    bitwise the states of one span over the whole grid, forward and paired,
    at span edges and with spans of one chunk; a grid of at most one span
    calls hfun once, the trap's 3,002-step sweep and a pair call it once
    per span on that span's nodes and midpoints, and a blow-up in a later
    span is named at the same step
  - a real start under an H with no real part is swept in float64: step
    matrices and states bitwise the real parts of the complex sweep (of a
    fake sampler of -1j H), whose imaginary parts are zero, on the trap's
    default plan (and as a pair), two configs whose oracle is
    under-resolved, the rest orbit, ff_hz 1e5, an identity ramp and 40
    random plans, and on pure decay; a blow-up is
    named at the same step in both dtypes; a span with a real part casts
    the sweep to complex, bitwise the all-complex sweep; the atom's bare
    drive from [0, 1] and a complex start stay complex
  - the trap's default Hamilton sweep peaks under 0.47 MB
  - a 15,915-step sweep of the corrected atom drive stays under a 1.60 MB
    peak, and a pair under 2.62 MB: no full-length H stack or generator is
    held, a pair turns each span's generator into -A^dag in place, and the
    states are allocated after the scan's chunk pass; building its step
    matrices holds under 0.55 MB beside them, and a span's step build no
    more than its own twelve rows, so numpy allocates no cast or iteration
    buffers
"""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sta import (
    BiorthoBasis,
    ErmakovPlan,
    MixingAngleTrajectory,
    NonFiniteState,
    StateTrajectory,
    ZeroGap,
    adiabatic_basis,
    bare_hamiltonian,
    branch_projection,
    cd_hamiltonian,
    constant_schedule,
    convergence_order,
    mixing_angle_trajectory,
    propagate,
    propagate_pair,
)
import sta.cli as cli_module
import sta.trap as trap_module
from sta.propagate import (_adjoint_generator, _chunk_width, _generator, _matmul_2x2, _rk4,
                           _step_block, _sweep_matrices)
from sta.quadrature import _refine

quadrature_module = sys.modules["sta.quadrature"]

RNG = np.random.default_rng(23)


def _per_span(n):
    """Steps per span of an n-step sweep: whole chunks, at most _SPAN, at least one chunk."""
    width = _chunk_width(n)
    return width * max(1, quadrature_module._SPAN // width)


def _sampler(afun):
    """A fake sweep sampler: afun(times), A as a (len(times), 2, 2) stack, component-major.

    The result is a fresh C-ordered (2, 2, len(times)) array of afun's dtype.
    """
    def sample(times):
        return np.broadcast_to(afun(times), (len(times), 2, 2)).transpose(1, 2, 0).copy()

    return sample


def test_pure_decay_analytic():
    g = 2.0 * np.pi * 0.002
    s = constant_schedule(0.0, 0.0, g, window=(0.0, 80.0))
    grid = s.grid(0.01)
    traj = propagate(lambda t: bare_hamiltonian(s, t), [0.0, 1.0], grid)
    assert np.max(np.abs(traj.p2 - np.exp(-g * grid))) < 1e-9
    np.testing.assert_allclose(traj.p2[-1], 0.3659, atol=2e-4)
    assert np.all(np.diff(traj.norm2) <= 1e-15)  # monotone under pure decay


def test_constant_hermitian_norm():
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    h = m + m.conj().T
    psi0 = np.array([0.6, 0.8j])
    # eigenvalues reach ~4, so dt must be small for truncation to sit below 1e-10
    traj = propagate(lambda t: h, psi0, np.linspace(0.0, 5.0, 8001))
    assert np.max(np.abs(traj.norm2 - 1.0)) < 1e-10


def test_matrix_exponential_oracle():
    h = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    psi0 = np.array([1.0, 0.5 - 0.2j], dtype=complex)
    psi0 /= np.linalg.norm(psi0)
    grid = np.linspace(0.0, 2.0, 801)
    traj = propagate(lambda t: h, psi0, grid)
    for k in (200, 800):
        exact = scipy.linalg.expm(-1j * h * grid[k]) @ psi0
        assert np.linalg.norm(traj.states[k] - exact) < 1e-8


def test_pair_overlap_random_constant():
    h = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    psi0 = np.array([1.0, -0.3 + 0.4j], dtype=complex)
    psihat0 = np.array([0.2j, 1.1], dtype=complex)
    psihat0 /= np.conj(np.vdot(psihat0, psi0))  # <psihat|psi> = 1
    grid = np.linspace(0.0, 2.0, 801)
    traj = propagate_pair(lambda t: h, psi0, psihat0, grid)
    assert np.max(np.abs(traj.biorth_overlap - 1.0)) < 1e-10
    exact = scipy.linalg.expm(-1j * h * grid[-1]) @ psi0
    exact_hat = scipy.linalg.expm(-1j * h.conj().T * grid[-1]) @ psihat0
    assert np.linalg.norm(traj.states[-1] - exact) < 1e-8
    assert np.linalg.norm(traj.adjoint_states[-1] - exact_hat) < 1e-8


def test_pair_overlap_swept_atom(atom):
    grid = atom.grid(0.005)
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, grid))
    traj = propagate_pair(lambda t: bare_hamiltonian(atom, t),
                          basis.right[0, 0], basis.left[0, 0], grid)
    drift = np.max(np.abs(traj.biorth_overlap - traj.biorth_overlap[0]))
    assert drift < 1e-8


def test_branch_projection_exact(atom, atom_grid):
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, atom_grid))
    traj = StateTrajectory(grid=atom_grid.copy(), states=basis.right[:, 0, :].copy())
    c = branch_projection(traj, basis)
    assert np.max(np.abs(c[:, 0] - 1.0)) < 1e-13
    assert np.max(np.abs(c[:, 1])) < 1e-13


def test_branch_projection_grid_mismatch(atom, atom_grid):
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, atom_grid))
    # the second grid lies inside np.allclose's relative 1e-5: the default
    # corrected sweep read a leakage of 1.37e-5 on it, 5.1e-15 on its own grid
    for other in (np.linspace(0.0, 1.0, len(atom_grid)), atom_grid * (1 + 9e-6)):
        traj = StateTrajectory(grid=other, states=np.zeros((len(other), 2), dtype=complex))
        with pytest.raises(ValueError):
            branch_projection(traj, basis)


def test_transitionless_leakage(atom, atom_grid):
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, atom_grid))
    corrected = propagate(lambda t: cd_hamiltonian(atom, t), basis.right[0, 0], atom_grid)
    leak = np.abs(branch_projection(corrected, basis)[:, 1])
    assert np.max(leak) < 1e-5
    bare = propagate(lambda t: bare_hamiltonian(atom, t), basis.right[0, 0], atom_grid)
    assert np.max(np.abs(branch_projection(bare, basis)[:, 1])) > 0.05


def test_projection_reconstructs_state(atom, atom_grid):
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, atom_grid))
    traj = propagate(lambda t: cd_hamiltonian(atom, t), basis.right[0, 0], atom_grid)
    c = branch_projection(traj, basis)
    rebuilt = np.einsum("tn,tnj->tj", c, basis.right)
    assert np.max(np.abs(rebuilt - traj.states)) < 1e-10


def test_convergence_order_and_ratio(atom):
    hfun = lambda t: bare_hamiltonian(atom, t)
    order = convergence_order(hfun, [0.0, 1.0], atom.window, n0=256)
    assert 3.7 < order < 4.3
    runs = {}
    for n in (256, 512, 2048):
        runs[n] = propagate(hfun, [0.0, 1.0], np.linspace(*atom.window, n + 1)).states[-1]
    ratio = np.linalg.norm(runs[256] - runs[2048]) / np.linalg.norm(runs[512] - runs[2048])
    assert 2.0**3.7 < ratio < 2.0**4.3


def test_convergence_order_refuses_vanished_errors():
    # H = 0 leaves every run at psi0 exactly, so no error is left to compare
    with pytest.raises(ValueError, match="errors vanished; convergence order undefined"):
        convergence_order(lambda t: np.zeros((2, 2)), [0.6, 0.8], (0.0, 1.0), n0=4)


def test_population_bounds(atom, atom_grid):
    traj = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], atom_grid)
    assert np.all(traj.p1 >= 0.0) and np.all(traj.p2 >= 0.0)
    assert np.all(traj.norm2 <= 1.0 + 1e-9)


def test_non_finite_state_raises():
    h = np.diag([0.0, 1e8j])  # exploding anti-damping
    with pytest.raises(NonFiniteState, match=r"after step 11 of 16;"):
        propagate(lambda t: h, [0.0, 1.0], np.linspace(0.0, 16.0, 17))


# A real A from real starts is a float64 sweep, from the starts times i a
# complex one; both must name the same step
START_PHASES = pytest.mark.parametrize("phase", [1.0, 1j], ids=["real_sweep", "complex_sweep"])


@START_PHASES
def test_non_finite_state_names_step_past_first_block(phase):
    x = 0.4  # A = -i H = diag(0, x): each RK4 step multiplies psi_2 by growth
    growth = 1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
    expected = math.floor(math.log(sys.float_info.max) / math.log(growth)) + 1
    n = 3000
    assert _per_span(n) < expected < n  # overflows after the first span of steps
    h = np.diag([0.0, 1j * x])
    with pytest.raises(NonFiniteState, match=rf"forward state after step {expected} of {n};"):
        propagate(lambda t: h, np.array([0.0, 1.0]) * phase, np.linspace(0.0, float(n), n + 1))
    with pytest.raises(NonFiniteState, match=rf"adjoint state after step {expected} of {n};"):
        propagate_pair(lambda t: h.conj().T, np.array([1.0, 0.0]) * phase,
                       np.array([0.0, 1.0]) * phase, np.linspace(0.0, float(n), n + 1))


@pytest.mark.parametrize("psi0,psihat0,where", [
    ([np.nan, 1.0], [1.0, 0.0], "forward"),
    ([1.0, 0.0], [1.0, np.inf], "adjoint"),
    ([1.0, 0.0], [np.nan, 0.0], "adjoint"),
])
def test_non_finite_initial_state_is_named(psi0, psihat0, where):
    calls = []

    def hfun(t):
        calls.append(t)
        return np.eye(2, dtype=complex)

    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NonFiniteState, match=rf"non-finite {where} initial state"):
        propagate_pair(hfun, psi0, psihat0, grid)
    if where == "forward":
        with pytest.raises(NonFiniteState, match=r"non-finite forward initial state"):
            propagate(hfun, psi0, grid)
    assert calls == []  # both states are checked before H is sampled


# A = -i H = diag(0, 2e5) on unit steps: one RK4 step multiplies psi_2 by
# 1 + x + x^2/2 + x^3/6 + x^4/24 at x = 2e5, about 6.7e19, so a chunk
# propagator of the 4,000-step sweep (16 steps) overflows, while every step
# matrix stays finite
OVERFLOW_RATE = 2e5
OVERFLOW_H = np.diag([0.0, 1j * OVERFLOW_RATE])
OVERFLOW_GRID = np.linspace(0.0, 4000.0, 4001)
OVERFLOW_GROWTH = sum(OVERFLOW_RATE**k / math.factorial(k) for k in range(5))


@START_PHASES
def test_overflowing_chunk_propagator_keeps_finite_sweep(phase):
    # A = -i H as a real sweep's sampler returns it, or as a complex one does
    a = (-1j * OVERFLOW_H).real if phase == 1.0 else -1j * OVERFLOW_H
    [m] = _sweep_matrices(_sampler(lambda t: a), OVERFLOW_GRID)
    assert m.shape == (2, 2, 4000) and _chunk_width(4000) == 16
    assert m.dtype == (float if phase == 1.0 else complex)
    assert np.isfinite(m).all()
    np.testing.assert_allclose(m[1, 1, :16], OVERFLOW_GROWTH, rtol=1e-12)
    with np.errstate(over="ignore"):
        assert np.isinf(np.prod(m[1, 1, :16]))  # the first chunk's propagator
    traj = propagate(lambda t: OVERFLOW_H, np.array([1.0, 0.0]) * phase, OVERFLOW_GRID)
    assert traj.states.dtype == (float if phase == 1.0 else complex)
    assert np.all(traj.states[:, 0] == phase)
    assert np.all(traj.states[:, 1] == 0.0)


def _ramp_with_overflowing_rate(rate):
    """H with A = -i H = diag(1e-3 t / 4000, rate): a slow ramp beside a constant rate."""
    def hfun(t):
        h = np.zeros(np.shape(t) + (2, 2), dtype=complex)
        h[..., 0, 0] = 1j * 1e-3 * np.asarray(t) / 4000.0
        h[..., 1, 1] = 1j * rate
        return h

    return hfun


def test_overflowing_chunk_propagator_steps_its_own_chunk():
    # every chunk propagator's (1, 1) entry overflows, so each chunk of
    # psi = (1, 0) is stepped one M_k at a time; the ramp makes every chunk's
    # steps differ, so psi_1 matches the sweep without the overflowing rate,
    # whose propagators stay finite, only if each chunk steps its own matrices
    grid = OVERFLOW_GRID
    for run in (lambda h: propagate(h, [1.0, 0.0], grid).states,
                lambda h: propagate_pair(h, [1.0, 0.0], [1.0, 0.0], grid).adjoint_states):
        states = run(_ramp_with_overflowing_rate(OVERFLOW_RATE))
        reference = run(_ramp_with_overflowing_rate(0.0))
        assert np.all(states[:, 1] == 0.0)
        assert abs(math.log(abs(reference[-1, 0]))) > 1.9  # exp(+-2): the ramp counts
        np.testing.assert_allclose(states[:, 0], reference[:, 0], rtol=1e-13, atol=0.0)


def test_state_overflowing_inside_a_chunk_names_its_step():
    # A = diag(0, c): c = 1 over steps 16-19 of the second 16-step chunk, then
    # c = -1 over steps 20-27, so psi_2 = 1e307 passes the largest double and
    # falls back; the chunk's propagator, every chunk start and the last
    # state stay finite, and only the rows inside the chunk show the overflow
    def rate(t):
        return np.where((t >= 16.0) & (t < 20.0), 1.0,
                        np.where((t >= 20.0) & (t < 28.0), -1.0, 0.0))

    hfun = lambda t: np.diag([0.0, 1j]) * rate(t)[..., None, None]
    grid = np.linspace(0.0, 4000.0, 4001)
    [m] = _sweep_matrices(_sampler(lambda t: np.diag([0.0, 1.0]) * rate(t)[..., None, None]), grid)
    growth = m[1, 1, 16:32]
    assert _chunk_width(4000) == 16 and m.dtype == float
    assert 1e307 * np.prod(growth) < 1e306  # the second chunk's propagator
    with np.errstate(over="ignore"):
        step = 16 + int(np.argmax(np.isinf(1e307 * np.cumprod(growth)))) + 1
    assert 16 < step < 32
    with pytest.raises(NonFiniteState, match=rf"forward state after step {step} of 4000;"):
        propagate(hfun, [0.0, 1e307], grid)


@START_PHASES
def test_overflowing_chunk_propagator_names_sequential_step(phase):
    # 1e-300 * growth^k passes the largest double at k = 31, inside the second
    # chunk, after the first chunk's propagator has overflowed
    width = _chunk_width(4000)
    step = math.ceil((math.log(sys.float_info.max) - math.log(1e-300)) / math.log(OVERFLOW_GROWTH))
    assert width * math.log(OVERFLOW_GROWTH) > math.log(sys.float_info.max)
    assert width < step == 31 <= 2 * width
    start = np.array([1.0, 1e-300]) * phase
    with pytest.raises(NonFiniteState, match=r"forward state after step 31 of 4000;"):
        propagate(lambda t: OVERFLOW_H, start, OVERFLOW_GRID)
    with pytest.raises(NonFiniteState, match=r"adjoint state after step 31 of 4000;"):
        propagate_pair(lambda t: OVERFLOW_H.conj().T, np.array([1.0, 0.0]) * phase, start,
                       OVERFLOW_GRID)


def test_grid_validation():
    h = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([0.0]))
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([1.0, 0.5, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_must_be_finite(bad):
    # a NaN passes the increasing test (every comparison is False), and inf - inf is NaN
    h = np.eye(2, dtype=complex)
    grid = np.array([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="grid must be finite"):
        propagate(lambda t: h, [1.0, 0.0], grid)
    with pytest.raises(ValueError, match="grid must be finite"):
        propagate_pair(lambda t: h, [1.0, 0.0], [1.0, 0.0], grid)
    with pytest.raises(ValueError, match="grid must be finite"):
        propagate(lambda t: h, [1.0, 0.0], np.array([0.0, 1.0, bad]))


def test_caller_grid_stays_writeable():
    # the sweeps and the records built directly store read-only views, so
    # the caller's grid, states, q, p, eigensystem and coefficients stay writeable
    h = np.eye(2, dtype=complex)
    grid = np.linspace(0.0, 1.0, 11)
    states, q, p = np.ones((11, 2), dtype=complex), np.ones(11), np.zeros(11)
    for traj in (propagate(lambda t: h, [1.0, 0.0], grid),
                 propagate_pair(lambda t: h, [1.0, 0.0], [0.0, 1.0], grid),
                 StateTrajectory(grid=grid, states=states),
                 trap_module.PhaseSpaceTrajectory(grid=grid, q=q, p=p)):
        assert grid.flags.writeable
        assert not traj.grid.flags.writeable
        with pytest.raises(ValueError):
            traj.grid[0] = -1.0
        np.testing.assert_array_equal(traj.grid, grid)
    assert states.flags.writeable and q.flags.writeable and p.flags.writeable
    stored = (traj.q, traj.p, StateTrajectory(grid=grid, states=states).states)
    assert all(np.shares_memory(x, y) and not x.flags.writeable
               for x, y in zip(stored, (q, p, states)))

    def basis_and_plan(values, right, left, coeffs):
        return (BiorthoBasis(values=values, right=right, left=left),
                ErmakovPlan(omega0=1.0, omegaf=1.0, tf=1.0, mass=1.0, coeffs=coeffs,
                            amplitude=1.0, theta0=0.0))

    given = (np.array([1.0, -1.0], dtype=complex), np.eye(2, dtype=complex),
             np.eye(2, dtype=complex), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    basis, plan = basis_and_plan(*given)
    stored = (basis.values, basis.right, basis.left, plan.coeffs)
    assert all(y.flags.writeable for y in given)
    assert all(np.shares_memory(x, y) and not x.flags.writeable for x, y in zip(stored, given))
    basis, plan = basis_and_plan(*(y.tolist() for y in given))
    for x, y in zip((basis.values, basis.right, basis.left, plan.coeffs), given):
        assert isinstance(x, np.ndarray) and not x.flags.writeable
        np.testing.assert_array_equal(x, y)
    assert plan.rho_final == 1.0 and plan.min_omega_sq == 1.0


@pytest.mark.parametrize("layout", ["stack-time-last", "no-matrix-axes"])
def test_hamiltonian_of_wrong_shape_is_named(atom, layout):
    def hfun(t):
        h = bare_hamiltonian(atom, t)
        return h.transpose(1, 2, 0) if layout == "stack-time-last" else h[:, 0, 0]

    grid = atom.grid(0.05)
    n = 2 * len(grid) - 1  # nodes and midpoints
    shape = (2, 2, n) if layout == "stack-time-last" else (n,)
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}, which does not "
                                         rf"broadcast to \({n}, 2, 2\)"):
        propagate(hfun, [0.0, 1.0], grid)


def test_broadcasting_hamiltonian_error_propagates(atom):
    calls = []

    def gapless(t):
        calls.append(t)
        raise ZeroGap("gap closed")

    with pytest.raises(ZeroGap):
        propagate(gapless, [0.0, 1.0], atom.grid(0.05))
    assert len(calls) == 1


def _reference_rk4(hfun, psi0, grid):
    """Per-step vector RK4, the integrator the step-matrix scheme replaced."""
    y = np.asarray(psi0, dtype=complex)
    out = [y]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        dt = t1 - t0
        a0, am, a1 = (-1j * np.asarray(hfun(t), dtype=complex)
                      for t in (t0, 0.5 * (t0 + t1), t1))
        k1 = a0 @ y
        k2 = am @ (y + (0.5 * dt) * k1)
        k3 = am @ (y + (0.5 * dt) * k2)
        k4 = a1 @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    return np.array(out)


def test_step_matrix_rk4_matches_reference(atom):
    # non-uniform grid of 2,500 steps: a full span and a partial one
    u = np.linspace(0.0, 1.0, 2501)
    t0, t1 = atom.window
    grid = t0 + (t1 - t0) * (u + 0.2 * np.sin(2.0 * np.pi * u) / (2.0 * np.pi))
    assert np.ptp(np.diff(grid)) > 0.1 * np.diff(grid).min()  # genuinely non-uniform
    hfun = lambda t: bare_hamiltonian(atom, t)
    adjoint = lambda t: bare_hamiltonian(atom, t).conj().T
    psi0 = np.array([0.0, 1.0], dtype=complex)
    psihat0 = np.array([0.6, 0.8j])

    def close(states, ref):
        assert np.max(np.abs(states - ref)) <= 1e-13 * np.max(np.abs(ref))

    ref = _reference_rk4(hfun, psi0, grid)
    close(propagate(hfun, psi0, grid).states, ref)
    pair = propagate_pair(hfun, psi0, psihat0, grid)
    close(pair.states, ref)
    close(pair.adjoint_states, _reference_rk4(adjoint, psihat0, grid))


def _linear_hamiltonian(seed):
    """H(t) = H0 + t H1 with random non-Hermitian H0, H1; broadcasts over t."""
    rng = np.random.default_rng(seed)
    h0, h1 = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    return lambda t: h0 + np.asarray(t)[..., None, None] * h1


def _assert_pair_matches_reference(n):
    u = np.linspace(0.0, 1.0, n + 1)
    grid = 2.0 * (u + 0.1 * np.sin(2.0 * np.pi * u) / (2.0 * np.pi))
    hfun = _linear_hamiltonian(n)
    psi0 = np.array([0.6, 0.8j])
    psihat0 = np.array([1.0, -0.5 + 0.2j])
    pair = propagate_pair(hfun, psi0, psihat0, grid)
    for states, ref in ((pair.states, _reference_rk4(hfun, psi0, grid)),
                        (pair.adjoint_states,
                         _reference_rk4(lambda t: hfun(t).conj().T, psihat0, grid))):
        assert states.shape == (n + 1, 2)
        assert np.max(np.abs(states - ref)) <= 1e-13 * np.max(np.abs(ref))


# chunks hold ceil(sqrt(n / 16)) steps, one up to n = 16 and a new width past
# each 16 k^2 (1,024, 2,304 and 4,096 among them), and H is sampled and the
# step matrices built in spans of whole chunks, 1,530 steps at n = 1,530,
# 1,526 at 3,052 and 1,530 at 4,590: one, two and three spans, then a 1-step
# span past them.  The sizes around 9, 756, 763, 1,482 and 1,520, edges of
# earlier chunk widths and of the earlier 768-step build blocks, stay as
# partial-chunk cases.
SPAN_EDGES = {1530: 1, 3052: 2, 4590: 3}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 15, 16, 17, 755, 756, 757, 762, 763, 764,
                               1023, 1024, 1025, 1481, 1482, 1483, 1519, 1520, 1521,
                               1529, 1530, 1531, 2303, 2304, 2305, 3051, 3052, 3053,
                               4095, 4096, 4097, 4589, 4590, 4591])
def test_scan_matches_reference_at_chunk_and_block_edges(n):
    width = _chunk_width(n)
    assert n not in (16, 1024, 2304, 4096) or n == 16 * width**2
    assert n not in SPAN_EDGES or n == SPAN_EDGES[n] * _per_span(n)
    _assert_pair_matches_reference(n)


@pytest.mark.parametrize("n", [99, 100, 101])
def test_scan_matches_reference_with_one_chunk_per_block(monkeypatch, n):
    # a span smaller than a chunk still holds one whole chunk of 3 steps
    monkeypatch.setattr(quadrature_module, "_SPAN", 2)
    assert _chunk_width(n) == 3 == _per_span(n)
    _assert_pair_matches_reference(n)


def _written_out_step_matrices(a, steps):
    """RK4 step matrices from the out-of-place expression, block by block."""
    def matmul(x, y):
        out = np.empty(x.shape, dtype=complex)
        for j in range(2):
            out[:, :, j] = x[:, :, 0] * y[:, 0, j, None] + x[:, :, 1] * y[:, 1, j, None]
        return out

    blocks = []
    for s in range(0, len(steps), 1024):
        e = min(s + 1024, len(steps))
        dt = steps[s:e, None, None]
        a0, am, a1 = a[2 * s:2 * e:2], a[2 * s + 1:2 * e:2], a[2 * s + 2:2 * e + 1:2]
        k2 = am + (0.5 * dt) * matmul(am, a0)
        k3 = am + (0.5 * dt) * matmul(am, k2)
        k4 = a1 + dt * matmul(a1, k3)
        blocks.append(np.eye(2) + (dt / 6.0) * (a0 + 2.0 * (k2 + k3) + k4))
    return np.concatenate(blocks)


def pair_step_matrices(a, steps):
    """Forward and adjoint _step_block matrices of a (2 n + 1, 2, 2) generator stack, (n, 2, 2).

    Built as a pair sweep builds them: the forward ones from the component-major
    generator, then the adjoint ones from the same array turned into -A^dag in place.
    """
    g = component_major(a)
    ms = np.empty((2, 2, 2, len(steps)), dtype=a.dtype)
    _step_block(g, steps, ms[0])
    _step_block(_adjoint_generator(g), steps, ms[1])
    return [np.ascontiguousarray(m.transpose(2, 0, 1)) for m in ms]


def component_major(a):
    """The (2, 2, 2 n + 1) layout of _generator, nodes then midpoints, from a (2 n + 1, 2, 2)
    stack with nodes at [0::2] and midpoints at [1::2]."""
    return np.ascontiguousarray(np.concatenate([a[0::2], a[1::2]]).transpose(1, 2, 0))


def _nodes_then_midpoints(grid):
    """The times _generator samples on a span: its nodes, then its midpoints."""
    return np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])


@pytest.mark.parametrize("layout", ["C", "component-major", "constant"])
def test_sampler_is_component_major_bitwise(layout):
    # h is H on the times of a sample, as hfun returns it: a C-ordered stack,
    # a (B, 2, 2) view of (2, 2, B) memory, or one 2x2 matrix
    n = 50
    h = RNG.normal(size=(2 * n + 1, 2, 2)) + 1j * RNG.normal(size=(2 * n + 1, 2, 2))
    h[::3, 0, 1] = 0.0
    h[1::3, 1, 0] = -0.0
    _put_non_finite(h)
    if layout == "component-major":
        h = np.ascontiguousarray(h.transpose(1, 2, 0)).transpose(2, 0, 1)
    elif layout == "constant":
        h = h[5]
    times = np.linspace(0.0, 1.0, 2 * n + 1)
    a = _generator(lambda t: h, False)(times)
    assert a.shape == (2, 2, 2 * n + 1) and a.dtype == complex and a.flags.c_contiguous
    with np.errstate(invalid="ignore"):
        expected = np.broadcast_to(-1j * h, (2 * n + 1, 2, 2)).transpose(1, 2, 0)
    np.testing.assert_array_equal(a.view(np.uint64), _bits(expected))
    # a real sweep asks for float64 and gets it only while H has no real part
    assert _generator(lambda t: h, True)(times).dtype == complex
    imaginary = np.zeros(h.shape, dtype=complex)
    imaginary.imag = h.imag
    real = _generator(lambda t: imaginary, True)(times)
    assert real.dtype == float and real.shape == (2, 2, 2 * n + 1)
    expected = np.broadcast_to(imaginary.imag, (2 * n + 1, 2, 2)).transpose(1, 2, 0)
    np.testing.assert_array_equal(real.view(np.uint64), _bits(expected))
    with np.errstate(invalid="ignore"):
        # -i (i y) = y, to the sign of a zero
        complex_a = _generator(lambda t: imaginary, False)(times)
    assert complex_a.dtype == complex
    np.testing.assert_array_equal(real, complex_a.real)


def test_sweep_samples_nodes_then_midpoints():
    # the midpoints carry the bits of _refine's, the sample order is the nodes' then theirs
    grid = np.cumsum(RNG.uniform(0.1, 1.0, 40))
    afun, calls = _recording(lambda t: np.zeros((2, 2)))
    _sweep_matrices(_sampler(afun), grid)
    [times] = calls
    np.testing.assert_array_equal(times, _nodes_then_midpoints(grid))
    np.testing.assert_array_equal(times[len(grid):].view(np.uint64),
                                  _refine(grid)[1::2].view(np.uint64))


def _stepped(m, y0):
    """The states of y_{k+1} = M_k y_k for real (n, 2, 2) step matrices, one step at a time."""
    y, z = y0.tolist()
    out = [(y, z)]
    for (m00, m01), (m10, m11) in m.tolist():
        y, z = m00 * y + m01 * z, m10 * y + m11 * z
        out.append((y, z))
    return np.array(out)


def test_sweep_matrices_sampler_seam_contract(monkeypatch):
    # _sweep_matrices sees A = -i H only through its sampler.  At spans of two
    # steps the 13-step grid has 7 spans and one step per scan chunk, so the
    # scan steps one M_k at a time, as the reference does.
    monkeypatch.setattr(quadrature_module, "_SPAN", 2)
    n = 13
    grid = np.cumsum(RNG.uniform(0.1, 1.0, n + 1))
    assert _chunk_width(n) == 1 and _per_span(n) == 2
    a0, a1, b = np.random.default_rng(37).normal(size=(3, 2, 2))
    switch = grid[6]  # the spans from step 6 on are complex

    def real_a(t):
        return a0 + t[:, None, None] * a1

    def complex_a(t):
        return real_a(t) + 1j * np.where((t >= switch)[:, None, None], b, 0.0)

    psi0, psihat0 = np.array([0.6, 0.8]), np.array([1.0, -0.5])

    def sweep(sample):
        ms = _sweep_matrices(sample, grid, pair=True)
        return ms, (_rk4(ms[0], psi0, n), _rk4(ms[1], psihat0, n, adjoint=True))

    # one call per span, in order, on its nodes and then its midpoints
    afun, calls = _recording(real_a)
    ms, states = sweep(_sampler(afun))
    starts = range(0, n, 2)
    assert len(calls) == len(starts) == 7
    for times, s in zip(calls, starts):
        np.testing.assert_array_equal(times.view(np.uint64),
                                      _nodes_then_midpoints(grid[s:s + 3]).view(np.uint64))
    # a float sampler gives float64 matrices and states, bitwise those of the
    # per-step RK4 of the written-out step matrices, forward and adjoint
    assert all(x.dtype == float for x in (*ms, *states))
    a, steps = real_a(_refine(grid)), np.diff(grid)
    for x, generator, y0 in zip(states, (a, _minus_conj_transpose(a)), (psi0, psihat0)):
        reference = _stepped(_written_out_step_matrices(generator, steps).real, y0)
        np.testing.assert_array_equal(_bits(x), _bits(reference))
    # a complex span after float ones: bitwise the sweep that is complex throughout
    kinds = []

    def mixed_a(t):
        a = complex_a(t) if t.max() >= switch else real_a(t)
        kinds.append(a.dtype)
        return a

    mixed, mixed_states = sweep(_sampler(mixed_a))
    whole, whole_states = sweep(_sampler(complex_a))
    assert kinds == [float] * 2 + [complex] * 5
    assert all(x.dtype == complex for x in (*mixed, *whole, *mixed_states))
    for x, y in zip(mixed_states, whole_states):
        np.testing.assert_array_equal(_bits(x), _bits(y))


def _put_non_finite(stack):
    """Signed zeros, infinities and NaNs in a few entries of a (2 n + 1, 2, 2) stack."""
    for k, (i, j), z in ((5, (0, 1), complex(math.inf, 0.0)), (9, (1, 1), complex(-0.0, -math.inf)),
                         (24, (1, 0), complex(-math.inf, 2.0)), (31, (0, 0), complex(math.nan, 0.5)),
                         (46, (1, 1), complex(-0.0, math.nan)), (60, (0, 1), complex(-0.0, -0.0))):
        stack[k, i, j] = z


@pytest.mark.parametrize("n", [1, 10, 2500])
def test_step_matrices_bitwise(n):
    h = RNG.normal(size=(2 * n + 1, 2, 2)) + 1j * RNG.normal(size=(2 * n + 1, 2, 2))
    h[::3, 0, 1] = 0.0  # zeros of both signs, whose signs the adjoint may flip
    h[1::3, 1, 0] = -0.0
    steps = RNG.uniform(1e-3, 2e-3, n)

    def bits(m):
        return m.view(np.uint64)

    a = -1j * h
    forward, adjoint = pair_step_matrices(a, steps)
    # the adjoint generator -a^dag differs from -1j h^dag only in the signs of zeros
    adjoint_generator = -1j * h.conj().transpose(0, 2, 1)
    np.testing.assert_array_equal(bits(forward), bits(_written_out_step_matrices(a, steps)))
    np.testing.assert_array_equal(
        bits(adjoint), bits(_written_out_step_matrices(adjoint_generator, steps)))


@pytest.mark.parametrize("n", [1, 10, 17, 1530, 3053, 4591])
def test_sweep_matrices_are_component_major_with_identity_tail(n):
    # (2, 2, N) arrays, N the steps in whole chunks: column k is M_k, bitwise
    # the written-out expression across span edges, and the columns past the
    # last step are the identity, which the scan's last chunk steps through
    u = np.linspace(0.0, 1.0, n + 1)
    grid = u + 0.1 * np.sin(2.0 * np.pi * u) / (2.0 * np.pi)
    hfun = _linear_hamiltonian(n)
    width = _chunk_width(n)
    ms = _sweep_matrices(_sampler(lambda t: -1j * hfun(t)), grid, pair=True)
    a = -1j * hfun(_refine(grid))
    steps = np.diff(grid)
    for m, generator in zip(ms, (a, _minus_conj_transpose(a))):
        assert m.shape == (2, 2, math.ceil(n / width) * width) and m.flags.c_contiguous
        by_step = np.ascontiguousarray(m[:, :, :n].transpose(2, 0, 1))
        np.testing.assert_array_equal(by_step.view(np.uint64),
                                      _written_out_step_matrices(generator, steps).view(np.uint64))
        tail = m[:, :, n:].transpose(2, 0, 1)
        assert np.all(tail == np.eye(2))
        assert not np.signbit(tail.real).any() and not np.signbit(tail.imag).any()


def _minus_conj_transpose(a):
    """-a^dag of a (2 n + 1, 2, 2) stack made as _adjoint_generator makes it: real parts times -1."""
    out = a.copy()
    out.real *= -1.0
    return out.transpose(0, 2, 1)


def test_step_matrices_bitwise_with_non_finite_entries():
    # An infinity or a NaN in A reaches every product of its steps, and
    # inf times a dt factor cast to complex, dt + 0i, is a NaN, as in the
    # written-out expression: those steps blow up as its steps do, to the
    # bit, NaN payloads and signs too.  The adjoint's reference generator
    # is -A^dag made as _adjoint_generator makes it, the real parts
    # multiplied by -1, which keeps the signs of NaNs where negation flips them.
    n = 40
    a = -1j * (RNG.normal(size=(2 * n + 1, 2, 2)) + 1j * RNG.normal(size=(2 * n + 1, 2, 2)))
    a[::4, 0, 1] = complex(-0.0, 1.5)
    a[2::4, 1, 0] = complex(0.5, -0.0)
    _put_non_finite(a)
    steps = RNG.uniform(1e-3, 2e-3, n)
    with np.errstate(over="ignore", invalid="ignore"):
        forward, adjoint = pair_step_matrices(a, steps)
        expected = _written_out_step_matrices(a, steps)
        expected_adjoint = _written_out_step_matrices(_minus_conj_transpose(a), steps)
    finite = np.isfinite(forward).all(axis=(1, 2))
    assert np.isnan(forward).any() and 0 < finite.sum() < n
    np.testing.assert_array_equal(forward.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(adjoint.view(np.uint64), expected_adjoint.view(np.uint64))


def test_step_block_ufuncs_act_on_contiguous_rows_of_one_dtype():
    # every ufunc that reads the generator or a dt factor acts on contiguous
    # (B,) rows of one dtype, so numpy allocates no cast or iteration buffer:
    # a float dt factor multiplied into complex rows, or a product over a
    # (2, 2, B) stack or a strided view, would be recorded here
    calls = []

    class Recorded(np.ndarray):
        """An array whose ufunc calls record the dtype, shape and contiguity of each array operand."""

        def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
            calls.append([(x.dtype, x.shape, x.flags.c_contiguous)
                          for x in inputs + out if isinstance(x, np.ndarray)])
            plain = tuple(x.view(np.ndarray) if isinstance(x, Recorded) else x
                          for x in inputs + out)
            result = getattr(ufunc, method)(*plain[:len(inputs)], out=plain[len(inputs):] or None,
                                            **kwargs)
            if out:
                return out[0]
            return result.view(Recorded)

    b = 100
    g = component_major(RNG.normal(size=(2 * b + 1, 2, 2)) + 1j * RNG.normal(size=(2 * b + 1, 2, 2)))
    steps = RNG.uniform(1e-3, 2e-3, b)
    expected = np.empty((2, 2, b), dtype=complex)
    _step_block(g, steps, expected)
    # the span's columns of a sweep's matrices, as _sweep_matrices passes them
    m = np.empty((2, 2, b + 6), dtype=complex)
    _step_block(g.view(Recorded), steps.view(Recorded), m.view(Recorded)[:, :, 3:3 + b])
    np.testing.assert_array_equal(m[:, :, 3:3 + b].view(np.uint64), expected.view(np.uint64))
    assert len(calls) > 40
    for operands in calls:
        assert len({dtype for dtype, _, _ in operands}) == 1, operands
        assert all(shape == (b,) and contiguous for _, shape, contiguous in operands), operands


def test_step_matrices_add_identity_to_zero_off_diagonals():
    # a diagonal generator leaves signed zeros off the diagonal of every
    # product; I + ... turns each into +0.0, as the written-out expression
    # does.  With a positive real diagonal and -0.0 + 0i off it, the sum
    # before I has real part -0.0 off the diagonal, so adding +0.0 there counts.
    n = 40
    h = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = RNG.normal(size=(2, 2 * n + 1)) + 1j * RNG.normal(size=(2, 2 * n + 1))
    h[:, 0, 1] = complex(-0.0, -0.0)
    h[:, 1, 0] = complex(0.0, -0.0)
    steps = RNG.uniform(1e-3, 2e-3, n)
    a = -1j * h
    positive = np.zeros((2 * n + 1, 2, 2), dtype=complex)
    positive[:, 0, 0], positive[:, 1, 1] = RNG.uniform(0.1, 1.0, size=(2, 2 * n + 1))
    positive[:, 0, 1] = positive[:, 1, 0] = complex(-0.0, 0.0)
    for a, adjoint_generator in ((a, -1j * h.conj().transpose(0, 2, 1)),
                                 (positive, _minus_conj_transpose(positive))):
        for m, generator in zip(pair_step_matrices(a, steps), (a, adjoint_generator)):
            expected = _written_out_step_matrices(generator, steps)
            np.testing.assert_array_equal(m.view(np.uint64), expected.view(np.uint64))
            off = m[:, [0, 1], [1, 0]]
            assert not (np.signbit(off.real) | np.signbit(off.imag)).any()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
def test_matmul_2x2_matches_numpy(scale):
    a = scale * (RNG.normal(size=(2049, 2, 2)) + 1j * RNG.normal(size=(2049, 2, 2)))
    c = np.ascontiguousarray(a.transpose(1, 2, 0))
    g = component_major(a)
    # contiguous stacks, the node/midpoint views _step_block takes, and the
    # component-swapped nodes of an adjoint block
    nodes, mids = g[:, :, :1025], g[:, :, 1025:]
    swapped = nodes.transpose(1, 0, 2)
    for x, y in ((c[:, :, :1024], c[:, :, 1024:2048]), (mids, nodes[:, :, :1024]),
                 (mids, nodes[:, :, 1:]), (mids, swapped[:, :, 1:])):
        xs, ys = x.transpose(2, 0, 1), y.transpose(2, 0, 1)  # as (B, 2, 2) stacks
        bound = 1e-15 * (np.abs(xs) @ np.abs(ys))
        product = _matmul_2x2(x, y, np.empty(x.shape, dtype=complex))
        assert np.all(np.abs(product.transpose(2, 0, 1) - xs @ ys) <= bound)


def _warped_atom_grid(atom, n):
    u = np.linspace(0.0, 1.0, n + 1)
    t0, t1 = atom.window
    return t0 + (t1 - t0) * (u + 0.1 * np.sin(2.0 * np.pi * u) / (2.0 * np.pi))


def _bits(states):
    """The bits of an array in C order (einsum keeps a component-major operand's layout)."""
    return np.ascontiguousarray(states).view(np.uint64)


# n = k per_span - 1, k per_span and k per_span + 1 at the default span (1,530
# steps at these n), at spans of 100 steps, and at spans of one 5-step chunk
@pytest.mark.parametrize("span,ns", [(None, (4589, 4590, 4591)), (100, (299, 300, 301)),
                                     (4, (349, 350, 351))], ids=["default", "tile-100", "tile-4"])
def test_tiled_states_are_bitwise_one_tile(atom, monkeypatch, span, ns):
    if span is not None:
        monkeypatch.setattr(quadrature_module, "_SPAN", span)
    hfun = lambda t: cd_hamiltonian(atom, t)
    psi0, psihat0 = np.array([0.6, 0.8j]), np.array([1.0, -0.5 + 0.2j])
    for n in ns:
        per_span = _per_span(n)
        assert n > per_span and n % per_span in (0, 1, per_span - 1)
        grid = _warped_atom_grid(atom, n)
        tiled = propagate(hfun, psi0, grid)
        tiled_pair = propagate_pair(hfun, psi0, psihat0, grid)
        with monkeypatch.context() as m:
            m.setattr(quadrature_module, "_SPAN", 10 * n)  # one span over the whole grid
            whole = propagate(hfun, psi0, grid)
            whole_pair = propagate_pair(hfun, psi0, psihat0, grid)
        np.testing.assert_array_equal(_bits(tiled.states), _bits(whole.states))
        np.testing.assert_array_equal(_bits(tiled_pair.states), _bits(whole_pair.states))
        np.testing.assert_array_equal(_bits(tiled_pair.adjoint_states),
                                      _bits(whole_pair.adjoint_states))
        np.testing.assert_array_equal(_bits(tiled_pair.states), _bits(tiled.states))


def _recording(hfun):
    calls = []

    def record(t):
        calls.append(np.array(t))
        return hfun(t)

    return record, calls


@pytest.mark.parametrize("n", [1024, 1530])  # an order grid; the longest one-span grid
def test_one_span_grid_samples_once(atom, n):
    assert _per_span(n) >= n
    assert n != 1530 or _per_span(n + 1) < n + 1  # one more step makes two spans
    grid = _warped_atom_grid(atom, n)
    for run in (lambda h: propagate(h, [0.0, 1.0], grid),
                lambda h: propagate_pair(h, [0.0, 1.0], [1.0, 0.0], grid)):
        hfun, calls = _recording(lambda t: bare_hamiltonian(atom, t))
        run(hfun)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], _nodes_then_midpoints(grid))


def _assert_samples_each_span_once(calls, grid):
    n = len(grid) - 1
    per_span = _per_span(n)
    starts = range(0, n, per_span)
    assert len(calls) == len(starts)
    for times, s in zip(calls, starts):
        np.testing.assert_array_equal(times, _nodes_then_midpoints(grid[s:s + per_span + 1]))
    return len(calls)


def test_pair_samples_each_tile_once(atom):
    n = 3053  # spans of 1,526, 1,526 and 1 steps
    grid = _warped_atom_grid(atom, n)
    hfun, calls = _recording(lambda t: bare_hamiltonian(atom, t))
    propagate_pair(hfun, [0.0, 1.0], [1.0, 0.0], grid)
    assert _assert_samples_each_span_once(calls, grid) == 3


def _trap_display(params):
    """The plan and display grid of an oscillator config over the defaults."""
    params = {**cli_module.TRAP_DEFAULTS, **params}
    plan = cli_module._trap_plan(params)
    return plan, cli_module._display_grid(params, plan)[0]


def test_trap_sweep_samples_once_per_span(monkeypatch):
    # the oscillator's default 3,002-step Hamilton sweep: spans of 1,526 and 1,476 steps
    plan, grid = _trap_display({})
    fine, ends = trap_module._substep_grid(plan, grid)
    np.testing.assert_array_equal(fine[ends], grid)
    assert len(fine) - 1 == 3002
    hfun, calls = _recording(trap_module.effective_hamiltonian(plan))
    monkeypatch.setattr(trap_module, "effective_hamiltonian", lambda p: hfun)
    trap_module.hamilton_trajectory(plan, grid)
    assert _assert_samples_each_span_once(calls, fine) == 2


def _trap_sweep(params):
    """hfun, start point and fine grid of the Hamilton sweep of an oscillator config."""
    plan, grid = _trap_display(params)
    fine, _ = trap_module._substep_grid(plan, grid)
    start = trap_module.closed_form_trajectory(plan, grid[:1])
    return trap_module.effective_hamiltonian(plan), np.array([start.q[0], start.p[0]]), fine


def _assert_real_sweep_is_the_complex_sweep(hfun, x0, grid, pair=False):
    """A real sweep's step matrices and states are bitwise the real parts of the complex ones.

    The real matrices are those of propagate's sampler of a real sweep, the
    complex ones those of a fake sampler of -1j H, and the complex sweep also
    the scan of the real matrices cast to complex; its imaginary parts are
    zero.
    """
    n = len(grid) - 1
    x0 = np.asarray(x0, dtype=float)
    starts = (x0, x0[::-1].copy()) if pair else (x0,)
    reals = _sweep_matrices(_generator(hfun, True), grid, pair=pair)
    complexes = _sweep_matrices(_sampler(lambda t: -1j * hfun(t)), grid, pair=pair)
    if pair:
        traj = propagate_pair(hfun, *starts, grid)
        swept = (traj.states, traj.adjoint_states)
    else:
        swept = (propagate(hfun, x0, grid).states,)
    for k, (m, mc, y0, states) in enumerate(zip(reals, complexes, starts, swept)):
        assert m.dtype == states.dtype == float and mc.dtype == complex
        np.testing.assert_array_equal(_bits(m), _bits(mc.real))
        assert not mc.imag.any()
        reference = _rk4(mc, y0.astype(complex), n, adjoint=k == 1)
        np.testing.assert_array_equal(_bits(states), _bits(reference.real))
        assert not reference.imag.any()
        np.testing.assert_array_equal(_bits(_rk4(m.astype(complex), y0.astype(complex), n)),
                                      _bits(reference))


# the default plan, two configs whose oracle warns as under-resolved (one of
# several hundred periods, one strongly inverted ramp), the rest orbit, a
# 631,002-step sweep over 396 periods and an identity ramp, ff = f0
TRAP_CONFIGS = {
    "default": {},
    "f0-2388.8": {"f0_hz": 2388.8, "ff_hz": 14.75, "tf_ms": 249.1},
    "inverted": {"f0_hz": 20.8, "ff_hz": 0.588, "tf_ms": 0.257, "q0_um": -0.0053,
                 "v0_um_per_ms": 1.14, "n_shortcut": 2378, "n_ellipse": 128},
    "rest": {"q0_um": 0.0, "v0_um_per_ms": 0.0},
    "ff-1e5": {"ff_hz": 1e5},
    "identity": {"ff_hz": 250.0},
}


@pytest.mark.parametrize("name", list(TRAP_CONFIGS))
def test_real_sweep_is_bitwise_the_complex_sweep_on_trap_plans(name):
    hfun, x0, fine = _trap_sweep(TRAP_CONFIGS[name])
    assert x0.any() != (name == "rest")
    _assert_real_sweep_is_the_complex_sweep(hfun, x0, fine, pair=name == "default")


def test_real_sweep_is_bitwise_the_complex_sweep_on_random_plans():
    # 40 plans with f0, ff and tf each within 3x of the defaults, q0 and v0
    # normal, and 101-2,001 ramp and 11-501 display samples
    rng = np.random.default_rng(35)
    for _ in range(40):
        params = {key: cli_module.TRAP_DEFAULTS[key] * 10.0 ** rng.uniform(-0.5, 0.5)
                  for key in ("f0_hz", "ff_hz", "tf_ms")}
        params["q0_um"], params["v0_um_per_ms"] = rng.normal(size=2)
        params["n_shortcut"], params["n_ellipse"] = int(rng.integers(101, 2002)), int(
            rng.integers(11, 502))
        hfun, x0, fine = _trap_sweep(params)
        _assert_real_sweep_is_the_complex_sweep(hfun, x0, fine, pair=rng.uniform() < 0.25)


def test_real_sweep_turns_complex_at_the_first_span_with_a_real_part():
    # H = i Y(t) on the first span, then with a real part too from t = 2.5 on:
    # the real matrices are cast to complex once, and every state is bitwise
    # that of the sweep that was complex throughout
    n = 4000
    grid = np.linspace(0.0, 4.0, n + 1)
    assert _per_span(n) < n * 2.5 / 4.0
    linear = _linear_hamiltonian(7)

    def hfun(t):
        h = linear(t)
        return h.real * (np.asarray(t) >= 2.5)[..., None, None] + 1j * h.imag

    # the sampler of a real sweep: float64 on the first span, complex on the
    # last, and complex from then on, on the first span too
    sample = _generator(hfun, True)
    first, last = (_nodes_then_midpoints(span) for span in (grid[:_per_span(n) + 1], grid[-3:]))
    assert sample(first).dtype == float
    assert sample(last).dtype == sample(first).dtype == complex
    psi0, psihat0 = np.array([0.6, 0.8]), np.array([1.0, -0.5])
    traj = propagate(hfun, psi0, grid)
    pair = propagate_pair(hfun, psi0, psihat0, grid)
    [m] = _sweep_matrices(_sampler(lambda t: -1j * hfun(t)), grid)
    _, adjoint = _sweep_matrices(_sampler(lambda t: -1j * hfun(t)), grid, pair=True)
    reference = _rk4(m, psi0.astype(complex), n)
    assert traj.states.dtype == pair.states.dtype == pair.adjoint_states.dtype == complex
    np.testing.assert_array_equal(_bits(traj.states), _bits(reference))
    np.testing.assert_array_equal(_bits(pair.states), _bits(reference))
    np.testing.assert_array_equal(
        _bits(pair.adjoint_states), _bits(_rk4(adjoint, psihat0.astype(complex), n, adjoint=True)))


def test_real_sweep_needs_real_starts_and_an_h_with_no_real_part(atom, atom_grid):
    # the bare drive has a real part (the detuning and the Rabi frequency), so
    # rap's real start [0, 1] is swept in complex; pure decay, H = -i Gamma/2
    # on the upper level, and a complex start under it are not both real
    bare = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], atom_grid)
    assert bare.states.dtype == complex
    decay = constant_schedule(0.0, 0.0, 0.01, window=(0.0, 10.0))
    hfun = lambda t: bare_hamiltonian(decay, t)
    grid = decay.grid(0.01)
    assert propagate(hfun, [0.0, 1.0], grid).states.dtype == float
    assert propagate(hfun, [0.0, 1j], grid).states.dtype == complex
    pair = propagate_pair(hfun, [0.0, 1.0], [0.5j, 1.0], grid)
    assert pair.states.dtype == pair.adjoint_states.dtype == complex
    _assert_real_sweep_is_the_complex_sweep(hfun, [0.3, 1.0], grid, pair=True)


@pytest.mark.parametrize("tile", [None, 100])
def test_blow_up_in_later_tile_names_same_step(monkeypatch, tile):
    if tile is not None:
        monkeypatch.setattr(quadrature_module, "_SPAN", tile)
    n = 12000
    # A = -i H = diag(0, 40) from t = 9000.25 on: psi_2 grows by ~1.2e5 per
    # step from step 9000, in the sixth span or later, and overflows ~61 steps
    # on; under -i H^dag = diag(0, -40) the unit steps are unstable, and the
    # adjoint psi_hat_2 overflows a step later
    hfun = lambda t: np.diag([0.0, 40j]) * (np.asarray(t) >= 9000.25)[..., None, None]
    grid = np.linspace(0.0, float(n), n + 1)
    assert 5 * _per_span(n) <= 9000

    def message(run):
        with pytest.raises(NonFiniteState) as info:
            run()
        return str(info.value)

    forward = lambda: propagate(hfun, [0.0, 1.0], grid)
    adjoint = lambda: propagate_pair(hfun, [1.0, 0.0], [0.0, 1.0], grid)
    tiled = message(forward), message(adjoint)
    monkeypatch.setattr(quadrature_module, "_SPAN", 10 * n)
    assert tiled == (message(forward), message(adjoint))
    for text in tiled:
        step = int(re.search(r"state after step (\d+) of 12000;", text).group(1))
        assert 9000 < step < 9100


def _traced_peak(run):
    """tracemalloc's peak over one call of run, after an untraced first call."""
    run()
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_long_sweep_holds_no_full_length_stack(atom):
    grid = atom.grid(1e-3)
    assert len(grid) - 1 == 15915
    hfun = lambda t: cd_hamiltonian(atom, t)
    peak, _ = _traced_peak(lambda: propagate(hfun, [0.0, 1.0], grid))
    # full-length stacks held about 5.3 MB: H and its sum terms, 2 MB each, and
    # -iH; 4,096-step tiles 2.14 MB, 1,536-step spans 1.69 MB beside the 1 MB
    # of step matrices, 1.66 MB with the states allocated after the scan's
    # chunk pass, when the peak was one span's transient beside the step
    # matrices; 1.57 MB with the span built one component entry at a time,
    # when the peak is the scan's: the step matrices beside the 0.51 MB of states
    assert peak < 1.60e6


def test_long_pair_sweep_holds_one_generator_per_span(atom):
    grid = atom.grid(1e-3)
    hfun = lambda t: cd_hamiltonian(atom, t)
    peak, _ = _traced_peak(lambda: propagate_pair(hfun, [0.0, 1.0], [0.0, 1.0], grid))
    # 2.88 MB with two negated-conjugate copies of each span's generator for
    # the adjoint sweep; 2.68 MB with the span's own generator turned into
    # -A^dag in place after the forward matrices are built, 2.59 MB with the
    # span built one component entry at a time
    assert peak < 2.62e6


def test_sweep_matrix_build_holds_one_span_beside_the_matrices(atom):
    # the atom's 15,915 steps in 11 spans of 1,536: beside the 1.02 MB of step
    # matrices a span held 0.64 MB while numpy's iterator buffers cast and
    # strode over (2, 2, B) stacks, 0.51 MB built one component entry at a
    # time into a span block that was then copied into the matrices, and
    # 0.42 MB built straight into them: its H and A, then A and the step
    # build's own rows
    grid = atom.grid(1e-3)
    sample = _generator(lambda t: cd_hamiltonian(atom, t), False)
    peak, ms = _traced_peak(lambda: _sweep_matrices(sample, grid))
    assert sum(m.nbytes for m in ms) == 1_019_904
    assert peak - sum(m.nbytes for m in ms) < 0.46e6


def test_step_block_holds_only_its_rows():
    # a 1,536-step span built into its columns of the matrices: k3 (4 rows of
    # B complex), two of the three dt factors, k4's entry and one scratch row
    # make 8 rows; k2 held apart from the matrices would add 4, and numpy's
    # cast and iteration buffers, 432 KB in all before the build went entry
    # by entry, more
    b = 1536
    a = component_major(RNG.normal(size=(2 * b + 1, 2, 2)) + 1j * RNG.normal(size=(2 * b + 1, 2, 2)))
    steps = RNG.uniform(1e-3, 2e-3, b)
    out = np.empty((2, 2, b), dtype=complex)
    peak, _ = _traced_peak(lambda: _step_block(a, steps, out))
    assert peak < 8.5 * 16 * b


def test_trap_sweep_holds_its_real_matrices_and_states():
    # the default oscillator's 3,002-step Hamilton sweep: 624 KB complex, 408
    # KB in float64, its peak a span's complex H sample beside its real
    # generator and the real step matrices
    plan, grid = _trap_display({})
    peak, _ = _traced_peak(lambda: trap_module.hamilton_trajectory(plan, grid))
    assert peak < 0.47e6


def test_overlap_requires_pair(atom, atom_grid):
    traj = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], atom_grid)
    with pytest.raises(ValueError):
        traj.biorth_overlap


@pytest.mark.parametrize("span", [None, 5])
def test_branch_projection_is_bitwise_left_conj_contraction(atom, monkeypatch, span):
    # the first span less one point, one span, one span and a point and two
    # spans and a point of the atom's 15,916-point grid, and all of it: 11
    # spans of 1,536 points at the default span, 3,184 of 5 at a span of 5
    if span is not None:
        monkeypatch.setattr(quadrature_module, "_SPAN", span)
    size = quadrature_module._SPAN
    full = mixing_angle_trajectory(atom, atom.grid(1e-3))
    rng = np.random.default_rng(5)
    for points in (size - 1, size, size + 1, 2 * size + 1, len(full.grid)):
        grid = full.grid[:points]
        basis = adiabatic_basis(atom, MixingAngleTrajectory(grid, full.alpha[:points]))
        parts = rng.normal(size=(2, points, 2))
        traj = StateTrajectory(grid=grid, states=parts[0] + 1j * parts[1])
        ref = np.einsum("tnj,tj->tn", basis.left.conj(), traj.states)
        np.testing.assert_array_equal(_bits(branch_projection(traj, basis)), _bits(ref))
        # one branch: |c_n| alone, from row n of each span
        for n in (0, 1):
            np.testing.assert_array_equal(_bits(branch_projection(traj, basis, n)),
                                          _bits(np.abs(ref[:, n])))
    with pytest.raises(ValueError, match="branch must be 0, 1 or None"):
        branch_projection(traj, basis, 2)
