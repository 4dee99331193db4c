"""Fixed-step RK4 propagation of two-component states.

Proves:
  - pure-decay analytic law to integrator precision
  - norm conservation for constant Hermitian generators
  - matrix-exponential oracle agreement for random constant non-Hermitian
    generators, single and paired runs
  - conserved biorthogonal overlap along the swept-atom scenario
  - branch projection: exactness, reconstruction, grid mismatch rejection
  - transitionless driving keeps branch leakage tiny; the bare drive leaks
  - empirical convergence order ~4 and the 16x error drop per halving
  - population bounds, monotone decay, non-finite and bad-grid rejection
  - the first non-finite step is named, inside and after the first block,
    and a non-finite initial state is named as such
  - an overflowing chunk propagator neither breaks a finite sweep nor
    moves the step a blow-up is reported at
  - pointwise fallback for Hamiltonian callables that cannot broadcast,
    and package errors from a broadcasting callable reach the caller
  - the blocked step-matrix RK4 matches a per-step vector RK4 reference,
    forward and adjoint, on sizes at chunk and block edges
  - the step matrices are bitwise the written-out RK4 expression, and the
    adjoint ones bitwise those of the conjugate-transposed generator
  - the component-wise 2x2 stack product matches numpy's @
"""

import math
import sys

import numpy as np
import pytest
import scipy.linalg

from sta import (
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
from sta.propagate import _matmul_2x2, _step_matrices

RNG = np.random.default_rng(23)


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
    other = np.linspace(0.0, 1.0, len(atom_grid))
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


def test_population_bounds(atom, atom_grid):
    traj = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], atom_grid)
    assert np.all(traj.p1 >= 0.0) and np.all(traj.p2 >= 0.0)
    assert np.all(traj.norm2 <= 1.0 + 1e-9)


def test_non_finite_state_raises():
    h = np.diag([0.0, 1e8j])  # exploding anti-damping
    with pytest.raises(NonFiniteState, match=r"after step 11 of 16;"):
        propagate(lambda t: h, [0.0, 1.0], np.linspace(0.0, 16.0, 17))


def test_non_finite_state_names_step_past_first_block():
    x = 0.4  # A = -i H = diag(0, x): each RK4 step multiplies psi_2 by growth
    growth = 1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
    expected = math.floor(math.log(sys.float_info.max) / math.log(growth)) + 1
    n = 3000
    assert 1024 < expected < n  # overflows after the first block of steps
    h = np.diag([0.0, 1j * x])
    with pytest.raises(NonFiniteState, match=rf"forward state after step {expected} of {n};"):
        propagate(lambda t: h, [0.0, 1.0], np.linspace(0.0, float(n), n + 1))
    with pytest.raises(NonFiniteState, match=rf"adjoint state after step {expected} of {n};"):
        propagate_pair(lambda t: h.conj().T, [1.0, 0.0], [0.0, 1.0],
                       np.linspace(0.0, float(n), n + 1))


@pytest.mark.parametrize("psi0,psihat0,where", [
    ([np.nan, 1.0], [1.0, 0.0], "forward"),
    ([1.0, 0.0], [1.0, np.inf], "adjoint"),
])
def test_non_finite_initial_state_is_named(psi0, psihat0, where):
    h = np.eye(2, dtype=complex)
    with pytest.raises(NonFiniteState, match=rf"non-finite {where} initial state"):
        propagate_pair(lambda t: h, psi0, psihat0, np.linspace(0.0, 1.0, 11))


# A = -i H = diag(0, 40) on unit steps: psi_2 grows by ~1.2e5 per step, so a
# 64-step chunk propagator overflows after 61 steps
OVERFLOW_H = np.diag([0.0, 40j])
OVERFLOW_GRID = np.linspace(0.0, 4000.0, 4001)


def test_overflowing_chunk_propagator_keeps_finite_sweep():
    traj = propagate(lambda t: OVERFLOW_H, [1.0, 0.0], OVERFLOW_GRID)
    assert np.all(traj.states[:, 0] == 1.0)
    assert np.all(traj.states[:, 1] == 0.0)


def test_overflowing_chunk_propagator_names_sequential_step():
    # 1e-300 * growth^k passes the largest double at k = 120, inside the second chunk
    with pytest.raises(NonFiniteState, match=r"forward state after step 120 of 4000;"):
        propagate(lambda t: OVERFLOW_H, [1.0, 1e-300], OVERFLOW_GRID)
    with pytest.raises(NonFiniteState, match=r"adjoint state after step 120 of 4000;"):
        propagate_pair(lambda t: OVERFLOW_H.conj().T, [1.0, 0.0], [1.0, 1e-300], OVERFLOW_GRID)


def test_grid_validation():
    h = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([0.0]))
    with pytest.raises(ValueError):
        propagate(lambda t: h, [1.0, 0.0], np.array([1.0, 0.5, 0.0]))


def test_scalar_only_hamiltonian_fallback(atom):
    def scalar_only(t):
        bool(t < 0)  # errors on array input, forcing the pointwise sampling path
        return bare_hamiltonian(atom, float(t))

    grid = atom.grid(0.05)
    a = propagate(scalar_only, [0.0, 1.0], grid)
    b = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], grid)
    np.testing.assert_array_equal(a.states, b.states)


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
    # non-uniform grid of 2,500 steps: two block boundaries and a partial block
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


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 1023, 1024, 1025, 4095, 4096, 4097])
def test_scan_matches_reference_at_chunk_and_block_edges(n):
    # chunks hold ceil(sqrt(n)) steps and the build works in 1,024-step blocks
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


@pytest.mark.parametrize("n", [1, 10, 2500])
def test_step_matrices_bitwise(n):
    h = RNG.normal(size=(2 * n + 1, 2, 2)) + 1j * RNG.normal(size=(2 * n + 1, 2, 2))
    h[::3, 0, 1] = 0.0  # zeros of both signs, whose signs the adjoint may flip
    h[1::3, 1, 0] = -0.0
    steps = RNG.uniform(1e-3, 2e-3, n)
    width = math.isqrt(n - 1) + 1

    def by_step(m):  # m[i, :, :, j] holds step j * width + i
        return m.transpose(3, 0, 1, 2).reshape(-1, 2, 2)

    def bits(m):
        return m[:n].view(np.uint64)

    a = -1j * h
    forward = by_step(_step_matrices(a, steps, width, adjoint=False))
    adjoint = by_step(_step_matrices(a, steps, width, adjoint=True))
    # the adjoint generator -a^dag differs from -1j h^dag only in the signs of zeros
    adjoint_generator = -1j * h.conj().transpose(0, 2, 1)
    np.testing.assert_array_equal(bits(forward), bits(_written_out_step_matrices(a, steps)))
    np.testing.assert_array_equal(
        bits(adjoint), bits(_written_out_step_matrices(adjoint_generator, steps)))
    assert np.all(forward[n:] == np.eye(2)) and np.all(adjoint[n:] == np.eye(2))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
def test_matmul_2x2_matches_numpy(scale):
    a = scale * (RNG.normal(size=(2049, 2, 2)) + 1j * RNG.normal(size=(2049, 2, 2)))
    # contiguous stacks, and the strided node/midpoint views _rk4 passes in
    for x, y in ((a[:1024], a[1024:2048]), (a[1::2], a[0:-1:2]), (a[1::2], a[2::2])):
        bound = 1e-15 * (np.abs(x) @ np.abs(y))
        assert np.all(np.abs(_matmul_2x2(x, y) - x @ y) <= bound)


def test_overlap_requires_pair(atom, atom_grid):
    traj = propagate(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0], atom_grid)
    with pytest.raises(ValueError):
        traj.biorth_overlap
