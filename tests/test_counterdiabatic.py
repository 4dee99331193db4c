"""Counterdiabatic Hamiltonian construction and phase shaping.

Proves:
  - bare Hamiltonian entries and spectral consistency
  - alpha_dot closed form: static zero, Hermitian reduction, center value,
    ZeroGap at coalescence
  - C(t): exactly real-free at the pulse center, pure imaginary when
    Gamma = 0, quoted center magnitude
  - structure of the corrected drives (trace, off-diagonal sum/difference,
    Hermitian truncation, truncation gap = |Re C|)
  - mixing angle: anchors, continuous 0 -> pi continuation through
    resonance, tan identity along the way, coarse-grid rejection; the
    trajectory freezes views, never the caller's grid, and refuses a grid
    and angle of different shapes
  - branch energies follow the continued angle and match the closed form
  - adiabatic phases: static law, decay law, conjugate partner
  - phase shaping: zero policy = plain correction, canonical policy
    rebuilds the full drive, off-diagonal obstruction for random policies
  - numerical eigenvector derivative and the spectral-data correction
    match the analytic route at O(h^2), follow a branch swap of the
    principal root, and decompose once per evaluation; a branch whose
    vector turns orthogonal across the step is a ZeroGap
  - every builder-backed Hamiltonian is bitwise (zero signs included) the
    nested-np.stack assembly it replaced, and component-major (each entry
    one contiguous row), and the in-place corrected drives
    are bitwise H_0 + H_1, also where Gamma = 0 leaves a -0.0 in H_0; each
    corrected drive samples the schedule once per call
  - H_0, alpha_dot and the corrected drive read with the constant rates as
    plain floats are bitwise the same as with every rate a full array
  - the mixing angle, summed span by span, is bitwise the one-evaluation
    angle at span edges, on small spans and on one time; the basis
    stores only sin(alpha/2) and cos(alpha/2) and builds its stacks on read,
    or one branch's row of them, bitwise the same values
  - transported branch states solve the corrected Schrodinger equation
"""

import dataclasses

import numpy as np
import pytest

from sta import (
    ChirpedGaussianParams,
    DegenerateSpectrum,
    MixingAngleTrajectory,
    XiPolicy,
    ZeroGap,
    adiabatic_basis,
    adiabatic_phase_values,
    alpha_dot,
    bare_hamiltonian,
    branch_energies,
    canonical_policy,
    cd_correction,
    cd_correction_numeric,
    cd_coupling,
    cd_hamiltonian,
    cd_hamiltonian_approx,
    chirped_gaussian,
    complex_rabi,
    constant_schedule,
    eigensystem_2x2,
    generic_adiabaticity_ratio,
    mixing_angle_anchor,
    mixing_angle_trajectory,
    mixing_angle_values,
    phase_shaped_hamiltonian,
    zero_policy,
)
import sta.biortho as biortho
from sta.biortho import _fd_spectrum
import sta.counterdiabatic as cdmod
import sta.quadrature as quadrature
from sta.pulses import PulseRates, PulseSchedule
from sta.quadrature import _cumulative_simpson, _refine

TWO_PI = 2.0 * np.pi


def test_bare_hamiltonian_entries(atom):
    h = bare_hamiltonian(constant_schedule(0.0, 0.0, 0.2), 0.0)
    np.testing.assert_allclose(h, np.diag([0.0, -0.1j]), atol=1e-15)
    h0 = bare_hamiltonian(atom, 0.0)
    np.testing.assert_allclose(
        h0, 0.5 * np.array([[0.0, TWO_PI * 0.1], [TWO_PI * 0.1, -1j * TWO_PI * 0.002]]),
        rtol=1e-15)
    np.testing.assert_allclose(h0[0, 1], 0.5 * 0.6283, atol=1e-4)


def test_bare_hamiltonian_batched(atom, atom_grid):
    batch = bare_hamiltonian(atom, atom_grid)
    assert batch.shape == (len(atom_grid), 2, 2)
    k = len(atom_grid) // 3
    np.testing.assert_allclose(batch[k], bare_hamiltonian(atom, float(atom_grid[k])), rtol=1e-15)


def test_alpha_dot_static_zero():
    assert alpha_dot(constant_schedule(0.3, 0.8, 0.1), 0.2) == 0.0


def test_alpha_dot_hermitian_reduction():
    # Gamma = 0 and Delta constant: alpha_dot = Omega_R' Delta / (Delta^2 + Omega_R^2)
    o0, a, d0 = 0.9, 0.04, 0.7

    def rates(t):
        e = np.exp(-a * np.asarray(t) ** 2)
        return PulseRates(np.full(np.shape(t), d0) if np.ndim(t) else d0, 0.0,
                          o0 * e, -2.0 * a * np.asarray(t) * o0 * e, 0.0, 0.0)

    s = PulseSchedule(rates=rates, window=(-20.0, 20.0))
    for t in (-3.0, 0.5, 4.0):
        r = s.rates(t)
        expected = r.rabi_dot * d0 / (d0**2 + r.rabi**2)
        got = alpha_dot(s, t)
        np.testing.assert_allclose(got, expected, rtol=1e-14)
        assert got.imag == 0.0


def test_alpha_dot_center(atom, atom_params):
    o0, g, b = atom_params.rabi_peak, atom_params.gamma, atom_params.chirp_b
    got = alpha_dot(atom, 0.0)
    np.testing.assert_allclose(got, 2.0 * b * o0 / (o0**2 - g**2 / 4.0), rtol=1e-14)
    assert got.imag == 0.0
    np.testing.assert_allclose(got.real, 0.031418, atol=5e-6)


def test_alpha_dot_zero_gap():
    with pytest.raises(ZeroGap):
        alpha_dot(constant_schedule(0.0, 0.5, 1.0), 0.0)


def test_cd_coupling_center(atom):
    c0 = cd_coupling(atom, 0.0)
    assert c0.real == 0.0  # exact: alpha_dot(0) is real by construction
    np.testing.assert_allclose(c0.imag, 0.015709, atol=1e-5)
    np.testing.assert_allclose(c0, 0.5j * alpha_dot(atom, 0.0), rtol=1e-15)


def test_cd_coupling_hermitian_limit(atom_params, atom_grid):
    lossless = chirped_gaussian(ChirpedGaussianParams(
        rabi_peak=atom_params.rabi_peak, width_a=atom_params.width_a,
        chirp_b=atom_params.chirp_b, gamma=0.0))
    c = np.asarray(cd_coupling(lossless, atom_grid))
    assert np.all(c.real == 0.0)
    h1 = cd_correction(lossless, 3.0)
    np.testing.assert_allclose(h1, h1.conj().T, atol=1e-15)


def test_cd_correction_structure(atom, atom_grid):
    h1 = cd_correction(atom, atom_grid)
    c = np.asarray(cd_coupling(atom, atom_grid))
    assert np.all(h1[:, 0, 0] == 0.0) and np.all(h1[:, 1, 1] == 0.0)
    np.testing.assert_array_equal(h1[:, 0, 1], c)
    np.testing.assert_array_equal(h1[:, 1, 0], -c)


def test_cd_hamiltonian_off_diagonals(atom, atom_grid):
    h = cd_hamiltonian(atom, atom_grid)
    np.testing.assert_allclose(h[:, 0, 1] + h[:, 1, 0], atom.rates(atom_grid).rabi,
                               rtol=1e-13, atol=1e-16)
    c = np.asarray(cd_coupling(atom, atom_grid))
    np.testing.assert_allclose(h[:, 0, 1] - h[:, 1, 0], 2.0 * c, rtol=1e-13)
    m12 = cd_hamiltonian(atom, 0.0)[0, 1]
    np.testing.assert_allclose(m12, (0.6283 + 0.031419j) / 2.0, atol=1e-4)


def test_approx_truncation(atom, atom_grid):
    exact = cd_hamiltonian(atom, atom_grid)
    approx = cd_hamiltonian_approx(atom, atom_grid)
    bare = bare_hamiltonian(atom, atom_grid)
    added = approx - bare
    np.testing.assert_allclose(added, added.conj().transpose(0, 2, 1), atol=1e-16)
    c = np.asarray(cd_coupling(atom, atom_grid))
    gap = np.max(np.abs(exact - approx), axis=(1, 2))
    np.testing.assert_allclose(gap, np.abs(c.real), atol=1e-15)
    # Re C(0) = 0 makes the two drives coincide at the pulse center
    np.testing.assert_array_equal(cd_hamiltonian(atom, 0.0), cd_hamiltonian_approx(atom, 0.0))


def test_mixing_angle_anchors():
    assert mixing_angle_anchor(constant_schedule(0.7, 0.0, 0.0), 0.0) == 0.0
    assert mixing_angle_anchor(constant_schedule(0.0, 0.9, 0.0), 0.0) == pytest.approx(np.pi / 2)
    with pytest.raises(ZeroGap):
        mixing_angle_anchor(constant_schedule(0.0, 0.0, 0.0), 0.0)


def test_mixing_angle_continuation(atom, atom_grid):
    traj = mixing_angle_trajectory(atom, atom_grid)
    assert abs(traj.alpha[0]) < 1e-9          # ~0 far before resonance
    assert abs(traj.alpha[-1] - np.pi) < 1e-9  # ~pi far after: inversion
    assert np.max(np.abs(np.diff(traj.alpha))) < np.pi / 2
    # tan identity along the way: Omega cos(alpha) = (Delta - i Gamma/2) sin(alpha)
    r = atom.rates(traj.grid)
    d = r.delta - 0.5j * r.gamma
    res = r.rabi * np.cos(traj.alpha) - d * np.sin(traj.alpha)
    assert np.max(np.abs(res)) < 1e-7


def test_mixing_angle_rest_case():
    s = constant_schedule(0.7, 0.0, 0.0, window=(0.0, 5.0))
    alpha = mixing_angle_values(s, np.linspace(0.0, 5.0, 11))
    np.testing.assert_array_equal(alpha, np.zeros(11))


def test_mixing_angle_coarse_grid_raises():
    # steep resonance crossing sampled by a single interval
    s = PulseSchedule(
        rates=lambda t: PulseRates(-1.0 * np.asarray(t), -1.0, 0.01, 0.0, 0.0, 0.0),
        window=(-10.0, 10.0),
    )
    with pytest.raises(ValueError):
        mixing_angle_trajectory(s, np.array([-10.0, 10.0]))


def test_mixing_angle_trajectory_leaves_caller_grid_writeable(atom):
    grid = atom.grid(0.05)
    traj = mixing_angle_trajectory(atom, grid)
    assert grid.flags.writeable
    assert not traj.grid.flags.writeable and not traj.alpha.flags.writeable
    alpha = np.array(traj.alpha)
    direct = MixingAngleTrajectory(grid, alpha)
    assert np.shares_memory(direct.grid, grid)  # a view, not a copy
    assert grid.flags.writeable and alpha.flags.writeable


def test_mixing_angle_trajectory_refuses_unequal_shapes():
    with pytest.raises(ValueError, match="grid and alpha must have matching shapes"):
        MixingAngleTrajectory(np.linspace(0.0, 1.0, 3), np.zeros(2, dtype=complex))


def test_branch_energies_follow_angle(atom, atom_grid):
    traj = mixing_angle_trajectory(atom, atom_grid)
    ep, em = branch_energies(atom, atom_grid, traj.alpha)
    for k in range(0, len(atom_grid), 197):
        vals = eigensystem_2x2(bare_hamiltonian(atom, float(atom_grid[k]))).values
        straight = abs(ep[k] - vals[0]) + abs(em[k] - vals[1])
        crossed = abs(ep[k] - vals[1]) + abs(em[k] - vals[0])
        assert min(straight, crossed) < 1e-9
    # E+ - E- equals the complex gap frequency over 2 in magnitude
    np.testing.assert_allclose(np.abs(ep - em), 0.5 * np.abs(complex_rabi(atom, atom_grid)),
                               rtol=1e-10)


def test_adiabatic_phase_static():
    s = constant_schedule(0.3, 0.7, 0.1, window=(0.0, 2.0))
    a0 = mixing_angle_anchor(s, 0.0)
    ep, em = branch_energies(s, 0.0, a0)
    grid = np.linspace(0.0, 1.7, 2001)
    for beta, e in zip(adiabatic_phase_values(s, grid), (ep, em)):
        assert beta.dtype == complex and beta[0] == 0j
        np.testing.assert_allclose(beta[-1], -e * 1.7, rtol=1e-10)


def test_adiabatic_phase_decay_law():
    g = 0.3
    s = constant_schedule(0.0, 0.0, g, window=(0.0, 10.0))
    for t in (2.0, 10.0):
        beta = adiabatic_phase_values(s, np.linspace(0.0, t, 2001))[0][-1]
        np.testing.assert_allclose(abs(np.exp(1j * beta)) ** 2, np.exp(-g * t), rtol=1e-12)


def test_adiabatic_phase_net_decay(atom):
    # net loss accumulated along the followed branch over the full sweep
    beta = adiabatic_phase_values(atom, np.linspace(*atom.window, 2001))[0][-1]
    survival = abs(np.exp(1j * beta)) ** 2
    assert survival < 1.0
    np.testing.assert_allclose(survival, np.exp(-0.1), atol=1e-9)


def test_zero_policy_gives_plain_correction(atom, atom_grid):
    traj = mixing_angle_trajectory(atom, atom_grid)
    h = phase_shaped_hamiltonian(atom, zero_policy(), atom_grid, traj.alpha)
    np.testing.assert_array_equal(h, cd_correction(atom, atom_grid))


def test_canonical_policy_rebuilds_drive(atom, atom_grid):
    traj = mixing_angle_trajectory(atom, atom_grid)
    policy = canonical_policy(atom, traj)
    h = phase_shaped_hamiltonian(atom, policy, atom_grid, traj.alpha)
    assert np.max(np.abs(h - cd_hamiltonian(atom, atom_grid))) < 1e-10


def test_policy_obstruction(atom, atom_grid):
    # no phase policy can cancel the counterdiabatic coupling
    rng = np.random.default_rng(3)
    traj = mixing_angle_trajectory(atom, atom_grid)
    c = np.asarray(cd_coupling(atom, atom_grid))
    for _ in range(5):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)

        def xd(k):
            return lambda t: w[k] + w[k + 1] * np.sin(0.2 * np.asarray(t))

        policy = XiPolicy(xi_dot_plus=xd(0), xi_dot_minus=xd(2))
        h = phase_shaped_hamiltonian(atom, policy, atom_grid, traj.alpha)
        np.testing.assert_allclose(h[:, 0, 1] - h[:, 1, 0], 2.0 * c, rtol=1e-13, atol=5e-15)


def test_eigvec_derivative_static():
    s = constant_schedule(0.3, 0.7, 0.1)
    h = bare_hamiltonian(s, 0.0)
    deriv = _fd_spectrum(lambda t: h, 0.5, 1e-4)[1]
    assert np.max(np.abs(deriv)) == 0.0


def test_numeric_correction_matches_analytic(atom):
    hfun = lambda t: bare_hamiltonian(atom, t)
    for t in np.linspace(-7.0, 7.0, 10):
        numeric = cd_correction_numeric(hfun, float(t), h=1e-4)
        np.testing.assert_allclose(numeric, cd_correction(atom, float(t)), atol=1e-6)


def test_numeric_correction_second_order(atom):
    hfun = lambda t: bare_hamiltonian(atom, t)
    t = 2.0
    exact = cd_correction(atom, t)
    d1 = np.max(np.abs(cd_correction_numeric(hfun, t, h=2e-3) - exact))
    d2 = np.max(np.abs(cd_correction_numeric(hfun, t, h=1e-3) - exact))
    assert 3.2 < d1 / d2 < 4.8


def test_numeric_correction_diagonal_free(atom):
    hfun = lambda t: bare_hamiltonian(atom, t)
    for t in (-4.0, 0.0, 3.0):
        basis = eigensystem_2x2(hfun(t))
        h1 = cd_correction_numeric(hfun, t)
        for n in range(2):
            assert abs(np.vdot(basis.left[n], h1 @ basis.right[n])) < 1e-10


def test_adiabatic_basis_biorthonormal(atom, atom_grid):
    basis = adiabatic_basis(atom, mixing_angle_trajectory(atom, atom_grid))
    gram = np.einsum("tni,tmi->tnm", basis.left.conj(), basis.right)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-13


def test_transitionless_branch_transport(atom):
    # psi(t) = e^{i beta(t)} chi(t) solves i psi' = (H0 + H1) psi on both branches;
    # the grid must be dense enough for the O(dt^2) differencing error to sit
    # clearly below the 1e-6 bound
    grid = atom.grid(5e-4)
    traj = mixing_angle_trajectory(atom, grid)
    basis = adiabatic_basis(atom, traj)
    bp, bm = adiabatic_phase_values(atom, grid)
    h = cd_hamiltonian(atom, grid)
    dt = grid[1] - grid[0]
    for beta, n in ((bp, 0), (bm, 1)):
        psi = np.exp(1j * beta)[:, None] * basis.right[:, n, :]
        dpsi = (psi[2:] - psi[:-2]) / (2.0 * dt)
        res = 1j * dpsi - np.einsum("tij,tj->ti", h[1:-1], psi[1:-1])
        assert np.max(np.linalg.norm(res, axis=1)) < 1e-6


def _crossing_hfun(t):
    # E = +-sqrt(-1 + i t): the principal root puts +i first at t = 0 and
    # -i first at t - h, so the branches must be matched, not taken in order
    return np.array([[0.0, 1.0], [-1.0 + 1j * t, 0.0]])


def test_fd_helpers_follow_crossed_branches():
    np.testing.assert_allclose(generic_adiabaticity_ratio(_crossing_hfun, 0.0), 0.125,
                               atol=1e-6)
    np.testing.assert_allclose(cd_correction_numeric(_crossing_hfun, 0.0),
                               np.diag([-0.25, 0.25]), atol=1e-6)


def test_fd_degeneracy_names_shifted_matrix():
    # [[0, 1], [t, 0]] is defective at t = 0, here the t - h sample
    with pytest.raises(DegenerateSpectrum, match="matrix 2:"):
        _fd_spectrum(lambda t: np.array([[0.0, 1.0], [t, 0.0]]), 1e-4, 1e-4)


def test_fd_spectrum_refuses_a_branch_orthogonal_across_the_step():
    # the eigenvalue 1 moves from e_1 at t to e_2 at t +- h, where <e_1|e_2> = 0
    def hfun(t):
        return np.diag([1.0, -1.0] if t == 0.0 else [-1.0, 1.0]).astype(complex)

    with pytest.raises(ZeroGap, match="cannot gauge-align eigenvectors across the step"):
        _fd_spectrum(hfun, 0.0, 1e-4)


def test_fd_helpers_decompose_once(monkeypatch, atom):
    calls = []
    original = biortho.eigensystem_2x2

    def counted(h, tol=1e-9):
        calls.append(np.shape(h))
        return original(h, tol=tol)

    # patch every module that holds a reference, so no call goes uncounted
    for mod in (biortho, cdmod):
        if hasattr(mod, "eigensystem_2x2"):
            monkeypatch.setattr(mod, "eigensystem_2x2", counted)
    hfun = lambda t: bare_hamiltonian(atom, t)
    for helper in (lambda f, t: _fd_spectrum(f, t, 1e-4), cd_correction_numeric,
                   generic_adiabaticity_ratio):
        calls.clear()
        helper(hfun, 1.5)
        assert calls == [(3, 2, 2)], helper.__name__


def _stack(m11, m12, m21, m22):
    """Reference (..., 2, 2) assembly by nested np.stack."""
    m11, m12, m21, m22 = np.broadcast_arrays(m11, m12, m21, m22)
    return np.stack([np.stack([m11, m12], axis=-1), np.stack([m21, m22], axis=-1)], axis=-2)


def _bare_ref(s, t):
    d, _, o, _, g, _ = s.rates(t)
    zero = np.zeros(np.shape(t))
    return 0.5 * _stack(-d + 0j, o + zero * 1j, o + zero * 1j, d - 1j * g)


def _coupling_ref(c):
    c = np.asarray(c)
    zero = np.zeros_like(c)
    return _stack(zero, c, -c, zero)


def assert_bitwise(got, ref):
    """Equal bits, compared in C order: the package's stacks are component-major views."""
    assert got.shape == ref.shape and got.dtype == ref.dtype == complex
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(ref).view(np.uint64))


# t = -0.0 gives Delta = +0.0, whose -Delta + 0j entry must stay +0.0
@pytest.mark.parametrize("where", ["grid", -0.0, 1.3])
def test_hamiltonians_bitwise_match_stacked_reference(atom, where):
    t = _refine(atom.grid(1e-3)) if where == "grid" else where
    c = cd_coupling(atom, t)
    assert_bitwise(bare_hamiltonian(atom, t), _bare_ref(atom, t))
    if where == "grid":  # component-major: each entry one contiguous row
        for drive in (bare_hamiltonian, cd_hamiltonian, cd_hamiltonian_approx):
            assert drive(atom, t).transpose(1, 2, 0).flags.c_contiguous
    assert_bitwise(cd_hamiltonian(atom, t), _bare_ref(atom, t) + _coupling_ref(c))
    assert_bitwise(cd_hamiltonian_approx(atom, t),
                   _bare_ref(atom, t) + _coupling_ref(1j * np.asarray(c).imag))
    alpha = (mixing_angle_values(atom, t) if where == "grid"
             else mixing_angle_values(atom, np.array([t]))[0])
    rng = np.random.default_rng(3)
    xp, xm = rng.normal(size=(2,) + np.shape(t))
    policy = XiPolicy(xi_dot_plus=lambda u: xp, xi_dot_minus=lambda u: xm)
    sh2, ch2 = np.sin(alpha / 2.0) ** 2, np.cos(alpha / 2.0) ** 2
    off = 0.5 * np.sin(alpha) * (xm - xp)
    assert_bitwise(phase_shaped_hamiltonian(atom, policy, t, alpha),
                   _stack(-sh2 * xp - ch2 * xm, off + c, off - c, -ch2 * xp - sh2 * xm))


def _untiled_mixing_angle(s, times):
    """mixing_angle_values as one evaluation of alpha_dot over the whole refined grid."""
    f = np.asarray(alpha_dot(s, _refine(times)))
    return mixing_angle_anchor(s, times[0]) + _cumulative_simpson(f[0::2], f[1::2],
                                                                  np.diff(times))


# around one and two spans of intervals, grids ending inside a span, and the
# default 15,915-step sweep
@pytest.mark.parametrize("n", [quadrature._SPAN - 1, quadrature._SPAN, quadrature._SPAN + 1,
                               2 * quadrature._SPAN + 1, 4095, 4096, 4097, 8193, 15915])
def test_tiled_mixing_angle_is_bitwise_untiled(atom, n):
    times = np.linspace(*atom.window, n + 1)
    assert_bitwise(mixing_angle_values(atom, times), _untiled_mixing_angle(atom, times))


def test_tiled_mixing_angle_small_tiles_and_one_time(atom, monkeypatch):
    monkeypatch.setattr(quadrature, "_SPAN", 7)
    t0, t1 = atom.window
    for times in (np.array([0.3]), np.array([t0, t1]), np.linspace(t0, t1, 50),
                  np.linspace(t0, t1, 7 * 9 + 2)):
        assert_bitwise(mixing_angle_values(atom, times), _untiled_mixing_angle(atom, times))


def test_basis_stores_half_angle_columns(atom, atom_grid):
    alpha = mixing_angle_trajectory(atom, atom_grid).alpha
    traj = MixingAngleTrajectory(atom_grid, alpha)
    basis = adiabatic_basis(atom, traj)
    assert basis is traj
    assert [f.name for f in dataclasses.fields(basis)] == ["grid", "alpha"]
    stored = [getattr(basis, f.name) for f in dataclasses.fields(basis)]
    assert all(x.ndim == 1 and not x.flags.writeable for x in stored)
    # sin and cos of the half-angle x + iy from real sines and hyperbolics
    x, y = (alpha / 2.0).real, (alpha / 2.0).imag
    sh, ch = np.empty((2, len(alpha)), dtype=complex)
    sh.real, sh.imag = np.sin(x) * np.cosh(y), np.cos(x) * np.sinh(y)
    ch.real, ch.imag = np.cos(x) * np.cosh(y), np.sin(x) * -np.sinh(y)
    right = biortho._mat2(sh, ch, ch, -sh)
    assert_bitwise(basis.right, right)
    # within a few ulp of numpy's complex sin and cos
    sh_c, ch_c = np.sin(alpha / 2.0), np.cos(alpha / 2.0)
    assert np.max(np.abs(right - biortho._mat2(sh_c, ch_c, ch_c, -sh_c))) <= 4e-16
    assert_bitwise(basis.left, right.conj())
    assert_bitwise(basis.right_at(0), right[0])
    assert_bitwise(basis.right_at(slice(5, 9)), right[5:9])
    for n in (0, 1):  # one row of the same values
        assert_bitwise(basis.right_at(0, n), right[0, n])
        assert_bitwise(basis.right_at(slice(5, 9), n), right[5:9, n])
    with pytest.raises(ValueError, match="branch must be 0, 1 or None, got 2"):
        basis.right_at(0, 2)
    for stack in (basis.right, basis.left):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0


# Gamma = 0 and Delta = -0.0 give H_0[1, 1] a real part of -0.0, which the
# sum H_0 + H_1 turns into +0.0; Delta(t) = -2 b t is -0.0 at t = +0.0 for
# b > 0 and at t = -0.0 for b < 0
@pytest.mark.parametrize("chirp_b", [0.01, -0.01])
@pytest.mark.parametrize("gamma", [0.0, 0.02])
def test_in_place_drives_match_sums_bitwise(chirp_b, gamma):
    s = chirped_gaussian(ChirpedGaussianParams(rabi_peak=0.6, width_a=0.4, chirp_b=chirp_b,
                                               gamma=gamma))
    grid = np.concatenate([np.linspace(*s.window, 101), [0.0, -0.0]])
    for t in (grid, 0.0, -0.0, 1.3):
        bare = bare_hamiltonian(s, t)
        ci = 1j * np.imag(cd_coupling(s, t))
        assert_bitwise(cd_hamiltonian(s, t), bare + cd_correction(s, t))
        assert_bitwise(cd_hamiltonian_approx(s, t), bare + biortho._mat2(0.0, ci, -ci, 0.0))


def _counting(s):
    """s with a count of its rates calls."""
    calls = []

    def rates(t):
        calls.append(t)
        return s.rates(t)

    return PulseSchedule(rates=rates, window=s.window), calls


@pytest.mark.parametrize("drive", [cd_hamiltonian, cd_hamiltonian_approx])
def test_corrected_drive_samples_the_schedule_once(atom, drive):
    counted, calls = _counting(atom)
    t = _refine(np.linspace(*atom.window, 1537))
    for times in (t, 0.3):
        calls.clear()
        assert_bitwise(np.asarray(drive(counted, times)), np.asarray(drive(atom, times)))
        assert len(calls) == 1


def _full_arrays(s):
    """s with every rate a full array of t's shape, as sampled one callable per rate."""

    def rates(t):
        r = s.rates(t)
        return PulseRates(*(np.full(np.shape(t), x) for x in r)) if np.ndim(t) else r

    return PulseSchedule(rates=rates, window=s.window)


@pytest.mark.parametrize("s", [
    chirped_gaussian(ChirpedGaussianParams(TWO_PI * 0.1, TWO_PI**2 * 0.01,
                                           TWO_PI**2 * 0.00025, TWO_PI * 0.002)),
    chirped_gaussian(ChirpedGaussianParams(0.6, 0.4, -0.01, 0.0)),
    constant_schedule(0.4, 0.9, 0.05),
    constant_schedule(-0.0, 0.3, 0.0),
], ids=["atom", "chirp-down-gamma-0", "constant", "constant-delta-minus-0"])
def test_float_constant_rates_are_bitwise_full_arrays(s):
    full = _full_arrays(s)
    # a refined grid of 3,073 intervals over the window, and both zeros
    t = np.concatenate([_refine(np.linspace(*s.window, 3074)), [0.0, -0.0]])
    assert type(s.rates(t).gamma) is float
    assert_bitwise(bare_hamiltonian(s, t), bare_hamiltonian(full, t))
    assert_bitwise(alpha_dot(s, t), alpha_dot(full, t))
    assert_bitwise(cd_hamiltonian(s, t), cd_hamiltonian(full, t))
