"""Biorthogonal eigendecomposition of 2x2 complex matrices.

Proves:
  - diagonal Hermitian and decaying-atom closed-form eigenvalues
  - biorthonormality, closure and reconstruction on random matrices
  - gauge fixing (unit norm, largest component real-positive)
  - left vectors conjugate to right vectors for complex-symmetric input
  - scaling and adjoint consistency of the spectrum
  - degenerate/defective input raises, bad shapes raise
  - ring/adjoint axioms of the plain ndarray matrix representation
  - (..., 2, 2) stacks agree with a per-matrix reference loop, and a
    degenerate member is named by its index
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta import BiorthoBasis, DegenerateSpectrum, closure_defect, eigensystem_2x2, reconstruct

RNG = np.random.default_rng(11)


def random_matrix(symmetric=False):
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    if symmetric:
        m[1, 0] = m[0, 1]
    return m


def atom_matrix(delta, rabi, gamma):
    return 0.5 * np.array([[-delta, rabi], [rabi, delta - 1j * gamma]], dtype=complex)


def test_diagonal_hermitian():
    basis = eigensystem_2x2(np.diag([-1.0, 1.0]))
    order = np.argsort(basis.values.real)
    np.testing.assert_allclose(basis.values[order], [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(basis.right[order[0]], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(basis.right[order[1]], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(basis.left, basis.right, atol=1e-15)


def test_decaying_atom_eigenvalues():
    d, o, g = 0.0, 1.0, 0.2
    basis = eigensystem_2x2(atom_matrix(d, o, g))
    expected = 0.25 * np.array([
        -1j * g + np.sqrt(-((g + 2j * d) ** 2) + 4 * o**2),
        -1j * g - np.sqrt(-((g + 2j * d) ** 2) + 4 * o**2),
    ])
    np.testing.assert_allclose(basis.values, expected, rtol=1e-14)
    # quoted rounded values: +-0.49749 - 0.05i
    np.testing.assert_allclose(basis.values[0], 0.49749 - 0.05j, atol=1e-5)
    np.testing.assert_allclose(basis.values[1], -0.49749 - 0.05j, atol=1e-5)


def test_atom_matrix_closure():
    basis = eigensystem_2x2(atom_matrix(0.0, 2.0 * np.pi * 0.1, 2.0 * np.pi * 0.002))
    assert closure_defect(basis) < 1e-12


@pytest.mark.parametrize("symmetric", [False, True])
def test_random_defects(symmetric):
    for _ in range(300):
        m = random_matrix(symmetric)
        try:
            basis = eigensystem_2x2(m, tol=1e-6)
        except DegenerateSpectrum:
            continue
        gram = np.array([[np.vdot(basis.left[i], basis.right[j]) for j in range(2)]
                         for i in range(2)])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        assert closure_defect(basis) < 1e-10
        assert np.max(np.abs(reconstruct(basis) - m)) < 1e-10


def test_gauge_fixing():
    for _ in range(50):
        basis = eigensystem_2x2(random_matrix())
        for r in basis.right:
            assert abs(np.linalg.norm(r) - 1.0) < 1e-12
            k = int(np.argmax(np.abs(r)))
            assert abs(r[k].imag) < 1e-12 * abs(r[k])
            assert r[k].real > 0


def test_symmetric_left_is_conjugate_right():
    # complex-symmetric input: the left vector lies on the ray of conj(right)
    for _ in range(50):
        basis = eigensystem_2x2(random_matrix(symmetric=True), tol=1e-6)
        for n in range(2):
            u = np.conj(basis.right[n])
            lam = np.vdot(u, basis.left[n])
            assert np.linalg.norm(basis.left[n] - lam * u) < 1e-10 * np.linalg.norm(basis.left[n])


def test_scaling_property():
    m = random_matrix()
    c = 0.7 - 1.3j
    base = eigensystem_2x2(m)
    scaled = eigensystem_2x2(c * m)
    for n in range(2):
        dist = np.abs(scaled.values - c * base.values[n])
        k = int(np.argmin(dist))
        assert dist[k] < 1e-10 * max(1.0, abs(c * base.values[n]))
        assert abs(abs(np.vdot(scaled.right[k], base.right[n])) - 1.0) < 1e-10


def test_adjoint_consistency():
    m = random_matrix()
    vals = eigensystem_2x2(m).values
    vals_adj = eigensystem_2x2(m.conj().T).values
    for v in vals:
        assert np.min(np.abs(vals_adj - np.conj(v))) < 1e-12


def test_degenerate_raises():
    with pytest.raises(DegenerateSpectrum):
        eigensystem_2x2(np.array([[0.0, 1.0], [0.0, 0.0]]))  # defective
    with pytest.raises(DegenerateSpectrum):
        eigensystem_2x2(np.eye(2))  # equal eigenvalues
    # exceptional point of the atom matrix: Delta = 0, Gamma = 2 Omega_R
    with pytest.raises(DegenerateSpectrum):
        eigensystem_2x2(atom_matrix(0.0, 0.5, 1.0))


def test_input_validation():
    with pytest.raises(ValueError):
        eigensystem_2x2(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        eigensystem_2x2(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_closure_defect_scaled_basis():
    basis = eigensystem_2x2(np.diag([-1.0, 1.0]))
    right = basis.right.copy()
    right[1] = 2.0 * right[1]
    tampered = BiorthoBasis(values=basis.values.copy(), right=right, left=basis.left.copy())
    assert abs(closure_defect(tampered) - 1.0) < 1e-14


def test_basis_arrays_read_only():
    basis = eigensystem_2x2(random_matrix())
    with pytest.raises(ValueError):
        basis.right[0, 0] = 0.0


def test_matrix_ring_and_adjoint_axioms():
    a, b, c = (random_matrix() for _ in range(3))
    np.testing.assert_allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)
    np.testing.assert_allclose(a @ (b + c), a @ b + a @ c, atol=1e-12)
    assert np.array_equal(a.conj().T.conj().T, a)


def test_reconstruct_atom_roundtrip():
    m = atom_matrix(0.0, 1.0, 0.2)
    basis = eigensystem_2x2(m)
    np.testing.assert_allclose(reconstruct(basis), m, atol=1e-12)


def _reference_null_vector(m11, m12, m21, m22):
    va = np.array([-m12, m11])
    vb = np.array([-m22, m21])
    return va if np.linalg.norm(va) >= np.linalg.norm(vb) else vb


def _reference_eigensystem(h):
    """One matrix at a time, as a plain loop over the two branches."""
    half_tr = 0.5 * (h[0, 0] + h[1, 1])
    sq = np.sqrt((0.5 * (h[0, 0] - h[1, 1])) ** 2 + h[0, 1] * h[1, 0])
    values = np.array([half_tr + sq, half_tr - sq])
    hd = h.conj().T
    right = np.empty((2, 2), dtype=complex)
    left = np.empty((2, 2), dtype=complex)
    for n, e in enumerate(values):
        r = _reference_null_vector(h[0, 0] - e, h[0, 1], h[1, 0], h[1, 1] - e)
        r = r / np.linalg.norm(r)
        k = int(np.argmax(np.abs(r)))
        r = r * (np.conj(r[k]) / np.abs(r[k]))
        ec = np.conj(e)
        l = _reference_null_vector(hd[0, 0] - ec, hd[0, 1], hd[1, 0], hd[1, 1] - ec)
        right[n] = r
        left[n] = l / np.conj(np.vdot(l, r))
    return values, right, left


def _reference_reconstruct(values, right, left):
    return sum(values[n] * np.outer(right[n], left[n].conj()) for n in range(2))


def _reference_closure_defect(right, left):
    acc = sum(np.outer(right[n], left[n].conj()) for n in range(2))
    return float(np.linalg.norm(acc - np.eye(2)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lead=st.one_of(st.integers(1, 64).map(lambda n: (n,)), st.just((3, 4))),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       symmetric=st.booleans())
def test_stack_matches_per_matrix_reference(seed, lead, scale, symmetric):
    rng = np.random.default_rng(seed)
    h = scale * (rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2)))
    if symmetric:
        h[..., 1, 0] = h[..., 0, 1]
    basis = eigensystem_2x2(h)
    assert basis.values.shape == lead + (2,)
    assert basis.right.shape == basis.left.shape == lead + (2, 2)
    for name in ("values", "right", "left"):
        assert not getattr(basis, name).flags.writeable
    rebuilt = reconstruct(basis)
    defects = closure_defect(basis)
    assert rebuilt.shape == lead + (2, 2)
    assert defects.shape == lead
    for i in np.ndindex(*lead):
        values, right, left = _reference_eigensystem(h[i])
        np.testing.assert_allclose(basis.values[i], values, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(basis.right[i], right, rtol=0, atol=1e-13)
        for n in range(2):
            assert np.linalg.norm(basis.left[i][n] - left[n]) <= 1e-12 * np.linalg.norm(left[n])
        np.testing.assert_allclose(rebuilt[i], _reference_reconstruct(values, right, left),
                                   rtol=0, atol=1e-12 * scale)
        assert abs(defects[i] - _reference_closure_defect(right, left)) < 1e-12


def test_single_matrix_is_empty_stack():
    m = random_matrix()
    single = eigensystem_2x2(m)
    stacked = eigensystem_2x2(m[None])
    assert single.values.shape == (2,) and single.right.shape == single.left.shape == (2, 2)
    assert isinstance(closure_defect(single), float)
    assert reconstruct(single).shape == (2, 2)
    for name in ("values", "right", "left"):
        assert np.array_equal(getattr(single, name), getattr(stacked, name)[0])


def test_stack_names_first_degenerate_member():
    h = RNG.normal(size=(30, 2, 2)) + 1j * RNG.normal(size=(30, 2, 2))
    h[17] = [[0.0, 1.0], [0.0, 0.0]]  # defective
    h[23] = np.eye(2)
    with pytest.raises(DegenerateSpectrum, match=r"matrix 17: "):
        eigensystem_2x2(h)
    h[5] = np.diag([1.0, 1.0 + 1e-12])  # split, but below tolerance
    with pytest.raises(DegenerateSpectrum, match=r"matrix 5: eigenvalue splitting 1\.000e-12"):
        eigensystem_2x2(h)
    grid = RNG.normal(size=(3, 4, 2, 2)) + 0j
    grid[1, 2] = np.eye(2)
    with pytest.raises(DegenerateSpectrum, match=r"matrix \(1, 2\): "):
        eigensystem_2x2(grid)


@pytest.mark.parametrize("shape", [(3, 3), (5, 2, 3), (2,), (4, 2)])
def test_stack_shape_validation(shape):
    with pytest.raises(ValueError, match="2x2"):
        eigensystem_2x2(np.ones(shape))


def test_stack_non_finite_raises():
    h = RNG.normal(size=(8, 2, 2)) + 0j
    h[5, 1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem_2x2(h)
