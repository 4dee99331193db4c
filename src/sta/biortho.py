"""Biorthogonal eigensystems of complex 2x2 matrices and stacks of them.

A non-Hermitian matrix H has distinct right and left eigenvectors,

    H r_n = E_n r_n,        H^dag l_n = conj(E_n) l_n,

which can be normalized pairwise, <l_n|r_m> = delta_nm.  The closure
sum_n |r_n><l_n| = 1 then resolves the identity and H = sum_n E_n |r_n><l_n|.
Everything here is closed form: eigenvalues from the quadratic characteristic
polynomial, eigenvectors from the adjugate rows, no iterative solver.

Every function takes a (..., 2, 2) stack and works on all of its matrices at
once, with no Python loop over them; a single (2, 2) matrix is the stack with
an empty leading shape.  Spectral data then has shapes (..., 2) for the
values and (..., 2, 2) for the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum

__all__ = ["BiorthoBasis", "eigensystem_2x2", "reconstruct", "closure_defect"]


@dataclass(frozen=True)
class BiorthoBasis:
    """Eigenvalues with paired right and left eigenvectors of a 2x2 matrix or a stack.

    The leading shape ``...`` is that of the decomposed stack; it is empty
    for a single matrix.

    Attributes
    ----------
    values : ndarray, shape (..., 2)
        Eigenvalues.
    right : ndarray, shape (..., 2, 2)
        ``right[..., n, :]`` is the right eigenvector for ``values[..., n]``,
        unit Euclidean norm, largest-magnitude component real-positive.
    left : ndarray, shape (..., 2, 2)
        ``left[..., n, :]`` is the corresponding left eigenvector, stored as
        a ket of the adjoint matrix and scaled so that
        ``vdot(left[..., n, :], right[..., m, :])`` equals ``delta_nm``.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def __post_init__(self):
        for name in ("values", "right", "left"):
            getattr(self, name).setflags(write=False)


def _null_vector(m11, m12, m21, m22):
    """Best-conditioned null vectors of the singular matrices [[m11, m12], [m21, m22]].

    Both rows of the adjugate span the null space; take the one with the
    larger norm so a structural zero in one row cannot wipe out the result.
    Returns the two components and the norm; a zero norm marks a defective
    matrix.
    """
    na = np.sqrt((m12.real**2 + m11.real**2) + (m12.imag**2 + m11.imag**2))
    nb = np.sqrt((m22.real**2 + m21.real**2) + (m22.imag**2 + m21.imag**2))
    take_a = na >= nb
    return np.where(take_a, -m12, -m22), np.where(take_a, m11, m21), np.where(take_a, na, nb)


def _fix_gauge(x, y, norm):
    """Normalize and rotate the phase so the largest component is real-positive."""
    x, y = x / norm, y / norm
    ax, ay = np.abs(x), np.abs(y)
    second = ay > ax
    phase = np.conj(np.where(second, y, x)) / np.where(second, ay, ax)
    return x * phase, y * phase


def eigensystem_2x2(h, tol: float = 1e-9) -> BiorthoBasis:
    """Closed-form biorthogonal eigendecomposition of complex 2x2 matrices.

    Eigenvalues are the roots of the characteristic quadratic,

        E_pm = tr(H)/2 +- sqrt(((h11 - h22)/2)^2 + h12 h21),

    with the principal square root; ``values[..., 0]`` carries the plus
    sign.  Right vectors solve (H - E) r = 0, left vectors solve the adjoint
    problem (H^dag - conj(E)) l = 0, and the pair is rescaled to
    <l_n|r_m> = delta_nm.

    Parameters
    ----------
    h : array_like, shape (..., 2, 2)
        Complex matrix, or stack of matrices, to decompose.
    tol : float
        Degeneracy guard: requires |E_1 - E_2| > tol * max(1, ||H||_F) for
        every matrix.

    Raises
    ------
    DegenerateSpectrum
        If for some matrix the eigenvalue splitting is below tolerance or
        the matrix is defective (left and right vectors self-orthogonal), as
        happens at an exceptional point.  For a stack the message names the
        index of the first such matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")

    h11, h12, h21, h22 = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    half_tr = 0.5 * (h11 + h22)
    sq = np.sqrt((0.5 * (h11 - h22)) ** 2 + h12 * h21)
    values = np.stack([half_tr + sq, half_tr - sq], axis=-1)
    gap = np.abs(values[..., 0] - values[..., 1])
    scale = np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))

    # Components carry a trailing branch axis: [..., n] pairs with values[..., n].
    h11, h12, h21, h22 = (c[..., None] for c in (h11, h12, h21, h22))
    e, ec = values, np.conj(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        rx, ry, r_norm = _null_vector(h11 - e, h12, h21, h22 - e)
        rx, ry = _fix_gauge(rx, ry, r_norm)
        lx, ly, l_norm = _null_vector(np.conj(h11) - ec, np.conj(h21), np.conj(h12),
                                      np.conj(h22) - ec)
        overlap = np.conj(lx) * rx + np.conj(ly) * ry
        lx, ly = lx / np.conj(overlap), ly / np.conj(overlap)

    # Guards in the order a single matrix meets them; the first that fails
    # on the first failing matrix names the error.
    defective = "eigenvector undetermined (defective matrix)"
    guards = [(gap <= tol * scale, "eigenvalue splitting {gap:.3e} below tolerance "
                                   "{tol:.3e} * {scale:.3e}")]
    for n in range(2):
        guards += [(r_norm[..., n] == 0.0, defective), (l_norm[..., n] == 0.0, defective),
                   (np.abs(overlap[..., n]) <= tol * l_norm[..., n],
                    "left/right pair nearly self-orthogonal")]
    failed = np.logical_or.reduce([mask for mask, _ in guards])
    if np.any(failed):
        i = tuple(int(k) for k in np.argwhere(failed)[0])
        text = next(text for mask, text in guards if mask[i])
        where = f"matrix {i[0] if len(i) == 1 else i}: " if i else ""
        raise DegenerateSpectrum(where + text.format(gap=gap[i], tol=tol, scale=scale[i]))
    return BiorthoBasis(values=values, right=np.stack([rx, ry], axis=-1),
                        left=np.stack([lx, ly], axis=-1))


def _projectors(basis: BiorthoBasis) -> np.ndarray:
    """|r_n><l_n| for each branch n, shape (..., 2, 2, 2) with n third from last."""
    return basis.right[..., :, None] * basis.left.conj()[..., None, :]


def reconstruct(basis: BiorthoBasis) -> np.ndarray:
    """Rebuild the matrices from their spectral data, sum_n E_n |r_n><l_n|."""
    return np.sum(basis.values[..., None, None] * _projectors(basis), axis=-3)


def closure_defect(basis: BiorthoBasis):
    """Frobenius norm of sum_n |r_n><l_n| - 1; zero for a true biorthogonal pair.

    A float for a single matrix, an array over the leading shape for a stack.
    """
    defect = np.linalg.norm(np.sum(_projectors(basis), axis=-3) - np.eye(2), axis=(-2, -1))
    return defect if defect.ndim else float(defect)
