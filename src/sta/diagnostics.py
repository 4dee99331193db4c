"""Health claims of sta runs: every bound, measurement and message, stated once.

sta check reports the figures in CHECKS; rap warns where the spectral gap
closes, rap-cd when its branch leakage reaches LEAKAGE, the oscillator past
ORACLE or ENERGY_RTOL and on the rest orbit q0 = v0 = 0.
"""

from __future__ import annotations

import numpy as np

from .biortho import closure_defect, eigensystem_2x2, reconstruct

LEAKAGE = 1e-5  # max branch leakage |c_-| of an exact corrected atom sweep
ORACLE = 1e-6  # oracle's max departure from the closed form over its max (criterion 08)
ENERGY_RTOL = 1e-9  # relative bound of each part of the energy claim

# sta check line -> its bound at tolerance_scale 1, in order (Ermakov's in omega0^2)
CHECKS = {
    "biorthogonality-closure-reconstruction": 1e-10,
    "transitionless-branch-leakage": LEAKAGE,
    "biorthogonal-overlap-drift": 1e-8,
    "ermakov-residual": 1e-9,
    "invariant-determinant": 1e-12,
    "rk4-convergence-order": 0.3,
}


def _passes(name: str, measured: float, bound: float) -> bool:
    """The pass rule: strictly below the bound; the order's deviation also at it."""
    return measured <= bound if name == "rk4-convergence-order" else measured < bound


def check_lines(measured: dict, scale: float, omega0: float) -> tuple[list[str], bool]:
    """A PASS or FAIL line for each measured[name] in CHECKS order, a summary, the verdict.

    Each bound is CHECKS[name] times scale, the Ermakov residual's after omega0^2.
    """
    lines, ok = [], True
    for name, bound in CHECKS.items():
        bound = (bound * omega0**2 if name == "ermakov-residual" else bound) * scale
        passed = _passes(name, measured[name], bound)
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: measured={measured[name]:.3e} "
                     f"threshold={bound:.3e}")
    lines.append("all checks passed" if ok else "some checks FAILED")
    return lines, ok


def _check_matrices() -> np.ndarray:
    """The 1,000 complex-symmetric 2x2 matrices of the biorthogonality check, seed 7.

    Drawn in one call: [:, 0] is the real part and [:, 1] the imaginary
    part, which gives the same numbers as drawing each matrix's two parts
    in turn.
    """
    parts = np.random.default_rng(7).normal(size=(1000, 2, 2, 2))
    m = parts[:, 0] + 1j * parts[:, 1]
    m[:, 1, 0] = m[:, 0, 1]
    return m


def biortho_defect() -> float:
    """Worst Gram, closure and reconstruction defect of one batched eigensystem."""
    m = _check_matrices()
    basis = eigensystem_2x2(m, tol=1e-6)
    gram = np.einsum("...ik,...jk->...ij", basis.left.conj(), basis.right)
    return float(max(np.max(np.abs(gram - np.eye(2))), np.max(closure_defect(basis)),
                     np.max(np.abs(reconstruct(basis) - m))))


def overlap_drift(overlap: np.ndarray) -> float:
    """How far the conserved biorthogonal overlap <psi_hat|psi> moves from its start."""
    return float(np.max(np.abs(overlap - overlap[0])))


def ermakov_residual(rho, rho_ddot, omega_sq, omega0: float) -> float:
    """Max |rho'' + omega^2 rho - omega0^2 / rho^3| over the samples."""
    return float(np.max(np.abs(rho_ddot + omega_sq * rho - omega0**2 / rho**3)))


def determinant_defect(a, b, c) -> float:
    """Max |b^2 - a c + 1| of the invariant's entries; b^2 - a c = -1 exactly."""
    return float(np.max(np.abs(b**2 - a * c + 1.0)))


def gap_warning(closed: int) -> str | None:
    """Why a bare sweep's monitor is inf at the closed grid points where the gap closes, or None."""
    if not closed:
        return None
    return f"the spectral gap closes at {closed} grid point(s); adiab_ratio is written as inf there"


def leakage_warning(leak: float) -> str | None:
    """Why an exact corrected sweep whose max leakage is leak breaks the claim, or None."""
    if _passes("transitionless-branch-leakage", leak, LEAKAGE):
        return None
    verb = "reaches" if leak == LEAKAGE else "exceeds"
    return (f"max branch leakage {leak:.3e} {verb} {LEAKAGE:.0e}; the sweep passes too "
            "close to the exceptional point for this dt")


def energy_claim_error(plan, e0: float, ef: float) -> str | None:
    """Why E(0) = e0 and E(tf) = ef break the energy claim, or None if they keep it.

    plan is the run's trap.ErmakovPlan.  The claim: E(0) > 0, E(tf)/E(0) =
    omega_f/omega_0 and E(0) = m omega_0^2 R^2 / 2, each within
    ENERGY_RTOL.  Python floats divide to inf past the double range, where
    numpy would raise under the CLI's float policy.  The rest orbit (R = 0)
    has no energy to compare.
    """
    if plan.amplitude == 0.0:
        return None
    ratio = plan.omegaf / plan.omega0
    if not (e0 > 0.0 and abs(ef / e0 - ratio) <= ENERGY_RTOL * ratio):
        return (f"closed-form E(tf)/E(0) misses omega_f/omega_0 = {ratio:.6e} by more than "
                f"{ENERGY_RTOL:.0e} relative (E(0) = {e0:.3e} J, E(tf) = {ef:.3e} J)")
    # products, not powers: a Python float power past the double range raises
    expected = 0.5 * plan.mass * (plan.omega0 * plan.omega0) * (plan.amplitude * plan.amplitude)
    if not abs(e0 - expected) <= ENERGY_RTOL * expected:
        return (f"closed-form E(0) = {e0:.3e} J misses m omega_0^2 R^2 / 2 = {expected:.3e} J "
                f"by more than {ENERGY_RTOL:.0e} relative")
    return None


def oscillator_warning(plan, q, v, q_oracle, v_oracle, e0: float, ef: float) -> str | None:
    """Why an oscillator run does not confirm the closed form, or None.

    The oracle's q, then v, must stay within ORACLE of the closed form's
    largest; then E(0) = e0 and E(tf) = ef must keep the energy claim.
    """
    for name, x, x_oracle in (("q", q, q_oracle), ("v", v, v_oracle)):
        with np.errstate(over="ignore"):  # a difference past the double range is inf
            dev = np.max(np.abs(x - x_oracle))
        scale = np.max(np.abs(x))
        # multiplied, not divided, so the rest orbit q0 = v0 = 0 is not 0/0
        if not dev <= ORACLE * scale:
            return (f"max |{name} - {name}_oracle| = {dev:.3e} exceeds {ORACLE:.0e} "
                    f"x max |{name}| = {scale:.3e}; the integrated oracle does not confirm "
                    "the closed form")
    if plan.amplitude == 0.0:  # no energy, so no claim to keep
        return "q0 = v0 = 0: rest solution, trajectory is identically zero"
    reason = energy_claim_error(plan, e0, ef)
    return reason and f"{reason}; the run does not confirm the energy claim"
