"""The claims module's pass rule at its bounds.

A figure equal to its bound fails: the rap-cd leakage warning and the
check's leakage line agree there.  The warning says "reaches" at the
bound and "exceeds" above it.  The convergence order's deviation
alone passes at its bound.  rap's gap warning counts the closed grid
points and is absent where there are none.  The energy claim names the
ratio first and then E(0) against m omega_0^2 R^2 / 2, each at
ENERGY_RTOL.
"""

import numpy as np

from sta import diagnostics
from sta.diagnostics import CHECKS, ENERGY_RTOL, LEAKAGE


def test_leakage_warns_at_its_bound():
    # "reaches" at the bound itself; "exceeds" above it, as every warning said before
    assert diagnostics.leakage_warning(LEAKAGE) == (
        "max branch leakage 1.000e-05 reaches 1e-05; the sweep passes too close to the "
        "exceptional point for this dt")
    assert diagnostics.leakage_warning(np.nextafter(LEAKAGE, 1)) == (
        "max branch leakage 1.000e-05 exceeds 1e-05; the sweep passes too close to the "
        "exceptional point for this dt")
    assert diagnostics.leakage_warning(np.nextafter(LEAKAGE, 0)) is None


def test_gap_warning_counts_the_closed_points():
    assert diagnostics.gap_warning(0) is None
    assert diagnostics.gap_warning(1) == (
        "the spectral gap closes at 1 grid point(s); adiab_ratio is written as inf there")
    assert diagnostics.gap_warning(3).startswith("the spectral gap closes at 3 grid point(s);")


def test_energy_claim_names_the_ratio_then_the_initial_energy(expansion_plan):
    plan = expansion_plan
    ratio = plan.omegaf / plan.omega0
    expected = 0.5 * plan.mass * plan.omega0**2 * plan.amplitude**2
    assert diagnostics.energy_claim_error(plan, expected, ratio * expected) is None
    assert diagnostics.energy_claim_error(plan, expected, 2.0 * ratio * expected).startswith(
        "closed-form E(tf)/E(0) misses omega_f/omega_0 = 1.000000e-02 by more than 1e-09 ")
    # the ratio holds, but E(0) is 10 ENERGY_RTOL off m omega_0^2 R^2 / 2
    e0 = expected * (1.0 + 10.0 * ENERGY_RTOL)
    assert diagnostics.energy_claim_error(plan, e0, ratio * e0) == (
        f"closed-form E(0) = {e0:.3e} J misses m omega_0^2 R^2 / 2 = {expected:.3e} J "
        "by more than 1e-09 relative")


def _lines(name, measured):
    figures = {key: 0.0 for key in CHECKS}
    figures[name] = measured
    lines, ok = diagnostics.check_lines(figures, 1.0, 1.0)
    return lines[list(CHECKS).index(name)], ok


def test_check_line_fails_at_the_leakage_bound():
    line, ok = _lines("transitionless-branch-leakage", LEAKAGE)
    assert line.startswith("FAIL transitionless-branch-leakage") and not ok
    line, ok = _lines("transitionless-branch-leakage", np.nextafter(LEAKAGE, 0))
    assert line.startswith("PASS transitionless-branch-leakage") and ok


def test_order_line_passes_at_its_bound():
    bound = CHECKS["rk4-convergence-order"]
    line, ok = _lines("rk4-convergence-order", bound)
    assert line == f"PASS rk4-convergence-order: measured={bound:.3e} threshold={bound:.3e}"
    assert ok
    assert not _lines("rk4-convergence-order", np.nextafter(bound, 1))[1]
