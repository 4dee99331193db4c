"""Acceptance gate: the shipped claims, one visible pass/fail line each.

Every test exercises one end-to-end claim at its stated tolerance and
prints a single line (outside pytest capture) of the form

    PASS criterion 03 (Hermitian truncation populations): ...

so a `pytest tests/test_acceptance.py` run doubles as a readable report.
"""

import time

import numpy as np
import pytest

from sta import (
    StaError,
    adiabatic_basis,
    bare_hamiltonian,
    cd_correction,
    cd_correction_numeric,
    cd_coupling,
    cd_hamiltonian,
    cd_hamiltonian_approx,
    closed_form_trajectory,
    closure_defect,
    constant_schedule,
    convergence_order,
    branch_projection,
    effective_hamiltonian,
    eigensystem_2x2,
    energy_audit,
    hamilton_trajectory,
    invariant_at,
    mixing_angle_trajectory,
    propagate,
    propagate_pair,
    reconstruct,
)
from sta.cli import main

TWO_PI = 2.0 * np.pi


@pytest.fixture
def report(capsys):
    def _report(criterion: str, passed: bool, detail: str):
        line = f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert passed, line

    return _report


def _upper_branch_start(atom, grid):
    angles = mixing_angle_trajectory(atom, grid)
    return adiabatic_basis(atom, angles)


def test_criterion_01_biorthogonal_algebra(report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[1, 0] = m[0, 1]
        try:
            basis = eigensystem_2x2(m)
        except StaError:
            continue
        if abs(basis.values[0] - basis.values[1]) <= 1e-6:
            continue
        accepted += 1
        gram = np.array([[np.vdot(basis.left[i], basis.right[j]) for j in range(2)]
                         for i in range(2)])
        worst = max(worst,
                    float(np.max(np.abs(gram - np.eye(2)))),
                    closure_defect(basis),
                    float(np.max(np.abs(reconstruct(basis) - m))))
    elapsed = time.perf_counter() - start
    report("criterion 01 (biorthogonal algebra)",
           worst < 1e-10 and elapsed < 1.0,
           f"worst defect {worst:.2e} (bound 1e-10) over 1000 matrices, "
           f"{elapsed:.2f} s (bound 1 s)")


def test_criterion_02_transitionless_branch_leakage(report, atom):
    start = time.perf_counter()
    grid = atom.grid(1e-3)
    basis = _upper_branch_start(atom, grid)
    psi0 = basis.right[0, 0]

    driven = propagate(lambda t: cd_hamiltonian(atom, t), psi0, grid)
    leak = float(np.max(np.abs(branch_projection(driven, basis)[:, 1])))

    bare = propagate(lambda t: bare_hamiltonian(atom, t), psi0, grid)
    bare_leak = float(np.max(np.abs(branch_projection(bare, basis)[:, 1])))
    elapsed = time.perf_counter() - start

    report("criterion 02 (transitionless branch leakage)",
           leak < 1e-5 and bare_leak > 0.05 and elapsed < 10.0,
           f"corrected {leak:.2e} (bound 1e-5), bare {bare_leak:.3f} (must exceed 0.05), "
           f"{elapsed:.2f} s (bound 10 s)")


def test_criterion_03_truncation_populations(report, atom):
    grid = atom.grid(1e-3 / 16.0)
    psi0 = _upper_branch_start(atom, atom.grid(1e-3)).right[0, 0]
    exact = propagate(lambda t: cd_hamiltonian(atom, t), psi0, grid)
    approx = propagate(lambda t: cd_hamiltonian_approx(atom, t), psi0, grid)
    gap = max(float(np.max(np.abs(exact.p1 - approx.p1))),
              float(np.max(np.abs(exact.p2 - approx.p2))))
    report("criterion 03 (Hermitian truncation populations)",
           gap < 0.01,
           f"max population difference {gap:.4e} (bound 0.01)")


def test_criterion_04_coupling_reality_at_center(report, atom):
    c0 = complex(cd_coupling(atom, 0.0))
    c = np.asarray(cd_coupling(atom, atom.grid(1e-3)))
    im, re = float(np.max(np.abs(c.imag))), float(np.max(np.abs(c.real)))
    report("criterion 04 (coupling reality at pulse center)",
           c0.real == 0.0 and im > re,
           f"Re C(0) = {c0.real!r} (must be exactly 0.0), "
           f"max|Im C| {im:.3e} > max|Re C| {re:.3e}")


def test_criterion_05_numeric_vs_analytic_correction(report, atom):
    hfun = lambda t: bare_hamiltonian(atom, t)
    worst = 0.0
    for t in np.linspace(-7.0, 7.0, 10):
        diff = cd_correction_numeric(hfun, float(t), h=1e-4) - cd_correction(atom, float(t))
        worst = max(worst, float(np.max(np.abs(diff))))
    e1 = float(np.max(np.abs(cd_correction_numeric(hfun, 2.0, h=1e-4) - cd_correction(atom, 2.0))))
    e2 = float(np.max(np.abs(cd_correction_numeric(hfun, 2.0, h=2e-4) - cd_correction(atom, 2.0))))
    ratio = e2 / e1
    report("criterion 05 (numeric vs analytic correction)",
           worst < 1e-6 and 3.0 < ratio < 5.0,
           f"max entrywise defect {worst:.2e} (bound 1e-6) at h=1e-4 over 10 times, "
           f"halving ratio {ratio:.2f} (expect ~4)")


def test_criterion_06_overlap_drift(report, atom):
    grid = atom.grid(1e-3)
    basis = _upper_branch_start(atom, grid)
    pair = propagate_pair(lambda t: bare_hamiltonian(atom, t),
                          basis.right[0, 0], basis.left[0, 0], grid)
    drift = float(np.max(np.abs(pair.biorth_overlap - pair.biorth_overlap[0])))
    report("criterion 06 (biorthogonal overlap drift)",
           drift < 1e-8,
           f"max drift {drift:.2e} (bound 1e-8) across the full sweep")


def test_criterion_07_expansion_plan_identities(report, expansion_spec, expansion_plan):
    w0, tf = expansion_spec.omega0, expansion_spec.tf
    rho_defect = abs(expansion_plan.rho(tf) - 10.0)
    ts = np.linspace(0.0, tf, 10001)
    rho = np.asarray(expansion_plan.rho(ts))
    ermakov = float(np.max(np.abs(np.asarray(expansion_plan.rho_ddot(ts))
                                  + np.asarray(expansion_plan.omega_sq(ts)) * rho
                                  - w0**2 / rho**3)))
    det = max(abs(inv.b**2 - inv.a * inv.c + 1.0)
              for inv in (invariant_at(expansion_plan, float(t))
                          for t in np.linspace(0.0, tf, 101)))
    report("criterion 07 (expansion plan identities)",
           rho_defect < 1e-10 and ermakov < 1e-9 * w0**2 and det < 1e-12,
           f"|rho(tf)-10| {rho_defect:.2e} (bound 1e-10), Ermakov residual {ermakov:.2e} "
           f"(bound {1e-9 * w0**2:.2e}) on 10^4 points, determinant defect {det:.2e} "
           f"(bound 1e-12)")


def test_criterion_08_energy_ratio_dual_route(report, expansion_spec, expansion_plan):
    start = time.perf_counter()
    grid = np.linspace(0.0, expansion_spec.tf, 2001)
    closed = closed_form_trajectory(expansion_plan, grid)
    oracle = hamilton_trajectory(expansion_plan, grid)

    ratio_closed = energy_audit(expansion_plan).ratio
    e_oracle = oracle.energy(expansion_plan)
    ratio_oracle = float(e_oracle[-1] / e_oracle[0])

    agree_q = float(np.max(np.abs(closed.q - oracle.q)) / np.max(np.abs(closed.q)))
    agree_p = float(np.max(np.abs(closed.p - oracle.p)) / np.max(np.abs(closed.p)))
    elapsed = time.perf_counter() - start

    ok = (abs(ratio_closed / 0.01 - 1.0) < 1e-6 and abs(ratio_oracle / 0.01 - 1.0) < 1e-6
          and agree_q < 1e-6 and agree_p < 1e-6 and elapsed < 5.0)
    report("criterion 08 (energy ratio dual route)", ok,
           f"closed-form ratio {ratio_closed:.9f}, integrated ratio {ratio_oracle:.9f} "
           f"(both 0.01 to 1e-6 relative), trajectory agreement q {agree_q:.2e} "
           f"p {agree_p:.2e} (bound 1e-6), {elapsed:.2f} s (bound 5 s)")


def test_criterion_09_integrator_order_and_decay(report, atom, expansion_spec, expansion_plan):
    order_atom = convergence_order(lambda t: bare_hamiltonian(atom, t), [0.0, 1.0],
                                   atom.window, n0=512)
    x0 = np.array([expansion_spec.q0, 0.0], dtype=complex)
    order_trap = convergence_order(effective_hamiltonian(expansion_plan),
                                   x0, (0.0, expansion_spec.tf), n0=512)

    gamma = TWO_PI * 0.002
    decay = constant_schedule(0.0, 0.0, gamma, window=(0.0, 80.0))
    grid = decay.grid(1e-2)
    traj = propagate(lambda t: bare_hamiltonian(decay, t), [0.0, 1.0], grid)
    exact = np.exp(-0.5 * gamma * grid)
    err = float(np.max(np.abs(traj.states[:, 1] - exact)))

    ok = 3.7 <= order_atom <= 4.3 and 3.7 <= order_trap <= 4.3 and err < 1e-9
    report("criterion 09 (integrator order and decay)", ok,
           f"order {order_atom:.3f} (sweep) / {order_trap:.3f} (trap), both in [3.7, 4.3]; "
           f"pure-decay error {err:.2e} (bound 1e-9) at dt=1e-2")


def test_criterion_10_deterministic_output(report, tmp_path):
    pairs = []
    for scenario in ("rap", "oscillator"):
        a, b = tmp_path / f"{scenario}-a.csv", tmp_path / f"{scenario}-b.csv"
        assert main([scenario, "--out", str(a)]) == 0
        assert main([scenario, "--out", str(b)]) == 0
        pairs.append((scenario, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    report("criterion 10 (deterministic output)", ok,
           "byte-identical repeated runs: "
           + ", ".join(f"{name} {'yes' if same else 'NO'}" for name, same in pairs))
