"""Command-line front end.

    sta <scenario> [--config PATH] [--out PATH] [--dt X] [--window-factor X]
                   [--approx]

Scenarios
---------
rap           bare chirped-Gaussian sweep of the decaying atom
rap-cd        sweep with the exact counterdiabatic correction
rap-cd-approx sweep with the Hermitian (Re C dropped) correction
cd-terms      counterdiabatic coupling C(t) and adiabaticity monitor
oscillator    trap expansion: closed-form and integrated trajectories
check         self-test of the core invariants, exit 4 on failure

Configs are strict JSON objects; unknown keys are rejected.  Frequencies
are given as plain (non-angular) values, MHz for the atom and Hz for the
oscillator, and multiplied by 2 pi internally; the chirp coefficients are
in GHz^2 and pick up (2 pi)^2.  Atom times are ns, oscillator times s.
All numbers are written with 17 significant digits, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import counterdiabatic as cd
from . import trap
from .biortho import closure_defect, eigensystem_2x2, reconstruct
from .errors import ConfigError, StaError
from .propagate import branch_projection, convergence_order, propagate, propagate_pair
from .pulses import ChirpedGaussianParams, adiabaticity_ratio, chirped_gaussian

TWO_PI = 2.0 * np.pi

ATOM_DEFAULTS = {
    "gamma_mhz": 2.0,          # upper-level decay rate / 2 pi
    "rabi_peak_mhz": 100.0,    # peak Rabi frequency / 2 pi
    "chirp_a_ghz2": 0.01,      # envelope coefficient a / (2 pi)^2
    "chirp_b_ghz2": 0.00025,   # chirp rate b / (2 pi)^2
    "window_factor": 5.0,
    "dt_ns": 0.001,
}

TRAP_DEFAULTS = {
    "f0_hz": 250.0,            # initial trap frequency / 2 pi
    "ff_hz": 2.5,              # final trap frequency / 2 pi
    "tf_ms": 25.0,
    "mass_kg": 1.44e-25,
    "q0_um": 1.0,
    "v0_um_per_ms": 0.0,
    "n_shortcut": 2001,        # samples across [0, tf]
    "n_ellipse": 501,          # samples per display period
}

CHECK_DEFAULTS = {
    "tolerance_scale": 1.0,    # < 1 tightens every threshold
    "dt_ns": 0.001,
}

_DEFAULTS = {
    "rap": ATOM_DEFAULTS,
    "rap-cd": ATOM_DEFAULTS,
    "rap-cd-approx": ATOM_DEFAULTS,
    "cd-terms": ATOM_DEFAULTS,
    "oscillator": TRAP_DEFAULTS,
    "check": CHECK_DEFAULTS,
}

_CHECK_SEED = 7

# Rows per formatted and written block of a CSV.
_CSV_BLOCK = 1024

# Max branch leakage of an exact rap-cd run above which it warns on stderr.
_LEAK_WARN = 1e-5


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: scenario, output path and merged parameters."""

    scenario: str
    out: Path | None
    params: dict
    approx: bool = False

    @property
    def out_path(self) -> Path:
        return self.out if self.out is not None else Path(f"{self.scenario}.csv")


def _require_number(scenario: str, key: str, value, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' for scenario '{scenario}' must be a number")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"config key '{key}' must be finite, got {value}")
    if minimum is not None and (v < minimum or (strict and v == minimum)):
        cmp = ">" if strict else ">="
        raise ConfigError(f"config key '{key}' must be {cmp} {minimum}, got {value}")
    return v


def _validate(scenario: str, params: dict) -> dict:
    out = dict(params)
    rules = {
        "gamma_mhz": dict(minimum=0.0),
        "rabi_peak_mhz": dict(minimum=0.0),
        "chirp_a_ghz2": dict(minimum=0.0, strict=True),
        "chirp_b_ghz2": dict(),
        "window_factor": dict(minimum=0.0, strict=True),
        "dt_ns": dict(minimum=0.0, strict=True),
        "f0_hz": dict(minimum=0.0, strict=True),
        "ff_hz": dict(minimum=0.0, strict=True),
        "tf_ms": dict(minimum=0.0, strict=True),
        "mass_kg": dict(minimum=0.0, strict=True),
        "q0_um": dict(),
        "v0_um_per_ms": dict(),
        "tolerance_scale": dict(minimum=0.0, strict=True),
    }
    for key, value in out.items():
        if key in ("n_shortcut", "n_ellipse"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key '{key}' must be an integer")
            if value < 2:
                raise ConfigError(f"config key '{key}' must be >= 2, got {value}")
        else:
            out[key] = _require_number(scenario, key, value, **rules[key])
    return out


def load_run_config(scenario: str, config_path, out, dt, window_factor, approx) -> RunConfig:
    """Merge defaults, the JSON config file and command-line overrides."""
    if scenario not in _DEFAULTS:
        raise ConfigError(f"unknown scenario '{scenario}'")
    params = dict(_DEFAULTS[scenario])
    if config_path is not None:
        try:
            raw = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            user = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in user:
            if key not in params:
                raise ConfigError(f"unknown config key '{key}' for scenario '{scenario}'")
        params.update(user)
    params = _validate(scenario, params)
    if dt is not None:
        if scenario == "oscillator":
            if not 0.0 < dt < params["tf_ms"] * 1e-3:
                raise ConfigError("--dt must lie in (0, tf) seconds for the oscillator")
            params["n_shortcut"] = int(round(params["tf_ms"] * 1e-3 / dt)) + 1
        else:
            params["dt_ns"] = _require_number(scenario, "dt_ns", dt, minimum=0.0, strict=True)
    if window_factor is not None:
        if "window_factor" not in params:
            raise ConfigError(f"--window-factor does not apply to scenario '{scenario}'")
        params["window_factor"] = _require_number(
            scenario, "window_factor", window_factor, minimum=0.0, strict=True)
    if approx and scenario not in ("rap-cd", "rap-cd-approx"):
        raise ConfigError("--approx only applies to the rap-cd scenario")
    return RunConfig(
        scenario=scenario,
        out=Path(out) if out is not None else None,
        params=params,
        approx=bool(approx) or scenario == "rap-cd-approx",
    )


def _atom_setup(params: dict):
    """Schedule and grid in internal units (rad/ns, ns) from config numbers."""
    cg = ChirpedGaussianParams(
        rabi_peak=TWO_PI * 1e-3 * params["rabi_peak_mhz"],
        width_a=TWO_PI**2 * params["chirp_a_ghz2"],
        chirp_b=TWO_PI**2 * params["chirp_b_ghz2"],
        gamma=TWO_PI * 1e-3 * params["gamma_mhz"],
    )
    schedule = chirped_gaussian(cg, window_factor=params["window_factor"])
    return schedule, schedule.grid(params["dt_ns"])


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-separated columns at 17 significant digits, one header row.

    The columns become one float table; each block of _CSV_BLOCK rows is
    formatted with a single % on a repeated "%.17g,...,%.17g" row, which
    gives the same bytes as f"{float(x):.17g}" per value at a fraction of
    the cost, and is written before the next one is built.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns differ in length")
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, n, _CSV_BLOCK):
            block = table[s:s + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def run_rap(cfg: RunConfig) -> int:
    """Bare sweep: populations, norm and the adiabaticity monitor."""
    schedule, grid = _atom_setup(cfg.params)
    traj = propagate(lambda t: cd.bare_hamiltonian(schedule, t), [0.0, 1.0], grid)
    ratio = np.asarray(adiabaticity_ratio(schedule, grid), dtype=float)
    write_csv(cfg.out_path, ["t_ns", "P1", "P2", "norm2", "adiab_ratio"],
              [grid, traj.p1, traj.p2, traj.norm2, ratio])
    return 0


def run_rap_cd(cfg: RunConfig) -> int:
    """Corrected sweep starting on the upper branch, with branch leakage.

    The exact drive leaks at roundoff unless the grid misses the turning
    rate near an exceptional point; --approx leaks by design.
    """
    schedule, grid = _atom_setup(cfg.params)
    angles = cd.mixing_angle_trajectory(schedule, grid)
    basis = cd.adiabatic_basis(schedule, angles)
    hfun = cd.cd_hamiltonian_approx if cfg.approx else cd.cd_hamiltonian
    traj = propagate(lambda t: hfun(schedule, t), basis.right[0, 0], grid)
    leak = np.abs(branch_projection(traj, basis)[:, 1])
    write_csv(cfg.out_path, ["t_ns", "P1", "P2", "norm2", "c_minus_abs"],
              [grid, traj.p1, traj.p2, traj.norm2, leak])
    if not cfg.approx and leak.max() > _LEAK_WARN:
        print(f"sta: warning: max branch leakage {leak.max():.3e} exceeds {_LEAK_WARN:.0e}; "
              "the sweep passes too close to the exceptional point for this dt", file=sys.stderr)
    return 0


def run_cd_terms(cfg: RunConfig) -> int:
    """Counterdiabatic coupling components and the adiabaticity monitor.

    The coupling diverges at an exceptional point on the sweep, so the run
    fails there with BranchJump, as rap-cd does.
    """
    schedule, grid = _atom_setup(cfg.params)
    cd.mixing_angle_trajectory(schedule, grid)
    c = np.asarray(cd.cd_coupling(schedule, grid))
    ratio = np.asarray(adiabaticity_ratio(schedule, grid), dtype=float)
    write_csv(cfg.out_path, ["t_ns", "c_real_rad_per_ns", "c_imag_rad_per_ns", "adiab_ratio"],
              [grid, c.real, c.imag, ratio])
    return 0


def run_oscillator(cfg: RunConfig) -> int:
    """Trap expansion with one display period at either end.

    Emits the closed-form trajectory, its energy bookkeeping and the RK4
    integration of Hamilton's equations as independent columns.
    """
    p = cfg.params
    spec = trap.ExpansionSpec(
        omega0=TWO_PI * p["f0_hz"],
        omegaf=TWO_PI * p["ff_hz"],
        tf=1e-3 * p["tf_ms"],
        mass=p["mass_kg"],
        q0=1e-6 * p["q0_um"],
        v0=1e-3 * p["v0_um_per_ms"],
    )
    plan = trap.plan_expansion(spec)
    t0_period = TWO_PI / spec.omega0
    tf_period = TWO_PI / spec.omegaf
    lead = np.linspace(-t0_period, 0.0, p["n_ellipse"] + 1)[:-1]
    ramp = np.linspace(0.0, spec.tf, p["n_shortcut"])
    tail = np.linspace(spec.tf, spec.tf + tf_period, p["n_ellipse"] + 1)[1:]
    grid = np.concatenate([lead, ramp, tail])

    closed = trap.closed_form_trajectory(plan, spec, grid)
    oracle = trap.hamilton_trajectory(plan, spec, grid)
    energy = closed.energy(plan, spec)
    w2 = np.asarray(plan.omega_sq(grid))
    e_over_w = np.where(w2 > 0.0, energy / np.sqrt(np.where(w2 > 0.0, w2, 1.0)), np.nan)
    write_csv(
        cfg.out_path,
        ["t_s", "q_m", "v_m_per_s", "energy_J", "energy_over_omega_Js",
         "omega_sq_rad2_per_s2", "rho", "q_oracle_m", "v_oracle_m_per_s"],
        [grid, closed.q, closed.p / spec.mass, energy, e_over_w,
         w2, np.asarray(plan.rho(grid)), oracle.q, oracle.p / spec.mass],
    )
    return 0


def _check_matrices() -> np.ndarray:
    """The 1,000 random complex-symmetric 2x2 matrices of the biorthogonality check.

    Drawn in one call: [:, 0] is the real part and [:, 1] the imaginary
    part, which gives the same numbers as drawing each matrix's two parts
    in turn.
    """
    parts = np.random.default_rng(_CHECK_SEED).normal(size=(1000, 2, 2, 2))
    m = parts[:, 0] + 1j * parts[:, 1]
    m[:, 1, 0] = m[:, 0, 1]
    return m


def _biortho_defect() -> float:
    """Worst Gram, closure and reconstruction defect over the check matrices.

    One batched eigensystem over the whole stack; kept in its own function
    so its arrays are freed before the propagations that follow.
    """
    m = _check_matrices()
    basis = eigensystem_2x2(m, tol=1e-6)
    gram = np.einsum("...ik,...jk->...ij", basis.left.conj(), basis.right)
    return float(max(np.max(np.abs(gram - np.eye(2))), np.max(closure_defect(basis)),
                     np.max(np.abs(reconstruct(basis) - m))))


def _check_lines(params: dict) -> tuple[list[str], bool]:
    """Run the invariant suite; every line reports the measured residual."""
    scale = params["tolerance_scale"]
    dt = params["dt_ns"]
    lines = []
    ok = True

    def report(name: str, measured: float, threshold: float, passed: bool):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: measured={measured:.3e} "
                     f"threshold={threshold:.3e}")

    worst = _biortho_defect()
    report("biorthogonality-closure-reconstruction", worst, 1e-10 * scale, worst < 1e-10 * scale)

    schedule, grid = _atom_setup({**ATOM_DEFAULTS, "dt_ns": dt})
    angles = cd.mixing_angle_trajectory(schedule, grid)
    basis_traj = cd.adiabatic_basis(schedule, angles)
    traj = propagate(lambda t: cd.cd_hamiltonian(schedule, t), basis_traj.right[0, 0], grid)
    leak = float(np.max(np.abs(branch_projection(traj, basis_traj)[:, 1])))
    report("transitionless-branch-leakage", leak, 1e-5 * scale, leak < 1e-5 * scale)

    pair = propagate_pair(lambda t: cd.bare_hamiltonian(schedule, t),
                          basis_traj.right[0, 0], basis_traj.left[0, 0], grid)
    drift = float(np.max(np.abs(pair.biorth_overlap - pair.biorth_overlap[0])))
    report("biorthogonal-overlap-drift", drift, 1e-8 * scale, drift < 1e-8 * scale)

    spec = trap.ExpansionSpec(omega0=TWO_PI * 250.0, omegaf=TWO_PI * 2.5, tf=0.025,
                              mass=1.44e-25, q0=1e-6, v0=0.0)
    plan = trap.plan_expansion(spec)
    ts = np.linspace(0.0, spec.tf, 10001)
    rho = np.asarray(plan.rho(ts))
    res = float(np.max(np.abs(
        np.asarray(plan.rho_ddot(ts)) + np.asarray(plan.omega_sq(ts)) * rho
        - spec.omega0**2 / rho**3)))
    bound = 1e-9 * spec.omega0**2 * scale
    report("ermakov-residual", res, bound, res < bound)

    inv = trap.invariant_at(plan, spec, np.linspace(0.0, spec.tf, 101))
    det = float(np.max(np.abs(inv.b**2 - inv.a * inv.c + 1.0)))
    report("invariant-determinant", det, 1e-12 * scale, det < 1e-12 * scale)

    order = convergence_order(lambda t: cd.bare_hamiltonian(schedule, t), [0.0, 1.0],
                              schedule.window, n0=512)
    dev = abs(order - 4.0)
    report("rk4-convergence-order", dev, 0.3 * scale, dev <= 0.3 * scale)

    lines.append("all checks passed" if ok else "some checks FAILED")
    return lines, ok


def run_check(cfg: RunConfig) -> int:
    lines, ok = _check_lines(cfg.params)
    text = "\n".join(lines) + "\n"
    if cfg.out is not None:
        Path(cfg.out).write_text(text)
    sys.stdout.write(text)
    return 0 if ok else 4


_RUNNERS = {
    "rap": run_rap,
    "rap-cd": run_rap_cd,
    "rap-cd-approx": run_rap_cd,
    "cd-terms": run_cd_terms,
    "oscillator": run_oscillator,
    "check": run_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sta",
        description="Shortcuts to adiabaticity: counterdiabatic atom sweeps and trap expansions.",
    )
    parser.add_argument("scenario", choices=sorted(_RUNNERS))
    parser.add_argument("--config", metavar="PATH", help="JSON parameter file (strict keys)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default <scenario>.csv)")
    parser.add_argument("--dt", type=float, help="time step override (ns for atom, s for trap)")
    parser.add_argument("--window-factor", type=float, dest="window_factor",
                        help="half-window in units of the pulse width 1/sqrt(a)")
    parser.add_argument("--approx", action="store_true",
                        help="with rap-cd: drop Re C, keeping the correction Hermitian")
    args = parser.parse_args(argv)

    try:
        cfg = load_run_config(args.scenario, args.config, args.out, args.dt,
                              args.window_factor, args.approx)
        return _RUNNERS[cfg.scenario](cfg)
    except ConfigError as exc:
        print(f"sta: config error: {exc}", file=sys.stderr)
        return 2
    except StaError as exc:
        print(f"sta: runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
