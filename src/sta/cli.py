"""Command-line front end.

    sta <scenario> [--config PATH] [--out PATH] [--dt X] [--window-factor X]

Scenarios
---------
rap           bare chirped-Gaussian sweep of the decaying atom
rap-cd        sweep with the exact counterdiabatic correction
rap-cd-approx sweep with the Hermitian (Re C dropped) correction; never warns
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
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import counterdiabatic as cd
from . import csvfmt, diagnostics, trap
from .errors import ConfigError, StaError
from .propagate import (_require_steps, branch_projection, convergence_order, propagate,
                        propagate_pair)
from .pulses import ChirpedGaussianParams, _alpha_dot, _ratio, _span_walk, chirped_gaussian

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

@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: scenario, output path and merged parameters."""

    scenario: str
    out: Path | None
    params: dict

    @property
    def out_path(self) -> Path:
        return self.out if self.out is not None else Path(f"{self.scenario}.csv")


@dataclass(frozen=True)
class Table:
    """A CSV scenario's outcome: the header and columns main writes, and its warning or None."""

    header: list[str]
    columns: list[np.ndarray]
    warning: str | None


def _require_number(scenario: str, key: str, value, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' for scenario '{scenario}' must be a number")
    try:
        v = float(value)
    except OverflowError:  # a JSON integer past the double range
        raise ConfigError(f"config key '{key}' must be finite, got an integer too large "
                          "for a double") from None
    if not np.isfinite(v):
        raise ConfigError(f"config key '{key}' must be finite, got {value}")
    if minimum is not None and (v < minimum or (strict and v == minimum)):
        cmp = ">" if strict else ">="
        raise ConfigError(f"config key '{key}' must be {cmp} {minimum}, got {value}")
    return v


def _validate(scenario: str, params: dict, flags: dict) -> dict:
    """params with every value checked, then the flag values checked and merged over them."""
    out = {**params, **flags}
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
    for key, value in [*params.items(), *flags.items()]:
        if key in ("n_shortcut", "n_ellipse"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key '{key}' must be an integer")
            _require_number(scenario, key, value, minimum=2)
        else:
            out[key] = _require_number(scenario, key, value, **rules[key])
    return out


def load_run_config(scenario: str, config_path, out, dt, window_factor) -> RunConfig:
    """Merge defaults, the JSON config file and command-line overrides."""
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}'")
    params = dict(_SCENARIOS[scenario][1])
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
    flags = {}
    if dt is not None and scenario != "oscillator":
        flags["dt_ns"] = dt
    if window_factor is not None and "window_factor" in params:
        flags["window_factor"] = window_factor
    params = _validate(scenario, params, flags)
    if dt is not None and scenario == "oscillator":
        if not 0.0 < dt < params["tf_ms"] * 1e-3:
            raise ConfigError("--dt must lie in (0, tf) seconds for the oscillator")
        steps = params["tf_ms"] * 1e-3 / dt
        _require_steps(steps, f"--dt {dt}")
        params["n_shortcut"] = int(round(steps)) + 1
    if window_factor is not None and "window_factor" not in params:
        raise ConfigError(f"--window-factor does not apply to scenario '{scenario}'")
    return RunConfig(scenario=scenario, out=Path(out) if out is not None else None, params=params)


def _atom_setup(params: dict):
    """Schedule and grid in internal units (rad/ns, ns) from config numbers."""
    # (2 pi)^2 x overflows past about 4.55e306, to inf with no numpy warning as
    # Python floats, and ChirpedGaussianParams would raise on it; 2 pi 1e-3 x cannot
    chirps = {key: TWO_PI**2 * float(params[key]) for key in ("chirp_a_ghz2", "chirp_b_ghz2")}
    for key, x in chirps.items():
        if not abs(x) < math.inf:
            raise ConfigError(f"config key '{key}' = {params[key]:g} is out of range: its "
                              "value in rad/ns^2 is not a finite double")
    # chirped_gaussian's rates form 2a, which overflows past about 2.28e306 and
    # would meet the 0.0 of the pulse centre as inf times zero
    if not 2.0 * chirps["chirp_a_ghz2"] < math.inf:
        raise ConfigError(f"config key 'chirp_a_ghz2' = {params['chirp_a_ghz2']:g} is out of "
                          "range: twice its value in rad/ns^2 is not a finite double")
    cg = ChirpedGaussianParams(
        rabi_peak=TWO_PI * 1e-3 * params["rabi_peak_mhz"],
        width_a=chirps["chirp_a_ghz2"],
        chirp_b=chirps["chirp_b_ghz2"],
        gamma=TWO_PI * 1e-3 * params["gamma_mhz"],
    )
    # the half-window as chirped_gaussian forms it; Python floats, so a window
    # that overflows is inf, with no numpy warning
    half = params["window_factor"] / math.sqrt(cg.width_a)
    if not half > 0.0:
        raise ConfigError(f"config keys 'window_factor' = {params['window_factor']:g} and "
                          f"'chirp_a_ghz2' = {params['chirp_a_ghz2']:g} are out of range "
                          "together: the window they give underflows to zero")
    window = 2.0 * half
    _require_steps(window / params["dt_ns"], f"dt_ns = {params['dt_ns']} over the window")
    # alpha_dot and complex_rabi square these rates, doubled, and add up to
    # three such squares; (4 x)^2 finite keeps every sum finite too
    rates = {"rabi_peak_mhz": ("the peak Rabi frequency", cg.rabi_peak),
             "gamma_mhz": ("the decay rate", cg.gamma),
             "chirp_b_ghz2": ("the detuning at the window edge", abs(cg.chirp_b) * window)}
    for key, (what, x) in rates.items():
        if not (4.0 * x) * (4.0 * x) < math.inf:
            raise ConfigError(f"config key '{key}' = {params[key]:g} is out of range: {what} "
                              "it gives is too large to square in rad/ns")
    # alpha_dot's numerator multiplies Omega_R' by Delta - i Gamma/2 and Omega_R
    # by Delta' = -2b; |Omega_R'| <= Omega_0 sqrt(2a/e) and |Omega_R' Delta| <=
    # (2/e) Omega_0 2|b|, so 4 x y finite for these pairs keeps its sums finite
    pairs = {("rabi_peak_mhz", "chirp_b_ghz2"): (cg.rabi_peak, 2.0 * abs(cg.chirp_b)),
             ("rabi_peak_mhz", "gamma_mhz"): (cg.rabi_peak * math.sqrt(cg.width_a), cg.gamma)}
    for (k1, k2), (x, y) in pairs.items():
        if not 4.0 * x * y < math.inf:
            raise ConfigError(f"config keys '{k1}' = {params[k1]:g} and '{k2}' = "
                              f"{params[k2]:g} are out of range together: their product in "
                              "the mixing-angle rate is too large in rad/ns")
    schedule = chirped_gaussian(cg, window_factor=params["window_factor"])
    return schedule, schedule.grid(params["dt_ns"])


def _transitionless_sweep(schedule, grid: np.ndarray, sweep):
    """Corrected atom sweep from the upper branch chi_+, then its leakage |c_-|.

    H_0 + H_1 carries chi_+ from t0, so sweep(r0), the caller's propagation
    under the caller's drive, needs only the anchor angle.  The mixing-angle
    trajectory is built after it, so no basis is held during the sweep and
    a BranchJump comes after it.  Returns the trajectory and |c_-| on the
    grid, projected from the minus row alone.
    """
    start = cd.MixingAngleTrajectory(grid[:1], [cd.mixing_angle_anchor(schedule, grid[0])])
    traj = sweep(start.right_at(0, 0))
    basis = cd.mixing_angle_trajectory(schedule, grid)
    return traj, branch_projection(traj, basis, 1)


def _keep_old_bytes(path, flags: int) -> int:
    """os.open for open(..., opener=): the flags Python chose, less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _open_out(path: Path, mode: str):
    """path opened for writing over its old bytes, cut to length and closed after the block.

    An existing file is not truncated when it opens, which on an ext4 disk
    costs almost a millisecond for the atom's 1.6 MB CSV; the block writes over
    the old bytes and a regular file is cut to the bytes written when the
    block ends.  If the block raises, the file is cut just after the bytes
    this run wrote, so no old bytes stay behind them, and the error
    propagates.  Other files (/dev/null, a pipe) are left as they are: they
    cannot be cut.

    ConfigError if path cannot be opened, as for the config file; StaError
    if a write, the cut or the close fails, as on a full device.
    """
    try:
        fh = open(path, mode, opener=_keep_old_bytes)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc
    try:
        with fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                yield fh
            except BaseException:
                if regular:
                    # at the raw offset, past the bytes written; close writes the buffer after it
                    with contextlib.suppress(OSError):
                        os.ftruncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))
                raise
            if regular:
                fh.truncate()
    except OSError as exc:
        raise StaError(f"cannot write output file: {exc}") from exc


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-separated columns at 17 significant digits, one header row.

    Every value is written as "%.17g" % x would write it.  The columns are
    copied csvfmt.BLOCK_VALUES // len(columns) rows at a time into one
    reused block; each block is formatted by the numpy kernel in
    csvfmt.format_rows and written before the next one is copied.  The
    blocks go over an existing file's old bytes, which _open_out cuts off
    at the end, also when a block fails to format.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns differ in length")
    rows = max(1, csvfmt.BLOCK_VALUES // len(columns))
    block = np.empty((min(rows, n), len(columns)))
    with _open_out(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for s in range(0, n, rows):
            m = min(rows, n - s)
            for j, c in enumerate(columns):
                block[:m, j] = c[s:s + m]
            fh.write(csvfmt.format_rows(block[:m]))


def run_rap(cfg: RunConfig) -> Table:
    """Bare sweep: populations, norm and the adiabaticity monitor, inf where the gap closes."""
    schedule, grid = _atom_setup(cfg.params)
    traj = propagate(lambda t: cd.bare_hamiltonian(schedule, t), [0.0, 1.0], grid)
    ratio, closed = _span_walk(schedule, grid, _ratio)
    p1, p2 = traj.p1, traj.p2
    del traj  # the states, before the CSV's columns and block
    return Table(["t_ns", "P1", "P2", "norm2", "adiab_ratio"], [grid, p1, p2, p1 + p2, ratio],
                 diagnostics.gap_warning(int(np.count_nonzero(closed))))


def run_rap_cd(cfg: RunConfig) -> Table:
    """Corrected sweep starting on the upper branch, with branch leakage.

    The exact drive leaks at roundoff unless the grid misses the turning
    rate near an exceptional point; rap-cd-approx leaks by design.
    """
    approx = cfg.scenario == "rap-cd-approx"
    schedule, grid = _atom_setup(cfg.params)
    drive = cd.cd_hamiltonian_approx if approx else cd.cd_hamiltonian
    traj, leak = _transitionless_sweep(
        schedule, grid, lambda r0: propagate(lambda t: drive(schedule, t), r0, grid))
    p1, p2 = traj.p1, traj.p2
    del traj  # the states, before the CSV's columns and block
    return Table(["t_ns", "P1", "P2", "norm2", "c_minus_abs"], [grid, p1, p2, p1 + p2, leak],
                 None if approx else diagnostics.leakage_warning(float(leak.max())))


def run_cd_terms(cfg: RunConfig) -> Table:
    """Counterdiabatic coupling components and the adiabaticity monitor.

    C diverges at an exceptional point on the sweep, so the mixing-angle pass
    runs first, for its refusal alone, as in rap-cd: ZeroGap ("mixing-angle rate
    diverges") where its samples land on the point, BranchJump where they step
    over it; either exits 3.  C and the monitor then come from _span_walk.
    """
    schedule, grid = _atom_setup(cfg.params)
    cd.mixing_angle_trajectory(schedule, grid)
    c, ratio = _span_walk(schedule, grid, lambda r: (0.5j * _alpha_dot(r), _ratio(r)[0]))
    return Table(["t_ns", "c_real_rad_per_ns", "c_imag_rad_per_ns", "adiab_ratio"],
                 [grid, c.real, c.imag, ratio], None)


def _trap_plan(params: dict) -> trap.ErmakovPlan:
    """Ermakov plan in SI units (rad/s, s, kg, m) from trap config numbers.

    The plan squares omega0, omegaf and tf; ConfigError names a key whose
    square in SI units overflows or underflows to zero.
    """
    si = {"f0_hz": TWO_PI * params["f0_hz"], "ff_hz": TWO_PI * params["ff_hz"],
          "tf_ms": 1e-3 * params["tf_ms"]}
    for key, x in si.items():
        # a Python float product gives inf or 0.0 where ** would raise OverflowError
        if not 0.0 < x * x < math.inf:
            raise ConfigError(f"config key '{key}' = {params[key]:g} is out of range: its "
                              "square in SI units is not a positive finite double")
    # rho ends at sqrt(f0/ff), and omega^2 divides by rho^4
    ratio = si["f0_hz"] / si["ff_hz"]
    if not 0.0 < ratio * ratio < math.inf:
        raise ConfigError(f"config key 'ff_hz' = {params['ff_hz']:g} is out of range for "
                          f"f0_hz = {params['f0_hz']:g}: the square of f0_hz / ff_hz is not "
                          "a positive finite double")
    plan = trap.plan_expansion(trap.ExpansionSpec(
        omega0=si["f0_hz"],
        omegaf=si["ff_hz"],
        tf=si["tf_ms"],
        mass=params["mass_kg"],
        q0=1e-6 * params["q0_um"],
        v0=1e-3 * params["v0_um_per_ms"],
    ))
    _require_finite_energy(plan, params)
    return plan


def _require_finite_energy(plan: trap.ErmakovPlan, params: dict) -> None:
    """ConfigError naming q0_um or v0_um_per_ms if the orbit's SI energy may overflow.

    Bounds the orbit q = R rho cos(theta), p/m = R (rho' cos(theta) -
    (omega0/rho) sin(theta)) over the run: |q| <= R max(rho), |p/m| <=
    R (max|rho'| + omega0 / min(rho)), and omega^2 by its largest magnitude.
    The energy's terms, and q^2 and p alone, must then be finite.  The key
    named is the larger part of the amplitude R = hypot(q0, v0/omega0).
    """
    rho_f = plan.rho_final
    w2 = max(plan.omega0**2, plan.omegaf**2, plan.max_abs_omega_sq)
    q = plan.amplitude * max(1.0, rho_f)
    # max|rho'| of the quintic ramp is 15/8 |rho_f - 1| / tf, at its midpoint
    v = plan.amplitude * (1.875 * abs(rho_f - 1.0) / plan.tf + plan.omega0 / min(1.0, rho_f))
    if 0.5 * v * (plan.mass * v) + 0.5 * plan.mass * w2 * (q * q) < math.inf:
        return
    q0, v0 = 1e-6 * params["q0_um"], 1e-3 * params["v0_um_per_ms"]
    key = "q0_um" if abs(q0) >= abs(v0) / plan.omega0 else "v0_um_per_ms"
    raise ConfigError(f"config key '{key}' = {params[key]:g} is out of range: the energy of "
                      "the orbit it launches overflows in SI units")


def _display_grid(params: dict, plan: trap.ErmakovPlan) -> tuple[np.ndarray, int, int]:
    """The ramp's grid with one display period either side; indices of t = 0 and tf.

    ConfigError past the step ceiling, or naming tf_ms and ff_hz when the
    period after the ramp repeats points: it steps from tf by 2 pi /
    (omegaf n_ellipse), which rounds away below the spacing of doubles at
    tf.  The lead and ramp steps cannot: _trap_plan keeps the squares of
    omega0 and tf finite and nonzero.
    """
    n_ramp, n_period = params["n_shortcut"], params["n_ellipse"]
    # summed as floats: a sum past the double range is inf, which the message can print
    _require_steps(float(n_ramp) + 2.0 * n_period - 1.0, "n_shortcut + 2 n_ellipse")
    lead = np.linspace(-TWO_PI / plan.omega0, 0.0, n_period + 1)[:-1]
    ramp = np.linspace(0.0, plan.tf, n_ramp)
    tail = np.linspace(plan.tf, plan.tf + TWO_PI / plan.omegaf, n_period + 1)[1:]
    if not (tail[0] > plan.tf and np.all(tail[1:] > tail[:-1])):
        raise ConfigError(f"config keys 'tf_ms' = {params['tf_ms']:g} and 'ff_hz' = "
                          f"{params['ff_hz']:g} are out of range together: the display "
                          "period after the ramp is too short to step from tf in doubles")
    return np.concatenate([lead, ramp, tail]), n_period, n_period + n_ramp - 1


def run_oscillator(cfg: RunConfig) -> Table:
    """Trap expansion with one display period at either end.

    Emits the closed-form trajectory, its energy bookkeeping and the RK4
    integration of Hamilton's equations as independent columns.  Its
    warning (diagnostics.oscillator_warning) says when the two routes
    disagree in q or v beyond diagnostics.ORACLE, or else when the energies
    written at t = 0 and t = tf break the energy claim or the orbit rests.
    """
    plan = _trap_plan(cfg.params)
    grid, start, end = _display_grid(cfg.params, plan)

    # the oracle first, so only the grid sits beside its sweep; each
    # trajectory is dropped once its q and v are taken, with its p
    oracle = trap.hamilton_trajectory(plan, grid)
    q_oracle, v_oracle = oracle.q, oracle.p / plan.mass
    del oracle
    closed = trap.closed_form_trajectory(plan, grid)
    # rho and omega^2 once on the grid, for the energy, E/omega and their columns
    rho = plan.rho(grid)
    w2 = plan._omega_sq(rho, plan.rho_ddot(grid))
    energy = trap._energy(closed.q, closed.p, plan.mass, w2)
    q, v = closed.q, closed.p / plan.mass
    del closed
    e_over_w = np.where(w2 > 0.0, energy / np.sqrt(np.where(w2 > 0.0, w2, 1.0)), np.nan)
    warning = diagnostics.oscillator_warning(plan, q, v, q_oracle, v_oracle,
                                             float(energy[start]), float(energy[end]))
    return Table(["t_s", "q_m", "v_m_per_s", "energy_J", "energy_over_omega_Js",
                  "omega_sq_rad2_per_s2", "rho", "q_oracle_m", "v_oracle_m_per_s"],
                 [grid, q, v, energy, e_over_w, w2, rho, q_oracle, v_oracle], warning)


def run_check(cfg: RunConfig) -> tuple[list[str], bool]:
    """Run the invariant suite: its lines and verdict, as diagnostics measures and reports them.

    Both atom figures come from one _transitionless_sweep under the
    corrected drive, run as a pair from (r0, r0*): its forward states give
    the leakage, its conserved overlap <psi_hat|psi> the drift.  The
    biorthogonality defect runs first, so its arrays are freed before the sweep.
    """
    measured = {"biorthogonality-closure-reconstruction": diagnostics.biortho_defect()}
    schedule, grid = _atom_setup({**ATOM_DEFAULTS, "dt_ns": cfg.params["dt_ns"]})
    pair, leak = _transitionless_sweep(schedule, grid, lambda r0: propagate_pair(
        lambda t: cd.cd_hamiltonian(schedule, t), r0, r0.conj(), grid))
    measured["transitionless-branch-leakage"] = float(np.max(leak))
    measured["biorthogonal-overlap-drift"] = diagnostics.overlap_drift(pair.biorth_overlap)
    plan = _trap_plan(TRAP_DEFAULTS)
    ts = np.linspace(0.0, plan.tf, 10001)
    rho, rho_ddot = plan.rho(ts), plan.rho_ddot(ts)
    measured["ermakov-residual"] = diagnostics.ermakov_residual(
        rho, rho_ddot, plan._omega_sq(rho, rho_ddot), plan.omega0)
    inv = trap.invariant_at(plan, np.linspace(0.0, plan.tf, 101))
    measured["invariant-determinant"] = diagnostics.determinant_defect(inv.a, inv.b, inv.c)
    order = convergence_order(lambda t: cd.bare_hamiltonian(schedule, t), [0.0, 1.0],
                              schedule.window, n0=512)
    measured["rk4-convergence-order"] = abs(order - 4.0)
    return diagnostics.check_lines(measured, cfg.params["tolerance_scale"], plan.omega0)


def _write_text(out: Path | None, text: str) -> None:
    """text to out, if one is given, then to stdout; StaError if stdout cannot take it."""
    if out is not None:
        with _open_out(out, "w") as fh:
            fh.write(text)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit; let that flush reach devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise StaError(f"cannot write standard output: {exc}") from exc


# scenario name -> (runner, defaults)
_SCENARIOS = {
    "rap": (run_rap, ATOM_DEFAULTS),
    "rap-cd": (run_rap_cd, ATOM_DEFAULTS),
    "rap-cd-approx": (run_rap_cd, ATOM_DEFAULTS),
    "cd-terms": (run_cd_terms, ATOM_DEFAULTS),
    "oscillator": (run_oscillator, TRAP_DEFAULTS),
    "check": (run_check, CHECK_DEFAULTS),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sta",
        description="Shortcuts to adiabaticity: counterdiabatic atom sweeps and trap expansions.",
    )
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--config", metavar="PATH", help="JSON parameter file (strict keys)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default <scenario>.csv)")
    parser.add_argument("--dt", type=float, help="time step override (ns for atom, s for trap)")
    parser.add_argument("--window-factor", type=float, dest="window_factor",
                        help="half-window in units of the pulse width 1/sqrt(a)")
    args = parser.parse_args(argv)

    try:
        cfg = load_run_config(args.scenario, args.config, args.out, args.dt, args.window_factor)
        # numpy's overflow, invalid and divide warnings become runtime errors;
        # the sites that make inf on purpose hold their own errstate
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outcome = _SCENARIOS[cfg.scenario][0](cfg)
            if cfg.scenario == "check":
                lines, ok = outcome
                _write_text(cfg.out, "\n".join(lines) + "\n")
                return 0 if ok else 4
            write_csv(cfg.out_path, outcome.header, outcome.columns)
        if outcome.warning:
            print(f"sta: warning: {outcome.warning}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"sta: config error: {exc}", file=sys.stderr)
        return 2
    except StaError as exc:
        print(f"sta: runtime error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"sta: runtime error: floating-point error in {args.scenario}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"sta: runtime error: out of memory: {reason}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
