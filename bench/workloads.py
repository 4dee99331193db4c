"""Seeded inputs for the benchmark workloads and the checks on their outputs.

Each workload is one `sta` scenario run through `sta.cli.main(argv)` on a
generated `--config` file; that file is the only input the program sees.
The reasons for choosing each workload are recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The atom grid spans 2 * window_factor / sqrt(a) ns with a = (2 pi)^2 chirp_a,
# i.e. 15.915 ns at the fixed chirp_a = 0.01 and window_factor = 5; dt = 1e-3 ns.
ATOM_STEPS = 15_915
TRAP_SHORTCUT = 2001
TRAP_ELLIPSE = 501
TRAP_ROWS = TRAP_SHORTCUT + 2 * TRAP_ELLIPSE

ATOM_HEADER = ["t_ns", "P1", "P2", "norm2", "c_minus_abs"]
TRAP_HEADER = ["t_s", "q_m", "v_m_per_s", "energy_J", "energy_over_omega_Js",
               "omega_sq_rad2_per_s2", "rho", "q_oracle_m", "v_oracle_m_per_s"]

# Bounds quoted from the repository's own claims: `sta check` and the
# acceptance gate (criteria 02 and 08) and energy_audit's 1e-9 identity.
LEAK_BOUND = 1e-5
ENERGY_RATIO_RTOL = 1e-9
ORACLE_AGREEMENT = 1e-6


def atom_config(rng: np.random.Generator) -> dict:
    """rap-cd parameters from a box far from the exceptional point Omega_0 = Gamma/2.

    Gamma/2 stays below 2 MHz while Omega_0 stays above 50 MHz.  chirp_a,
    window_factor and dt_ns are fixed, so every run integrates ATOM_STEPS.
    """
    return {
        "gamma_mhz": float(rng.uniform(0.5, 4.0)),
        "rabi_peak_mhz": float(rng.uniform(50.0, 150.0)),
        "chirp_a_ghz2": 0.01,
        "chirp_b_ghz2": float(rng.uniform(1.5e-4, 4.0e-4)),
        "window_factor": 5.0,
        "dt_ns": 0.001,
    }


def trap_config(rng: np.random.Generator) -> dict:
    """oscillator parameters around the shipped 250 Hz -> 2.5 Hz opening."""
    return {
        "f0_hz": float(rng.uniform(200.0, 300.0)),
        "ff_hz": float(rng.uniform(2.0, 4.0)),
        "q0_um": float(rng.uniform(0.5, 2.0)),
        "v0_um_per_ms": float(rng.uniform(-1.0, 1.0)),
        "n_shortcut": TRAP_SHORTCUT,
        "n_ellipse": TRAP_ELLIPSE,
    }


def check_config(rng: np.random.Generator) -> dict:
    """`sta check` runs on fixed inputs by contract; the seed changes nothing."""
    return {"tolerance_scale": 1.0, "dt_ns": 0.001}


def _read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n").split(",")
        if first != header:
            raise ValueError(f"header {first} is not {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, len(header)):
        raise ValueError(f"CSV holds {data.shape[0]} x {data.shape[1]}, "
                         f"expected {rows} x {len(header)}")
    return data


def check_atom(config: dict, out: Path, stdout: str) -> None:
    """Row count and branch leakage at roundoff for the exact drive."""
    data = _read_csv(out, ATOM_HEADER, ATOM_STEPS + 1)
    leak = float(np.max(data[:, 4]))
    if not leak < LEAK_BOUND:
        raise ValueError(f"max c_minus_abs {leak:.3e} not below {LEAK_BOUND:.0e}")


def check_trap(config: dict, out: Path, stdout: str) -> None:
    """Row count, E(tf)/E(0) = omega_f/omega_0 and closed form against the oracle."""
    data = _read_csv(out, TRAP_HEADER, TRAP_ROWS)
    i0 = config["n_ellipse"]
    i1 = i0 + config["n_shortcut"] - 1
    tf = 1e-3 * config.get("tf_ms", 25.0)
    if data[i0, 0] != 0.0 or data[i1, 0] != tf:
        raise ValueError(f"ramp ends at rows {i0}, {i1} read t = {data[i0, 0]}, {data[i1, 0]}")
    ratio = data[i1, 3] / data[i0, 3]
    expected = config["ff_hz"] / config["f0_hz"]
    if not abs(ratio / expected - 1.0) <= ENERGY_RATIO_RTOL:
        raise ValueError(f"E(tf)/E(0) = {ratio!r} but omega_f/omega_0 = {expected!r}")
    for closed, oracle, name in ((1, 7, "q"), (2, 8, "v")):
        gap = np.max(np.abs(data[:, closed] - data[:, oracle])) / np.max(np.abs(data[:, closed]))
        if not gap < ORACLE_AGREEMENT:
            raise ValueError(f"closed-form {name} differs from the oracle by {gap:.3e} relative")


def check_self_check(config: dict, out: Path, stdout: str) -> None:
    """Every invariant passed and the report says so."""
    lines = stdout.splitlines()
    if not lines or lines[-1] != "all checks passed" or any(l.startswith("FAIL") for l in lines):
        raise ValueError(f"check report does not pass: {stdout.strip()!r}")


@dataclass(frozen=True)
class Workload:
    """One scenario, how its config is drawn and how its output is checked.

    check raises ValueError (or any error while reading the output) when
    the run's output is wrong.
    """

    name: str
    scenario: str
    size: str
    make_config: Callable[[np.random.Generator], dict]
    check: Callable[[dict, Path, str], None]

    def argv(self, config_path: Path, out: Path) -> list[str]:
        return [self.scenario, "--config", str(config_path), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("atom-cd", "rap-cd",
                 f"{ATOM_STEPS} RK4 steps, CSV {ATOM_STEPS + 1} x {len(ATOM_HEADER)}",
                 atom_config, check_atom),
        Workload("trap-open", "oscillator",
                 f"{TRAP_ROWS} points ({TRAP_SHORTCUT} on the ramp), "
                 f"CSV {TRAP_ROWS} x {len(TRAP_HEADER)}",
                 trap_config, check_trap),
        Workload("self-check", "check",
                 f"1000 matrices, {ATOM_STEPS}-step sweep and pair, order probe "
                 "at 512/1024/4096 steps, no CSV",
                 check_config, check_self_check),
    )
}
