"""Covariance of the command-line runs under a rescaling of time.

Time scaled by 1/s, with every rate scaled by s, must leave each run's
physics unchanged.  A run that fixes a scale of time of its own, such as a
substep or a tolerance in seconds rather than in omega dt, breaks it; a
constant factor slipped into one unit conversion does not.

  - atom: gamma_mhz and rabi_peak_mhz times s, both chirps times s^2 and
    dt_ns over s; P1, P2, norm2 and adiab_ratio or c_minus_abs are the
    unscaled run's, and t_ns times s is the unscaled grid
  - trap: f0_hz, ff_hz and v0_um_per_ms times s and tf_ms over s; each
    column is the unscaled one times its power of s

At s a power of two every scaling is exact, so the columns must be bitwise
those powers of the unscaled ones.  That holds as a property too: s a power
of two from 2^-6 to 2^6 and a config drawn near the defaults, as the exit
contract's configs are drawn but clear of overflow, underflow and the step
ceiling, then both runs exit 0, warn alike and give bitwise covariant
columns (derandomized, a few examples per scenario).  At s = 3.7 they hold within 1e-12 of
each column's largest magnitude, or on the atom of the unit norm it starts
from, where the exact drive's leakage is roundoff (measured: 1.4e-13
relative in the trap's E/omega, 2.5e-14 absolute on the atom).  Every run
goes through sta.cli.main and its CSV, to the 17 digits that round-trip a
double.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta import cli

# column -> power of s it scales by
ATOM_POWERS = {"t_ns": -1, "P1": 0, "P2": 0, "norm2": 0, "adiab_ratio": 0, "c_minus_abs": 0}
TRAP_POWERS = {"t_s": -1, "q_m": 0, "v_m_per_s": 1, "energy_J": 2, "energy_over_omega_Js": 1,
               "omega_sq_rad2_per_s2": 2, "rho": 0, "q_oracle_m": 0, "v_oracle_m_per_s": 1}
TRAP_BASE = {"v0_um_per_ms": 2.0}  # a moving start, so v0 scales too


def _atom_config(s: float) -> dict:
    d = cli.ATOM_DEFAULTS
    return {"gamma_mhz": d["gamma_mhz"] * s, "rabi_peak_mhz": d["rabi_peak_mhz"] * s,
            "chirp_a_ghz2": d["chirp_a_ghz2"] * s**2, "chirp_b_ghz2": d["chirp_b_ghz2"] * s**2,
            "dt_ns": d["dt_ns"] / s}


def _trap_config(s: float) -> dict:
    d = {**cli.TRAP_DEFAULTS, **TRAP_BASE}
    return {"f0_hz": d["f0_hz"] * s, "ff_hz": d["ff_hz"] * s,
            "v0_um_per_ms": d["v0_um_per_ms"] * s, "tf_ms": d["tf_ms"] / s}


@pytest.fixture(scope="module")
def columns(tmp_path_factory):
    """(scenario, s) -> the CSV columns of its run by header name; each config runs once."""
    runs = {}

    def get(scenario: str, s: float) -> dict:
        if (scenario, s) not in runs:
            config = _trap_config(s) if scenario == "oscillator" else _atom_config(s)
            cfg = tmp_path_factory.mktemp("covariance") / "cfg.json"
            out = cfg.with_name("out.csv")
            cfg.write_text(json.dumps(config))
            assert cli.main([scenario, "--config", str(cfg), "--out", str(out)]) == 0
            names = out.read_text().split("\n", 1)[0].split(",")
            runs[scenario, s] = dict(zip(names, np.loadtxt(out, delimiter=",", skiprows=1).T))
        return runs[scenario, s]

    return get


def _assert_covariant(columns, scenario: str, s: float, powers: dict, floor: float,
                      capsys) -> None:
    base, scaled = columns(scenario, 1.0), columns(scenario, s)
    assert capsys.readouterr().err == ""  # no run warns
    assert list(scaled) == list(base)
    for name, x in scaled.items():
        want = base[name] * s ** powers[name]
        assert x.shape == want.shape, name
        if s == 2.0 ** round(np.log2(s)):
            np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64), err_msg=name)
        else:
            bound = 1e-12 * max(np.max(np.abs(want)), floor)
            assert np.max(np.abs(x - want)) <= bound, name


@pytest.mark.parametrize("s", [4.0, 16.0, 3.7])
@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx"])
def test_atom_runs_are_covariant_under_time_rescaling(columns, capsys, scenario, s):
    assert len(columns(scenario, 1.0)["t_ns"]) == 15916
    _assert_covariant(columns, scenario, s, ATOM_POWERS, 1.0, capsys)


@pytest.mark.parametrize("s", [4.0, 3.7])
def test_oscillator_is_covariant_under_time_rescaling(columns, capsys, s):
    _assert_covariant(columns, "oscillator", s, TRAP_POWERS, 0.0, capsys)


PROPERTY = settings(max_examples=4, deadline=None, derandomize=True)

_scale = st.integers(-6, 6).filter(bool).map(lambda k: 2.0**k)
_sign = st.sampled_from([1.0, -1.0])


def _near(value, decades=0.5):
    """Within a factor of 10**decades of value, log-uniformly."""
    return st.floats(-decades, decades).map(lambda e: value * 10.0**e)


# the defaults' neighbourhood, at a dt that keeps an atom run to a few
# thousand steps; Omega_0 stays far above Gamma / 2, the exceptional point
ATOM_CONFIGS = st.fixed_dictionaries({
    "gamma_mhz": _near(cli.ATOM_DEFAULTS["gamma_mhz"]),
    "rabi_peak_mhz": _near(cli.ATOM_DEFAULTS["rabi_peak_mhz"]),
    "chirp_a_ghz2": _near(cli.ATOM_DEFAULTS["chirp_a_ghz2"], 0.25),
    "chirp_b_ghz2": st.builds(lambda sign, b: sign * b, _sign,
                              _near(cli.ATOM_DEFAULTS["chirp_b_ghz2"])),
    "window_factor": _near(cli.ATOM_DEFAULTS["window_factor"], 0.1),
    "dt_ns": _near(0.004, 0.25),
})
TRAP_CONFIGS = st.fixed_dictionaries({
    "f0_hz": _near(cli.TRAP_DEFAULTS["f0_hz"]),
    "ff_hz": _near(cli.TRAP_DEFAULTS["ff_hz"]),
    "tf_ms": _near(cli.TRAP_DEFAULTS["tf_ms"]),
    "mass_kg": _near(cli.TRAP_DEFAULTS["mass_kg"]),
    "q0_um": st.builds(lambda sign, q: sign * q, _sign, _near(cli.TRAP_DEFAULTS["q0_um"])),
    "v0_um_per_ms": st.builds(lambda sign, v: sign * v, _sign, _near(TRAP_BASE["v0_um_per_ms"])),
    "n_shortcut": st.integers(101, 2001),
    "n_ellipse": st.integers(11, 501),
})


def _scaled(scenario: str, config: dict, s: float) -> dict:
    """config with time scaled by 1/s, as _atom_config and _trap_config scale the defaults."""
    if scenario == "oscillator":
        factors = {"f0_hz": s, "ff_hz": s, "v0_um_per_ms": s, "tf_ms": 1.0 / s}
    else:
        factors = {"gamma_mhz": s, "rabi_peak_mhz": s, "chirp_a_ghz2": s**2,
                   "chirp_b_ghz2": s**2, "dt_ns": 1.0 / s}
    return {key: value * factors[key] if key in factors else value
            for key, value in config.items()}


def _run(path, scenario: str, config: dict):
    """The CSV columns by header name and the stderr of one in-process run that exits 0."""
    cfg, out = path / "cfg.json", path / "out.csv"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([scenario, "--config", str(cfg), "--out", str(out)])
    assert code == 0, (config, err.getvalue())
    names = out.read_text().split("\n", 1)[0].split(",")
    return dict(zip(names, np.loadtxt(out, delimiter=",", skiprows=1).T)), err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("covariance-property")


def _assert_bitwise_covariant(run_dir, scenario: str, config: dict, s: float,
                              powers: dict) -> None:
    (base, base_err), (scaled, scaled_err) = (
        _run(run_dir, scenario, c) for c in (config, _scaled(scenario, config, s)))
    assert bool(base_err) == bool(scaled_err), (base_err, scaled_err)
    assert list(scaled) == list(base)
    for name, x in scaled.items():
        want = base[name] * s ** powers[name]
        np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64), err_msg=name)


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx"])
@PROPERTY
@given(config=ATOM_CONFIGS, s=_scale)
def test_atom_runs_are_bitwise_covariant_near_the_defaults(run_dir, scenario, config, s):
    _assert_bitwise_covariant(run_dir, scenario, config, s, ATOM_POWERS)


@PROPERTY
@given(config=TRAP_CONFIGS, s=_scale)
def test_oscillator_is_bitwise_covariant_near_the_defaults(run_dir, config, s):
    _assert_bitwise_covariant(run_dir, "oscillator", config, s, TRAP_POWERS)
