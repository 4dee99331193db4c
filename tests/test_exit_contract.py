"""Property tests of the CLI's exit contract over random configs.

Every run of rap, rap-cd, rap-cd-approx, cd-terms and oscillator, driven
in process through sta.cli.main, exits 0, 2 or 3 with no traceback, and a
run that exits 2 or 3 prints exactly one line.  A rap-cd run that exits 0
keeps its branch leakage below diagnostics.LEAKAGE or says that it does
not; an oscillator run that exits 0 keeps E(tf)/E(0) = omega_f/omega_0
within diagnostics.ENERGY_RTOL and its Hamilton oracle within
diagnostics.ORACLE of the closed form, or says that it does not.  The
bounds are read from diagnostics; the comparisons are this module's own.

Each numeric key is left at its default, or drawn log-uniformly in
magnitude over 1e-300 to 10^308.25, the top of the double range, or
within a factor of 100 of its default
(signed for chirp_b_ghz2, q0_um and v0_um_per_ms).  About one config in
four sets one key to an integer past the double range.  Gamma = 0, a peak
Rabi frequency at or near the exceptional point Omega_0 = Gamma/2, ff > f0
and sample counts of 2-200 are drawn too.  The step ceiling is lowered to
2,000 so that a run stays short, and the examples are derandomized so that
every run of the suite draws the same configs.  Each run is made under
warnings.simplefilter("error"), so any Python or numpy warning fails it.
"""

import contextlib
import io
import json
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta import cli
from sta.diagnostics import ENERGY_RTOL, LEAKAGE, ORACLE

propagate_module = sys.modules["sta.propagate"]

MAX_STEPS = 2000
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
BIG = 2**1024  # the least integer past the double range

_magnitude = st.floats(-300.0, 308.25).map(lambda e: 10.0**e)  # 10.0**e raises past 308.25
_sign = st.sampled_from([1, -1])


def _near(value):
    """Within a factor of 100 of value, where most runs fit the step ceiling."""
    return st.floats(-2.0, 2.0).map(lambda e: value * 10.0**e)


def _key(default, signed=False):
    """A key's value: log-uniform over 1e-300 to 1.8e308 or near its default (or 1 if that is 0)."""
    values = st.one_of(_magnitude, _near(abs(default) or 1.0))
    return st.builds(operator.mul, _sign, values) if signed else values


def _one_too_large(draw, cfg, keys):
    """About one config in four has one key set to an integer past the double range."""
    if draw(st.integers(0, 3)) == 0:
        cfg[draw(st.sampled_from(keys))] = draw(_sign) * draw(st.integers(BIG, 2**1100))
    return cfg


@st.composite
def atom_configs(draw):
    d = cli.ATOM_DEFAULTS
    cfg = draw(st.fixed_dictionaries({}, optional={
        "gamma_mhz": st.one_of(st.just(0.0), _key(d["gamma_mhz"])),
        "rabi_peak_mhz": _key(d["rabi_peak_mhz"]),
        # and the band where (2 pi)^2 x is finite but twice it is not
        "chirp_a_ghz2": st.one_of(_key(d["chirp_a_ghz2"]), st.floats(2.3e306, 4.55e306)),
        "chirp_b_ghz2": _key(d["chirp_b_ghz2"], signed=True),
        "window_factor": _key(d["window_factor"]),
        # the default 0.001 ns is 15,915 steps, past the lowered ceiling
        "dt_ns": st.one_of(_key(d["dt_ns"]), _near(0.02)),
    }))
    gamma = cfg.get("gamma_mhz", d["gamma_mhz"])
    if draw(st.booleans()):
        # Omega_0 at or just above Gamma/2, the exceptional point at the pulse centre
        cfg["rabi_peak_mhz"] = 0.5 * gamma * (1.0 + draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1])))
    return _one_too_large(draw, cfg, list(d))


@st.composite
def trap_configs(draw):
    d = cli.TRAP_DEFAULTS
    cfg = draw(st.fixed_dictionaries({
        "n_shortcut": st.integers(2, 200),
        "n_ellipse": st.integers(2, 200),
    }, optional={
        "f0_hz": _key(d["f0_hz"]),
        "tf_ms": _key(d["tf_ms"]),
        "mass_kg": _key(d["mass_kg"]),
        "q0_um": _key(d["q0_um"], signed=True),
        "v0_um_per_ms": _key(d["v0_um_per_ms"], signed=True),
    }))
    f0 = cfg.get("f0_hz", d["f0_hz"])
    if draw(st.booleans()):
        cfg["ff_hz"] = f0 * 10.0 ** draw(st.floats(0.0, 3.0))  # compression, ff >= f0
    else:
        cfg["ff_hz"] = draw(_key(d["ff_hz"]))
    return _one_too_large(draw, cfg, list(d))


def _run(tmp_path, scenario, payload):
    """(exit code, stderr, CSV path) of one in-process run with the step ceiling lowered."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(payload))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with (pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        mp.setattr(propagate_module, "_MAX_STEPS", MAX_STEPS)
        code = cli.main([scenario, "--config", str(cfg), "--out", str(out)])
    text = err.getvalue()
    assert code in (0, 2, 3), (code, text)
    assert "Traceback" not in text
    if code:
        prefix = "sta: config error: " if code == 2 else "sta: runtime error: "
        assert text.startswith(prefix) and text.count("\n") == 1, text
        assert not out.exists()
    else:
        assert out.exists()
    return code, text, out


def _columns(path):
    return np.genfromtxt(path, delimiter=",", names=True)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-contract")


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
@SETTINGS
@given(payload=atom_configs())
@example(payload={"gamma_mhz": 10**400})
@example(payload={"chirp_b_ghz2": -(10**400)})
@example(payload={"chirp_b_ghz2": 1e308})
@example(payload={"chirp_b_ghz2": -1e308})
@example(payload={"chirp_a_ghz2": 1e308})
@example(payload={"chirp_a_ghz2": 4e306})
@example(payload={"gamma_mhz": 0.0, "dt_ns": 0.02})
@example(payload={"rabi_peak_mhz": 1.001, "dt_ns": 0.01})
def test_atom_runs_keep_the_exit_contract(run_dir, scenario, payload):
    code, err, out = _run(run_dir, scenario, payload)
    if code == 0 and scenario == "rap-cd":
        with np.errstate(invalid="ignore"):
            leak = np.max(_columns(out)["c_minus_abs"])
        assert leak < LEAKAGE or err.startswith("sta: warning: max branch leakage"), (
            leak, err)


def _energy_ratio_holds(payload, energy, n_ellipse, n_shortcut):
    e0, ef = float(energy[n_ellipse]), float(energy[n_ellipse + n_shortcut - 1])
    ratio = payload.get("ff_hz", 2.5) / payload.get("f0_hz", 250.0)
    return e0 > 0.0 and abs(ef / e0 - ratio) <= ENERGY_RTOL * ratio


def _oracle_holds(rows):
    with np.errstate(over="ignore", invalid="ignore"):
        return all(np.max(np.abs(rows[x] - rows[o])) <= ORACLE * np.max(np.abs(rows[x]))
                   for x, o in (("q_m", "q_oracle_m"), ("v_m_per_s", "v_oracle_m_per_s")))


@SETTINGS
@given(payload=trap_configs())
@example(payload={"n_ellipse": 10**400})
@example(payload={"n_shortcut": 10**400})
@example(payload={"q0_um": 1e-145, "n_shortcut": 1001, "n_ellipse": 251})
@example(payload={"q0_um": 1e-150, "n_shortcut": 1001, "n_ellipse": 251})
@example(payload={"ff_hz": 1e5, "n_shortcut": 101, "n_ellipse": 11})
@example(payload={"q0_um": 0.0, "v0_um_per_ms": 0.0})
def test_oscillator_runs_keep_the_exit_contract(run_dir, payload):
    code, err, out = _run(run_dir, "oscillator", payload)
    if code == 0:
        rows = _columns(out)
        n_ellipse = payload.get("n_ellipse", cli.TRAP_DEFAULTS["n_ellipse"])
        n_shortcut = payload.get("n_shortcut", cli.TRAP_DEFAULTS["n_shortcut"])
        holds = (_energy_ratio_holds(payload, rows["energy_J"], n_ellipse, n_shortcut)
                 and _oracle_holds(rows))
        assert holds or err.startswith("sta: warning: "), (payload, err)
