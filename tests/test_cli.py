"""End-to-end runs of the command-line scenarios.

Each test drives sta.cli.main directly with --out pointing into tmp_path
and asserts on the parsed CSV or on the exit code and stderr text.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sta.cli as climod
import sta.counterdiabatic as cdmod
import sta.diagnostics as diagmod
from sta import csvfmt
from sta.cli import main, write_csv
from sta.pulses import PulseSchedule

propagate_module = sys.modules["sta.propagate"]
quadrature_module = sys.modules["sta.quadrature"]

TWO_PI = 2.0 * np.pi
WINDOW = 5.0 / np.sqrt(TWO_PI**2 * 0.01)  # default half-window, ns
REST = {"q0_um": 0.0}  # with the default v0 = 0, the oscillator's rest orbit
REST_LINE = "sta: warning: q0 = v0 = 0: rest solution, trajectory is identically zero\n"


def run(tmp_path, scenario, *args, out="out.csv"):
    path = tmp_path / out
    code = main([scenario, "--out", str(path), *args])
    return code, path


def table(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def header(path):
    return Path(path).read_text().splitlines()[0]


def config_file(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_rap_csv_structure(tmp_path):
    code, path = run(tmp_path, "rap", "--dt", "0.01")
    assert code == 0
    assert header(path) == "t_ns,P1,P2,norm2,adiab_ratio"
    rows = table(path)
    assert abs(rows["t_ns"][0] + WINDOW) < 1e-12
    assert abs(rows["t_ns"][-1] - WINDOW) < 1e-12
    assert rows["P1"][0] == 0.0 and rows["P2"][0] == 1.0 and rows["norm2"][0] == 1.0
    # decay only removes norm; the bare sweep also leaves population behind
    assert np.all(np.diff(rows["norm2"]) <= 1e-12)
    assert rows["norm2"][-1] < 1.0
    assert rows["P2"][-1] > 0.05
    assert np.max(rows["adiab_ratio"]) > 1.0


def test_rap_pure_decay_matches_exponential(tmp_path):
    cfg = config_file(tmp_path, {"rabi_peak_mhz": 0.0, "dt_ns": 0.01})
    code, path = run(tmp_path, "rap", "--config", cfg)
    assert code == 0
    rows = table(path)
    gamma = TWO_PI * 0.002
    expected = np.exp(-gamma * (rows["t_ns"] - rows["t_ns"][0]))
    np.testing.assert_allclose(rows["P2"], expected, atol=1e-9)
    assert np.all(rows["P1"] == 0.0)
    np.testing.assert_allclose(rows["norm2"], rows["P2"], atol=1e-16)


def test_rap_grid_refinement_agrees(tmp_path):
    _, coarse = run(tmp_path, "rap", "--dt", "0.02", out="coarse.csv")
    _, fine = run(tmp_path, "rap", "--dt", "0.005", out="fine.csv")
    last_c, last_f = table(coarse)[-1], table(fine)[-1]
    for name in ("P1", "P2", "norm2"):
        assert abs(last_c[name] - last_f[name]) < 1e-8


def test_rap_cd_transfer_and_leakage(tmp_path):
    code, path = run(tmp_path, "rap-cd", "--dt", "0.005")
    assert code == 0
    assert header(path) == "t_ns,P1,P2,norm2,c_minus_abs"
    rows = table(path)
    assert rows["P2"][0] > 0.999                       # starts on the upper branch
    assert rows["P2"][-1] < 1e-10                      # full inversion
    assert abs(rows["norm2"][-1] - np.exp(-0.1)) < 1e-6
    assert np.max(rows["c_minus_abs"]) < 1e-5


def test_rap_cd_lossless_is_unitary(tmp_path):
    cfg = config_file(tmp_path, {"gamma_mhz": 0.0, "dt_ns": 0.005})
    code, path = run(tmp_path, "rap-cd", "--config", cfg)
    assert code == 0
    rows = table(path)
    assert np.max(np.abs(rows["norm2"] - 1.0)) < 1e-7
    assert rows["P1"][-1] > 1.0 - 1e-6


def test_approx_scenario_drops_re_c(tmp_path, capsys):
    _, exact = run(tmp_path, "rap-cd", "--dt", "0.01", out="exact.csv")
    code, approx = run(tmp_path, "rap-cd-approx", "--dt", "0.01", out="approx.csv")
    assert code == 0
    # the truncated drive leaks by design and never warns
    assert capsys.readouterr().err == ""
    e, a = table(exact), table(approx)
    assert np.max(a["c_minus_abs"]) > 1e-5
    gap = max(np.max(np.abs(e["P1"] - a["P1"])), np.max(np.abs(e["P2"] - a["P2"])))
    # dropping Re C is visible in the populations but stays below a percent
    assert 1e-4 < gap < 0.01


def test_cd_terms_csv(tmp_path):
    code, path = run(tmp_path, "cd-terms", "--dt", "0.01")
    assert code == 0
    assert header(path) == "t_ns,c_real_rad_per_ns,c_imag_rad_per_ns,adiab_ratio"
    rows = table(path)
    mid = int(np.argmin(np.abs(rows["t_ns"])))
    assert abs(rows["c_real_rad_per_ns"][mid]) < 1e-12
    assert abs(rows["c_imag_rad_per_ns"][mid] - 0.015709534221371106) < 1e-9
    assert abs(rows["adiab_ratio"][mid] - 0.0250037504688047) < 1e-6
    assert np.max(np.abs(rows["c_imag_rad_per_ns"])) > np.max(np.abs(rows["c_real_rad_per_ns"]))
    assert np.max(rows["adiab_ratio"]) > 1.0


def test_cd_terms_samples_the_rates_once_per_span(monkeypatch, tmp_path):
    # --dt 0.01 gives 1,593 points: the angle pass samples its two refined
    # spans and its anchor, then C and the monitor one span of _spans each
    calls, atom_setup = [], climod._atom_setup

    def counted_setup(params):
        schedule, grid = atom_setup(params)
        return PulseSchedule(rates=lambda t: calls.append(np.shape(t)) or schedule.rates(t),
                             window=schedule.window), grid

    monkeypatch.setattr(climod, "_atom_setup", counted_setup)
    code, path = run(tmp_path, "cd-terms", "--dt", "0.01", out="spans.csv")
    assert code == 0
    assert calls == [(3073,), (113,), (), (1536,), (57,)]
    monkeypatch.setattr(quadrature_module, "_SPAN", 10 * 1593)
    code, whole = run(tmp_path, "cd-terms", "--dt", "0.01", out="whole.csv")
    assert code == 0 and path.read_bytes() == whole.read_bytes()


def test_oscillator_default_csv(tmp_path):
    code, path = run(tmp_path, "oscillator")
    assert code == 0
    assert header(path) == ("t_s,q_m,v_m_per_s,energy_J,energy_over_omega_Js,"
                            "omega_sq_rad2_per_s2,rho,q_oracle_m,v_oracle_m_per_s")
    rows = table(path)
    assert len(rows) == 501 + 2001 + 501  # one display period on each side
    t = rows["t_s"]
    i0, i1 = 501, 501 + 2000
    assert t[i0] == 0.0 and abs(t[i1] - 0.025) < 1e-15
    np.testing.assert_allclose(t[0], -0.004, rtol=1e-12)
    np.testing.assert_allclose(t[-1], 0.425, rtol=1e-12)

    np.testing.assert_allclose(rows["q_m"][i0], 1e-6, rtol=1e-12)
    np.testing.assert_allclose(rows["rho"][-1], 10.0, rtol=1e-9)
    np.testing.assert_allclose(rows["omega_sq_rad2_per_s2"][-1], (TWO_PI * 2.5) ** 2,
                               rtol=1e-9)
    np.testing.assert_allclose(rows["energy_J"][i0], 1.7765287921960842e-31, rtol=1e-12)
    np.testing.assert_allclose(rows["energy_J"][i1] / rows["energy_J"][i0], 0.01, rtol=1e-9)

    # adiabatic invariant E/omega agrees at the two ends, and the default
    # trap never inverts, so the column has no gaps
    ew = rows["energy_over_omega_Js"]
    assert np.all(np.isfinite(ew))
    np.testing.assert_allclose(ew[0], 1.1309733552923255e-34, rtol=1e-12)
    np.testing.assert_allclose(ew[-1], ew[0], rtol=1e-9)

    assert np.max(np.abs(rows["q_m"] - rows["q_oracle_m"])) < 1e-6 * np.max(np.abs(rows["q_m"]))
    assert np.max(np.abs(rows["v_m_per_s"] - rows["v_oracle_m_per_s"])) < \
        1e-6 * np.max(np.abs(rows["v_m_per_s"]))


def test_oscillator_dt_sets_the_ramp_sample_count(tmp_path):
    # --dt in seconds becomes n_shortcut = tf/dt + 1 samples across the ramp
    code, path = run(tmp_path, "oscillator", "--dt", "1e-5")
    assert code == 0
    t = table(path)["t_s"]
    assert len(t) == 501 + 2501 + 501
    i0, i1 = 501, 501 + 2500
    assert t[i0] == 0.0 and abs(t[i1] - 0.025) < 1e-15
    np.testing.assert_allclose(np.diff(t[i0:i1 + 1]), 1e-5, rtol=1e-9)


def test_oscillator_fast_inverted_trap(tmp_path):
    cfg = config_file(tmp_path, {"tf_ms": 1.0, "n_shortcut": 201, "n_ellipse": 11})
    code, path = run(tmp_path, "oscillator", "--config", cfg)
    assert code == 0  # an expulsive transient is physical, not an error
    rows = table(path)
    assert np.min(rows["omega_sq_rad2_per_s2"]) < 0.0
    assert np.isnan(rows["energy_over_omega_Js"]).any()
    assert np.all(np.isfinite(rows["q_m"]))


def test_oscillator_heavy_mass_energy_is_finite(tmp_path):
    # p = m v overflows when squared for a heavy mass, while the energy does not
    cfg = config_file(tmp_path, {"mass_kg": 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path = run(tmp_path, "oscillator", "--config", cfg)
    assert code == 0
    rows = table(path)
    assert np.all(np.isfinite(rows["energy_J"]))
    assert np.all(np.isfinite(rows["energy_over_omega_Js"]))


def test_oscillator_fast_compression_oracle_is_finite(tmp_path):
    # omega_f dt reaches 7.9 on the display grid of the ramp; the oracle substeps
    cfg = config_file(tmp_path, {"ff_hz": 1e5})
    code, path = run(tmp_path, "oscillator", "--config", cfg)
    assert code == 0
    rows = table(path)
    assert len(rows) == 501 + 2001 + 501
    for closed, oracle in (("q_m", "q_oracle_m"), ("v_m_per_s", "v_oracle_m_per_s")):
        assert np.all(np.isfinite(rows[oracle]))
        gap = np.max(np.abs(rows[closed] - rows[oracle])) / np.max(np.abs(rows[closed]))
        assert gap < 1e-2


# the closed form and its Hamilton oracle differ by 160 orders of magnitude
# in a strongly inverted ramp; at ff_hz = 1e5 q agrees, but v misses by
# 1.2e-7 against 3.1e-8; on the rest orbit the comparison must not divide
# 0 by 0, and the run says that it rests instead
@pytest.mark.parametrize("payload,warns", [
    ({}, None),
    (REST, None),
    ({"ff_hz": 1e5}, "v"),
    ({"f0_hz": 3.78e-6, "ff_hz": 1.88e-4, "tf_ms": 1.88e-85, "mass_kg": 3.53e-118,
      "q0_um": 6.8e-243, "v0_um_per_ms": 7.3e95, "n_shortcut": 50, "n_ellipse": 20}, "q"),
], ids=["default", "rest", "ff-1e5", "inverted"])
def test_oscillator_warns_when_oracle_disagrees(tmp_path, capsys, payload, warns):
    code, path = run(tmp_path, "oscillator", "--config", config_file(tmp_path, payload))
    err = capsys.readouterr().err
    assert code == 0
    assert path.exists()
    if warns:
        assert err.startswith(f"sta: warning: max |{warns} - {warns}_oracle| = ")
        assert err.count("\n") == 1
    else:
        assert err == (REST_LINE if payload == REST else "")


# E(0) = m omega0^2 q0^2 / 2 is subnormal at q0 = 1e-145 um, where the
# written E(tf)/E(0) reads 0.0111 against omega_f/omega_0 = 0.01, and it
# underflows to 0 at 1e-150 um; the rest orbit, with no energy, says that it rests
@pytest.mark.parametrize("payload,warns", [
    ({}, False),
    (REST, False),
    ({"q0_um": 1e-145}, True),
    ({"q0_um": 1e-150}, True),
], ids=["default", "rest", "subnormal-energy", "zero-energy"])
def test_oscillator_warns_when_energy_ratio_misses(tmp_path, capsys, payload, warns):
    code, path = run(tmp_path, "oscillator", "--config", config_file(tmp_path, payload))
    err = capsys.readouterr().err
    assert code == 0
    energy = table(path)["energy_J"]
    e0, ef = energy[501], energy[501 + 2000]  # t = 0 and t = tf
    if warns:
        assert err.startswith("sta: warning: closed-form E(tf)/E(0) misses omega_f/omega_0 = ")
        assert err.count("\n") == 1
        assert not (e0 > 0 and abs(ef / e0 - 0.01) <= 1e-11)
    else:
        assert err == (REST_LINE if payload == REST else "")


@pytest.mark.parametrize("q0_um", [1e-145, 1e-150], ids=["subnormal-energy", "zero-energy"])
def test_energy_audit_raises_with_the_cli_warning(tmp_path, capsys, q0_um):
    # one statement of the energy claim: the library raises the reason the
    # command line warns with, and a moving orbit whose E(0) is 0 fails it
    code, _ = run(tmp_path, "oscillator", "--config", config_file(tmp_path, {"q0_um": q0_um}))
    err = capsys.readouterr().err
    assert code == 0
    plan = climod._trap_plan({**climod.TRAP_DEFAULTS, "q0_um": q0_um})
    assert plan.amplitude > 0.0
    with pytest.raises(ValueError) as raised:
        climod.trap.energy_audit(plan)
    assert err == f"sta: warning: {raised.value}; the run does not confirm the energy claim\n"


def _run_rest_orbit(tmp_path, src, flags):
    """(exit code, stderr) of the console entry point on the rest orbit, importing sta from src."""
    cfg = config_file(tmp_path, REST)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "sta.cli", "oscillator", "--config", cfg,
         "--out", str(tmp_path / "rest.csv")],
        cwd=src, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return done.returncode, done.stderr


# -W acts at startup, hence the subprocess; run from src, python -m imports
# sta from there.  Before, -W error::UserWarning ended in a traceback with
# exit 1, -W ignore dropped the message, and the default formatter quoted
# the install path and a line number of cli.py.
@pytest.mark.parametrize("flags", [[], ["-W", "error::UserWarning"], ["-W", "ignore"]],
                         ids=["no-flag", "error", "ignore"])
def test_rest_orbit_warns_once_under_any_warnings_filter(tmp_path, flags):
    src = Path(climod.__file__).resolve().parents[1]
    assert _run_rest_orbit(tmp_path, src, flags) == (0, REST_LINE)


def test_rest_orbit_stderr_does_not_depend_on_the_install_path(tmp_path):
    src = Path(climod.__file__).resolve().parents[1]
    copy = tmp_path / "elsewhere" / "src"
    shutil.copytree(src / "sta", copy / "sta", ignore=shutil.ignore_patterns("__pycache__"))
    assert _run_rest_orbit(tmp_path, copy, []) == _run_rest_orbit(tmp_path, src, []) \
        == (0, REST_LINE)


def test_oscillator_initial_velocity(tmp_path):
    cfg = config_file(tmp_path, {"v0_um_per_ms": 2.0, "n_shortcut": 101, "n_ellipse": 11})
    code, path = run(tmp_path, "oscillator", "--config", cfg)
    assert code == 0
    rows = table(path)
    assert len(rows) == 11 + 101 + 11
    i0 = 11
    assert rows["t_s"][i0] == 0.0
    np.testing.assert_allclose(rows["q_m"][i0], 1e-6, rtol=1e-9)
    np.testing.assert_allclose(rows["v_m_per_s"][i0], 2e-3, rtol=1e-9)


@pytest.mark.parametrize("scenario,bound", [("oscillator", 30_021), ("check", 20_103)])
def test_each_ramp_quantity_costs_one_rho_evaluation_per_time(monkeypatch, tmp_path, capsys,
                                                              scenario, bound):
    # 38,030 and 30,104 points when omega^2 was built twice on the display
    # grid and rho a third time for its column, the oracle's start point
    # before the ramp built the 2,001-node phase table and the check's
    # Ermakov residual took rho again for its omega^2; counted as
    # bench/spans.py counts trap.rho_points
    points = []
    rho = climod.trap.ErmakovPlan.rho

    def counted(plan, t):
        points.append(int(np.size(t)))
        return rho(plan, t)

    monkeypatch.setattr(climod.trap.ErmakovPlan, "rho", counted)
    assert main([scenario, "--out", str(tmp_path / "out")]) == 0
    assert sum(points) <= bound


def test_check_passes(tmp_path, capsys):
    code, path = run(tmp_path, "check", out="report.txt")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert out.rstrip().endswith("all checks passed")
    assert path.read_text() == out


def test_check_leakage_is_the_rap_cd_maximum(tmp_path, capsys):
    # the check and a default rap-cd run share one transitionless sweep
    code, path = run(tmp_path, "rap-cd")
    assert code == 0 and main(["check"]) == 0
    leak = table(path)["c_minus_abs"].max()
    assert f"transitionless-branch-leakage: measured={leak:.3e} " in capsys.readouterr().out


def test_check_matrices_match_per_iteration_draws():
    rng = np.random.default_rng(7)
    expected = []
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[1, 0] = m[0, 1]
        expected.append(m)
    drawn = diagmod._check_matrices()
    assert drawn.shape == (1000, 2, 2)
    assert np.array_equal(drawn, np.array(expected))


def test_check_degenerate_draw_is_runtime_error(monkeypatch, capsys):
    degenerate = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
    monkeypatch.setattr(diagmod, "_check_matrices", lambda: degenerate)
    code = main(["check"])
    err = capsys.readouterr().err
    assert code == 3
    assert "sta: runtime error: matrix 0:" in err


def test_check_detects_sign_error(monkeypatch, capsys):
    def flipped(schedule, t):
        return cdmod.bare_hamiltonian(schedule, t) - cdmod.cd_correction(schedule, t)

    monkeypatch.setattr(cdmod, "cd_hamiltonian", flipped)
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL transitionless-branch-leakage" in out
    assert "PASS biorthogonality-closure-reconstruction" in out
    assert out.rstrip().endswith("some checks FAILED")


def test_check_drift_is_the_corrected_pairs(capsys):
    # at dt_ns = 0.1 the corrected drive's pair drifts 9.3e-8, past the
    # 1e-8 threshold (the bare drive's pair drifted 3.3e-10), while its
    # forward states leak 7.5e-8
    assert main(["check", "--dt", "0.1"]) == 4
    out = capsys.readouterr().out
    assert "FAIL biorthogonal-overlap-drift" in out
    assert "PASS transitionless-branch-leakage" in out


def test_check_branch_jump_follows_the_sweep(monkeypatch, capsys):
    # the mixing-angle trajectory is built after the pair sweep, and a grid
    # too coarse for it still ends the check with exit 3
    pairs = []
    original = climod.propagate_pair
    monkeypatch.setattr(climod, "propagate_pair", lambda *args: pairs.append(1) or original(*args))
    assert main(["check", "--dt", "5.0"]) == 3
    assert "sta: runtime error: mixing angle jumps" in capsys.readouterr().err
    assert pairs == [1]


def test_check_tightened_tolerances_fail(tmp_path, capsys):
    cfg = config_file(tmp_path, {"tolerance_scale": 1e-6})
    code = main(["check", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out and "measured=" in out
    assert out.rstrip().endswith("some checks FAILED")


def test_rap_cd_at_exceptional_point_is_runtime_error(tmp_path, capsys):
    # Omega_0 = Gamma/2 puts an exceptional point at the pulse center
    cfg = config_file(tmp_path, {"rabi_peak_mhz": 1.0, "gamma_mhz": 2.0})
    code, _ = run(tmp_path, "rap-cd", "--config", cfg)
    err = capsys.readouterr().err
    assert code == 3
    assert "sta: runtime error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload, flags, code, warns", [
    ({"rabi_peak_mhz": 1.001, "gamma_mhz": 2.0}, [], 0, True),   # grid misses the peak rate
    ({}, [], 0, False),                                          # defaults: roundoff leakage
    ({}, ["--dt", "0.01"], 0, False),                            # a coarser grid, still small
    ({"rabi_peak_mhz": 1.0, "gamma_mhz": 2.0}, [], 3, False),    # on the exceptional point
])
def test_rap_cd_leakage_warning(tmp_path, capsys, payload, flags, code, warns):
    cfg = config_file(tmp_path, payload)
    got, path = run(tmp_path, "rap-cd", "--config", cfg, *flags)
    err = capsys.readouterr().err
    assert got == code
    assert ("sta: warning: max branch leakage" in err) == warns
    if got == 0:
        leak = np.max(table(path)["c_minus_abs"])
        assert (leak > 1e-5) == warns
        if not warns:
            assert err == ""


@pytest.mark.parametrize("scenario,code,flags", [
    pytest.param("cd-terms", 3, (), id="cd-terms-3"),
    pytest.param("rap", 0, (), id="rap-0"),
    pytest.param("cd-terms", 3, ("--dt", "0.01"), id="cd-terms-3-dt0.01"),
    pytest.param("rap", 0, ("--dt", "0.01"), id="rap-0-dt0.01"),
])
def test_cd_terms_refuses_exceptional_point(tmp_path, capsys, scenario, code, flags):
    # at the default dt the grid misses t = 0, where C(t) diverges; at dt =
    # 0.01 it lands on it and the gap closes there.  cd-terms refuses as
    # rap-cd does, while the bare sweep it does not use stays valid and
    # writes its undefined monitor as inf
    cfg = config_file(tmp_path, {"rabi_peak_mhz": 1.0, "gamma_mhz": 2.0})
    got, path = run(tmp_path, scenario, "--config", cfg, *flags)
    err = capsys.readouterr().err
    assert got == code
    # BranchJump where the grid misses t = 0, ZeroGap where it lands on it
    refusal = "mixing-angle rate diverges" if flags else "mixing angle jumps"
    assert (refusal in err) == (code == 3)
    if got == 3:
        # the angle pass refuses before C or the monitor is sampled or the CSV opened
        assert err.startswith("sta: runtime error: ") and err.count("\n") == 1
        assert not path.exists()
    if got == 0:
        rows = table(path)
        closed = np.isinf(rows["adiab_ratio"])
        assert np.all(np.isfinite(rows["P1"]) & np.isfinite(rows["P2"]))
        assert np.count_nonzero(closed) == (1 if flags else 0)
        assert rows["t_ns"][closed].tolist() == ([0.0] if flags else [])
        assert ("adiab_ratio is written as inf" in err) == bool(flags)


def test_rap_monitor_past_the_double_range_is_inf(tmp_path, capsys):
    # the gap is positive on every row, but so small next to the turning
    # rate near t = 0 that the quotient overflowed with a numpy warning
    cfg = config_file(tmp_path, {"gamma_mhz": 0.0, "rabi_peak_mhz": 2.1e-36,
                                 "chirp_a_ghz2": 7.5e43, "chirp_b_ghz2": 2.3e272,
                                 "window_factor": 2.2e-270, "dt_ns": 2e-294})
    code, path = run(tmp_path, "rap", "--config", cfg)
    assert code == 0
    assert capsys.readouterr().err == ""
    ratio = table(path)["adiab_ratio"]
    assert np.count_nonzero(np.isinf(ratio)) == 1
    assert np.all(np.isfinite(ratio) | np.isposinf(ratio))


def test_unknown_config_key(tmp_path, capsys):
    cfg = config_file(tmp_path, {"bogus_key": 1})
    code, _ = run(tmp_path, "rap", "--config", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert "sta: config error:" in err and "bogus_key" in err


@pytest.mark.parametrize("scenario,payload", [
    ("rap", {"dt_ns": 0}),
    ("rap", {"gamma_mhz": -1.0}),
    ("rap", {"chirp_a_ghz2": 0.0}),
    ("rap", {"rabi_peak_mhz": True}),
    ("rap", {"dt_ns": float("nan")}),
    ("oscillator", {"n_shortcut": 2.5}),
    ("oscillator", {"n_ellipse": 1}),
    ("oscillator", {"mass_kg": 0.0}),
    ("check", {"tolerance_scale": 0.0}),
])
def test_bad_config_values(tmp_path, capsys, scenario, payload):
    cfg = config_file(tmp_path, payload)
    code, _ = run(tmp_path, scenario, "--config", cfg)
    assert code == 2
    assert "sta: config error:" in capsys.readouterr().err


BIG = 10**400  # a JSON integer past the double range


@pytest.mark.parametrize("scenario,key", [
    *[("rap", key) for key in climod.ATOM_DEFAULTS],
    *[("oscillator", key) for key in climod.TRAP_DEFAULTS if not key.startswith("n_")],
    *[("check", key) for key in climod.CHECK_DEFAULTS],
])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_too_large_for_a_double_is_config_error(tmp_path, capsys, scenario, key, sign):
    code, _ = run(tmp_path, scenario, "--config", config_file(tmp_path, {key: sign * BIG}))
    assert code == 2
    assert capsys.readouterr().err == (f"sta: config error: config key '{key}' must be finite, "
                                       "got an integer too large for a double\n")


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
@pytest.mark.parametrize("key,value", [("chirp_b_ghz2", 1e308), ("chirp_b_ghz2", -1e308),
                                       ("chirp_a_ghz2", 1e308), ("chirp_b_ghz2", 4.6e306)])
def test_chirp_past_the_double_range_in_rad_per_ns_is_config_error(tmp_path, capsys, scenario,
                                                                  key, value):
    # (2 pi)^2 x overflows to inf past about 4.55e306, and ChirpedGaussianParams
    # raised its own ValueError with a traceback before any guard of the CLI ran
    code, path = run(tmp_path, scenario, "--config", config_file(tmp_path, {key: value}))
    assert code == 2
    assert capsys.readouterr().err == (f"sta: config error: config key '{key}' = {value:g} is out "
                                       "of range: its value in rad/ns^2 is not a finite double\n")
    assert not path.exists()


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
@pytest.mark.parametrize("value", [2.28e306, 2.3e306, 4e306, 4.55e306])
def test_chirp_whose_double_overflows_in_rad_per_ns_is_config_error(tmp_path, capsys, scenario,
                                                                   value):
    # (2 pi)^2 x is finite here but 2a is not: chirped_gaussian's -2.0 * a * t
    # met the 0.0 of the pulse centre as inf times zero, a floating-point
    # runtime error (exit 3) for an out-of-range key
    assert np.isfinite(TWO_PI**2 * value) and 2.0 * TWO_PI**2 * value == np.inf
    code, path = run(tmp_path, scenario, "--config", config_file(tmp_path, {"chirp_a_ghz2": value}))
    assert code == 2
    assert capsys.readouterr().err == (f"sta: config error: config key 'chirp_a_ghz2' = {value:g} "
                                       "is out of range: twice its value in rad/ns^2 is not a "
                                       "finite double\n")
    assert not path.exists()


@pytest.mark.parametrize("payload,message", [
    ({"n_shortcut": BIG}, "config key 'n_shortcut' must be finite"),
    ({"n_ellipse": BIG}, "config key 'n_ellipse' must be finite"),
    # each count is a double, but n_shortcut + 2 n_ellipse is not
    ({"n_shortcut": 10**308, "n_ellipse": 10**308}, "n_shortcut + 2 n_ellipse gives inf steps"),
], ids=["n_shortcut", "n_ellipse", "sum"])
def test_oscillator_counts_too_large_for_a_double_are_config_errors(tmp_path, capsys, payload,
                                                                     message):
    code, _ = run(tmp_path, "oscillator", "--config", config_file(tmp_path, payload))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"sta: config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("tf_ms", ["25", None])
def test_oscillator_dt_with_bad_tf_is_config_error(tmp_path, capsys, tf_ms):
    # the config is validated before --dt is converted with tf_ms
    cfg = config_file(tmp_path, {"tf_ms": tf_ms})
    code, _ = run(tmp_path, "oscillator", "--config", cfg, "--dt", "1e-5")
    err = capsys.readouterr().err
    assert code == 2
    assert "sta: config error:" in err and "tf_ms" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario,dt", [("rap", "0.1"), ("check", "0.05")])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_path_is_config_error(tmp_path, capsys, scenario, dt, where):
    # IsADirectoryError and FileNotFoundError ended in a traceback, exit 1
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code = main([scenario, "--dt", dt, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sta: config error: cannot write output file: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("scenario,dt", [("rap", "0.1"), ("check", "0.05")])
def test_failed_write_to_out_is_runtime_error(capsys, scenario, dt):
    # /dev/full opens but fails every write: an OSError traceback, exit 1, before
    code = main([scenario, "--dt", dt, "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("sta: runtime error: cannot write output file: [Errno 28]")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("scenario,dt", [("oscillator", None), ("check", "0.05")])
def test_longer_existing_out_ends_as_a_fresh_write(tmp_path, capsys, scenario, dt):
    # the output is written over the old bytes, then cut to its own length
    flags = ["--dt", dt] if dt else []
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    assert main([scenario, *flags, "--out", str(fresh)]) == 0
    old.write_bytes(b"x" * (2 * fresh.stat().st_size + 4097))
    assert main([scenario, *flags, "--out", str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()


def test_failed_block_leaves_no_old_bytes(tmp_path, monkeypatch, capsys):
    # a format error between writes cuts the file after the blocks already written
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 2_000_000)
    written, format_rows = [], csvfmt.format_rows

    def third_block_fails(block):
        if len(written) == 2:
            raise FloatingPointError("overflow encountered in multiply")
        written.append(format_rows(block))
        return written[-1]

    monkeypatch.setattr(csvfmt, "format_rows", third_block_fails)
    assert main(["rap", "--dt", "0.01", "--out", str(path)]) == 3
    assert capsys.readouterr().err.startswith("sta: runtime error: floating-point error in rap")
    head = b"t_ns,P1,P2,norm2,adiab_ratio\n"
    assert path.read_bytes() == head + b"".join(written)


def test_out_through_a_hard_link_keeps_its_inode(tmp_path):
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    path.write_bytes(b"x" * 100_000)
    os.link(path, link)
    inode = path.stat().st_ino
    assert main(["rap", "--dt", "0.1", "--out", str(path)]) == 0
    assert path.stat().st_ino == inode
    assert link.read_bytes() == path.read_bytes()
    assert link.read_bytes().startswith(b"t_ns,") and b"x" not in link.read_bytes()


@pytest.mark.skipif(not Path(os.devnull).exists(), reason="needs a null device")
@pytest.mark.parametrize("scenario,dt", [("oscillator", None), ("check", "0.05")])
def test_out_to_the_null_device(capsys, scenario, dt):
    # the null device is seekable, but cutting it to length fails with EINVAL
    flags = ["--dt", dt] if dt else []
    assert main([scenario, *flags, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scenario,dt", [("rap", "0.1"), ("check", "0.05")])
def test_read_only_existing_out_is_config_error(tmp_path, capsys, scenario, dt):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        pytest.skip("this user may write to read-only files")
    code = main([scenario, "--dt", dt, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sta: config error: cannot write output file: [Errno 13]")
    assert path.read_bytes() == b"old"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_failed_write_to_stdout_is_runtime_error(unbuffered):
    # before: unbuffered, an OSError traceback from the write, exit 1; buffered,
    # "Exception ignored in: <_io.TextIOWrapper name='<stdout>' ...>", exit 120
    src = str(Path(climod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "sta.cli", "check", "--dt", "0.05"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert done.returncode == 3
    assert done.stderr.startswith("sta: runtime error: cannot write standard output: [Errno 28]")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_config_file_errors(tmp_path, capsys):
    code, _ = run(tmp_path, "rap", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config file" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _ = run(tmp_path, "rap", "--config", str(broken))
    assert code == 2 and "not valid JSON" in capsys.readouterr().err

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    code, _ = run(tmp_path, "rap", "--config", str(listy))
    assert code == 2 and "JSON object" in capsys.readouterr().err


def test_flag_misuse(tmp_path, capsys):
    code, _ = run(tmp_path, "oscillator", "--window-factor", "3.0")
    assert code == 2 and "window-factor" in capsys.readouterr().err

    code, _ = run(tmp_path, "rap", "--dt", "-1.0")
    assert code == 2

    code, _ = run(tmp_path, "oscillator", "--dt", "1.0")  # beyond tf
    assert code == 2

    code, _ = run(tmp_path, "oscillator", "--dt", "nan")
    assert code == 2 and "--dt" in capsys.readouterr().err


def test_unknown_scenario_exits_via_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    # argparse refuses it first; the config loader refuses it on its own too
    with pytest.raises(climod.ConfigError, match="^unknown scenario 'frobnicate'$"):
        climod.load_run_config("frobnicate", None, tmp_path / "out", None, None)


def test_approx_flag_exits_via_argparse(capsys):
    # rap-cd-approx is the one selector of the Hermitian drive
    with pytest.raises(SystemExit) as excinfo:
        main(["rap-cd", "--approx"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --approx" in capsys.readouterr().err


# --dt and --window-factor obey the config rules of dt_ns and window_factor,
# checked after the config file's keys and in that order
@pytest.mark.parametrize("scenario,payload,flags,message", [
    ("rap", {"dt_ns": -1}, ["--dt", "-2"], "config key 'dt_ns' must be > 0.0, got -1"),
    ("rap", {}, ["--dt", "-1", "--window-factor", "-2"],
     "config key 'dt_ns' must be > 0.0, got -1.0"),
    ("rap", {}, ["--window-factor", "nan"], "config key 'window_factor' must be finite, got nan"),
    ("rap", {"window_factor": 0}, ["--window-factor", "-2"],
     "config key 'window_factor' must be > 0.0, got 0"),
    ("check", {}, ["--dt", "-1", "--window-factor", "3"],
     "config key 'dt_ns' must be > 0.0, got -1.0"),
    ("check", {}, ["--window-factor", "-3"], "--window-factor does not apply to scenario 'check'"),
    ("oscillator", {}, ["--dt", "1.0", "--window-factor", "3"],
     "--dt must lie in (0, tf) seconds for the oscillator"),
])
def test_flag_values_follow_the_config_rules(tmp_path, capsys, scenario, payload, flags, message):
    code, _ = run(tmp_path, scenario, "--config", config_file(tmp_path, payload), *flags)
    assert code == 2
    assert capsys.readouterr().err == f"sta: config error: {message}\n"


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["cd-terms", "--dt", "0.1"]) == 0
    assert (tmp_path / "cd-terms.csv").exists()


def test_runs_are_deterministic(tmp_path):
    _, a = run(tmp_path, "rap", "--dt", "0.05", out="a.csv")
    _, b = run(tmp_path, "rap", "--dt", "0.05", out="b.csv")
    assert a.read_bytes() == b.read_bytes()

    cfg = config_file(tmp_path, {"n_shortcut": 101, "n_ellipse": 11})
    _, c = run(tmp_path, "oscillator", "--config", cfg, out="c.csv")
    _, d = run(tmp_path, "oscillator", "--config", cfg, out="d.csv")
    assert c.read_bytes() == d.read_bytes()


def test_runtime_failure_exit_code(tmp_path, capsys):
    # absurd decay rate at a 1 ns step overflows RK4 almost immediately
    cfg = config_file(tmp_path, {"gamma_mhz": 1e9, "dt_ns": 1.0})
    code, _ = run(tmp_path, "rap", "--config", cfg)
    assert code == 3
    assert "sta: runtime error:" in capsys.readouterr().err


@pytest.mark.parametrize("payload,code,message", [
    # 1j / m is inf, so -i H holds inf and nan entries from the first node on
    ({"mass_kg": 1e-320}, 3,
     "sta: runtime error: non-finite forward state after step 1 of 3002;"),
    # tf^2 and omega0^2 overflow a double; a Python float ** raised OverflowError
    ({"tf_ms": 1e300}, 2, "sta: config error: config key 'tf_ms' = 1e+300 is out of range"),
    ({"f0_hz": 1e200}, 2, "sta: config error: config key 'f0_hz' = 1e+200 is out of range"),
    # rho ends at 1e150 and omega^2 divides by rho^4; the inverse ratio
    # underflows rho^4, and its tail display period vanished next to tf
    ({"f0_hz": 1e150, "ff_hz": 1e-150}, 2,
     "sta: config error: config key 'ff_hz' = 1e-150 is out of range"),
    ({"f0_hz": 1e-150, "ff_hz": 1e150}, 2,
     "sta: config error: config key 'ff_hz' = 1e+150 is out of range"),
    # q^2 and the kinetic term overflowed, and the run exited 0 with inf energies
    ({"q0_um": 1e300}, 2, "sta: config error: config key 'q0_um' = 1e+300 is out of range"),
    ({"v0_um_per_ms": 1e300}, 2,
     "sta: config error: config key 'v0_um_per_ms' = 1e+300 is out of range"),
    # q^2 is finite at t = 0 but not once rho has grown to 10
    ({"q0_um": 1e160}, 2, "sta: config error: config key 'q0_um' = 1e+160 is out of range"),
], ids=["mass-1e-320", "tf-1e300", "f0-1e200", "ratio-1e300", "ratio-1e-300", "q0-1e300",
        "v0-1e300", "q0-1e160"])
def test_oscillator_out_of_range_scales_fail_cleanly(tmp_path, capsys, payload, code, message):
    # the suite turns RuntimeWarning into an error, so a numpy warning fails here too
    cfg = config_file(tmp_path, payload)
    got, path = run(tmp_path, "oscillator", "--config", cfg)
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(message) and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("scenario,payload,flags", [
    ("rap", {"chirp_a_ghz2": 1e-30}, []),  # numpy: "array is too big"
    ("rap", {"chirp_a_ghz2": 1e-12}, []),  # numpy: 11.9 GiB allocation
    ("rap", {}, ["--dt", "1e-300"]),
    ("rap-cd", {}, ["--dt", "1e-320"]),  # the step count overflows to inf
    ("check", {"dt_ns": 1e-300}, []),
    ("oscillator", {"n_shortcut": 10**14}, []),
    ("oscillator", {}, ["--dt", "1e-320"]),
    ("rap", {"window_factor": 1e308, "chirp_a_ghz2": 1e-300}, []),  # the window overflows
    ("oscillator", {"f0_hz": 1e20}, []),  # substep counts past int64
    ("oscillator", {"f0_hz": 1e12}, []),  # 1.6e12 substeps, 11.4 TiB
], ids=["chirp-a-1e-30", "chirp-a-1e-12", "dt-1e-300", "dt-overflows", "check-dt-1e-300",
        "n-shortcut-1e14", "oscillator-dt-overflows", "window-overflows", "f0-1e20-substeps",
        "f0-1e12-substeps"])
def test_oversized_grid_is_config_error(tmp_path, capsys, scenario, payload, flags):
    cfg = config_file(tmp_path, payload)
    code, path = run(tmp_path, scenario, "--config", cfg, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sta: config error:") and "more than the 1e+08" in err
    assert err.count("\n") == 1
    assert not path.exists()


def test_step_ceiling_boundary(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(propagate_module, "_MAX_STEPS", 1000)
    # 401 + 2 x 300 points are 1,000 steps; over a 5 ms ramp they resolve
    # omega without substeps, and one more point is one step too many.
    # 3 + 2 x 499 points are 1,000 steps too, but the integration cuts the
    # two ramp intervals into 316 substeps.
    for n_shortcut, n_ellipse, code in ((401, 300, 0), (402, 300, 2), (3, 499, 2)):
        cfg = config_file(tmp_path, {"n_shortcut": n_shortcut, "n_ellipse": n_ellipse,
                                     "tf_ms": 5.0})
        assert run(tmp_path, "oscillator", "--config", cfg)[0] == code
    assert "the trap's grid at omega dt <= 0.025 gives 1.31e+03 steps" in capsys.readouterr().err
    # the 15.9 ns window at dt = 0.0159 ns is 1,001 steps
    assert run(tmp_path, "rap", "--dt", "0.016")[0] == 0
    assert run(tmp_path, "rap", "--dt", "0.0159")[0] == 2


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 11.9 GiB for an array"),
     "sta: runtime error: out of memory: Unable to allocate 11.9 GiB for an array\n"),
    (MemoryError(), "sta: runtime error: out of memory: allocation failed\n"),
], ids=["numpy-message", "bare"])
def test_memory_error_is_runtime_error(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(climod, "propagate", exhausted)
    code, _ = run(tmp_path, "rap", "--dt", "0.1")
    assert code == 3
    assert capsys.readouterr().err == message


def _reference_csv(header, columns):
    """The per-value writer: one f"{float(x):.17g}" per cell."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(col[i]):.17g}" for col in columns)
                 for i in range(len(columns[0])))
    return "\n".join(lines) + "\n"


SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1.0 / 3.0]


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])  # around the 1,024-row blocks
def test_write_csv_matches_per_value_format(tmp_path, n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)
    special = np.resize(np.array(SPECIAL), n)
    ints = rng.integers(-2**62, 2**62, size=n)
    plain = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    header = ["bits", "special", "ints", "plain"]
    columns = [bits, special, ints, plain]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_text() == _reference_csv(header, columns)
    if n == 0:
        assert path.read_text() == "bits,special,ints,plain\n"


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


def _reference_rows(table):
    """The per-value reference for csvfmt.format_rows."""
    return "".join(",".join(f"{float(v):.17g}" for v in row) + "\n" for row in table).encode()


def _per_value_calls(monkeypatch):
    """The values csvfmt.format_rows hands to per-value formatting, recorded as it runs."""
    calls = []
    formatted = csvfmt._formatted
    monkeypatch.setattr(csvfmt, "_formatted", lambda v: calls.append(v) or formatted(v))
    return calls


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 9)),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(np.empty((0, 5)))  # empty tables: no lines, or one empty line per row
@example(np.empty((3, 0)))
def test_format_rows_matches_per_value_format(table):
    assert csvfmt.format_rows(table) == _reference_rows(table)


@pytest.mark.parametrize("value, text, per_value", [
    (2.0**-25, "2.9802322387695312e-08", True),  # an exact tie at the 18th digit
    (1e120, "9.9999999999999998e+119", False),   # the double lies below 10**120
    (1e20, "1e+20", False),
    (1e22, "1e+22", False),                      # the largest exact power of ten
    (1e-14, "1e-14", False),                     # below 10**-14, its 17 digits carry up
    (1e16, "10000000000000000", False),          # the widest fixed-point form
    (1e-5, "1.0000000000000001e-05", False),
    (0.1, "0.10000000000000001", False),
    (-1.0 / 3.0, "-0.33333333333333331", False),
    (123456789012345678.0, "1.2345678901234568e+17", False),
    (5e-324, "4.9406564584124654e-324", True),   # subnormal
    (-1e300, "-1.0000000000000001e+300", True),  # outside [1e-280, 1e280]
])
def test_format_rows_pinned_values(monkeypatch, value, text, per_value):
    calls = _per_value_calls(monkeypatch)
    assert csvfmt.format_rows(np.array([[value]])) == (text + "\n").encode()
    assert calls == ([value] if per_value else [])


def test_format_rows_around_powers_of_ten_and_range_bounds():
    exact = [float(10**k) if k >= 0 else 1 / 10**-k for k in range(-300, 301)]
    centres = np.array(exact + [1e-280, 1e280])
    values = [centres]
    up = down = centres
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    table = np.column_stack(values)  # a power of ten and its 4 + 4 neighbours per row
    assert csvfmt.format_rows(table) == _reference_rows(table)
    assert csvfmt.format_rows(-table) == _reference_rows(-table)


def test_format_rows_constant_special_columns(monkeypatch):
    calls = _per_value_calls(monkeypatch)
    n = csvfmt.BLOCK_VALUES // 5
    table = np.column_stack([np.full(n, v) for v in (0.0, -0.0, np.nan, np.inf, -np.inf)])
    assert csvfmt.format_rows(table) == b"0,-0,nan,inf,-inf\n" * n
    assert calls == []


def _reference_csvfmt_tables():
    """csvfmt's lookup tables built one entry at a time from the slot layout it documents."""
    kmax = csvfmt._KMAX
    pow10, digits, rows = [], [], []
    for k in range(-kmax, kmax + 1):
        q = 16 - k
        if q >= 0:
            n = 10**q
            hi = float(n)
            lo = float(n - int(hi))
        else:
            d = 10**-q
            hi = 1 / d
            a, b = hi.as_integer_ratio()
            lo = (b - a * d) / (b * d)
        c = 134217729.0 * hi
        high = c - (c - hi)
        pow10.append((hi, lo, high, hi - high))

        # byte -> ("digit",), ("char", c) over an ASCII "0", or ("raw", c) past the digits
        layout = {0: ("char", ","), 1: ("char", None)}
        if -4 <= k <= 16:  # S ends the slot, from byte 6
            at = 6
            dot = k + 1 if 0 <= k < 16 else None
            digits.append((10 ** (16 - k) if dot else 10**17, 9 * 10 ** (16 - k) if dot else 0,
                           10**8, 1))
            for b in range(2, 6):
                layout[b] = ("char", None)
            prefix = "0." + "0" * (-k - 1) if k < 0 else ""
            for i, ch in enumerate(prefix):
                layout[at + 1 - len(prefix) + i] = ("char", ch)
            if k == 16:
                layout[at] = ("char", None)
            least = at + 1 + k if dot else (at + 1 if k < 0 else 24)
        else:  # S from byte 2, then the exponent
            at, dot = 2, 1
            digits.append((10**16, 9 * 10**16, 10**4, 10**4))
            for i, ch in enumerate("e%+03d" % k):
                layout[20 + i] = ("char", ch) if i < 4 else ("raw", ch)
            least = at + 1
        if dot:
            layout[at + dot] = ("char", ".")
        for b in range(at, at + 18):
            layout.setdefault(b, ("digit",))
        row = []
        for last in range(2, 2 + csvfmt._LAST_ROWS):  # S starts at slot byte 2 or later
            kept = max(last + 1, least)
            text = bytearray(32)
            for b in range(32):
                kind = layout.get(b, ("raw", None))
                if at <= b < at + 18 and b >= kept:  # a trailing "0" or the dot, cleared
                    text[b] = 0x30
                elif kind[0] == "char":
                    text[b] = 0x30 ^ (ord(kind[1]) if kind[1] else 0)
                elif kind[0] == "raw" and kind[1]:
                    text[b] = ord(kind[1])
            row.append([int.from_bytes(text[8 * w:8 * w + 8], "little") for w in range(4)])
        rows.append(row)
    xor = [rows[k][last] for last in range(csvfmt._LAST_ROWS) for k in range(2 * kmax + 1)]
    four = [int.from_bytes(b"%04d" % i, "little") for i in range(10**4)]
    special = [int.from_bytes(b"," + s, "little") for s in (b"0", b"-0", b"inf", b"-inf", b"nan")]
    return csvfmt._Tables(np.array(pow10), np.array(digits, np.uint64), np.array(xor, np.uint64),
                          np.array(four, np.uint64),
                          np.array(four, np.uint64) << np.uint64(32), np.array(special, np.uint64))


def test_format_rows_tables_match_loop_reference():
    tables, reference = csvfmt._tables(), _reference_csvfmt_tables()
    for name in csvfmt._Tables._fields:
        built, expected = getattr(tables, name), getattr(reference, name)
        assert built.dtype == expected.dtype, name
        assert built.shape == expected.shape, name
        assert np.array_equal(built, expected), name


def _two_digit_exponent_values(rng, n):
    """Finite values whose texts all have |k| <= 99: signs, all three notations.

    Decades 10-16 are left out: there |x| 10^(16-k) is a multiple of 1/2 often
    enough that exact ties, which go through per-value formatting, are common.
    """
    signs = rng.choice([-1.0, 1.0], size=n)
    decades = rng.choice(np.r_[-90:10, 17:90], size=n)
    return signs * rng.uniform(1.0, 10.0, size=n) * 10.0**decades


def _near_tie(value):
    """Whether |value| 10^(16-k) lies within about _TIE of a half, in exact arithmetic."""
    k = int(("%.16e" % value).split("e")[1])
    scaled = abs(Fraction(value)) * Fraction(10) ** (16 - k)
    return abs(scaled - int(scaled) - Fraction(1, 2)) < 2 * csvfmt._TIE


@pytest.mark.parametrize("rows,cols", [(csvfmt.BLOCK_VALUES, 1), (csvfmt.BLOCK_VALUES // 5, 5),
                                       (csvfmt.BLOCK_VALUES // 9, 9)])
def test_format_rows_full_blocks_on_the_vector_path(monkeypatch, rows, cols):
    calls = _per_value_calls(monkeypatch)
    rng = np.random.default_rng(rows)
    table = _two_digit_exponent_values(rng, rows * cols).reshape(rows, cols)
    table[:, 0] = rng.uniform(-20.0, 20.0, size=rows)  # fixed notation, k = 0 and 1
    assert csvfmt.format_rows(table) == _reference_rows(table)
    # about 2e-6 of random values are near-ties, which only per-value formatting decides
    assert len(calls) <= 1 and all(_near_tie(v) for v in calls)


@pytest.mark.parametrize("at", [0, 1023, csvfmt.BLOCK_VALUES // 5 * 5 - 1])
@pytest.mark.parametrize("value,per_value", [
    (0.0, False), (-0.0, False), (np.inf, False), (-np.inf, False), (np.nan, False),
    (5e-324, True), (-2.2250738585072014e-308, True), (1e300, True), (-1e300, True),
    (2.0**-25, True),  # an exact tie at the 18th digit
])
def test_format_rows_full_block_with_one_value_off_the_vector_path(monkeypatch, at, value,
                                                                   per_value):
    calls = _per_value_calls(monkeypatch)
    rows = csvfmt.BLOCK_VALUES // 5
    table = _two_digit_exponent_values(np.random.default_rng(at), rows * 5)
    table[at] = 1.0
    csvfmt.format_rows(table.reshape(rows, 5))
    near_ties, calls[:] = list(calls), []
    table[at] = value
    table = table.reshape(rows, 5)
    assert csvfmt.format_rows(table) == _reference_rows(table)
    assert calls == near_ties + [value] if per_value else calls == near_ties


def _significant_digits(text):
    mantissa = text.split("e")[0].lstrip("-").replace(".", "")
    return len(mantissa.lstrip("0"))


def test_format_rows_trailing_zero_digits_in_full_blocks():
    # decimals of s <= 16 digits whose nearest double prints exactly them: 17 - s
    # trailing zeros stripped, in fixed, 0.000ddd and exponent notation
    rng = np.random.default_rng(16)
    found = {}
    while len(found) < 16 * 3:
        s = int(rng.integers(1, 17))
        k = int(rng.choice([-60, -3, -1, 0, 5, 15, 40]))
        x = float(f"{int(rng.integers(10 ** (s - 1), 10**s))}e{k - s + 1}")
        if _significant_digits("%.17g" % x) == s and abs(x) != 0.0:
            found[17 - s, -4 <= k < 0, 0 <= k < 17] = x * rng.choice([-1.0, 1.0])
    assert {zeros for zeros, *_ in found} == set(range(1, 17))
    rows = csvfmt.BLOCK_VALUES // 5
    table = _two_digit_exponent_values(rng, rows * 5)
    table[rng.choice(table.size, size=len(found), replace=False)] = list(found.values())
    table = table.reshape(rows, 5)
    assert csvfmt.format_rows(table) == _reference_rows(table)


def test_format_rows_three_digit_exponents_among_two_digit_ones():
    rng = np.random.default_rng(100)
    rows = csvfmt.BLOCK_VALUES // 5
    table = _two_digit_exponent_values(rng, rows * 5)
    wide = [1e100, -1e100, 1.5e-100, -9.8765432109876543e-101, 3.3e200, -2.5e-250,
            np.nextafter(1e100, 0.0), 9.9999999999999999e99, 1e-99, np.nextafter(1e-99, 0.0)]
    table[rng.choice(table.size, size=len(wide), replace=False)] = wide
    table = table.reshape(rows, 5)
    text = csvfmt.format_rows(table)
    assert text == _reference_rows(table)
    assert b"e+100" in text and b"e-250" in text


@pytest.mark.parametrize("cols", [5, 9])
def test_format_rows_frees_each_stage(cols):
    rows = csvfmt.BLOCK_VALUES // cols
    table = _two_digit_exponent_values(np.random.default_rng(cols), rows * cols)
    table = table.reshape(rows, cols)
    csvfmt.format_rows(table)  # the lookup tables are built on the first call
    tracemalloc.start()
    try:
        csvfmt.format_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 250 bytes per value with every stage's arrays held to the end;
    # about 115 with each freed once dead, the ASCII halves gathered one at
    # a time and the slot array freed before the zero bytes are deleted
    assert peak < 125 * table.size


def test_format_rows_carries_into_the_next_decade():
    # doubles just below a power of ten whose 17 digits round up to it: 9.99...95 -> 1e+k
    carried = []
    for k in range(-279, 280):
        x = float(Fraction(10) ** k)
        for y in (x, float(np.nextafter(x, 0.0))):
            if Fraction(y) < Fraction(10) ** k and _significant_digits("%.17g" % y) == 1:
                carried.append(y)
    assert len(carried) >= 10
    rows = csvfmt.BLOCK_VALUES // 4
    table = _two_digit_exponent_values(np.random.default_rng(17), rows * 4)
    table[:len(carried)] = carried
    table = table.reshape(rows, 4)
    assert csvfmt.format_rows(table) == _reference_rows(table)
    assert csvfmt.format_rows(-table) == _reference_rows(-table)


@st.composite
def _blocks_of_bit_patterns(draw):
    """Whole blocks of random float bit patterns, with hypothesis floats planted in them.

    The bits come from a drawn seed: hypothesis cannot draw the 16 kB of a
    block itself.  Half the blocks keep every exponent within 2**-323 ..
    2**327, so every value lies in the vector path's range and none is special.
    """
    cols = draw(st.integers(1, 9))
    rows = csvfmt.BLOCK_VALUES // cols - draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    bits = rng.integers(0, 2**64, size=rows * cols, dtype=np.uint64, endpoint=False)
    if draw(st.booleans()):
        field = (bits >> np.uint64(52)) & np.uint64(0x7FF)
        bits ^= (field ^ (field % np.uint64(650) + np.uint64(700))) << np.uint64(52)
    values = bits.view(np.float64)
    planted = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                      allow_subnormal=True), max_size=16))
    values[rng.choice(values.size, size=len(planted), replace=False)] = planted
    return values.reshape(rows, cols)


@settings(max_examples=30, deadline=None)
@given(_blocks_of_bit_patterns())
def test_format_rows_matches_per_value_format_on_whole_blocks(table):
    assert csvfmt.format_rows(table) == _reference_rows(table)


def test_format_rows_raises_nothing_under_floating_point_errors():
    table = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.0**-25, 0.1]] * 3)
    with np.errstate(all="raise"):
        assert csvfmt.format_rows(table) == _reference_rows(table)


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_write_csv_block_edges(tmp_path, cols, shift):
    rows = csvfmt.BLOCK_VALUES // cols + shift
    rng = np.random.default_rng(rows)
    columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
               for _ in range(cols)]
    header = [f"c{j}" for j in range(cols)]
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_text() == _reference_csv(header, columns)


def test_transitionless_sweep_peak_memory():
    def rap_cd():
        schedule, grid = climod._atom_setup(climod.ATOM_DEFAULTS)
        return climod._transitionless_sweep(schedule, grid, lambda r0: climod.propagate(
            lambda t: cdmod.cd_hamiltonian(schedule, t), r0, grid))

    rap_cd()  # first-call allocations outside
    tracemalloc.start()
    try:
        rap_cd()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4.56 MB with a full-length mixing-angle rate sample and a stored
    # (N, 2, 2) basis and its conjugate, 2.84 MB with stored sin/cos
    # columns, 2.58 MB with the angle built before the sweep, 2.27 MB with
    # 4,096-step tiles, 2.06 MB with 1,536-step spans and the leakage taken
    # from the (N, 2) amplitudes; 1.79 MB with |c_-| from the minus row alone,
    # the states allocated after the scan's chunk pass and the angle built
    # after the sweep, so the peak is the sweep's own; 1.69 MB with the
    # sweep's spans built one component entry at a time, so the peak is its
    # scan: the step matrices and the states beside the 127 KB grid
    assert peak < 1.72e6


def _scenario_peak(tmp_path, scenario):
    """tracemalloc's peak over one default main run of scenario, after an untraced first one."""
    argv = [scenario, "--out", str(tmp_path / "out")]
    main(argv)  # first-call allocations outside
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bare_sweep_peak_memory(tmp_path):
    # 2.57 MB with the adiabaticity monitor sampled over the whole grid at
    # once; 1.69 MB with one rates sample per span, so the peak is the
    # sweep's scan: the step matrices and the states beside the 127 KB grid
    assert _scenario_peak(tmp_path, "rap") < 1.80e6


def test_cd_terms_peak_memory(tmp_path):
    # 2.33 MB with C and the monitor sampled over the whole grid at once;
    # 0.78 MB with one rates sample per span, beside the 127 KB grid
    assert _scenario_peak(tmp_path, "cd-terms") < 1.3e6


def test_oscillator_peak_memory(tmp_path):
    # 0.86 MB with the CSV kernel's arrays held to the end of each block
    # beside the nine columns; 0.72 MB with each freed once dead, 0.65 MB
    # with the oracle's sweep run first, beside the grid alone, and 0.49 MB
    # with that sweep in float64 and both trajectories dropped once their q
    # and v are taken
    assert _scenario_peak(tmp_path, "oscillator") < 0.55e6


def _assert_leakage_is_minus_amplitude(schedule, grid, sweep):
    """_transitionless_sweep's leakage is bitwise |c_-| of the full (N, 2) projection."""
    traj, leak = climod._transitionless_sweep(schedule, grid, sweep)
    full = climod.branch_projection(traj, cdmod.mixing_angle_trajectory(schedule, grid))
    assert full.shape == (len(grid), 2) and full.dtype == complex
    assert leak.shape == (len(grid),) and leak.dtype == np.float64
    np.testing.assert_array_equal(leak.view(np.uint64), np.abs(full[:, 1]).view(np.uint64))
    return traj


def _corrected_sweep(schedule, grid):
    return lambda r0: climod.propagate(lambda t: cdmod.cd_hamiltonian(schedule, t), r0, grid)


def test_leakage_is_minus_amplitude_on_default_grid():
    schedule, grid = climod._atom_setup(climod.ATOM_DEFAULTS)
    assert len(grid) == 15916  # eleven projection spans, the last one partial
    _assert_leakage_is_minus_amplitude(schedule, grid, _corrected_sweep(schedule, grid))


# grids of a span less one point, one span, one span and a point, and two
# spans and a point, at the default span of 1,536 points and at a span of 64;
# the sweep, the mixing angle and the projection all cut the grid into spans.
# The leakage alone would pass step matrices misplaced across spans, as it is
# the projection of whatever states the sweep gave, so the states must also
# be bitwise those of one span over the whole grid.
@pytest.mark.parametrize("span", [None, 64])
@pytest.mark.parametrize("extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["tile-1", "tile", "tile+1", "2tile+1"])
def test_leakage_is_minus_amplitude_at_tile_edges(monkeypatch, span, extra):
    if span is not None:
        monkeypatch.setattr(quadrature_module, "_SPAN", span)
    spans, shift = extra
    points = spans * quadrature_module._SPAN + shift
    schedule, _ = climod._atom_setup(climod.ATOM_DEFAULTS)
    grid = np.linspace(-WINDOW, WINDOW, points)
    sweep = _corrected_sweep(schedule, grid)
    states = _assert_leakage_is_minus_amplitude(schedule, grid, sweep).states
    monkeypatch.setattr(quadrature_module, "_SPAN", points)
    whole = climod._transitionless_sweep(schedule, grid, sweep)[0].states
    np.testing.assert_array_equal(states.view(np.uint64), whole.view(np.uint64))


def test_rap_cd_csv_is_the_same_under_two_chunk_spans(monkeypatch, tmp_path):
    # --dt 0.05 gives 318 steps in chunks of 5: spans of 10 steps, intervals
    # and rows against one span over the whole grid, for all three passes
    def csv(span):
        monkeypatch.setattr(quadrature_module, "_SPAN", span)
        code, path = run(tmp_path, "rap-cd", "--dt", "0.05", out=f"span-{span}.csv")
        assert code == 0
        return path.read_bytes()

    schedule, grid = climod._atom_setup({**climod.ATOM_DEFAULTS, "dt_ns": 0.05})
    assert len(grid) - 1 == 318 and propagate_module._chunk_width(318) == 5
    assert csv(10) == csv(10 * len(grid))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10_000))
def test_leakage_is_minus_amplitude_on_any_grid_size(points):
    # 2 ns from the window's start, where the mixing angle turns slowly
    # enough that even two points keep the branch labels; the states must be
    # bitwise those of one span over the whole grid, as at the span edges
    schedule, _ = climod._atom_setup(climod.ATOM_DEFAULTS)
    grid = np.linspace(-WINDOW, 2.0 - WINDOW, points)
    sweep = _corrected_sweep(schedule, grid)
    states = _assert_leakage_is_minus_amplitude(schedule, grid, sweep).states
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrature_module, "_SPAN", points)
        whole = climod._transitionless_sweep(schedule, grid, sweep)[0].states
    np.testing.assert_array_equal(states.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("scenario,sweep,other", [
    ("check", "propagate_pair", "propagate"),
    ("rap-cd", "propagate", "propagate_pair"),
])
def test_check_holds_no_basis_during_pair(monkeypatch, tmp_path, scenario, sweep, other):
    live = []
    original = getattr(climod, sweep)

    def recorded(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return original(*args)

    def second_sweep(*args):
        raise AssertionError("one corrected sweep carries every atom line")

    monkeypatch.setattr(climod, sweep, recorded)
    monkeypatch.setattr(climod, other, second_sweep)
    np.random.default_rng()  # numpy may import numpy.random, 0.5 MB, on first use
    tracemalloc.start()
    try:
        code = main([scenario, "--out", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert code == 0 and len(live) == 1
    # the grid alone is 127 KB; a mixing-angle basis (255 KB) built before
    # the sweep, or a forward sweep's states before the pair, would add to it
    assert live[0] < 0.25e6


@pytest.mark.parametrize("scenario", ["rap", "rap-cd"])
def test_atom_csv_holds_no_states(monkeypatch, tmp_path, scenario):
    live = []
    original = climod.write_csv

    def recorded(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return original(*args)

    monkeypatch.setattr(climod, "write_csv", recorded)
    np.random.default_rng()  # numpy may import numpy.random, 0.5 MB, on first use
    tracemalloc.start()
    try:
        code = main([scenario, "--out", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert code == 0 and len(live) == 1
    # the grid and the four computed columns are 127 KB each, plus the bare
    # run's gap mask; the (N, 2) states held beside them would add 509 KB
    assert live[0] < 0.8e6


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
@pytest.mark.parametrize("key", ["rabi_peak_mhz", "gamma_mhz", "chirp_b_ghz2"])
def test_atom_rates_too_large_to_square_are_config_errors(tmp_path, capsys, scenario, key):
    # alpha_dot and complex_rabi overflowed; cd-terms then exited 0 with
    # non-finite columns
    cfg = config_file(tmp_path, {key: 1e300})
    code, path = run(tmp_path, scenario, "--config", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"sta: config error: config key '{key}' = 1e+300 is out of range")
    assert err.count("\n") == 1
    assert not path.exists()


# each key passes the square check, but alpha_dot's numerator overflowed on
# Omega_0 x 2b or on Omega_R' x Gamma/2
@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
@pytest.mark.parametrize("payload,keys", [
    ({"rabi_peak_mhz": 1e150, "chirp_b_ghz2": 1e200, "window_factor": 1e-100},
     "'rabi_peak_mhz' = 1e+150 and 'chirp_b_ghz2' = 1e+200"),
    ({"rabi_peak_mhz": 1e150, "gamma_mhz": 1e150, "chirp_a_ghz2": 1e30, "chirp_b_ghz2": 0.0},
     "'rabi_peak_mhz' = 1e+150 and 'gamma_mhz' = 1e+150"),
], ids=["rabi-chirp", "rabi-gamma"])
def test_atom_rate_products_too_large_are_config_errors(tmp_path, capsys, scenario, payload,
                                                        keys):
    code, path = run(tmp_path, scenario, "--config", config_file(tmp_path, payload))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"sta: config error: config keys {keys} are out of range together")
    assert err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("scenario,payload", [
    ("oscillator", {"q0_um": 1e150, "n_shortcut": 101, "n_ellipse": 11}),
    ("oscillator", {"v0_um_per_ms": 1e150, "n_shortcut": 101, "n_ellipse": 11}),
    ("cd-terms", {"rabi_peak_mhz": 1e150, "dt_ns": 0.05}),
], ids=["q0-1e150", "v0-1e150", "rabi-1e150"])
def test_large_scales_below_the_range_checks_run(tmp_path, scenario, payload):
    code, path = run(tmp_path, scenario, "--config", config_file(tmp_path, payload))
    assert code == 0
    assert np.all(np.isfinite(np.genfromtxt(path, delimiter=",", skip_header=1)[:, :4]))


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "rap-cd-approx", "cd-terms"])
def test_atom_window_underflow_is_config_error(tmp_path, capsys, scenario):
    # window_factor / sqrt(a) rounded to 0, and the schedule raised ValueError
    cfg = config_file(tmp_path, {"window_factor": 1e-300, "chirp_a_ghz2": 1e100})
    code, path = run(tmp_path, scenario, "--config", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sta: config error: config keys 'window_factor' = 1e-300 and "
                          "'chirp_a_ghz2' = 1e+100 are out of range together")
    assert err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("payload", [
    {"tf_ms": 1e20},
    {"tf_ms": 1e40},
    {"f0_hz": 1.4e-78, "ff_hz": 7.6e18, "n_shortcut": 49},
], ids=["tf-1e20", "tf-1e40", "ff-7.6e18"])
def test_oscillator_display_period_below_the_spacing_at_tf_is_config_error(
        tmp_path, capsys, monkeypatch, payload):
    # the period after the ramp rounded away, and the oracle's grid check raised
    def no_sweep(*args):
        raise AssertionError("the grid is checked before any sweep")

    monkeypatch.setattr(climod.trap, "closed_form_trajectory", no_sweep)
    code, path = run(tmp_path, "oscillator", "--config", config_file(tmp_path, payload))
    err = capsys.readouterr().err
    params = {**climod.TRAP_DEFAULTS, **payload}
    assert code == 2
    assert err.startswith(f"sta: config error: config keys 'tf_ms' = {params['tf_ms']:g} and "
                          f"'ff_hz' = {params['ff_hz']:g} are out of range together")
    assert err.count("\n") == 1
    assert not path.exists()


# alpha_dot's quotient num / den overflows while den stays above the ZeroGap floor
OVERFLOWING_QUOTIENT = {"gamma_mhz": 0.0, "rabi_peak_mhz": 3.1e-142, "chirp_a_ghz2": 4.3e-86,
                        "chirp_b_ghz2": 2.3e206, "window_factor": 1e-182, "dt_ns": 1.2e34}


@pytest.mark.parametrize("scenario", ["rap", "rap-cd", "cd-terms"])
def test_floating_point_error_is_runtime_error(tmp_path, capsys, scenario):
    before = np.geterr()
    code, path = run(tmp_path, scenario, "--config", config_file(tmp_path, OVERFLOWING_QUOTIENT))
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"sta: runtime error: floating-point error in {scenario}: "
                   "overflow encountered in divide\n")
    assert np.geterr() == before  # the policy is the CLI's alone


def test_state_overflow_is_runtime_error(tmp_path, capsys):
    # one RK4 step far past stability leaves a finite state whose |psi|^2
    # overflows; without the policy the run warned and wrote inf populations
    cfg = config_file(tmp_path, {"chirp_a_ghz2": 3.5e-43, "dt_ns": 5.5e187})
    code, path = run(tmp_path, "rap", "--config", cfg)
    assert code == 3
    assert capsys.readouterr().err == ("sta: runtime error: floating-point error in rap: "
                                       "overflow encountered in square\n")
    assert not path.exists()


def test_library_keeps_numpy_floating_point_defaults():
    # outside the CLI the same overflow is numpy's warning, which the suite's
    # error::RuntimeWarning filter turns into an exception
    p = OVERFLOWING_QUOTIENT
    schedule = climod.chirped_gaussian(climod.ChirpedGaussianParams(
        rabi_peak=TWO_PI * 1e-3 * p["rabi_peak_mhz"], width_a=TWO_PI**2 * p["chirp_a_ghz2"],
        chirp_b=TWO_PI**2 * p["chirp_b_ghz2"], gamma=0.0), window_factor=p["window_factor"])
    with pytest.raises(RuntimeWarning, match="overflow encountered in divide"):
        cdmod.alpha_dot(schedule, schedule.grid(p["dt_ns"]))
