"""End-to-end runs of the command-line scenarios.

Each test drives sta.cli.main directly with --out pointing into tmp_path
and asserts on the parsed CSV or on the exit code and stderr text.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import sta.cli as climod
import sta.counterdiabatic as cdmod
from sta.cli import main, write_csv

TWO_PI = 2.0 * np.pi
WINDOW = 5.0 / np.sqrt(TWO_PI**2 * 0.01)  # default half-window, ns


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


def test_approx_scenario_equals_flag(tmp_path):
    _, exact = run(tmp_path, "rap-cd", "--dt", "0.01", out="exact.csv")
    _, flagged = run(tmp_path, "rap-cd", "--approx", "--dt", "0.01", out="flag.csv")
    _, scenario = run(tmp_path, "rap-cd-approx", "--dt", "0.01", out="scen.csv")
    assert flagged.read_bytes() == scenario.read_bytes()
    e, a = table(exact), table(flagged)
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


def test_check_passes(tmp_path, capsys):
    code, path = run(tmp_path, "check", out="report.txt")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert out.rstrip().endswith("all checks passed")
    assert path.read_text() == out


def test_check_matrices_match_per_iteration_draws():
    rng = np.random.default_rng(7)
    expected = []
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m[1, 0] = m[0, 1]
        expected.append(m)
    drawn = climod._check_matrices()
    assert drawn.shape == (1000, 2, 2)
    assert np.array_equal(drawn, np.array(expected))


def test_check_degenerate_draw_is_runtime_error(monkeypatch, capsys):
    degenerate = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
    monkeypatch.setattr(climod, "_check_matrices", lambda: degenerate)
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
    ({}, ["--approx"], 0, False),                                # truncation leaks by design
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
        if not flags:
            assert (leak > 1e-5) == warns
        if not warns:
            assert err == ""


@pytest.mark.parametrize("scenario,code", [("cd-terms", 3), ("rap", 0)])
def test_cd_terms_refuses_exceptional_point(tmp_path, capsys, scenario, code):
    # at the default dt the grid misses t = 0, where C(t) diverges; cd-terms
    # refuses as rap-cd does, while the bare sweep it does not use stays valid
    cfg = config_file(tmp_path, {"rabi_peak_mhz": 1.0, "gamma_mhz": 2.0})
    got, _ = run(tmp_path, scenario, "--config", cfg)
    assert got == code
    assert ("mixing angle jumps" in capsys.readouterr().err) == (code == 3)


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


@pytest.mark.parametrize("tf_ms", ["25", None])
def test_oscillator_dt_with_bad_tf_is_config_error(tmp_path, capsys, tf_ms):
    # the config is validated before --dt is converted with tf_ms
    cfg = config_file(tmp_path, {"tf_ms": tf_ms})
    code, _ = run(tmp_path, "oscillator", "--config", cfg, "--dt", "1e-5")
    err = capsys.readouterr().err
    assert code == 2
    assert "sta: config error:" in err and "tf_ms" in err
    assert "Traceback" not in err


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

    code, _ = run(tmp_path, "rap", "--approx")
    assert code == 2 and "--approx" in capsys.readouterr().err

    code, _ = run(tmp_path, "rap", "--dt", "-1.0")
    assert code == 2

    code, _ = run(tmp_path, "oscillator", "--dt", "1.0")  # beyond tf
    assert code == 2

    code, _ = run(tmp_path, "oscillator", "--dt", "nan")
    assert code == 2 and "--dt" in capsys.readouterr().err


def test_unknown_scenario_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


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
