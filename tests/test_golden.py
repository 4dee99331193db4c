"""Golden outputs of the default and seeded scenarios (tests/golden/, see regenerate.py there).

Each default CSV, and each seeded rap-cd and oscillator run and the
oscillator's rest orbit on its recorded config, is compared value by value
with the recorded rows: every 100th data row and
the last, within 1e-12 of the column's largest recorded magnitude (an
absolute 1e-12 for c_minus_abs, which is roundoff on these runs).  The
whole file's SHA-256, and the check's stdout verbatim, are compared only
under the numpy version that recorded them and on a host whose bits match
the recorded fingerprint (golden/hostbits.py: numpy's exp, cosh and
complex multiply round differently across SIMD targets).  Elsewhere
each check line must keep its verdict, name and threshold, and its
measured residual within 1% of the threshold.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from sta import csvfmt
from sta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from hostbits import fingerprint  # noqa: E402

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
SAME_BITS = np.__version__ == MANIFEST["numpy"] and fingerprint() == MANIFEST["fingerprint"]
ABSOLUTE = {"c_minus_abs"}
TOL = 1e-12


def _values(lines):
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _assert_matches(want: dict, label: str, data: bytes):
    lines = data.decode().splitlines()
    assert lines[0] == want["header"]
    assert len(lines) - 1 == want["rows"]

    index = [int(i) for i in want["sample"]]
    expected = _values(want["sample"].values())
    got = _values(lines[1 + i] for i in index)
    finite = np.isfinite(expected)
    assert np.array_equal(finite, np.isfinite(got))
    assert np.array_equal(expected[~finite], got[~finite], equal_nan=True)
    scale = np.max(np.abs(np.where(finite, expected, 0.0)), axis=0)
    for j, name in enumerate(want["header"].split(",")):
        bound = TOL if name in ABSOLUTE else TOL * scale[j]
        dev = np.abs(np.where(finite[:, j], got[:, j] - expected[:, j], 0.0))
        assert dev.max() <= bound, f"{label} column {name}: {dev.max():.3e} > {bound:.3e}"
    if SAME_BITS:
        assert hashlib.sha256(data).hexdigest() == want["sha256"]


@pytest.mark.parametrize("scenario", sorted(MANIFEST["csv"]))
def test_default_csv_matches_golden(tmp_path, scenario):
    path = tmp_path / f"{scenario}.csv"
    assert main([scenario, "--out", str(path)]) == 0
    _assert_matches(MANIFEST["csv"][scenario], scenario, path.read_bytes())


@pytest.mark.parametrize("name", sorted(MANIFEST["seeded"]))
def test_seeded_csv_matches_golden(tmp_path, capsys, name):
    want = MANIFEST["seeded"][name]
    config, path = tmp_path / "config.json", tmp_path / f"{name}.csv"
    config.write_text(json.dumps(want["config"]))
    assert main([want["scenario"], "--config", str(config), "--out", str(path)]) == 0
    if want["seed"] is None:  # the rest orbit says once that its trajectory is identically zero
        assert capsys.readouterr().err == (
            "sta: warning: q0 = v0 = 0: rest solution, trajectory is identically zero\n")
    _assert_matches(want, name, path.read_bytes())


_LINE = re.compile(r"(PASS|FAIL) (\S+): measured=(\S+) threshold=(\S+)")


def test_check_stdout_matches_golden():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check"]) == 0
    want = (GOLDEN / "check.txt").read_text()
    if SAME_BITS:
        assert out.getvalue() == want
        return
    got_lines, want_lines = out.getvalue().splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines) and got_lines[-1] == want_lines[-1]
    for g, w in zip(got_lines[:-1], want_lines[:-1]):
        (verdict, name, measured, threshold), expected = _LINE.match(g).groups(), _LINE.match(w)
        assert (verdict, name, threshold) == expected.group(1, 2, 4)
        # most residuals are roundoff, which another numpy may round differently
        assert abs(float(measured) - float(expected.group(3))) <= 0.01 * float(threshold), g


def _first_value_moved(f):
    """f, with the first value of each result it returns one ulp or one bit off."""
    def moved(*args, **kwargs):
        out = f(*args, **kwargs)
        if "out" in kwargs:  # csvfmt's own multiplies, not the probe's
            return out
        if isinstance(out, bytes):
            return bytes([out[0] ^ 1]) + out[1:]
        out.real.flat[0] = np.nextafter(out.real.flat[0], np.inf)
        return out
    return moved


@pytest.mark.parametrize("module,name", [(np, "exp"), (np, "cosh"), (np, "sin"),
                                         (np, "multiply"), (csvfmt, "format_rows")])
def test_fingerprint_sees_each_probes_bits(monkeypatch, module, name):
    # a host whose exp rounds one value differently must not claim the recorded bytes
    before = fingerprint()
    monkeypatch.setattr(module, name, _first_value_moved(getattr(module, name)))
    assert fingerprint() != before
