"""Regenerate the golden outputs of the default and seeded scenarios.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs the five CSV scenarios and ``sta check`` at their defaults, in
process.  Also runs ``rap-cd`` on the benchmark's ``atom_config`` draws
and ``oscillator`` on its ``trap_config`` draws for SEEDS, and
``oscillator`` on the rest orbit REST, whose CSV holds signed zeros.
Writes ``manifest.json`` (numpy version and the fingerprint of the host's
bits from ``hostbits.py``; per CSV its SHA-256, header, row count, and
every 100th data row plus the last, as text; per seeded run also its
scenario, seed (None for the rest orbit) and config) and ``check.txt``
(the check's stdout, verbatim) next to this file.
``tests/test_golden.py`` compares fresh runs with them.  A change that
alters these bytes by design reruns this script and names the changed
files and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hostbits import fingerprint  # this script's directory

from sta.cli import main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "bench"))
from workloads import atom_config, trap_config  # noqa: E402

SCENARIOS = ("rap", "rap-cd", "rap-cd-approx", "cd-terms", "oscillator")
SEEDS = (1, 2, 3, 4, 5)  # seeds of the rap-cd and oscillator runs on the bench's configs
REST = {"q0_um": 0, "v0_um_per_ms": 0}  # the oscillator at rest: q and v are all +-0
EVERY = 100


def sampled_rows(n: int) -> list[int]:
    """Data-row indices kept in the manifest: every EVERY-th row and the last."""
    return sorted({*range(0, n, EVERY), n - 1}) if n else []


def csv_entry(data: bytes) -> dict:
    lines = data.decode().splitlines()
    header, rows = lines[0], lines[1:]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "header": header,
        "rows": len(rows),
        "sample": {str(i): rows[i] for i in sampled_rows(len(rows))},
    }


def run_scenario(scenario: str, directory: Path, config: dict | None = None) -> bytes:
    path = directory / f"{scenario}.csv"
    argv = [scenario, "--out", str(path)]
    if config is not None:
        (directory / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(directory / "config.json")]
    if main(argv) != 0:
        raise SystemExit(f"sta {scenario} failed")
    return path.read_bytes()


def seeded_entry(scenario: str, seed: int | None, config: dict, directory: Path) -> dict:
    return {"scenario": scenario, "seed": seed, "config": config,
            **csv_entry(run_scenario(scenario, directory, config))}


def run_check() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check"])
    if code != 0:
        raise SystemExit("sta check failed")
    return out.getvalue()


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csvs = {s: csv_entry(run_scenario(s, Path(tmp))) for s in SCENARIOS}
        seeded = {}
        for scenario, draw in (("rap-cd", atom_config), ("oscillator", trap_config)):
            for k in SEEDS:
                config = draw(np.random.default_rng(k))
                seeded[f"{scenario}-seed-{k}"] = seeded_entry(scenario, k, config, Path(tmp))
        seeded["oscillator-rest"] = seeded_entry("oscillator", None, REST, Path(tmp))
    manifest = {"numpy": np.__version__, "fingerprint": fingerprint(), "every": EVERY,
                "csv": csvs, "seeded": seeded}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (HERE / "check.txt").write_text(run_check())
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
