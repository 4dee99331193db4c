"""The README's Python examples run against the current API.

Proves:
  - every ```python block of README.md runs, in order and in one
    namespace (later blocks reuse names such as TWO_PI), without error
  - the values its comments quote hold: leakage at roundoff, the
    Landau-Zener closed form of the custom drive's adiabaticity ratio,
    rho_final 10 and the energy ratio omega_f/omega_0
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["leak"] < 1e-12
    v, coupling, times = namespace["v"], namespace["coupling"], namespace["times"]
    np.testing.assert_allclose(namespace["ratio"],
                               coupling * v / (2.0 * ((v * times) ** 2 + coupling**2) ** 1.5),
                               rtol=1e-12)
    np.testing.assert_allclose(namespace["plan"].rho_final, 10.0, rtol=1e-12)
    np.testing.assert_allclose(namespace["energy_audit"](namespace["plan"]).ratio, 0.01,
                               rtol=1e-9)
