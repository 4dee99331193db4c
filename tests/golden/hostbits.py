"""Fingerprint of the bits this host's numpy computes, for the golden byte contract.

numpy's np.exp and np.cosh round differently under each SIMD target it
dispatches to (AVX-512 against AVX2, say), and its complex multiply does
at the SSE baseline; the golden CSVs inherit those bits through the pulse
envelope, the trap's omega^2 and every state.  fingerprint() evaluates
each of them, with np.sin and one csvfmt block, on fixed arrays and
returns the SHA-256 of the lot.  regenerate.py records it in
manifest.json, and test_golden.py compares bytes only on a host whose
fingerprint matches.
"""

import hashlib

import numpy as np

from sta import csvfmt


def fingerprint() -> str:
    """SHA-256 of the probes' bytes, each from fixed inputs."""
    t = np.linspace(-8.0, 8.0, 4097)
    z = np.cos(t) + 1j * np.sin(3.0 * t)
    probes = [np.exp(-0.5 * t * t), np.cosh(t), np.sin(40.0 * t), np.multiply(z, z[::-1])]
    block = np.stack([v.real for v in probes], axis=1)[:csvfmt.BLOCK_VALUES // len(probes)]
    digest = hashlib.sha256()
    for v in probes:
        digest.update(v.tobytes())
    digest.update(csvfmt.format_rows(block))
    return digest.hexdigest()
