"""Drive schedules for the decaying two-level atom.

A schedule is one callable, rates(t), that samples detuning Delta(t), Rabi
frequency Omega_R(t) and decay rate Gamma(t) together with their time
derivatives, all in angular units (rad/ns, time in ns), as one PulseRates.
Every drive formula reads one such sample per call.  The chirped Gaussian
pulse

    Delta(t) = -2 b t,        Omega_R(t) = Omega_0 exp(-a t^2)

swept across resonance realizes rapid adiabatic passage.

Omega, the mixing angle's rate alpha_dot and the adiabaticity ratio are
stated once each here, on one PulseRates; _span_walk fills such formulas
over a grid from one rates sample per span of quadrature._spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .biortho import _fd_spectrum
from .errors import ZeroGap
from .quadrature import _spans

__all__ = [
    "PulseRates",
    "PulseSchedule",
    "ChirpedGaussianParams",
    "chirped_gaussian",
    "constant_schedule",
    "complex_rabi",
    "adiabaticity_ratio",
    "generic_adiabaticity_ratio",
]


class PulseRates(NamedTuple):
    """One sample of the drive: (Delta, Omega_R, Gamma) and their time derivatives."""

    delta: np.ndarray | float
    delta_dot: np.ndarray | float
    rabi: np.ndarray | float
    rabi_dot: np.ndarray | float
    gamma: np.ndarray | float
    gamma_dot: np.ndarray | float


@dataclass(frozen=True)
class PulseSchedule:
    """Time-dependent drive parameters and their derivatives on a window.

    rates(t) takes scalar or ndarray time and returns a PulseRates.  delta
    has the shape of t; any other rate may be a plain float where it is
    constant, and must broadcast against t.  Within the window rabi >= 0
    and gamma >= 0 are assumed; the shipped constructors guarantee it.
    """

    rates: Callable[..., PulseRates]
    window: tuple[float, float]

    def __post_init__(self):
        t0, t1 = self.window
        if not t1 > t0:
            raise ValueError(f"window must increase, got ({t0}, {t1})")

    def grid(self, dt: float) -> np.ndarray:
        """Uniform sample grid covering the window with step close to dt."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        t0, t1 = self.window
        n = max(2, int(round((t1 - t0) / dt)))
        return np.linspace(t0, t1, n + 1)


@dataclass(frozen=True)
class ChirpedGaussianParams:
    """Parameters of the chirped Gaussian pulse, angular units.

    rabi_peak : peak Rabi frequency Omega_0 (rad/ns), >= 0
    width_a   : Gaussian envelope coefficient a (1/ns^2), > 0
    chirp_b   : chirp rate b in Delta(t) = -2 b t (rad/ns^2)
    gamma     : decay rate of the upper level (rad/ns), >= 0
    """

    rabi_peak: float
    width_a: float
    chirp_b: float
    gamma: float

    def __post_init__(self):
        _require_finite(rabi_peak=self.rabi_peak, width_a=self.width_a,
                        chirp_b=self.chirp_b, gamma=self.gamma)
        if self.width_a <= 0:
            raise ValueError("width_a must be positive")
        if self.rabi_peak < 0:
            raise ValueError("rabi_peak must be non-negative")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


def _require_finite(**values):
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def chirped_gaussian(params: ChirpedGaussianParams, window_factor: float = 5.0) -> PulseSchedule:
    """Chirped Gaussian schedule on the window [-w, w], w = window_factor / sqrt(a).

    The default window_factor of 5 leaves a relative envelope of exp(-25)
    at the edges, so the pulse is effectively over.
    """
    if window_factor <= 0:
        raise ValueError("window_factor must be positive")
    o0, a, b, g = params.rabi_peak, params.width_a, params.chirp_b, params.gamma
    w = float(window_factor) / math.sqrt(a)  # Python floats: inf on overflow, no warning
    if not math.isfinite(w):
        raise ValueError(f"window_factor / sqrt(a) = {w} is not finite")

    def rates(t):
        t = np.asarray(t)
        e = np.exp(-a * t**2)
        return PulseRates(-2.0 * b * t, -2.0 * b, o0 * e, -2.0 * a * t * o0 * e, g, 0.0)

    return PulseSchedule(rates=rates, window=(-w, w))


def constant_schedule(delta: float, rabi: float, gamma: float, window=(0.0, 1.0)) -> PulseSchedule:
    """Time-independent schedule, mostly for tests and static checks."""
    _require_finite(delta=delta, rabi=rabi, gamma=gamma)
    if rabi < 0 or gamma < 0:
        raise ValueError("rabi and gamma must be non-negative")

    def rates(t):
        d = np.full(np.shape(t), delta) if np.ndim(t) else delta
        return PulseRates(d, 0.0, rabi, 0.0, gamma, 0.0)

    return PulseSchedule(rates=rates, window=tuple(window))


def complex_rabi(s: PulseSchedule, t):
    """Complex gap frequency Omega(t) = sqrt(-(Gamma + 2i Delta)^2 + 4 Omega_R^2).

    E_+ - E_- = Omega / 2, so |Omega| measures the spectral splitting.
    """
    return _complex_rabi(s.rates(t))


def _complex_rabi(r: PulseRates):
    """Omega from one sample r of the schedule's rates."""
    d, _, o, _, g, _ = r
    return np.sqrt(-((g + 2j * d) ** 2) + 4.0 * o**2)


def _alpha_dot(r: PulseRates, where=True):
    """alpha_dot (see counterdiabatic.alpha_dot) from one sample r of the schedule's rates.

    With a boolean array where, only where it is True and 0 elsewhere: no
    quotient is taken, and no ZeroGap raised, at the other points.  ZeroGap
    where |den| < 1e-300, which needs both parts of den below 1e-300; the
    dearer hypot |den| is taken only when some point has both.
    """
    delta, delta_dot, o, rabi_dot, gamma, gamma_dot = r
    d = delta - 0.5j * gamma
    num = rabi_dot * d - o * (delta_dot - 0.5j * gamma_dot)
    den = d * d + o * o
    small = np.abs(den.real) < 1e-300
    if (np.any(small) and np.any(small & (np.abs(den.imag) < 1e-300) & where)
            and np.any((np.abs(den) < 1e-300) & where)):
        raise ZeroGap("mixing-angle rate diverges: (Delta - i Gamma/2)^2 + Omega_R^2 ~ 0")
    out = np.zeros(np.broadcast(num, den).shape, dtype=complex)
    return np.divide(num, den, out=out, where=where)[()]


def adiabaticity_ratio(s: PulseSchedule, t):
    """Local adiabaticity monitor r(t) = 2 |Omega_a| / |Omega|.

    Omega_a = -alpha_dot/2 is the rate at which the mixing angle turns and
    Omega the complex gap frequency; r << 1 means the bare drive follows a
    single spectral branch, r >~ 1 flags non-adiabatic leakage.  Where the
    gap is so small that the quotient passes the largest double, r is inf,
    its honest value, without a numpy warning.

    Raises
    ------
    ZeroGap
        If |Omega| vanishes at some requested time (eigenvalue coalescence)
        or alpha_dot diverges at another.
    """
    ratio, closed = _ratio(s.rates(t))
    if np.any(closed):
        raise ZeroGap("spectral gap vanished; adiabaticity ratio undefined")
    return ratio


def _ratio(r: PulseRates):
    """|alpha_dot| / |Omega| from one sample r of the rates, and the mask where Omega is 0.

    The ratio is inf there, and alpha_dot, so its ZeroGap too, is not taken there.
    """
    omega = _complex_rabi(r)
    closed = omega == 0
    rate = np.abs(_alpha_dot(r, ~closed))
    ratio = np.full(np.shape(omega), np.inf)
    with np.errstate(over="ignore"):
        np.divide(rate, np.abs(omega), out=ratio, where=~closed)
    return ratio[()], closed


def _span_walk(s: PulseSchedule, t: np.ndarray, formula) -> tuple[np.ndarray, ...]:
    """formula(s.rates(t)) on the non-empty 1-d times t, one rates sample per span of _spans.

    formula maps a PulseRates to a tuple of arrays, each written into a full-length
    array of the dtype its first span gives; each span's sample and results are
    freed before the next sample.  For a formula of each point's own rates, as
    every caller's is, the bits are those of one call over all of t.
    """
    out = ()
    for a, b in _spans(len(t)):
        parts = formula(s.rates(t[a:b]))
        out = out or tuple(np.empty(len(t), dtype=p.dtype) for p in parts)
        for whole, part in zip(out, parts):
            whole[a:b] = part
        del parts, part  # the span's results, the loop's last one too, before the next sample
    return out


def generic_adiabaticity_ratio(hfun, t: float, h: float = 1e-4) -> float:
    """Textbook adiabaticity criterion evaluated on a generic Hamiltonian.

    Returns max over branch pairs n != m of |<l_n|d/dt r_m>| / |E_n - E_m|
    with eigenvector derivatives taken by central differences of the
    gauge-aligned instantaneous eigenbasis.  Agrees with adiabaticity_ratio
    for the two-level atom but needs nothing beyond an H(t) callable.
    """
    basis, deriv = _fd_spectrum(hfun, t, h)
    coupling = np.abs(np.sum(basis.left.conj() * deriv[::-1], axis=-1))
    return float(np.max(coupling) / abs(basis.values[0] - basis.values[1]))
