"""Drive schedules and the adiabaticity monitor.

Proves:
  - chirped Gaussian center values, window placement, tail suppression
  - the fused rates sample is bitwise the six separate rate formulas, and
    each drive formula keeps t's shape with the constants as plain floats
  - analytic derivatives match central finite differences
  - non-finite pulse parameters and ExpansionSpec fields are rejected,
    naming the field
  - grid construction honors dt and the window
  - adiabaticity ratio: static zero, center value, failure in the wings,
    invariance under time-unit rescaling, ZeroGap at coalescence, and
    alpha_dot's ZeroGap first where the rate diverges at a gapped time; one
    sample of the schedule per call, and the CLI's monitor, inf where the
    gap closes, bitwise the ratio on the gapped times from one sample
  - the span walker: one rates sample per span, each output with the dtype
    and bits of one formula call over all the times, and each span's sample
    and results freed before the next sample (tracemalloc)
  - alpha_dot's ZeroGap decision, which takes the hypot |den| only where
    both parts of den are small, is the plain |den| < 1e-300 test's on edge
    denominators, masked points and scalars
  - generic (finite-difference) monitor agrees with the closed form and
    reduces to the textbook Landau-Zener ratio in the Hermitian limit
  - no module of the package imports inside a function, so the cycle
    between pulses and counterdiabatic cannot come back through a
    deferred import; and only the span walker samples the rates per span,
    but for the mixing angle's refined spans
"""

import ast
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sta import (
    ChirpedGaussianParams,
    ExpansionSpec,
    PulseRates,
    PulseSchedule,
    ZeroGap,
    adiabaticity_ratio,
    alpha_dot,
    bare_hamiltonian,
    chirped_gaussian,
    complex_rabi,
    constant_schedule,
    eigensystem_2x2,
    generic_adiabaticity_ratio,
    mixing_angle_values,
)
from sta.pulses import _alpha_dot, _ratio, _span_walk

SRC = Path(sys.modules["sta"].__file__).parent
quadrature_module = sys.modules["sta.quadrature"]

TWO_PI = 2.0 * np.pi


def test_center_values(atom, atom_params):
    center = atom.rates(0.0)
    assert center.delta == 0.0
    assert center.rabi == atom_params.rabi_peak
    assert center.rabi_dot == 0.0
    assert atom.rates(3.0).gamma_dot == 0.0
    np.testing.assert_allclose(center.rabi, 0.6283, atol=1e-4)
    np.testing.assert_allclose(atom.rates(1.0).gamma, 0.012566, atol=1e-6)


def test_window_placement(atom, atom_params):
    w = 5.0 / np.sqrt(atom_params.width_a)
    assert atom.window == (-w, w)
    np.testing.assert_allclose(w, 7.957747154594767, rtol=1e-15)
    np.testing.assert_allclose(atom.rates(w).rabi / atom_params.rabi_peak, np.exp(-25.0),
                               rtol=1e-12)


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.view(np.uint64).tolist()


@pytest.mark.parametrize("where", ["grid", 0.0, -0.0, 1.3])
def test_fused_rates_are_bitwise_the_separate_formulas(atom, atom_params, where):
    # the six rate formulas of the separate-callable schedule, written out
    o0, a, b, g = (atom_params.rabi_peak, atom_params.width_a, atom_params.chirp_b,
                   atom_params.gamma)
    t = atom.grid(1e-3) if where == "grid" else where
    full = (lambda c: np.full(np.shape(t), c)) if np.ndim(t) else (lambda c: c)
    ref = PulseRates(
        delta=-2.0 * b * np.asarray(t),
        delta_dot=full(-2.0 * b),
        rabi=o0 * np.exp(-a * np.asarray(t) ** 2),
        rabi_dot=-2.0 * a * np.asarray(t) * o0 * np.exp(-a * np.asarray(t) ** 2),
        gamma=full(g),
        gamma_dot=full(0.0),
    )
    got = atom.rates(t)
    assert isinstance(got, PulseRates)
    for name in PulseRates._fields:
        x, y = np.broadcast_arrays(getattr(got, name), getattr(ref, name))
        assert _bits(x) == _bits(y), name
    # Delta, Omega_R and Omega_R' vary and have t's shape; the others are floats
    assert all(np.shape(r) == np.shape(t) for r in (got.delta, got.rabi, got.rabi_dot))
    assert all(type(r) is float for r in (got.delta_dot, got.gamma, got.gamma_dot))


@pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 7), np.zeros((2, 3)), 0.25])
def test_constant_schedule_formulas_keep_t_shape(t):
    s = constant_schedule(delta=0.4, rabi=0.9, gamma=0.05)
    assert np.shape(s.rates(t).delta) == np.shape(t)
    if np.ndim(t):
        assert bare_hamiltonian(s, t).shape == np.shape(t) + (2, 2)
        assert np.shape(alpha_dot(s, t)) == np.shape(t)
        assert np.shape(complex_rabi(s, t)) == np.shape(t)
    else:
        assert bare_hamiltonian(s, t).shape == (2, 2)
        assert np.ndim(alpha_dot(s, t)) == 0
        assert np.ndim(complex_rabi(s, t)) == 0
    for times in (np.linspace(0.0, 1.0, 7), np.array([0.25])):
        assert mixing_angle_values(s, times).shape == times.shape


def test_derivative_consistency(atom):
    t0, t1 = atom.window
    h = 1e-4 * (t1 - t0)
    ts = np.linspace(t0 + h, t1 - h, 1000)
    lo, mid, hi = atom.rates(ts - h), atom.rates(ts), atom.rates(ts + h)
    for f, fdot in (("delta", "delta_dot"), ("rabi", "rabi_dot"), ("gamma", "gamma_dot")):
        fd = (getattr(hi, f) - getattr(lo, f)) / (2.0 * h)
        scale = max(1e-30, np.max(np.abs(getattr(mid, fdot))))
        assert np.max(np.abs(fd - getattr(mid, fdot))) < 1e-6 * max(1.0, scale)


def test_grid(atom):
    grid = atom.grid(0.01)
    t0, t1 = atom.window
    assert grid[0] == t0 and grid[-1] == t1
    assert len(grid) == round((t1 - t0) / 0.01) + 1
    steps = np.diff(grid)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
    with pytest.raises(ValueError):
        atom.grid(0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ChirpedGaussianParams(rabi_peak=1.0, width_a=0.0, chirp_b=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        ChirpedGaussianParams(rabi_peak=-1.0, width_a=1.0, chirp_b=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        ChirpedGaussianParams(rabi_peak=1.0, width_a=1.0, chirp_b=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        chirped_gaussian(ChirpedGaussianParams(1.0, 1.0, 1.0, 0.0), window_factor=0.0)
    with pytest.raises(ValueError, match="not finite"):  # no overflow warning first
        chirped_gaussian(ChirpedGaussianParams(1.0, 1e-300, 1.0, 0.0),
                         window_factor=np.float64(1e308))
    with pytest.raises(ValueError):
        constant_schedule(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        constant_schedule(0.0, 1.0, 0.0, window=(1.0, 1.0))


def chirped(**kw):
    return chirped_gaussian(ChirpedGaussianParams(
        **{"rabi_peak": 1.0, "width_a": 1.0, "chirp_b": 0.1, "gamma": 0.01, **kw}))


def constant(**kw):
    return constant_schedule(**{"delta": 0.0, "rabi": 1.0, "gamma": 0.0, **kw})


def expansion(**kw):
    return ExpansionSpec(**{"omega0": 1.0, "omegaf": 0.5, "tf": 3.0, "mass": 1.0, **kw})


# x < 0 is False for NaN, so the sign checks alone let these through
@pytest.mark.parametrize("build, field", [
    (chirped, "rabi_peak"), (chirped, "width_a"), (chirped, "chirp_b"), (chirped, "gamma"),
    (constant, "delta"), (constant, "rabi"), (constant, "gamma"),
    (expansion, "omega0"), (expansion, "omegaf"), (expansion, "tf"), (expansion, "mass"),
    (expansion, "q0"), (expansion, "v0"),
], ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected(build, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        build(**{field: bad})


def test_complex_rabi_is_spectral_gap(atom):
    for t in (-3.0, -0.5, 0.0, 1.2, 6.0):
        gap = eigensystem_2x2(bare_hamiltonian(atom, t)).values
        np.testing.assert_allclose(abs(gap[0] - gap[1]), 0.5 * abs(complex_rabi(atom, t)),
                                   rtol=1e-12)


def test_ratio_static_zero():
    s = constant_schedule(delta=0.4, rabi=0.9, gamma=0.05)
    assert adiabaticity_ratio(s, 0.5) == 0.0


def test_ratio_center_value(atom, atom_params):
    o0, g = atom_params.rabi_peak, atom_params.gamma
    alpha_dot0 = 2.0 * atom_params.chirp_b * o0 / (o0**2 - g**2 / 4.0)
    expected = alpha_dot0 / np.sqrt(4.0 * o0**2 - g**2)
    r0 = adiabaticity_ratio(atom, 0.0)
    np.testing.assert_allclose(r0, expected, rtol=1e-12)
    np.testing.assert_allclose(r0, 0.025, atol=1e-4)


def test_ratio_fails_in_wings(atom, atom_grid):
    r = np.asarray(adiabaticity_ratio(atom, atom_grid))
    assert r.max() > 1.0
    assert adiabaticity_ratio(atom, 0.0) < 0.05  # adiabatic at the center


def test_ratio_unit_rescaling(atom_params):
    # t -> c t with every rate scaled by 1/c leaves the ratio invariant
    c = 1000.0
    base = chirped_gaussian(atom_params)
    scaled = chirped_gaussian(ChirpedGaussianParams(
        rabi_peak=atom_params.rabi_peak / c,
        width_a=atom_params.width_a / c**2,
        chirp_b=atom_params.chirp_b / c**2,
        gamma=atom_params.gamma / c,
    ))
    for t in (-5.0, -1.0, 0.0, 2.5, 7.0):
        np.testing.assert_allclose(adiabaticity_ratio(scaled, c * t),
                                   adiabaticity_ratio(base, t), rtol=1e-12)


def test_ratio_zero_gap():
    # Delta = 0 and Gamma = 2 Omega_R put the spectrum at its coalescence
    s = constant_schedule(delta=0.0, rabi=0.5, gamma=1.0)
    with pytest.raises(ZeroGap):
        adiabaticity_ratio(s, 0.3)


def test_monitor_is_the_ratio_on_gapped_times_and_inf_where_the_gap_closes(atom_params):
    # Omega_R(0) = Gamma/2 closes the gap at t = 0, which the grid holds
    s = chirped_gaussian(ChirpedGaussianParams(rabi_peak=TWO_PI * 1.0,
                                               width_a=atom_params.width_a,
                                               chirp_b=atom_params.chirp_b, gamma=TWO_PI * 2.0))
    grid = np.linspace(-20.0, 20.0, 4001)
    calls = []
    counted = PulseSchedule(rates=lambda t: calls.append(t) or s.rates(t), window=s.window)
    ratio, closed = _span_walk(counted, grid, _ratio)
    # one sample per span of quadrature._spans: 1,536, 1,536 and 929 points
    assert [len(t) for t in calls] == [1536, 1536, 929]
    np.testing.assert_array_equal(np.concatenate(calls), grid)
    gapped = complex_rabi(s, grid) != 0
    assert np.count_nonzero(closed) == 1 and not gapped[2000]
    np.testing.assert_array_equal(closed, ~gapped)
    assert np.isposinf(ratio[~gapped]).all()
    expected = adiabaticity_ratio(s, grid[gapped])
    np.testing.assert_array_equal(ratio[gapped].view(np.uint64), expected.view(np.uint64))
    calls.clear()
    with pytest.raises(ZeroGap, match="spectral gap vanished"):
        adiabaticity_ratio(counted, grid)
    assert len(calls) == 1


def test_ratio_raises_alpha_dots_zero_gap_where_it_diverges_at_a_gapped_time():
    # Omega = 0 at the first time; at the second Omega = 2e-160 is not 0, but
    # (Delta - i Gamma/2)^2 + Omega_R^2 = 1e-320 makes alpha_dot diverge there,
    # and the ratio takes alpha_dot at the gapped times before the gap check
    s = PulseSchedule(rates=lambda t: PulseRates(np.zeros(2), 0.0, np.array([0.5, 1e-160]),
                                                 1.0, np.array([1.0, 0.0]), 0.0),
                      window=(0.0, 1.0))
    assert complex_rabi(s, None)[0] == 0 and complex_rabi(s, None)[1] != 0
    with pytest.raises(ZeroGap, match="mixing-angle rate diverges"):
        adiabaticity_ratio(s, None)


# (Delta - i Gamma/2)^2 + Omega_R^2 that alpha_dot should see, and whether it raises
_EDGE_DENOMINATORS = [
    (0.99e-300 + 0.99e-300j, False),  # both parts under 1e-300, |den| = 1.4e-300
    (-0.8e-300 + 0.65e-300j, False),  # both parts under, |den| = 1.03e-300
    (0.7e-300 + 0.7e-300j, True),     # |den| = 0.99e-300
    (0.99e-300 + 0.1e-300j, True),
    (1e-300, False),
    (5e-324, True),                   # subnormals
    (3e-320 - 3e-320j, True),
    (0.0, True),
    (1.0, False),
    (complex(np.nan, 0.0), False),
    (complex(0.0, np.nan), False),
    (complex(np.inf, 0.0), False),
    (complex(1e-310, np.inf), False),
]


def _raises_zero_gap(r, where=True):
    with np.errstate(all="ignore"):  # the non-finite quotients are not the point here
        try:
            _alpha_dot(r, where)
        except ZeroGap:
            return True
    return False


@pytest.mark.parametrize("target, raises", _EDGE_DENOMINATORS)
def test_alpha_dot_zero_gap_decision_is_the_plain_test_on_edge_denominators(target, raises):
    # Delta = sqrt(target) with Omega_R = Gamma = 0 makes den = Delta^2, about target
    with np.errstate(all="ignore"):
        deltas = np.sqrt(np.array([1.0, target, 2.0], dtype=complex))
        den = deltas * deltas
        plain = np.abs(den) < 1e-300  # the test that the decision must keep
    assert plain[1] == raises and not plain[0] and not plain[2]
    r = PulseRates(deltas, 1.0, 0.0, 1.0, 0.0, 0.0)
    assert _raises_zero_gap(r) == raises
    # masked points take no quotient and raise nothing
    assert _raises_zero_gap(r, np.array([True, False, True])) is False
    assert _raises_zero_gap(r, np.array([False, True, False])) == raises
    # scalar rates, as constant_schedule gives them
    assert _raises_zero_gap(PulseRates(complex(deltas[1]), 1.0, 0.0, 1.0, 0.0, 0.0)) == raises
    assert _raises_zero_gap(PulseRates(deltas[1], 1.0, 0.0, 1.0, 0.0, 0.0)) == raises


@pytest.mark.parametrize("n, spans", [(63, [63]), (64, [64]), (65, [64, 1]),
                                      (129, [64, 64, 1])])
def test_span_walk_is_bitwise_one_formula_call_over_all_the_times(monkeypatch, atom, n, spans):
    monkeypatch.setattr(quadrature_module, "_SPAN", 64)
    times = np.linspace(-4.0, 4.0, n)
    calls = []
    counted = PulseSchedule(rates=lambda t: calls.append(len(t)) or atom.rates(t),
                            window=atom.window)

    def formula(r):  # a complex, a float and a bool array
        return 0.5j * _alpha_dot(r), _ratio(r)[0], r.delta < 0.0

    got = _span_walk(counted, times, formula)
    assert calls == spans
    want = formula(atom.rates(times))
    assert [x.dtype for x in got] == [np.dtype(complex), np.dtype(float), np.dtype(bool)]
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape == (n,)
        assert x.tobytes() == y.tobytes()


def _traced_peak(call):
    """tracemalloc's peak over one call, above what was live before it, after an untraced call."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_span_walk_frees_each_spans_sample_and_results_before_the_next(atom):
    # the largest result last: the loop variable holds it after the copy
    def formula(r):
        return r.delta < 0.0, _ratio(r)[0], 0.5j * _alpha_dot(r)

    span = quadrature_module._SPAN
    times = np.linspace(-4.0, 4.0, 12 * span)
    _, one_span = _traced_peak(lambda: formula(atom.rates(times[:span])))
    out, peak = _traced_peak(lambda: _span_walk(atom, times, formula))
    whole = sum(x.nbytes for x in out)
    results = whole // 12  # one span's results, 25 bytes a point
    # 1,076 bytes above the outputs and one span's sample and formula (numpy
    # 2.4.6); 25,764 with the last result held while the next span is
    # sampled, and 39,924 with all three
    assert peak - whole - one_span < results // 4


def _functions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node


def test_no_module_imports_inside_a_function():
    inner = [f"{name}:{node.lineno} in {fn.name}" for name, fn in _functions()
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_only_the_span_walker_samples_the_rates_per_span():
    # the mixing angle's refined spans, nodes and midpoints, carry a running sum
    walkers = {f"{name}:{fn.name}" for name, fn in _functions() for loop in ast.walk(fn)
               if isinstance(loop, ast.For) and "_spans(" in ast.unparse(loop.iter)
               and any(f in ast.unparse(loop) for f in (".rates(", "alpha_dot("))}
    assert walkers == {"pulses.py:_span_walk", "counterdiabatic.py:mixing_angle_values"}


def test_generic_ratio_static_zero():
    s = constant_schedule(delta=0.4, rabi=0.9, gamma=0.05)
    h = bare_hamiltonian(s, 0.0)
    assert generic_adiabaticity_ratio(lambda t: h, 0.5) < 1e-12


def test_generic_ratio_matches_closed_form(atom):
    for t in (0.0, 1.5, -2.5):
        ref = adiabaticity_ratio(atom, t)
        got = generic_adiabaticity_ratio(lambda u: bare_hamiltonian(atom, u), t)
        np.testing.assert_allclose(got, ref, rtol=1e-4)


def test_landau_zener_reduction():
    # Gamma = 0, constant Omega_R, linear sweep: the monitor reduces to
    # Omega_R |Delta_dot| / (2 (Delta^2 + Omega_R^2)^(3/2))
    o, slope = 0.8, 0.05
    s = PulseSchedule(
        rates=lambda t: PulseRates(slope * np.asarray(t), slope, o, 0.0, 0.0, 0.0),
        window=(-40.0, 40.0),
    )
    for t in (-10.0, 0.0, 3.0, 25.0):
        d = s.rates(t).delta
        lz = o * abs(slope) / (2.0 * (d**2 + o**2) ** 1.5)
        np.testing.assert_allclose(adiabaticity_ratio(s, t), lz, rtol=1e-12)
        np.testing.assert_allclose(
            generic_adiabaticity_ratio(lambda u: bare_hamiltonian(s, u), t), lz, rtol=1e-4)
