"""Fixed-step RK4 propagation of two-component Schrodinger states.

Integrates i d/dt psi = H(t) psi (hbar = 1) with the classical fourth-order
Runge-Kutta rule on a fixed grid.  No step-size adaptation: determinism and
a clean convergence order matter here, and the schedules are smooth.  The
adjoint pair (psi, psi_hat) propagated under (H, H^dag) keeps the
biorthogonal overlap <psi_hat|psi> exactly constant in exact arithmetic,
which makes the overlap drift a sharp integrator check.

The ODE y' = A(t) y is linear, so one RK4 step is one 2x2 matrix,
M_k = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0, K2 = Am (I + dt/2 K1),
K3 = Am (I + dt/2 K2) and K4 = A1 (I + dt K3), and y_{k+1} = M_k y_k.

A sweep's step matrices are one component-major (2, 2, N) array m,
m[:, :, k] = M_k, with N the steps rounded up to whole chunks of the scan
below and identities past the last step.  They are built one span at a time
(_sweep_matrices), in the spans of quadrature._spans in whole chunks, from
one seam, a sampler: called once per span on the span's B + 1 nodes
followed by its B midpoints 0.5 (g[:-1] + g[1:]) (the bits of
quadrature._refine's), it returns A = -i H there as a component-major
(2, 2, 2 B + 1) array a, whose dtype is the span's, and the sweep never
sees H.  a[i, j, k] is A_ij at node k and a[i, j, B + 1 + k] at the
midpoint of step k, so the nodes a[..., :B], the next nodes a[..., 1:B + 1]
and the midpoints a[..., B + 1:] are contiguous rows of every entry.
propagate's sampler (_generator) calls hfun once per span, whose result
must broadcast to (len(times), 2, 2): a stack, or one constant 2x2 matrix.
A = -i H is one multiply, out of the (2, 2, 2 B + 1) view of the sample;
the package's H stacks are themselves component-major, a (B, 2, 2) view of
(2, 2, B) memory (biortho._empty_stack), so that multiply reads contiguous
memory too.  The node two spans share is sampled by both.  Each M_k
depends only on A at its own node, midpoint and next node and on dt_k, so
the spans change no bit of any M_k.  A span's M_k are built straight into
its columns of m in batched numpy passes on such rows, one component entry
at a time (_matmul_2x2, _step_block).  (A component of a C-ordered
(B, 2, 2) stack has 64 bytes between its values: one complex multiply over
16k of them took 65-96 us against 12 us on a contiguous row, and numpy's @
costs 0.4-0.5 us per tiny matrix; numpy 2.4.6, shared 2-vCPU x86-64 host.)
Every ufunc of the build reads and writes contiguous (B,) rows of the
sweep's dtype through out=, with the dt factors cast to it once per span, so
numpy allocates no iteration or cast buffers: on (2, 2, B) stacks, strided
views and complex-by-float operands its buffers had taken as much memory as
the arrays asked for.  A pair builds both sweeps' matrices from each span's
sample, so H is still sampled once per point: the forward matrices from A,
then the adjoint ones from the same array turned into -A^dag in place
(_adjoint_generator: a.real *= -1 leaves -conj(A), and a view swaps the
component indices).

A sweep is real while its sampler returns float64, as _generator's does
when the start (both starts for a pair) has no imaginary part and a span's
H has no real part, as for the trap's linear generator
H = i [[0, 1/m], [-m omega^2, 0]], whose A is Im H, copied as float64; the
build, the scan's chunk-start scalars and the states are then float64.  (a +
0i)(b + 0i) rounds to ab whether numpy's loop is fused or plain, and adds
of zero imaginary parts change no real part, so a real sweep is bitwise the
real parts of the complex sweep of the same start, whose imaginary parts are
zero; an inf or a NaN reaches the same entries in both, so both fail at the
same step.  The first complex span casts the matrices built so far to
complex, once, and the sweep goes on in complex, bitwise the sweep that was
complex throughout.

Beside the 64 bytes per step of each complex sweep's matrices, a span holds
about 273 bytes per step, for a pair as for one sweep: H and A while
converting, then A and the build's own rows.  The peak is the scan's, the
1.02 MB of step matrices beside the 0.51 MB of states: 1.57 MB for the
atom's 15,915-step propagate, 2.59 MB for its pair.  A real sweep's matrices
take 32 bytes per step, and its span about 190 while converting: the complex
H beside the float A.  The oscillator's default 3,002-step sweep peaks
there, at 0.38 MB in propagate and 0.41 MB in trap.hamilton_trajectory,
against 0.60 and 0.62 MB in complex (tracemalloc, numpy 2.4.6).

The recurrence is then solved by a two-level scan (Blelloch, "Prefix sums
and their applications", 1990) over chunks of w = ceil(sqrt(n / 16)) steps
(_chunk_width).  Step i of every chunk is one column of m every w apart,
so each numpy pass below covers every chunk at once:
  1. the chunk propagators, products of each chunk's M_k, in one pass per
     step within a chunk;
  2. the chunk-start states, one scalar 2x2 product per chunk;
  3. the states inside the chunks, again one pass per step within a chunk.
That is O(n) work in O(sqrt(n)) numpy calls and Python iterations: about
2 w passes and n / w scalar products.  Fitted over widths 8-256 on the
15,915-step atom sweep with each pass on contiguous chunks, a pass cost
about 3.5 us beyond its per-element work and a chunk of phase 2 about
0.5 us (numpy 2.4.6, shared 2-vCPU x86-64 host), so the sweep is fastest
near w = sqrt(n / 14): _rk4 took about 1.0 ms at w = 32 against 1.4 ms at
ceil(sqrt(n)) = 127, and takes about 1.3 ms at w = 32 with its passes
strided by w, as here.  A chunk propagator can overflow where the states
stay finite (a zero or tiny component meets an entry that grows past the
largest double); such a chunk is stepped one M_k at a time, so a sweep
fails exactly when, and at the step where, the step-by-step recurrence
does.  _rk4 allocates the states after phase 2, once the chunk
propagators and the chunk-start lists are freed, so they are never held
beside each other.

The scan's memory layout is part of its bits.  numpy multiplies complex
arrays in a loop with fused multiply-adds unless an input's memory overlaps
the output's; then it takes a plain loop, which rounds as Python's complex
product does.  Phase 3's first product, q[:, 0] prev[0] written into state,
takes the fused loop at pass 0, where prev is the fresh chunk-start array,
and at every pass of a scan of one chunk, whose rows are adjacent; at passes
1 to w - 1 of a longer scan prev's rows interleave with state's in out, and
it takes the plain loop.  Its second product goes to a new array and is
always fused.  (The plain loop matched Python's product on all of 400
random products, a fused one on 53-57% of them; numpy 2.4.6, AVX-512
x86-64 host.)  So a scan that laid its states out otherwise, or cut them
into other chunks, would move the last bits of its states.  A real sweep's
products round once in either loop, so its bits do not depend on the layout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .biortho import _store_views
from .errors import ConfigError, NonFiniteState
from .quadrature import _spans

__all__ = [
    "StateTrajectory",
    "propagate",
    "propagate_pair",
    "branch_projection",
    "convergence_order",
]

# Most steps a run's grid may hold; a config asking for more is rejected
# before anything is allocated (a sweep of 10**8 steps would hold over 25 GB).
_MAX_STEPS = 10**8

# the (i, j) entries of a 2x2 matrix, in the order the step build walks them
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))

@dataclass(frozen=True)
class StateTrajectory:
    """States on a time grid, with the adjoint companion when pair-propagated.

    The states keep their sweep's dtype: float64 for a real sweep (a real
    start under an H with no real part, see propagate), complex otherwise.
    """

    grid: np.ndarray
    states: np.ndarray
    adjoint_states: np.ndarray | None = None

    def __post_init__(self):
        _store_views(self, grid=self.grid, states=self.states, adjoint_states=self.adjoint_states)

    @property
    def p1(self) -> np.ndarray:
        """Ground-state population |psi_1|^2."""
        return np.abs(self.states[:, 0]) ** 2

    @property
    def p2(self) -> np.ndarray:
        """Excited-state population |psi_2|^2."""
        return np.abs(self.states[:, 1]) ** 2

    @property
    def norm2(self) -> np.ndarray:
        """Squared Euclidean norm; decays under Gamma > 0, constant otherwise."""
        return self.p1 + self.p2

    @property
    def biorth_overlap(self) -> np.ndarray:
        """Conserved overlap <psi_hat(t)|psi(t)> of a propagated pair."""
        if self.adjoint_states is None:
            raise ValueError("no adjoint states: use propagate_pair")
        return np.einsum("tj,tj->t", self.adjoint_states.conj(), self.states)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    """grid as a validated float array (the caller's own when it is one)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if not np.isfinite(grid).all():
        raise ValueError("grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _require_steps(steps: float, what: str) -> None:
    """ConfigError unless a grid of steps (a float, possibly inf) fits under _MAX_STEPS."""
    if not steps <= _MAX_STEPS:
        raise ConfigError(f"{what} gives {steps:.3g} steps, more than the {_MAX_STEPS:.0e} "
                          "a run may hold")


def _initial_state(y0, where: str) -> np.ndarray:
    """y0 as a complex 2-vector; NonFiniteState names a non-finite one."""
    y0 = np.asarray(y0, dtype=complex).reshape(2)
    if not np.isfinite(y0).all():
        raise NonFiniteState(f"non-finite {where} initial state {y0}")
    return y0


def _generator(hfun, real: bool):
    """The sampler of a sweep under hfun, times -> A = -i H at times, (2, 2, len(times)).

    Each sample is one call hfun(times), whose result must broadcast to
    (len(times), 2, 2) (any other shape is a ValueError that names it), and
    one -i multiply.  With real=True A is Im H as float64 while H has no
    real part, and complex from the first call whose H has one on.
    """
    def sample(times: np.ndarray) -> np.ndarray:
        nonlocal real
        h = np.asarray(hfun(times), dtype=complex)
        shape = (len(times), 2, 2)
        try:
            h = np.broadcast_to(h, shape).transpose(1, 2, 0)
        except ValueError:
            raise ValueError(f"H(t) on {len(times)} times has shape {h.shape}, which does not "
                             f"broadcast to {shape}") from None
        real = real and not h.real.any()
        if real:
            return h.imag.copy()
        a = np.empty(h.shape, dtype=complex)
        # a non-finite H surfaces as NonFiniteState in the sweep, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(-1j, h, out=a)
        return a

    return sample


def _chunk_width(n: int) -> int:
    """Steps per scan chunk of an n-step sweep: ceil(sqrt(n / 16)), see the module docstring."""
    return math.isqrt((n - 1) // 16) + 1


def _matmul_2x2(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ y for component-major (2, 2, B) stacks into out, one entry at a time, in out's dtype."""
    row = np.empty(x.shape[-1], dtype=out.dtype)
    for i, j in _ENTRIES:
        _entry_product(x, y, i, j, out[i, j], row)
    return out


def _entry_product(x: np.ndarray, y: np.ndarray, i: int, j: int, out: np.ndarray,
                   row: np.ndarray) -> None:
    """Entry (i, j) of x @ y, x[i, 0] y[0, j] + x[i, 1] y[1, j], into out; row is scratch."""
    np.multiply(x[i, 0], y[0, j], out=out)
    np.multiply(x[i, 1], y[1, j], out=row)
    out += row


def _scale_add(x: np.ndarray, c, y: np.ndarray) -> np.ndarray:
    """c x + y, computed in x in place one entry at a time."""
    for i, j in _ENTRIES:
        x[i, j] *= c
        x[i, j] += y[i, j]
    return x


def _step_block(a: np.ndarray, dt: np.ndarray, out: np.ndarray) -> None:
    """RK4 step matrices of a span's len(dt) steps, from its generator a, into out.

    a is a span's (2, 2, 2 B + 1) sample of A (_sweep_matrices), or
    _adjoint_generator's view of it: A at the nodes a0 = a[..., :B] and
    a1 = a[..., 1:B + 1] and at the midpoints am = a[..., B + 1:], so every
    entry read is a contiguous row.  out is the span's (2, 2, B) columns of
    the sweep's matrices, of a's dtype.  I + dt/6 (a0 + 2 (k2 + k3) + k4) with
    k2 = am + dt/2 am a0, k3 = am + dt/2 am k2 and k4 = a1 + dt a1 k3 is
    summed in place in out, where k2 is built: the same floating-point
    operations as the written-out expression, with fewer temporaries.  Every
    ufunc acts on contiguous (B,) rows of out's dtype (see the module
    docstring): the dt factors are cast to it once, as a complex-by-float
    multiply casts them, and k4 is built one entry at a time and added into
    the sum.
    """
    b, dtype = len(dt), out.dtype
    a0, a1, am = a[..., :b], a[..., 1:b + 1], a[..., b + 1:]
    half = (0.5 * dt).astype(dtype)
    k2 = _scale_add(_matmul_2x2(am, a0, out), half, am)
    k3 = _scale_add(_matmul_2x2(am, k2, np.empty(out.shape, dtype=dtype)), half, am)
    del half
    full, sixth = dt.astype(dtype), (dt / 6.0).astype(dtype)
    for i, j in _ENTRIES:
        k2[i, j] += k3[i, j]
    k2 = _scale_add(k2, 2.0, a0)
    k4, row = np.empty((2, b), dtype=dtype)
    for i, j in _ENTRIES:
        _entry_product(a1, k3, i, j, k4, row)
        k4 *= full
        k4 += a1[i, j]
        m = k2[i, j]
        m += k4
        m *= sixth
        # +0.0 off the diagonal too, as I + ... turns a -0.0 there into +0.0
        m += 1.0 if i == j else 0.0


def _adjoint_generator(a: np.ndarray) -> np.ndarray:
    """-A^dag from the component-major generator a of A, made in a's own memory.

    a.real is multiplied by -1 in place, which leaves -conj(A) (-A for a
    float a, whose .real is a itself); the view returned swaps the component
    indices.  a no longer holds A afterwards.  (Multiplied, not negated:
    np.negative through out= into a strided float view gives wrong values
    under numpy 2.4.6.)
    """
    a.real *= -1.0
    return a.transpose(1, 0, 2)


def _sweep_matrices(sample, grid: np.ndarray, pair: bool = False) -> list[np.ndarray]:
    """The step matrices over all of grid, component-major: m[:, :, k] is M_k.

    One (2, 2, N) array, N the steps in whole chunks with identities past
    the last step, for the sweep of A, and with pair=True a second for that
    of -A^dag.  Each span of _spans, in whole chunks, is sampled in one call
    sample(times) on its nodes, then its midpoints, which returns A there,
    component-major (see the module docstring); the span's forward matrices
    are built from it, and a pair's adjoint ones from the same array, turned
    into -A^dag in place.  The matrices take the first span's dtype and are
    allocated after it is sampled, so a grid of one span holds its sample
    and its matrices at different times.  The first complex span after
    float ones casts them to complex, once; a sampler returns complex from
    then on.
    """
    n = len(grid) - 1
    width = _chunk_width(n)
    ms = []
    for s, e in _spans(n, width):
        span = grid[s:e + 1]
        a = sample(np.concatenate([span, 0.5 * (span[:-1] + span[1:])]))
        steps = np.diff(span)
        if not ms:
            ms = [np.empty((2, 2, -(-n // width) * width), dtype=a.dtype)
                  for _ in range(1 + pair)]
            for m in ms:
                m[:, :, n:] = np.eye(2)[:, :, None]
        elif a.dtype != ms[0].dtype:  # complex from this span on
            ms = [m.astype(complex) for m in ms]
        # blow-ups surface as NonFiniteState in _rk4, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            _step_block(a, steps, ms[0][:, :, s:e])
            if pair:
                _step_block(_adjoint_generator(a), steps, ms[1][:, :, s:e])
        del a, steps  # before the next span is sampled
    return ms


def _rk4(m: np.ndarray, y0: np.ndarray, n: int, adjoint: bool = False) -> np.ndarray:
    """RK4 sweep of n steps for y' = A(t) y from its step matrices.

    m holds the step matrices of _sweep_matrices for the n steps, and the
    sweep runs in their dtype: y0, the chunk-start scalars and the states.
    y0 must be finite (_initial_state), and real when m is.
    adjoint=True names the sweep y' = A^dag(t) y in errors.  Raises
    NonFiniteState naming the first step whose state is not finite.
    """
    y0 = y0 if m.dtype == complex else y0.real
    width = _chunk_width(n)
    chunks = m.shape[-1] // width
    # m[i, :, :, j] is M_{j width + i}: each product below is one pass over
    # all chunks, strided by width
    m = m.reshape(2, 2, chunks, width).transpose(3, 0, 1, 2)
    # blow-ups surface as NonFiniteState below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # 1. propagators M_{j width + width - 1} ... M_{j width} of all chunks but the last
        prop = m[0, :, :, :-1]
        for q in m[1:, :, :, :-1]:
            prop = q[:, 0, None] * prop[0] + q[:, 1, None] * prop[1]
        # 2. chunk-start states, one scalar step per chunk
        y, z = y0.tolist()
        ys, zs = [y], [z]
        for j, (p00, p01, p10, p11) in enumerate(zip(*prop.reshape(4, -1).tolist())):
            y1, z1 = p00 * y + p01 * z, p10 * y + p11 * z
            if not (cmath.isfinite(y1) and cmath.isfinite(z1)):
                # a product can overflow where the states do not: step the chunk
                y1, z1 = y, z
                for m00, m01, m10, m11 in m[:, :, :, j].reshape(-1, 4).tolist():
                    y1, z1 = m00 * y1 + m01 * z1, m10 * y1 + m11 * z1
                if not (cmath.isfinite(y1) and cmath.isfinite(z1)):
                    break  # blown up in chunk j: the fill below finds the step
            y, z = y1, z1
            ys.append(y)
            zs.append(z)
        # 3. states inside the chunks, one step of every chunk at a time; the
        # states are allocated once the propagators and the lists are freed
        prev = np.array([ys, zs])
        del prop, ys, zs
        filled = prev.shape[1]
        out = np.empty((chunks * width + 1, 2), dtype=m.dtype)
        out[0] = y0
        out[1 + filled * width:] = np.nan  # rows past a blow-up never pass as finite
        states = out[1:].reshape(chunks, width, 2).transpose(1, 2, 0)[:, :, :filled]
        for q, state in zip(m[:, :, :, :filled], states):
            np.multiply(q[:, 0], prev[0], out=state)
            state += q[:, 1] * prev[1]
            prev = state
    out = out[:n + 1]
    # a non-finite state stays so to its chunk's end (0 inf = nan), so the
    # chunks' last rows show one; every state is scanned only to name its step
    if filled < chunks or not np.isfinite(prev).all():
        step = int(np.isfinite(out).all(axis=1).argmin())
        where = "adjoint" if adjoint else "forward"
        raise NonFiniteState(
            f"non-finite {where} state after step {step} of {n}; reduce dt or check the schedule"
        )
    return out


def propagate(hfun, psi0, grid) -> StateTrajectory:
    """Propagate psi0 through i psi' = H(t) psi on a fixed grid.

    hfun takes an array of times and returns an array that broadcasts to
    (len(times), 2, 2), H at each time.  It is called once per span of
    quadrature._spans, so once for any grid of at most one span.  A psi0
    with no imaginary part under an H with no real part, such as the trap's
    linear generator, is swept in float64, and the states are float64 as
    long as every span is real: bitwise the real parts of the complex
    sweep, whose imaginary parts are then zero.
    """
    grid = _check_grid(grid)
    psi0 = _initial_state(psi0, "forward")
    [m] = _sweep_matrices(_generator(hfun, not psi0.imag.any()), grid)
    states = _rk4(m, psi0, len(grid) - 1)
    return StateTrajectory(grid=grid, states=states)


def propagate_pair(hfun, psi0, psihat0, grid) -> StateTrajectory:
    """Co-propagate psi under H and the adjoint companion psi_hat under H^dag.

    <psi_hat|psi> is a constant of motion of the exact flow, whatever the
    non-Hermitian H; its numerical drift measures integrator error.  hfun
    is called as in propagate, once per span: both sweeps' step matrices
    are built from each span's sample.  The pair is swept in float64 when
    both starts have no imaginary part and H has no real part.
    """
    grid = _check_grid(grid)
    psi0 = _initial_state(psi0, "forward")
    psihat0 = _initial_state(psihat0, "adjoint")
    real = not (psi0.imag.any() or psihat0.imag.any())
    ms = _sweep_matrices(_generator(hfun, real), grid, pair=True)
    n = len(grid) - 1
    states = _rk4(ms.pop(0), psi0, n)  # popped, so each array is freed after its sweep
    adjoint = _rk4(ms.pop(), psihat0, n, adjoint=True)
    return StateTrajectory(grid=grid, states=states, adjoint_states=adjoint)


def branch_projection(traj: StateTrajectory, basis, branch=None) -> np.ndarray:
    """Branch amplitudes c_n(t) = <l_n(t)|psi(t)> along a trajectory, (N, 2).

    basis has a grid and right_at(index, branch=None), the right vectors at
    those grid points, or only row branch of them, as
    counterdiabatic.MixingAngleTrajectory does.  Because the basis closes,
    sum_n c_n(t) r_n(t) rebuilds psi(t) exactly.  The bra of l_n is the
    conjugate of left, which is right itself, so the states are contracted
    with right, built one span of _spans' rows at a time.  Given branch n,
    returns only |c_n(t)|, a float (N,) array, from row n of each span.
    """
    if not np.array_equal(traj.grid, basis.grid):
        raise ValueError("trajectory and basis live on different grids")
    n = len(traj.grid)
    c = np.empty((n, 2) if branch is None else n, dtype=complex if branch is None else float)
    for a, b in _spans(n):
        rows = slice(a, b)
        if branch is None:
            np.einsum("tnj,tj->tn", basis.right_at(rows), traj.states[rows], out=c[rows])
        else:
            np.abs(np.einsum("tj,tj->t", basis.right_at(rows, branch), traj.states[rows]),
                   out=c[rows])
    return c


def convergence_order(hfun, psi0, window, n0: int = 512) -> float:
    """Empirical RK4 order from endpoint errors at n0 and 2 n0 steps.

    The reference is the 8 n0 run; returns log2(error(n0) / error(2 n0)),
    which sits near 4 inside the asymptotic regime.
    """
    t0, t1 = window
    runs = {}
    for n in (n0, 2 * n0, 8 * n0):
        grid = np.linspace(t0, t1, n + 1)
        runs[n] = propagate(hfun, psi0, grid).states[-1]
    e1 = np.linalg.norm(runs[n0] - runs[8 * n0])
    e2 = np.linalg.norm(runs[2 * n0] - runs[8 * n0])
    if e1 == 0.0 or e2 == 0.0:
        raise ValueError("errors vanished; convergence order undefined")
    return float(np.log2(e1 / e2))
