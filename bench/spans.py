"""Spans recorded around calls into the `sta` modules, and the per-layer figures.

The tracer wraps public functions from the outside: every module of the
package that holds a reference to a wrapped function gets the wrapper, so
calls made through `from .propagate import propagate` are seen too.  Spans
are kept in memory; nothing under src/ knows about them.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HAMILTONIAN = "counterdiabatic.hamiltonian"
PROPAGATIONS = ("propagate.propagate", "propagate.propagate_pair")


def _points(args, result):
    return {"points": int(np.size(args[1]))}


def _steps(args, result):
    sweeps = 1 if result.adjoint_states is None else 2
    return {"steps": sweeps * (len(result.grid) - 1)}


def _bytes(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


# (module, function, span name, counter); several functions may share one
# span name, and a call re-entering the span it is already in is folded into it.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_csv", "cli.write_csv", _bytes),
    ("counterdiabatic", "bare_hamiltonian", HAMILTONIAN, _points),
    ("counterdiabatic", "cd_hamiltonian", HAMILTONIAN, _points),
    ("counterdiabatic", "cd_hamiltonian_approx", HAMILTONIAN, _points),
    ("counterdiabatic", "mixing_angle_trajectory", "counterdiabatic.mixing_angle_trajectory", None),
    ("counterdiabatic", "adiabatic_basis", "counterdiabatic.adiabatic_basis", None),
    ("propagate", "propagate", "propagate.propagate", _steps),
    ("propagate", "propagate_pair", "propagate.propagate_pair", _steps),
    ("propagate", "convergence_order", "propagate.convergence_order", None),
    ("propagate", "branch_projection", "propagate.branch_projection", None),
    ("trap", "closed_form_trajectory", "trap.closed_form_trajectory", None),
    ("trap", "hamilton_trajectory", "trap.hamilton_trajectory", None),
    ("trap", "plan_expansion", "trap.plan_expansion", None),
    ("biortho", "eigensystem_2x2", "biortho.eigensystem_2x2", None),
)

SELF_TIMED = sorted({name for _, _, name, _ in TRACED})

# name -> (unit, better), in the order BENCHMARK.json lists them
LAYER_METRICS = {
    **{f"{name}.self_s": ("s", "lower") for name in SELF_TIMED},
    "propagate.steps": ("count", "lower"),
    "propagate.us_per_step": ("us", "lower"),
    "trap.rho_points": ("count", "lower"),
    "cli.write_csv.bytes": ("bytes", "lower"),
    f"{HAMILTONIAN}.calls": ("count", "lower"),
    f"{HAMILTONIAN}.points": ("count", "lower"),
    f"{HAMILTONIAN}.batched_ratio": ("ratio", "higher"),
    "biortho.eigensystem_2x2.calls": ("count", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = float("nan")


class Tracer:
    """Records spans and counts for the runs made inside `tracing(run)`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._run = -1

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, parent.id if parent else None, self._run,
                        perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                for key, n in count(args, result).items():
                    self.counts[self._run, f"{name}.{key}"] += n
            return result

        return traced

    def _count_rho(self, rho):
        def counted(plan, t):
            self.counts[self._run, "trap.rho_points"] += int(np.size(t))
            return rho(plan, t)

        return counted

    @contextmanager
    def tracing(self, run: int):
        """Install the wrappers in every loaded `sta` module for one run."""
        modules = [m for k, m in list(sys.modules.items()) if k == "sta" or k.startswith("sta.")]
        patches = []
        for module, func, name, count in TRACED:
            original = getattr(sys.modules[f"sta.{module}"], func)
            wrapper = self._wrap(name, original, count)
            patches += [(m, attr, original, wrapper) for m in modules
                        for attr, value in vars(m).items() if value is original]
        plan_cls = sys.modules["sta.trap"].ErmakovPlan
        patches.append((plan_cls, "rho", plan_cls.rho, self._count_rho(plan_cls.rho)))
        self._run = run
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)
            self._run = -1

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Every LAYER_METRICS figure for one traced run."""
        return layer_metrics([s for s in self.spans if s.run == run],
                             {k: n for (r, k), n in self.counts.items() if r == run})

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Self times summed per span name, counts and the derived ratios."""
    own = self_times(spans)
    metrics = {f"{name}.self_s": 0.0 for name in SELF_TIMED}
    for s in spans:
        metrics[f"{s.name}.self_s"] += own[s.id]
    steps = sum(counts.get(f"{name}.steps", 0) for name in PROPAGATIONS)
    prop_self = sum(metrics[f"{name}.self_s"] for name in PROPAGATIONS)
    calls = sum(s.name == HAMILTONIAN for s in spans)
    # a propagation samples H once when the callable broadcasts, per point otherwise
    by_id = {s.id: s for s in spans}
    sampled = {s.parent for s in spans if s.name == HAMILTONIAN
               and s.parent is not None and by_id[s.parent].name in PROPAGATIONS}
    metrics.update({
        "propagate.steps": steps,
        "propagate.us_per_step": 1e6 * prop_self / steps if steps else 0.0,
        "trap.rho_points": counts.get("trap.rho_points", 0),
        "cli.write_csv.bytes": counts.get("cli.write_csv.bytes", 0),
        f"{HAMILTONIAN}.calls": calls,
        f"{HAMILTONIAN}.points": counts.get(f"{HAMILTONIAN}.points", 0),
        f"{HAMILTONIAN}.batched_ratio": len(sampled) / calls if calls else 1.0,
        "biortho.eigensystem_2x2.calls": sum(s.name == "biortho.eigensystem_2x2" for s in spans),
    })
    return metrics
