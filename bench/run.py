"""Benchmark of the `sta` command line: end-to-end run times and a traced per-layer split.

    python3 bench/run.py --workload atom-cd --seed 1 --seconds 30 --trace 0

One client runs one scenario in a closed loop, in process, through
`sta.cli.main(argv)`: the next run starts when the last one returns.  The
config is drawn from --seed and every run's output is checked.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones from a run in
which every other invocation is traced.  --workload all runs every workload
in turn.  The last line of standard output is one JSON object; spans and
scratch files go to .bench_out/ at the repository root.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
if __name__ == "__main__":
    # BLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out"
SETUP_RUNS = 7
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sta.cli; print(time.perf_counter() - t)")

# name -> (unit, better), as BENCHMARK.json lists them.  On a shared host the
# slow phases last tens of seconds, so the median, tail and even the fastest of
# one 30 s run in seconds move by 10-40% from run to run.  The gated run time
# is therefore the median of each run's time over the host probe timed just
# before and after it, which cancels the host's speed; the figures in seconds
# are printed beside it but left out of the JSON result.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_vs_probe.p50": ("ratio", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
}
PRINTED = {
    "run_s.min": ("s", "lower"),
    "run_s.p50": ("s", "lower"),
    "run_s.tail": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": ("s", "lower")}

# Single unrepeated timings from ROADMAP.md ("Recent"), which the traced split
# should reproduce within noise: (metric, seconds, what was timed).
BASELINES = {
    "atom-cd": [("propagate.propagate.self_s", 0.256, "RK4 loop, 15,915 steps"),
                ("cli.write_csv.self_s", 0.110, "write_csv, 15.9k x 5")],
    "trap-open": [("trap.closed_form_trajectory.self_s", 0.195,
                   "closed_form_trajectory, 3,001 points")],
    "self-check": [("run_s.p50", 1.5, "sta check in process")],
}


def load_cli():
    """Import sta.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sta" / "cli.py").is_file():
        raise SystemExit(f"bench: no sta sources under {src}")
    sys.path.insert(0, str(src))
    import sta.cli

    if Path(sta.cli.__file__).resolve().parent != src / "sta":
        raise SystemExit(f"bench: imported sta from {sta.cli.__file__}, not {src}")
    return sta.cli


def invoke(cli, workload: Workload, config: dict, config_path: Path, out: Path):
    """One scenario run: its wall seconds and why its output is wrong, or None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(workload.argv(config_path, out))
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}: {stderr.getvalue().strip()}"
    try:
        workload.check(config, out, stdout.getvalue())
    except (OSError, ValueError) as exc:
        return elapsed, str(exc)
    return elapsed, None


def closed_loop(run_once, seconds: float, tracer: Tracer | None = None):
    """Back-to-back runs for `seconds`; with a tracer every even-numbered run is traced.

    Returns (elapsed, problem, traced) per run.
    """
    runs = []
    start = time.perf_counter()
    while len(runs) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(runs) % 2 == 0
        with tracer.tracing(len(runs)) if traced else contextlib.nullcontext():
            elapsed, problem = run_once()
        runs.append((elapsed, problem, traced))
    return runs


def setup_seconds() -> float:
    """Time a fresh interpreter takes to import sta.cli, numpy included."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def probe_seconds(steps: int = 2000) -> float:
    """Time of a fixed loop of small complex 2x2 products that uses no sta code.

    Its mix of interpreter work and tiny numpy calls resembles the scenarios',
    so timed next to a run it measures how fast the shared host is just then.
    """
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    y = np.array([1.0, 0.0], dtype=complex)
    start = time.perf_counter()
    for _ in range(steps):
        k = a @ y
        y = y + 1e-3 * (k + a @ (y + 5e-4 * k))
    return time.perf_counter() - start


def peak_alloc(run_once):
    """Peak traced allocation of one run, in MB, and that run's problem."""
    tracemalloc.start()
    try:
        _, problem = run_once()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, problem


def tail(samples):
    """Highest percentile with at least ten samples beyond it: value, percentile, beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def summarize(runs, ratios, setup: list[float], peak_mb: float):
    """END_TO_END and PRINTED metrics of an untraced loop, with a note beside each.

    ratios[i] is runs[i]'s time over the mean probe time around it.
    """
    good = [elapsed for elapsed, problem, _ in runs if problem is None]
    good_ratios = [r for r, (_, problem, _) in zip(ratios, runs) if problem is None]
    nan = float("nan")
    p50 = statistics.median(good) if good else nan
    value, pct, beyond = tail(good) if good else (nan, 100.0, 0)
    busy = sum(elapsed for elapsed, _, _ in runs)
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "run_s.min": (min(good, default=nan), f"fastest of {len(good)} correct runs"),
        "run_vs_probe.p50": (statistics.median(good_ratios) if good_ratios else nan,
                             "median of run time / probe time around it"),
        "peak_alloc_mb": (peak_mb, "one run under tracemalloc"),
        "run_s.p50": (p50, f"{len(good)} correct runs"),
        "run_s.tail": (value, f"p{pct:.1f}, {beyond} of {len(good)} samples beyond"),
        "runs_per_s": (len(good) / busy, f"{len(good)} correct runs in {busy:.2f} s busy"),
    }


def layer_summary(runs, tracer: Tracer):
    """Per-layer medians over the traced runs, plus the tracing overhead."""
    traced = [i for i, (_, _, t) in enumerate(runs) if t]
    per_run = [tracer.layer_metrics(i) for i in traced]
    out = {name: (statistics.median_low(m[name] for m in per_run),
                  f"median of {len(per_run)} traced runs")
           for name in LAYER_METRICS}
    on = statistics.median(runs[i][0] for i in traced)
    off = statistics.median(elapsed for elapsed, _, t in runs if not t)
    out["trace.overhead_s"] = (on - off, f"traced run_s.p50 {on:.4f} s - untraced {off:.4f} s")
    return out, off


def bench(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    config = workload.make_config(np.random.default_rng(seed))
    config_path = SCRATCH / f"{workload.name}-{seed}.json"
    config_path.write_text(json.dumps(config))
    out = SCRATCH / f"{workload.name}-{seed}.out"

    def run_once():
        return invoke(cli, workload, config, config_path, out)

    print(f"workload {workload.name} (sta {workload.scenario}), seed {seed}: {workload.size}")
    print(f"config {json.dumps(config)}")
    print(f"python {platform.python_version()}, numpy {np.__version__}, nproc {NPROC}, BLAS "
          f"threads {os.environ.get('OPENBLAS_NUM_THREADS', 'default')}, one client, closed loop")
    run_once()  # warm-up: lazy imports and caches, not counted
    if trace:
        tracer = Tracer()
        runs = closed_loop(run_once, seconds, tracer)
        tracer.dump(SCRATCH / f"spans-{workload.name}-{seed}.json")
        metrics, untraced_p50 = layer_summary(runs, tracer)
        problems = [problem for _, problem, _ in runs]
        units = PER_LAYER
    else:
        ratios = []

        def probed_run():
            before = probe_seconds()
            elapsed, problem = run_once()
            ratios.append(2.0 * elapsed / (before + probe_seconds()))
            return elapsed, problem

        # set-up samples are spread over the run so that they see the same host
        setup, runs = [], []
        for _ in range(SETUP_RUNS):
            setup.append(setup_seconds())
            runs += closed_loop(probed_run, seconds / SETUP_RUNS)
        peak_mb, peak_problem = peak_alloc(run_once)
        metrics = summarize(runs, ratios, setup, peak_mb)
        problems = [problem for _, problem, _ in runs] + [peak_problem]
        units = END_TO_END | PRINTED
    failed = [problem for problem in problems if problem is not None]
    for name, (value, note) in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<48} {shown:>12} {units[name][0]:<6} {note}")
    print(f"  {'fail_frac':<48} {len(failed) / len(problems):>12.6g} {'':<6} "
          f"{len(failed)} of {len(problems)} checked runs failed")
    if trace:
        known = {k: v for k, (v, _) in metrics.items()} | {"run_s.p50": untraced_p50}
        for name, seconds_then, what in BASELINES[workload.name]:
            print(f"  baseline {what}: {known[name]:.4f} s now, {seconds_then:.3f} s in ROADMAP "
                  f"({known[name] / seconds_then:.2f}x)")
    for problem in sorted(set(failed))[:3]:
        print(f"  FAILED: {problem}")
    return {"correct": not failed, "attempted": len(problems), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name][0]}
                        for name, (value, _) in metrics.items() if name not in PRINTED}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(cli, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
