"""Tests of the benchmark itself:  python -m pytest -q bench"""

import json

import numpy as np
import pytest

import run
from spans import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("name, seed", [
    ("atom-cd", 0), ("atom-cd", 1), ("atom-cd", 2),
    ("trap-open", 0), ("trap-open", 1), ("trap-open", 2), ("trap-open", 3),
    ("self-check", 0),
])
def test_generated_configs_exit_zero_and_pass_checks(cli, tmp_path, name, seed):
    workload = WORKLOADS[name]
    config = workload.make_config(np.random.default_rng(seed))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    elapsed, problem = run.invoke(cli, workload, config, config_path, tmp_path / "out")
    assert problem is None
    assert elapsed > 0.0


def test_configs_repeat_for_a_seed():
    for workload in WORKLOADS.values():
        draws = [workload.make_config(np.random.default_rng(5)) for _ in range(2)]
        assert draws[0] == draws[1]


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, "cli.main", None, 0, 0.0, 10.0),
        Span(1, "propagate.propagate", 0, 0, 1.0, 4.0),
        Span(2, "cli.write_csv", 0, 0, 3.0, 6.0),        # overlaps span 1 by 1 s
        Span(3, "counterdiabatic.hamiltonian", 1, 0, 2.0, 3.0),
        Span(4, "cli.write_csv", 0, 0, 9.0, 12.0),       # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    counts = {"propagate.propagate.steps": 4, "trap.rho_points": 7}
    m = layer_metrics(spans, counts)
    assert m["cli.main.self_s"] == 4.0
    assert m["cli.write_csv.self_s"] == 6.0
    assert m["propagate.us_per_step"] == 1e6 * 2.0 / 4
    assert m["trap.rho_points"] == 7
    assert m["counterdiabatic.hamiltonian.calls"] == 1
    assert m["counterdiabatic.hamiltonian.batched_ratio"] == 1.0


def test_pointwise_sampling_lowers_batched_ratio():
    spans = [Span(0, "propagate.propagate", None, 0, 0.0, 10.0)]
    spans += [Span(i, "counterdiabatic.hamiltonian", 0, 0, i, i + 0.5) for i in range(1, 5)]
    assert layer_metrics(spans, {})["counterdiabatic.hamiltonian.batched_ratio"] == 0.25


def test_tracing_counts_repeat_and_wrappers_come_off(cli, tmp_path):
    workload = WORKLOADS["trap-open"]
    config = workload.make_config(np.random.default_rng(0))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    main = cli.main
    tracer = Tracer()
    for i in range(2):
        with tracer.tracing(i):
            assert cli.main is not main
            _, problem = run.invoke(cli, workload, config, config_path, tmp_path / "out")
        assert problem is None
    assert cli.main is main
    first, second = tracer.layer_metrics(0), tracer.layer_metrics(1)
    for key in ("propagate.steps", "trap.rho_points", "cli.write_csv.bytes"):
        assert first[key] == second[key] > 0
    assert first["propagate.steps"] == 3002


def _drop_last_row(write_csv):
    return lambda path, header, columns: write_csv(path, header, [c[:-1] for c in columns])


def _change_column(index, change):
    def corrupt(write_csv):
        def write(path, header, columns):
            columns = list(columns)
            columns[index] = change(columns[index])
            write_csv(path, header, columns)
        return write
    return corrupt


@pytest.mark.parametrize("name, corrupt", [
    ("trap-open", _drop_last_row),
    ("trap-open", _change_column(7, lambda q: q * (1.0 + 1e-5))),  # oracle off the closed form
    ("atom-cd", _change_column(4, lambda leak: leak + 1e-4)),      # leakage above roundoff
])
def test_corrupted_output_raises_fail_frac(cli, tmp_path, monkeypatch, name, corrupt):
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    monkeypatch.setattr(cli, "write_csv", corrupt(cli.write_csv))
    result = run.bench(cli, WORKLOADS[name], seed=0, seconds=0.0, trace=True)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]
    assert list(result["metrics"]) == list(run.PER_LAYER)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(range(30)) == (19, pytest.approx(100 * 20 / 30), 10)
    assert run.tail(range(5)) == (4, 100.0, 0)


def test_summary_reports_every_end_to_end_metric():
    runs = [(0.5, None, False), (1.5, None, False), (0.1, "exit 3: boom", False)]
    metrics = run.summarize(runs, [5.0, 15.0, 1.0], setup=[0.2, 0.3, 0.1], peak_mb=3.0)
    assert set(metrics) == set(run.END_TO_END) | set(run.PRINTED)
    assert metrics["setup_s"][0] == 0.2
    assert metrics["run_s.min"][0] == 0.5
    assert metrics["run_vs_probe.p50"][0] == 10.0
    assert metrics["run_s.p50"][0] == 1.0
    assert metrics["runs_per_s"][0] == 2 / 2.1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
