"""Tests of the benchmark's own logic: the percentile rule, span self
time, error counting, wrapper installation, and a smoke run of each
workload at a tiny size."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.layers import install  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.stats import (  # noqa: E402
    TooFewSamples,
    error_rate,
    percentile,
)
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import Registry  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p95_refused_below_200_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(1, 201)), 95) == 190


def test_p50_needs_20_samples():
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 50)
    assert percentile(list(range(1, 21)), 50) == 10


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer")  # [0, 10]
    clock.now = 1.0
    a = tracer.begin("a")  # [1, 3]
    clock.now = 3.0
    tracer.end(a)
    clock.now = 4.0
    b = tracer.begin("b")  # [4, 8]
    clock.now = 5.0
    leaf = tracer.begin("leaf")  # [5, 6]
    clock.now = 6.0
    tracer.end(leaf)
    clock.now = 8.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(outer)

    assert tracer.total("outer") == 10.0
    assert tracer.self_time("outer") == 10.0 - 2.0 - 4.0
    assert tracer.self_time("a") == 2.0
    assert tracer.self_time("b") == 4.0 - 1.0
    assert tracer.self_time("leaf") == 1.0
    assert [event["name"] for event in tracer.chrome_trace()["traceEvents"]] == [
        "a", "leaf", "b", "outer"
    ]


def test_within_records_only_inside_a_context_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def helper():
        clock.now += 1.0

    wrapped = tracer.wrap(helper, "helper", within=frozenset({"context"}))
    wrapped()  # no context open: runs, but is not recorded
    context = tracer.begin("context")
    wrapped()
    tracer.end(context)
    assert clock.now == 2.0
    assert tracer.calls("helper") == 1
    assert tracer.total("helper") == 1.0
    assert tracer.total("context") == 1.0


def test_recursive_span_total_counts_outermost_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("layer")
    clock.now = 1.0
    inner = tracer.begin("layer")
    clock.now = 3.0
    tracer.end(inner)
    clock.now = 4.0
    tracer.end(outer)
    assert tracer.calls("layer") == 2
    assert tracer.total("layer") == 4.0
    assert tracer.self_time("layer") == 4.0


# ----------------------------------------------------------------------
# error counting
# ----------------------------------------------------------------------
def test_error_rate():
    assert error_rate(10, 0) == 0.0
    assert error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(3, 4)


class _Result:
    def __init__(self, passed):
        self.passed = passed


class _Experiment:
    def __init__(self, experiment_id, passed):
        self.experiment_id = experiment_id
        self._passed = passed

    def run(self):
        return _Result(self._passed)


def test_registry_unit_counts_non_pass_experiments(tmp_path):
    workload = Registry(0, tmp_path)
    workload.inputs = [
        _Experiment("A", True),
        _Experiment("B", False),
        _Experiment("C", True),
    ]
    unit = workload.unit()
    assert (unit.attempted, unit.failed) == (3, 1)
    assert workload.check() == ["B did not PASS"]


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------
def test_install_rebinds_imported_names_and_restores():
    import repro.core.encoding as encoding
    import repro.markov.builder as builder
    from repro.markov.sweep_engine import SweepRunner
    from repro.stabilization.statespace import StateSpace

    original = encoding.compile_tables
    explore = StateSpace.__dict__["explore"]
    run = SweepRunner.__dict__["run"]
    patcher = install(Tracer())
    try:
        assert encoding.compile_tables is not original
        assert builder.compile_tables is encoding.compile_tables
        assert StateSpace.__dict__["explore"] is not explore
    finally:
        patcher.restore()
    assert encoding.compile_tables is original
    assert builder.compile_tables is original
    assert StateSpace.__dict__["explore"] is explore
    assert SweepRunner.__dict__["run"] is run


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def _run(workload, trace):
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0",
            "--trace", str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["registry", "mc-sweep", "campaign", "served"])
def test_smoke_traced(workload):
    metrics = _run(workload, 1)
    assert list(metrics) == [m[0] for m in PER_LAYER]
    if workload == "registry":
        assert metrics["stabilization.explore.s"] > 0
    else:
        assert metrics["stabilization.explore.calls"] == 0
    if workload == "campaign":
        # Spans recorded in forked shard workers reach the parent.
        assert metrics["campaign.execute_shard.s"] > 0
        assert metrics["campaign.shards_executed"] == 4
        assert metrics["store.bytes_written"] > 0
    if workload == "served":
        assert metrics["serving.execute_ms"] > 0
        assert metrics["serving.runner_cache_hit_frac"] == 1.0


@pytest.mark.parametrize("workload", ["campaign", "served"])
def test_smoke_end_to_end(workload):
    metrics = _run(workload, 0)
    assert list(metrics) == [name for name, _unit in END_TO_END]
    assert all(value > 0 for value in metrics.values())


def test_failed_check_fails_the_invocation(monkeypatch, capsys, tmp_path):
    from perfbench import run
    from perfbench.workloads import Unit, Workload

    class Broken(Workload):
        setup_in_subprocess = False

        def boot(self):
            return 0.01

        def build_inputs(self):
            return None

        def unit(self):
            self.problems.append("output differs from the oracle")
            return Unit(seconds=0.01, attempted=2, failed=1)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(
        run, "make_workload", lambda name, seed, workdir, smoke: Broken(seed, workdir)
    )
    assert run.main(["--workload", "served", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
