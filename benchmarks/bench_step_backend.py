"""Micro-benchmarks of rank-space super-stepping in the one lockstep loop.

The trajectory pair to watch is
``step_ring30_100k_sync_superstep`` vs ``..._plain``: the same
100 000-trial deterministic synchronous sweep point (token circulation
on a 30-ring, 64 tiled initial configurations) through the rank-space
super-stepping path and through the per-step path (forced by a zero
``SUPERSTEP_BUDGET``).  Super-stepping is orders of magnitude faster
because the interned closure is tiny relative to ``trials × steps``.

``step_ring30_fused_sync_superstep`` runs the same workload as a fused
four-point ``SweepRunner`` sweep with a different step budget per
point, and asserts that the fused block super-steps too.

The per-step side of the headline pair is expensive by construction
(it is the thing being beaten), so it runs a single round.
"""

import pytest

import repro.markov.batch as batch_module
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.core.kernel import TransitionKernel
from repro.markov.batch import (
    BatchEngine,
    EnabledCountLegitimacy,
    batch_strategy_for,
    encode_initials,
)
from repro.markov.montecarlo import random_configurations
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import SynchronousSampler

RING_SIZE = 30
SYNC_TRIALS = 100_000
SYNC_MAX_STEPS = 120
INITIALS = 64
TOKEN_LEGITIMACY = EnabledCountLegitimacy(1)

_SYSTEM = make_token_ring_system(RING_SIZE)
_ENGINE = BatchEngine(TransitionKernel(_SYSTEM))
_INITIALS = random_configurations(_SYSTEM, RandomSource(2027), INITIALS)
_CODES = encode_initials(_ENGINE.encoding, _INITIALS, SYNC_TRIALS)
_SPEC = TokenCirculationSpec()


def _run_point():
    return _ENGINE.run(
        batch_strategy_for(SynchronousSampler()),
        TOKEN_LEGITIMACY,
        _CODES,
        SYNC_MAX_STEPS,
        RandomSource(2026).numpy_generator(),
    )


def _fused_points():
    return [
        SweepPointSpec(
            system=_SYSTEM,
            sampler=SynchronousSampler(),
            legitimate=lambda configuration: _SPEC.legitimate(
                _SYSTEM, configuration
            ),
            trials=SYNC_TRIALS // 4,
            max_steps=budget,
            seed=2026 + budget,
            batch_legitimate=TOKEN_LEGITIMACY,
            initial_configurations=tuple(_INITIALS),
            label=f"budget-{budget}",
        )
        for budget in (30, 60, 90, SYNC_MAX_STEPS)
    ]


def test_step_ring30_100k_sync_plain(benchmark, monkeypatch):
    """Baseline: the per-step path on the headline point."""
    monkeypatch.setattr(batch_module, "SUPERSTEP_BUDGET", 0)
    result = benchmark.pedantic(_run_point, rounds=1, iterations=1)
    assert result.stepping == "per-step:over-budget"
    assert result.times.size == SYNC_TRIALS


def test_step_ring30_100k_sync_superstep(benchmark):
    """Same point through rank-space super-stepping."""
    result = benchmark.pedantic(_run_point, rounds=3, iterations=1)
    assert result.stepping == "superstep", "super-stepping did not engage"
    assert result.times.size == SYNC_TRIALS


def test_step_ring30_fused_sync_superstep(benchmark):
    """Four fused points, one budget each, super-stepped as one block."""
    runner = SweepRunner(engine="fused")
    results = benchmark.pedantic(
        lambda: runner.run(_fused_points()), rounds=3, iterations=1
    )
    assert [execution.stepping for execution in runner.last_plan] == [
        "superstep"
    ] * 4, "super-stepping did not engage on the fused block"
    assert sum(result.trials for result in results) == SYNC_TRIALS


@pytest.mark.parametrize("engine", ["batch", "fused"])
def test_step_ring30_sweep_stepping_is_superstep(engine):
    """Unbenchmarked guard: both sweep paths super-step this point."""
    runner = SweepRunner(engine=engine)
    runner.run(_fused_points()[:1])
    assert runner.last_plan[0].stepping == "superstep"
