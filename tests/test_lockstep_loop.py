"""The one lockstep loop: rank-space super-stepping, its reason codes,
per-phase profiling, and the budget/terminal contract shared with the
scalar oracle.

The cross-engine conformance matrix (``test_engine_conformance.py``)
runs every cell super-stepped and per step; this module covers the
machinery itself: when super-stepping engages and why it does not
(:attr:`~repro.markov.batch.BatchRunResult.stepping`), exact first-hit
and timeout recovery, per-row budgets inside fused sweeps, profiling
counters, and terminal-versus-budget agreement of every engine.  The
per-step side of each comparison is forced by patching
:data:`repro.markov.batch.SUPERSTEP_BUDGET` to zero.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.markov.batch as batch_module
from conformance_registry import (
    CONFORMANCE_SAMPLERS,
    conformance_entry,
    conformance_system,
)
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.core.encoding import expansion_context
from repro.core.kernel import TransitionKernel
from repro.errors import MarkovError, ModelError
from repro.graphs.generators import path
from repro.markov.batch import (
    PROFILE_PHASES,
    SUPERSTEP_BUDGET,
    BatchEngine,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.montecarlo import MonteCarloRunner, random_configurations
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.relations import CentralRelation
from repro.schedulers.samplers import CentralRandomizedSampler
from repro.stabilization.faults import FaultPlan, compile_fault
from repro.stabilization.statespace import StateSpace


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _batch_run(
    system_name,
    sampler_key,
    seed=2024,
    trials=300,
    max_steps=400,
    legitimacy=None,
    profile=False,
):
    """One BatchEngine.run on a registry system; returns (result, state).

    The returned generator-state string lets tests assert that a
    declined super-stepping attempt leaves the random stream exactly
    where the per-step path alone would.
    """
    entry = conformance_entry(system_name)
    system = conformance_system(system_name)
    engine = BatchEngine(TransitionKernel(system))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS[sampler_key]())
    if legitimacy is None:
        legitimacy = compile_legitimacy(
            entry.batch_legitimate
            if entry.batch_legitimate is not None
            else entry.legitimate(system)
        )
    initials = random_configurations(system, RandomSource(seed + 1), 16)
    codes = encode_initials(engine.encoding, initials, trials)
    generator = RandomSource(seed).numpy_generator()
    result = engine.run(
        strategy, legitimacy, codes, max_steps, generator, profile=profile
    )
    return result, str(generator.bit_generator.state)


@pytest.fixture
def per_step(monkeypatch):
    """``per_step(fn, *args)`` calls ``fn`` with super-stepping off."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(batch_module, "SUPERSTEP_BUDGET", 0)
            return fn(*args, **kwargs)

    return run


def _assert_same_outcome(reference, candidate):
    for name in ("times", "converged", "hit_terminal", "timed_out"):
        assert np.array_equal(
            getattr(reference, name), getattr(candidate, name)
        ), name


# ----------------------------------------------------------------------
# rank-space super-stepping
# ----------------------------------------------------------------------
def test_superstep_engages_and_is_bit_identical(per_step):
    """Deterministic synchronous cells take the rank-space path and the
    recorded first-hit times must match the per-step path exactly (the
    binary-lifting descent bisects within the last jump)."""
    candidate, _ = _batch_run("coloring-ring5", "synchronous")
    assert candidate.stepping == "superstep"
    reference, _ = per_step(_batch_run, "coloring-ring5", "synchronous")
    assert reference.stepping == "per-step:over-budget"
    _assert_same_outcome(reference, candidate)
    assert candidate.converged.any()  # nontrivial first-hit recovery


def test_superstep_handles_livelock_timeouts(per_step):
    """Synchronous token circulation livelocks (the paper's Theorem 1
    setting): every such trial must drain its budget and time out, with
    the same vectors as the per-step path."""
    candidate, _ = _batch_run("token-ring5", "synchronous", max_steps=123)
    assert candidate.stepping == "superstep"
    reference, _ = per_step(
        _batch_run, "token-ring5", "synchronous", max_steps=123
    )
    _assert_same_outcome(reference, candidate)
    assert candidate.timed_out.any()
    assert not (candidate.converged & candidate.timed_out).any()


def test_superstep_over_budget_falls_back_to_per_step(monkeypatch):
    """A state budget smaller than the reachable closure must abort the
    plan and take the per-step path, with identical results."""
    reference, _ = _batch_run("coloring-ring5", "synchronous")
    monkeypatch.setattr(batch_module, "SUPERSTEP_BUDGET", 3)
    candidate, _ = _batch_run("coloring-ring5", "synchronous")
    assert candidate.stepping == "per-step:over-budget"
    _assert_same_outcome(reference, candidate)
    assert SUPERSTEP_BUDGET > 3


def test_superstep_aborts_on_central_choice(per_step):
    """The central daemon on a multi-enabled start has a real scheduling
    choice, so the plan must abort during exploration and the per-step
    path must run on an untouched stream."""
    candidate, state = _batch_run("token-ring5", "central")
    assert candidate.stepping == "per-step:central-choice"
    reference, ref_state = per_step(_batch_run, "token-ring5", "central")
    _assert_same_outcome(reference, candidate)
    assert state == ref_state


def test_superstep_central_single_enabled_run(per_step):
    """A single-token ring under the central daemon is deterministic
    (exactly one enabled process at every reachable state), so the
    central eligibility check passes and the rank-space path runs."""
    system = conformance_system("token-ring5")
    engine = BatchEngine(TransitionKernel(system))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["central"]())
    # An unreachable legitimacy count keeps every trial alive so the run
    # exercises the jump ladder and the timeout drain.
    legitimacy = EnabledCountLegitimacy(system.num_processes + 1)
    single = [
        config
        for config in random_configurations(system, RandomSource(7), 200)
        if engine.tables.enabled(
            engine.tables.pack(engine.encoding.encode_batch([config]))
        ).sum()
        == 1
    ]
    assert single, "expected at least one single-enabled configuration"
    codes = encode_initials(engine.encoding, single[:4], 50)

    def run():
        return engine.run(
            strategy, legitimacy, codes, 60, RandomSource(5).numpy_generator()
        )

    result = run()
    assert result.stepping == "superstep"
    _assert_same_outcome(per_step(run), result)
    assert result.timed_out.all()


@pytest.mark.parametrize(
    "system_name,sampler_key,legitimacy,reason",
    [
        ("coloring-ring5", "synchronous", "decoding", "legitimacy"),
        ("token-ring5", "distributed", None, "strategy"),
        ("trans-token-ring5", "synchronous", None, "stochastic"),
    ],
)
def test_per_step_reasons(system_name, sampler_key, legitimacy, reason):
    """Blocks the plan cannot model name the first condition that ruled
    it out; stochastic tables are refused from the tables alone, before
    any expansion context is built."""
    if legitimacy == "decoding":
        system = conformance_system(system_name)
        legitimacy = compile_legitimacy(
            conformance_entry(system_name).legitimate(system)
        )
    result, _ = _batch_run(
        system_name, sampler_key, trials=60, legitimacy=legitimacy
    )
    assert result.stepping == f"per-step:{reason}"
    if reason == "stochastic":
        engine = BatchEngine(
            TransitionKernel(conformance_system(system_name))
        )
        engine.run(
            batch_strategy_for(CONFORMANCE_SAMPLERS[sampler_key]()),
            EnabledCountLegitimacy(1),
            encode_initials(
                engine.encoding,
                random_configurations(
                    engine.kernel.system, RandomSource(3), 4
                ),
                8,
            ),
            20,
            RandomSource(3).numpy_generator(),
        )
        assert getattr(engine.tables, "_expansion_memo", None) is None


def test_fault_runs_step_per_step():
    system = conformance_system("coloring-ring5")
    engine = BatchEngine(TransitionKernel(system))
    initials = random_configurations(system, RandomSource(4), 8)
    result = engine.run_with_fault(
        batch_strategy_for(CONFORMANCE_SAMPLERS["synchronous"]()),
        compile_legitimacy(
            conformance_entry("coloring-ring5").batch_legitimate
        ),
        encode_initials(engine.encoding, initials, 40),
        100,
        RandomSource(4).numpy_generator(),
        compile_fault(FaultPlan(processes=1, step=3, seed=2), system, 40),
    )
    assert result.stepping == "per-step:fault"
    assert (result.fault_times >= 0).any()


def test_deterministic_successor_ranks_guards_stochastic_tables():
    """Herman's protocol tosses coins, so its tables are not
    deterministic and the successor-map compiler must refuse."""
    system = conformance_system("herman-ring5")
    engine = BatchEngine(TransitionKernel(system))
    context = expansion_context(engine.tables)
    assert not context.deterministic
    with pytest.raises(ModelError, match="deterministic"):
        context.deterministic_successor_ranks(np.arange(4, dtype=np.int64))


def test_expansion_context_memoized_on_tables():
    engine = BatchEngine(TransitionKernel(conformance_system("token-ring5")))
    assert expansion_context(engine.tables) is expansion_context(
        engine.tables
    )


@pytest.mark.parametrize(
    "system_name,sampler_key,reason",
    [
        ("herman-ring5", "synchronous", "legitimacy"),
        ("herman-ring5", "central", "legitimacy"),
        ("israeli-jalfon-ring6", "central", "central-choice"),
        ("token-ring5", "distributed", "strategy"),
        ("trans-token-ring5", "synchronous", "stochastic"),
    ],
)
def test_declined_superstep_leaves_stream_unchanged(
    per_step, system_name, sampler_key, reason
):
    """Blocks that step per step — decoding legitimacy, central choices,
    the rejection-sampling distributed strategy, coin-tossing tables —
    must give identical retirement vectors *and* leave the generator in
    the identical state whether or not super-stepping was allowed: a
    declined plan consumes no draws."""
    candidate, state = _batch_run(system_name, sampler_key)
    assert candidate.stepping == f"per-step:{reason}"
    reference, ref_state = per_step(_batch_run, system_name, sampler_key)
    _assert_same_outcome(reference, candidate)
    assert state == ref_state


# ----------------------------------------------------------------------
# super-stepping inside fused sweeps
# ----------------------------------------------------------------------
def _sync_ring_points(system, budgets, sampler_keys=None):
    entry = conformance_entry("token-ring5")
    sampler_keys = sampler_keys or ["synchronous"] * len(budgets)
    return [
        SweepPointSpec(
            system=system,
            sampler=CONFORMANCE_SAMPLERS[key](),
            legitimate=entry.legitimate(system),
            trials=40,
            max_steps=budget,
            seed=100 + position,
            batch_legitimate=entry.batch_legitimate,
            label=f"ring-{position}",
        )
        for position, (budget, key) in enumerate(zip(budgets, sampler_keys))
    ]


def _sweep(engine, points):
    emitted = []
    runner = SweepRunner(engine=engine)
    results = runner.run(points, sink=emitted.append)
    stepping = [execution.stepping for execution in runner.last_plan]
    return results, emitted, stepping


def test_fused_deterministic_sweep_supersteps_bit_identically(per_step):
    """A fused multi-point deterministic synchronous sweep with a
    different step budget per point super-steps as one block, and its
    per-point results and sink vectors — ``timed_out`` included — are
    bit-identical to the per-step path."""
    system = conformance_system("token-ring5")
    points = _sync_ring_points(system, [0, 3, 17, 250])
    results, emitted, stepping = _sweep("fused", points)
    assert stepping == ["superstep"] * len(points)
    reference, ref_emitted, ref_stepping = per_step(_sweep, "fused", points)
    assert ref_stepping == ["per-step:over-budget"] * len(points)
    assert results == reference
    assert len(emitted) == len(ref_emitted) == len(points)
    for outcome, ref_outcome in zip(emitted, ref_emitted):
        assert (outcome.point, outcome.label) == (
            ref_outcome.point,
            ref_outcome.label,
        )
        for name in ("times", "converged", "timed_out", "hit_terminal"):
            assert np.array_equal(
                getattr(outcome, name), getattr(ref_outcome, name)
            ), name
    # The budgets bite differently: a zero budget times out every
    # illegitimate start, a generous one only the livelocked trials.
    assert emitted[0].timed_out.sum() >= emitted[3].timed_out.sum()
    assert emitted[3].timed_out.any()


def test_fused_block_with_stochastic_point_steps_per_step():
    """One stochastic-scheduler point in the block rules super-stepping
    out for every point of that block."""
    system = conformance_system("token-ring5")
    points = _sync_ring_points(
        system, [50, 50], ["synchronous", "distributed"]
    )
    _, _, stepping = _sweep("fused", points)
    assert stepping == ["per-step:strategy"] * 2


def test_stepping_stays_out_of_rows_and_payloads():
    """``stepping`` is plan metadata: experiment rows and served job
    payloads must not carry it."""
    from repro.serving.jobs import result_payload

    system = conformance_system("token-ring5")
    (result,) = SweepRunner(engine="fused").run(
        _sync_ring_points(system, [30])
    )
    assert not any("stepping" in key for key in result.row())
    assert not any("stepping" in key for key in result_payload(result))


def test_batch_and_scalar_points_report_stepping():
    system = conformance_system("token-ring5")
    points = _sync_ring_points(system, [30])
    assert _sweep("batch", points)[2] == ["superstep"]
    assert _sweep("scalar", points)[2] == [None]


# ----------------------------------------------------------------------
# runners: MonteCarloRunner and SweepRunner on the one loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "system_name,sampler_key",
    [("token-ring5", "central"), ("coloring-ring5", "synchronous")],
)
def test_montecarlo_runner_estimate_independent_of_stepping(
    per_step, system_name, sampler_key
):
    system = conformance_system(system_name)
    entry = conformance_entry(system_name)

    def estimate():
        return MonteCarloRunner(system, engine="batch").estimate(
            CONFORMANCE_SAMPLERS[sampler_key](),
            entry.legitimate(system),
            trials=120,
            max_steps=2000,
            rng=RandomSource(77),
            batch_legitimate=entry.batch_legitimate,
        )

    assert estimate() == per_step(estimate)


def test_sweep_runner_batch_point_independent_of_stepping(per_step):
    system = conformance_system("coloring-ring5")
    entry = conformance_entry("coloring-ring5")
    point = SweepPointSpec(
        system=system,
        sampler=CONFORMANCE_SAMPLERS["synchronous"](),
        legitimate=entry.legitimate(system),
        trials=150,
        max_steps=200,
        seed=31,
        batch_legitimate=entry.batch_legitimate,
        initial_configurations=tuple(
            random_configurations(system, RandomSource(31), 150)
        ),
    )
    results, _, stepping = _sweep("batch", [point])
    assert stepping == ["superstep"]
    reference, _, ref_stepping = per_step(_sweep, "batch", [point])
    assert ref_stepping == ["per-step:over-budget"]
    assert results == reference


def test_sweep_batch_point_draws_the_montecarlo_stream():
    """``engine="batch"`` runs a sweep point on the generator its own
    ``RandomSource(seed)`` yields, exactly as
    :meth:`MonteCarloRunner.estimate` does, so both give the same
    result for the same seed."""
    system = conformance_system("token-ring5")
    entry = conformance_entry("token-ring5")
    sampler = CONFORMANCE_SAMPLERS["central"]
    point = SweepPointSpec(
        system=system,
        sampler=sampler(),
        legitimate=entry.legitimate(system),
        trials=120,
        max_steps=2000,
        seed=77,
        batch_legitimate=entry.batch_legitimate,
    )
    (swept,) = SweepRunner(engine="batch").run([point])
    estimated = MonteCarloRunner(system, engine="batch").estimate(
        sampler(),
        entry.legitimate(system),
        trials=120,
        max_steps=2000,
        rng=RandomSource(77),
        batch_legitimate=entry.batch_legitimate,
    )
    assert swept == estimated


# ----------------------------------------------------------------------
# per-phase profiling counters
# ----------------------------------------------------------------------
def test_profile_counters_on_per_step_path():
    result, _ = _batch_run("token-ring5", "central", trials=100, profile=True)
    assert result.profile is not None
    assert set(PROFILE_PHASES) <= set(result.profile)
    assert all(value >= 0.0 for value in result.profile.values())
    assert sum(result.profile.values()) > 0.0


def test_profile_counters_on_superstep_path():
    result, _ = _batch_run(
        "coloring-ring5", "synchronous", trials=100, profile=True
    )
    assert result.profile is not None
    assert "superstep_build" in result.profile
    assert "superstep_execute" in result.profile


def test_unprofiled_run_has_no_profile():
    result, _ = _batch_run("token-ring5", "central", trials=50)
    assert result.profile is None


# ----------------------------------------------------------------------
# terminal before budget, in every engine
# ----------------------------------------------------------------------
def _leader_starts():
    """A terminal configuration of the leader tree on ``path(5)``, and a
    non-terminal one from which every central-daemon move reaches a
    terminal configuration (so the scheduler's draw does not matter)."""
    system = make_leader_tree_system(path(5))
    space = StateSpace.explore(system, CentralRelation())
    terminal = space.configurations[space.terminal_ids()[0]]
    one_move = next(
        space.configurations[config_id]
        for config_id in range(space.num_configurations)
        if space.enabled[config_id]
        and all(space.is_terminal(t) for t in space.successors(config_id))
    )
    return system, terminal, one_move


@pytest.mark.parametrize("start,max_steps", [("terminal", 0), ("one-move", 1)])
def test_terminal_wins_over_budget_in_every_engine(start, max_steps):
    """A run that stops in an illegitimate terminal configuration is
    terminal, not timed out — also when the budget ends on that very
    step (scalar ``run_until`` used to report it as timed out)."""
    system, terminal, one_move = _leader_starts()
    initial = terminal if start == "terminal" else one_move
    point = SweepPointSpec(
        system=system,
        sampler=CentralRandomizedSampler(),
        legitimate=lambda configuration: False,
        trials=4,
        max_steps=max_steps,
        seed=3,
        initial_configurations=(initial,),
    )
    results = {
        engine: SweepRunner(engine=engine).run([point])[0]
        for engine in ("scalar", "batch", "fused")
    }
    assert results["scalar"] == results["batch"] == results["fused"]
    assert results["scalar"].censored == 4
    assert results["scalar"].timed_out == 0


def test_estimate_rejects_negative_budget():
    system = conformance_system("token-ring5")
    entry = conformance_entry("token-ring5")
    with pytest.raises(MarkovError, match="max_steps"):
        MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            entry.legitimate(system),
            trials=3,
            max_steps=-1,
            rng=RandomSource(1),
        )
