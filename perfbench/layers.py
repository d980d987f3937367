"""Which public ``repro`` functions the traced run wraps, and the
per-layer metrics derived from their spans.

Span names are ``<layer>.<what>``; the per-layer metrics reported are
exactly the ``per_layer`` list of ``BENCHMARK.json``.  Times and counts
are reported per traced unit of work (one registry pass, one Q1-large
run, one campaign, one served session), so runs that trace a different
number of units stay comparable.

The lockstep and Monte-Carlo-initialisation spans wrap helpers that
chain, MDP and parametric construction also call
(``CompiledKernelTables.pack``, ``StateEncoding.encode_batch``); they are
recorded only inside a Monte-Carlo context span (:data:`MONTE_CARLO`),
so chain building is never charged to the lockstep loop.
"""

from __future__ import annotations

import os

from perfbench.spec import PER_LAYER
from perfbench.trace import Patcher, Tracer

#: Spans inside which lockstep and Monte-Carlo-init calls are recorded:
#: a sweep (``SweepRunner.run``, also inside every campaign shard) or a
#: Monte-Carlo estimate (``MonteCarloRunner.estimate``, ``BatchEngine``).
MONTE_CARLO = frozenset({"markov.sweep", "markov.montecarlo"})

#: Metrics that are fractions or already per-item values: never divided
#: by the number of traced units.
_NOT_PER_UNIT = {
    "markov.sweep.fused_frac",
    "serving.admission_wait_ms",
    "serving.execute_ms",
    "serving.http_overhead_ms",
    "serving.points_per_batch",
    "serving.runner_cache_hit_frac",
    "trace.overhead_frac",
}


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's public functions; ``restore()`` undoes it."""
    # Import every wrapped module first so ``from x import f`` copies
    # exist before the re-binding scan runs.
    import repro.campaign.runner as campaign_runner
    import repro.core.encoding as encoding
    import repro.experiments.registry  # noqa: F401  (loads every layer)
    import repro.markov.batch as batch
    import repro.markov.mdp as mdp
    import repro.markov.montecarlo as montecarlo
    import repro.markov.parametric as parametric
    import repro.markov.sweep_engine as sweep_engine
    import repro.serving  # noqa: F401
    import repro.store.columnar as columnar
    from repro.experiments.base import Experiment
    from repro.stabilization.statespace import StateSpace

    patcher = Patcher(tracer)
    count = tracer.count

    patcher.function(encoding.__name__, "compile_tables", "core.compile_tables")

    patcher.method(
        StateSpace,
        "explore",
        "stabilization.explore",
        on_result=lambda space, *a, **k: count(
            "stabilization.explore.configs", space.num_configurations
        ),
    )
    patcher.function(
        "repro.stabilization.classify", "classify", "stabilization.classify"
    )

    patcher.function(
        "repro.markov.builder",
        "build_chain",
        "markov.build_chain",
        on_result=lambda chain, *a, **k: count(
            "markov.build_chain.states", chain.num_states
        ),
    )
    for name in (
        "absorption_probabilities", "expected_hitting_times", "hitting_summary"
    ):
        patcher.function("repro.markov.hitting", name, "markov.hitting")
    patcher.function(mdp.__name__, "build_mdp", "markov.mdp")
    for name in ("reachability", "expected_hitting_times"):
        patcher.method(mdp.MarkovDecisionProcess, name, "markov.mdp")

    patcher.method(
        parametric.ParametricChain, "__init__", "markov.parametric.build"
    )
    patcher.method(
        parametric.ParametricChain,
        "hitting_sweep",
        "markov.parametric.solve",
        on_result=lambda values, *a, **k: count(
            "markov.parametric.solves", len(values)
        ),
    )
    patcher.method(
        parametric.ParametricChain,
        "expected_times",
        "markov.parametric.solve",
        on_result=lambda *a, **k: count("markov.parametric.solves"),
    )

    _wrap_sweep_run(patcher, tracer, sweep_engine.SweepRunner)
    patcher.method(montecarlo.MonteCarloRunner, "estimate", "markov.montecarlo")
    for name in ("run", "run_with_fault"):
        patcher.method(batch.BatchEngine, name, "markov.montecarlo")
    tables = encoding.CompiledKernelTables
    lockstep = {"within": MONTE_CARLO}
    patcher.method(tables, "pack", "markov.lockstep.gather", **lockstep)
    patcher.method(tables, "enabled", "markov.lockstep.gather", **lockstep)
    patcher.method(tables, "sample", "markov.lockstep.sample", **lockstep)
    patcher.method(
        batch.BatchSamplerStrategy,
        "choose",
        "markov.lockstep.choose",
        subclasses=True,
        **lockstep,
    )
    patcher.method(
        batch.BatchLegitimacy,
        "evaluate",
        "markov.lockstep.legitimacy",
        subclasses=True,
        **lockstep,
    )
    patcher.function(
        montecarlo.__name__,
        "random_configurations",
        "markov.montecarlo.init",
        **lockstep,
    )
    patcher.function(
        batch.__name__, "encode_initials", "markov.montecarlo.init", **lockstep
    )
    patcher.method(
        encoding.StateEncoding,
        "encode_batch",
        "markov.montecarlo.init",
        **lockstep,
    )

    patcher.function(
        campaign_runner.__name__, "execute_shard", "campaign.execute_shard"
    )
    worker = campaign_runner._shard_worker

    def spooling_worker(*args, **kwargs):
        # Child-process entry point: hand the child's spans to the parent.
        try:
            return worker(*args, **kwargs)
        finally:
            tracer.dump_child()

    patcher.replace(campaign_runner, "_shard_worker", spooling_worker)
    patcher.function(
        columnar.__name__,
        "write_shard",
        "store.write_shard",
        on_result=lambda path, *a, **k: count(
            "store.bytes_written", os.path.getsize(path)
        ),
    )
    patcher.function(columnar.__name__, "read_shard", "store.read_shard")
    for name in ("load", "read"):
        patcher.method(columnar.ResultStore, name, "store.read_shard")

    patcher.method(
        Experiment,
        "run",
        lambda experiment, **overrides: (
            f"experiments.{experiment.experiment_id}"
        ),
    )
    return patcher


def _wrap_sweep_run(patcher: Patcher, tracer: Tracer, runner_cls) -> None:
    """``SweepRunner.run`` plus its plan and cache counters.

    A batch looks up one runner-cache entry per distinct system
    signature; a lookup that adds no entry is a hit.
    """
    from repro.store.columnar import system_cache_key

    original = runner_cls.__dict__["run"]

    def run(runner, points, *args, **kwargs):
        lookups = len({system_cache_key(spec.system) for spec in points})
        before = runner.cached_systems + runner.evictions
        frame = tracer.begin("markov.sweep")
        try:
            results = original(runner, points, *args, **kwargs)
        finally:
            tracer.end(frame)
        added = runner.cached_systems + runner.evictions - before
        tracer.count("markov.sweep.points", len(points))
        tracer.count(
            "markov.sweep.fused_points",
            sum(execution.engine == "fused" for execution in runner.last_plan),
        )
        tracer.count("markov.sweep.cache_lookups", lookups)
        tracer.count("markov.sweep.cache_hits", max(0, lookups - added))
        return results

    patcher.replace(runner_cls, "run", run)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cache_hit_frac(tracer: Tracer) -> float:
    """Share of runner-cache lookups that found a compiled system."""
    return _ratio(
        tracer.counter("markov.sweep.cache_hits"),
        tracer.counter("markov.sweep.cache_lookups"),
    )


def layer_metrics(
    tracer: Tracer, units: int, extra: dict[str, float]
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced section.

    ``extra`` carries values the workload measured itself (serving job
    timestamps, campaign report counters, the trace overhead); anything
    neither traced nor measured reads 0.
    """
    t = tracer
    values = {
        "core.compile_tables.s": t.total("core.compile_tables"),
        "core.compile_tables.calls": t.calls("core.compile_tables"),
        "stabilization.explore.s": t.self_time("stabilization.explore"),
        "stabilization.explore.calls": t.calls("stabilization.explore"),
        "stabilization.explore.configs": t.counter(
            "stabilization.explore.configs"
        ),
        "stabilization.classify.s": t.self_time("stabilization.classify"),
        "markov.build_chain.s": t.total("markov.build_chain"),
        "markov.build_chain.states": t.counter("markov.build_chain.states"),
        "markov.hitting.s": t.total("markov.hitting"),
        "markov.mdp.s": t.total("markov.mdp"),
        "markov.parametric.build.s": t.total("markov.parametric.build"),
        "markov.parametric.solve.s": t.total("markov.parametric.solve"),
        "markov.parametric.solve.calls": t.counter("markov.parametric.solves"),
        "markov.sweep.s": t.total("markov.sweep"),
        "markov.sweep.points": t.counter("markov.sweep.points"),
        "markov.sweep.fused_frac": _ratio(
            t.counter("markov.sweep.fused_points"),
            t.counter("markov.sweep.points"),
        ),
        "markov.lockstep.steps": t.calls("markov.lockstep.sample"),
        "markov.lockstep.gather.s": t.total("markov.lockstep.gather"),
        "markov.lockstep.draw.s": t.total("markov.lockstep.choose")
        + t.total("markov.lockstep.sample"),
        "markov.lockstep.legitimacy.s": t.total("markov.lockstep.legitimacy"),
        "markov.montecarlo.init.s": t.total("markov.montecarlo.init"),
        "campaign.execute_shard.s": t.total("campaign.execute_shard"),
        "store.write_shard.s": t.total("store.write_shard"),
        "store.bytes_written": t.counter("store.bytes_written"),
        "store.read_shard.s": t.total("store.read_shard"),
    }
    for name in t.totals:
        if name.startswith("experiments."):
            values[f"{name}.s"] = t.total(name)
    values.update(extra)
    report = {}
    for name, _unit in PER_LAYER:
        value = float(values.get(name, 0.0))
        if name not in _NOT_PER_UNIT:
            value /= max(1, units)
        report[name] = value
    return report

