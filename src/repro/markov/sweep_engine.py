"""Fused multi-point sweep engine — one code matrix for many sweep points.

The quantitative experiments (Q1–Q3) answer the paper's questions with
*sweeps*: stabilization-time curves over ring size, coin bias, scheduler
family, or seed replications.  Before this module each sweep point
compiled and ran its own batch in isolation — one
:class:`~repro.markov.montecarlo.MonteCarloRunner`, one
:class:`~repro.markov.batch.BatchEngine`, one ``(trials × processes)``
code matrix per point.  :class:`SweepRunner` fuses them:

* points are **grouped** by ``(algorithm, topology)`` family and, inside
  a group, by the canonical *system signature*
  (:func:`repro.store.columnar.system_cache_key`) — the unit that owns a
  :class:`~repro.core.kernel.TransitionKernel` and one set of
  :class:`~repro.core.encoding.CompiledKernelTables`; value-equal
  systems constructed independently (concurrent tenants of the serving
  tier) therefore share one compilation *and* one fused matrix;
* **same-system points fuse** into one ``(Σ trials × processes)`` code
  matrix carrying a per-row *point id* and a per-row *step budget* — a
  :class:`~repro.markov.batch.LockstepBlock` run by the one lockstep
  loop, :meth:`~repro.markov.batch.BatchEngine.run_block`; legitimacy
  and scheduler draws dispatch per point (points sharing a predicate or
  sampler signature share one vectorized call), so each lockstep
  iteration pays the interpreter overhead once for the whole sweep
  instead of once per point, and a deterministic block super-steps in
  rank space exactly as a single-point batch does;
* **points of different N** within a group run as block-scheduled
  sub-batches — one fused matrix per system, executed back to back over
  cached kernels/tables (table compilation is memoized per system for
  the runner's lifetime, never repeated per point);
* a point that cannot take the fused path (no vectorized sampler
  strategy, neighborhood tables over the compilation budget) falls back
  to the **per-point scalar oracle** under ``engine="auto"`` — and
  ``engine="scalar"`` forces that oracle for every point, which is the
  seeded distributional reference the conformance tier
  (``tests/test_engine_conformance.py``) checks the fused engine
  against.

Each sweep point carries its own integer ``seed``: initial
configurations are drawn from ``RandomSource(seed)`` exactly as the
per-point engines draw them, so scalar-oracle runs of the same specs
reproduce the pre-fusion streams bit-for-bit, while the fused lockstep
draws come from one NumPy generator folded over the group's seeds
(distribution-identical, stream-different — the same contract as the
batch engine).  ``engine="batch"`` runs each point as its own one-point
block on the generator its own seed yields, which is all that separates
it from fusion.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.kernel import DEFAULT_TABLE_BUDGET, TransitionKernel
from repro.core.simulate import SchedulerSampler
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.markov.batch import (
    BatchEngine,
    BatchLegitimacy,
    EnabledCountLegitimacy,
    LockstepBlock,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.montecarlo import (
    MonteCarloResult,
    MonteCarloRunner,
    TrialOutcomes,
    TrialSink,
    point_outcomes,
    random_configurations,
    reduce_trials,
)
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import FaultPlan, compile_fault
from repro.store.columnar import system_cache_key

__all__ = [
    "DEFAULT_SYSTEM_CACHE",
    "SWEEP_ENGINES",
    "SweepPointSpec",
    "PointExecution",
    "SweepRunner",
]

#: Accepted ``engine`` values: ``"fused"`` demands the fused matrix for
#: every point, ``"batch"``/``"scalar"`` run every point through the
#: corresponding per-point engine, ``"auto"`` fuses what it can.
SWEEP_ENGINES = ("auto", "fused", "batch", "scalar")


@dataclass(frozen=True)
class SweepPointSpec:
    """One sweep point: a complete, self-seeded estimate request.

    The fusable subset of :meth:`MonteCarloRunner.estimate`'s signature
    (round measurement keeps the scalar engine and therefore the
    per-point path).  ``seed`` replaces the live
    :class:`~repro.random_source.RandomSource` argument so a spec is a
    pure value: the scalar oracle for this point is
    ``estimate(..., rng=RandomSource(seed), engine="scalar")``.

    ``fault`` attaches one seeded transient corruption per trial (see
    :class:`~repro.stabilization.faults.FaultPlan`): the fused matrix
    carries per-point fault plans, so a robustness sweep mixes faulted
    and fault-free points in one lockstep run.
    """

    system: System
    sampler: SchedulerSampler
    legitimate: Callable[[Configuration], bool]
    trials: int
    max_steps: int
    seed: int
    batch_legitimate: BatchLegitimacy | None = None
    initial_configurations: tuple[Configuration, ...] | None = None
    label: str | None = None
    fault: FaultPlan | None = None


@dataclass(frozen=True)
class PointExecution:
    """How one point actually ran — recorded in ``SweepRunner.last_plan``.

    ``stepping`` is the lockstep block's
    :attr:`~repro.markov.batch.BatchRunResult.stepping` (``"superstep"``
    or ``"per-step:<reason>"``) for fused and batch points, ``None`` for
    scalar ones.
    """

    index: int
    label: str | None
    group: tuple[str, str]
    engine: str
    fused_rows: int = 0
    stepping: str | None = None


def _strategy_signature(sampler: SchedulerSampler) -> tuple:
    """Dispatch key: points with equal signatures share one vectorized
    ``choose`` call per fused step.  *Exact* built-in sampler types key
    on their parameters; everything else — including subclasses, which
    may carry their own registered strategies — is conservatively keyed
    per instance, mirroring :func:`batch_strategy_for`'s exact-type
    lookup so a group never applies one member's strategy to another
    member's differently-behaving sampler."""
    sampler_type = type(sampler)
    if sampler_type is SynchronousSampler:
        return ("synchronous",)
    if sampler_type is CentralRandomizedSampler:
        return ("central",)
    if sampler_type is DistributedRandomizedSampler:
        return ("coin", 0.5)
    if sampler_type is BernoulliSampler:
        return ("coin", sampler._p)
    return ("custom", sampler_type, id(sampler))


def _legitimacy_signature(spec: SweepPointSpec) -> tuple:
    """Dispatch key for legitimacy: equal keys share one evaluation."""
    batch = spec.batch_legitimate
    if isinstance(batch, EnabledCountLegitimacy):
        return ("enabled-count", batch.count)
    if batch is not None:
        return ("batch", id(batch))
    return ("predicate", id(spec.legitimate))


#: Default bound on the per-system cache (kernel + compiled engine +
#: shared runner per distinct system *signature*).  Batch sweeps touch a
#: handful of systems; an always-on service recycles the least recently
#: used entry instead of leaking one compilation per tenant forever.
DEFAULT_SYSTEM_CACHE = 64

#: Bound on the id → signature-key memo (a pure recompute cache, safe
#: to drop at any size thanks to its weakref guards).
_KEY_MEMO_LIMIT = 1024


@dataclass
class _SystemEntry:
    """Everything cached for one system signature.

    ``system`` is a *strong* reference to the first system seen with
    this signature: it anchors the kernel/engine/runner and guarantees
    the entry can never be poisoned by interpreter id reuse (the old
    ``id(system)``-keyed dicts could return a stale kernel once a
    collected system's id was recycled by a value-different one)."""

    system: System
    kernel: TransitionKernel | None = None
    engine: BatchEngine | ModelError | None = None
    runner: MonteCarloRunner | None = None


def _fold_seeds(seeds: Sequence[int]) -> int:
    """Deterministic fold of the member seeds into one generator seed
    (same multiplier as :meth:`RandomSource.spawn`)."""
    fold = 0
    for seed in seeds:
        fold = (fold * 1_000_003 + int(seed) + 1) & 0x7FFFFFFF
    return fold


class SweepRunner:
    """Fused multi-point Monte-Carlo driver (the PR 5 scale tier).

    Construct once per sweep, call :meth:`run` with the full point list;
    grouping, fusion, table caching, and per-point fallback are handled
    here so experiment runners never touch the execution tiers directly.
    Kernels and compiled tables are cached per system *signature*
    (:func:`repro.store.columnar.system_cache_key`) under an LRU bound
    of ``cache_size`` entries, so repeated :meth:`run` calls (or mixed
    fused/fallback plans) never recompile — and value-equal systems
    built independently (different tenants of the serving tier) share
    one compilation and fuse into one code matrix.

    ``engine`` sets the execution policy:

    * ``"auto"`` (default) — fuse every point whose sampler has a
      vectorized strategy and whose tables fit the budget; per-point
      scalar otherwise;
    * ``"fused"`` — demand the fused matrix for every point, raising
      :class:`MarkovError` when any point cannot take it;
    * ``"batch"`` — one lockstep block per point (no fusion), raising
      like ``"fused"`` when a point cannot take it;
    * ``"scalar"`` — per-point scalar oracle, consuming
      ``RandomSource(seed)`` exactly as pre-fusion callers did.

    After :meth:`run`, ``last_plan`` records one :class:`PointExecution`
    per input point (input order) — which group it joined, which engine
    executed it, how many rows its fused matrix carried, and how its
    lockstep block stepped.
    """

    def __init__(
        self,
        engine: str = "auto",
        table_budget: int = DEFAULT_TABLE_BUDGET,
        cache_size: int | None = DEFAULT_SYSTEM_CACHE,
    ) -> None:
        if engine not in SWEEP_ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {SWEEP_ENGINES}"
            )
        if cache_size is not None and cache_size < 1:
            raise MarkovError(
                f"cache_size must be >= 1 or None, got {cache_size}"
            )
        self.engine = engine
        self.table_budget = table_budget
        self.last_plan: list[PointExecution] = []
        # Per-system cache, keyed by the canonical *content* signature
        # (:func:`repro.store.columnar.system_cache_key`), never by
        # ``id(system)``: a long-lived process recycles object ids, and
        # an id key could hand a new system a stale kernel.  Each entry
        # holds a strong reference to its first-seen system, so
        # value-equal systems from different tenants share one
        # compilation; LRU-bounded so an always-on service cannot leak
        # one entry per tenant forever (``cache_size=None`` disables
        # eviction).
        self.cache_size = cache_size
        self.evictions = 0
        self._systems: OrderedDict[str, _SystemEntry] = OrderedDict()
        # Memoized key computation: id → (weakref guard, key).  The
        # weakref guard makes this memo immune to the very id-reuse
        # hazard the signature keying removes — a recycled id whose
        # weakref is dead (or points elsewhere) recomputes.
        self._key_memo: OrderedDict[
            int, tuple[weakref.ref, str]
        ] = OrderedDict()

    # ------------------------------------------------------------------
    # shared per-system state
    # ------------------------------------------------------------------
    def _cache_key(self, system: System) -> str:
        memo = self._key_memo.get(id(system))
        if memo is not None and memo[0]() is system:
            return memo[1]
        key = system_cache_key(system)
        self._key_memo[id(system)] = (weakref.ref(system), key)
        while len(self._key_memo) > _KEY_MEMO_LIMIT:
            self._key_memo.popitem(last=False)
        return key

    def _entry_for(self, system: System) -> _SystemEntry:
        """The (created-on-demand, LRU-refreshed) cache entry whose
        signature matches ``system``."""
        key = self._cache_key(system)
        entry = self._systems.get(key)
        if entry is None:
            entry = _SystemEntry(system=system)
            self._systems[key] = entry
            if (
                self.cache_size is not None
                and len(self._systems) > self.cache_size
            ):
                self._systems.popitem(last=False)
                self.evictions += 1
        else:
            self._systems.move_to_end(key)
        return entry

    @property
    def cached_systems(self) -> int:
        """Number of distinct system signatures currently cached."""
        return len(self._systems)

    def cache_info(self) -> dict[str, object]:
        """Cache observability for the serving tier's stats endpoint."""
        return {
            "systems": len(self._systems),
            "cache_size": self.cache_size,
            "evictions": self.evictions,
        }

    def adopt_system(
        self,
        system: System,
        kernel: TransitionKernel | None = None,
        batch_engine: BatchEngine | ModelError | None = None,
    ) -> None:
        """Seed this runner's per-system cache with externally owned
        state — a shared kernel and a compiled batch engine (or the
        cached :class:`ModelError` of a failed compilation), so
        :class:`~repro.markov.montecarlo.MonteCarloRunner` and repeated
        sweeps never recompile what the caller already owns.  Adopted
        state is keyed by the system's signature like everything else,
        so any value-equal system benefits."""
        entry = self._entry_for(system)
        if kernel is not None:
            entry.kernel = kernel
        if batch_engine is not None:
            entry.engine = batch_engine

    def _kernel_for(self, system: System) -> TransitionKernel:
        entry = self._entry_for(system)
        if entry.kernel is None:
            entry.kernel = TransitionKernel(entry.system)
        return entry.kernel

    def _batch_engine_for(self, system: System) -> BatchEngine | ModelError:
        """The compiled batch engine, or the cached compilation failure."""
        entry = self._entry_for(system)
        if entry.engine is None:
            try:
                entry.engine = BatchEngine(
                    self._kernel_for(entry.system), self.table_budget
                )
            except ModelError as error:
                entry.engine = error
        return entry.engine

    def _runner_for(self, system: System) -> MonteCarloRunner:
        entry = self._entry_for(system)
        if entry.runner is None:
            entry.runner = MonteCarloRunner(
                entry.system, kernel=self._kernel_for(entry.system)
            )
        return entry.runner

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPointSpec],
        sink: TrialSink | None = None,
        keep_samples: bool = True,
    ) -> list[MonteCarloResult]:
        """Execute every sweep point; results align with input order.

        ``sink`` receives one
        :class:`~repro.markov.montecarlo.TrialOutcomes` per point (its
        ``point`` field is the point's input index, ``label`` the spec's
        label), emitted as soon as that point's execution block — a
        per-point fallback run or the fused matrix it belonged to —
        completes.  ``keep_samples=False`` drops the per-trial tuples
        from the returned results; neither knob perturbs execution
        plans or random streams.
        """
        self._validate(points)
        plan: dict[int, PointExecution] = {}
        results: dict[int, MonteCarloResult] = {}

        # Group by (algorithm, topology) family, preserving first-seen
        # order; fusion blocks inside a group are keyed by the system
        # *signature* (the owner of one kernel/table set), so value-equal
        # systems built by independent callers — concurrent tenants of
        # the serving tier — land in the same fused matrix.
        groups: dict[tuple[str, str], dict[str, list[int]]] = {}
        systems: dict[str, System] = {}
        for index, spec in enumerate(points):
            key = (
                type(spec.system.algorithm).__name__,
                type(spec.system.topology).__name__,
            )
            blocks = groups.setdefault(key, {})
            signature = self._cache_key(spec.system)
            blocks.setdefault(signature, []).append(index)
            systems.setdefault(signature, spec.system)

        for group_key, blocks in groups.items():
            for signature, indices in blocks.items():
                system = systems[signature]
                fused: list[tuple[int, SweepPointSpec]] = []
                for index in indices:
                    spec = points[index]
                    engine = self._resolve_engine(spec)
                    stepping = None
                    if engine == "fused":
                        fused.append((index, spec))
                        continue
                    if engine == "batch":
                        block_results, stepping = self._run_block(
                            self._batch_engine_for(system),
                            [(index, spec)],
                            sink,
                            keep_samples,
                            fused=False,
                        )
                        results[index] = block_results[index]
                    else:
                        results[index] = self._run_point(
                            spec, index, sink, keep_samples
                        )
                    plan[index] = PointExecution(
                        index=index,
                        label=spec.label,
                        group=group_key,
                        engine=engine,
                        stepping=stepping,
                    )
                if fused:
                    block_results, stepping = self._run_block(
                        self._batch_engine_for(system),
                        fused,
                        sink,
                        keep_samples,
                        fused=True,
                    )
                    rows = sum(spec.trials for _, spec in fused)
                    for index, _ in fused:
                        results[index] = block_results[index]
                        plan[index] = PointExecution(
                            index=index,
                            label=points[index].label,
                            group=group_key,
                            engine="fused",
                            fused_rows=rows,
                            stepping=stepping,
                        )

        self.last_plan = [plan[index] for index in range(len(points))]
        return [results[index] for index in range(len(points))]

    # ------------------------------------------------------------------
    # validation and engine resolution
    # ------------------------------------------------------------------
    def _validate(self, points: Sequence[SweepPointSpec]) -> None:
        if not points:
            raise MarkovError("need at least one sweep point")
        seen: list[SweepPointSpec] = []
        for position, spec in enumerate(points):
            if not isinstance(spec, SweepPointSpec):
                raise MarkovError(
                    f"sweep point {position} is {type(spec).__name__},"
                    " expected SweepPointSpec"
                )
            if spec.trials < 1:
                raise MarkovError(
                    f"sweep point {position}: need at least one trial"
                )
            if spec.max_steps < 0:
                raise MarkovError(
                    f"sweep point {position}: max_steps must be >= 0"
                )
            if (
                spec.initial_configurations is not None
                and not spec.initial_configurations
            ):
                raise MarkovError(
                    f"sweep point {position}: need at least one initial"
                    " configuration"
                )
            if spec.fault is not None and not isinstance(
                spec.fault, FaultPlan
            ):
                raise MarkovError(
                    f"sweep point {position}: fault is"
                    f" {type(spec.fault).__name__}, expected FaultPlan"
                )
            for earlier in seen:
                if earlier is spec or earlier == spec:
                    raise MarkovError(
                        f"duplicate sweep point at position {position}"
                        f" (label {spec.label!r}); give repeated points"
                        " distinct seeds or labels"
                    )
            seen.append(spec)

    def _resolve_engine(self, spec: SweepPointSpec) -> str:
        """The engine one point will actually run on."""
        if self.engine == "scalar":
            return "scalar"
        require = self.engine != "auto"
        if batch_strategy_for(spec.sampler) is None:
            if require:
                raise MarkovError(
                    f"sampler {type(spec.sampler).__name__} has no"
                    " vectorized strategy; register one or use"
                    " engine='scalar'"
                )
            return "scalar"
        engine = self._batch_engine_for(spec.system)
        if isinstance(engine, ModelError):
            if require:
                raise engine
            return "scalar"
        return "batch" if self.engine == "batch" else "fused"

    def _run_point(
        self,
        spec: SweepPointSpec,
        index: int,
        sink: TrialSink | None,
        keep_samples: bool,
    ) -> MonteCarloResult:
        """Per-point scalar oracle through the shared-kernel runner."""
        runner = self._runner_for(spec.system)
        point_sink: TrialSink | None = None
        if sink is not None:
            # The per-point engines emit point=0/label=None; restamp
            # with this point's sweep coordinates before forwarding.
            def point_sink(outcome: TrialOutcomes) -> None:
                sink(
                    replace(outcome, point=index, label=spec.label)
                )

        return runner.estimate(
            spec.sampler,
            spec.legitimate,
            trials=spec.trials,
            max_steps=spec.max_steps,
            rng=RandomSource(spec.seed),
            initial_configurations=spec.initial_configurations,
            engine="scalar",
            keep_samples=keep_samples,
            sink=point_sink,
            fault=spec.fault,
        )

    # ------------------------------------------------------------------
    # lockstep blocks
    # ------------------------------------------------------------------
    def _run_block(
        self,
        engine: BatchEngine,
        members: Sequence[tuple[int, SweepPointSpec]],
        sink: TrialSink | None,
        keep_samples: bool,
        fused: bool,
    ) -> tuple[dict[int, MonteCarloResult], str]:
        """Advance ``members`` as one lockstep block; returns the
        per-point results and the block's stepping label.

        Initial configurations come from each point's
        ``RandomSource(seed)``; the lockstep draws come from one
        generator folded over the members' seeds when ``fused``, else
        (one member) from the generator its own source yields next —
        the per-point stream of ``MonteCarloRunner.estimate``.  Each
        point's rows are reduced and emitted to ``sink`` in member
        order once the block completes.
        """
        encoding = engine.encoding
        system = engine.kernel.system
        specs = [spec for _, spec in members]
        sources = [RandomSource(spec.seed) for spec in specs]
        initial_blocks = []
        for spec, source in zip(specs, sources):
            if spec.initial_configurations is not None:
                initial_blocks.append(
                    encode_initials(
                        encoding, spec.initial_configurations, spec.trials
                    )
                )
            else:
                initial_blocks.append(
                    encoding.encode_batch(
                        random_configurations(system, source, spec.trials)
                    )
                )
        if fused:
            generator = RandomSource(
                _fold_seeds([spec.seed for spec in specs])
            ).numpy_generator()
        else:
            (source,) = sources
            generator = source.numpy_generator()

        # Dispatch groups: member mask per distinct legitimacy/strategy
        # signature — one vectorized call per signature per step.
        legitimacies = [
            (
                compile_legitimacy(
                    spec.batch_legitimate
                    if spec.batch_legitimate is not None
                    else spec.legitimate
                ),
                mask,
            )
            for spec, mask in _dispatch_groups(specs, _legitimacy_signature)
        ]
        strategies = [
            (batch_strategy_for(spec.sampler), mask)
            for spec, mask in _dispatch_groups(
                specs, lambda spec: _strategy_signature(spec.sampler)
            )
        ]
        faults = [
            compile_fault(spec.fault, encoding, spec.trials)
            if spec.fault is not None
            else None
            for spec in specs
        ]
        counts = [spec.trials for spec in specs]
        run = engine.run_block(
            LockstepBlock(
                np.concatenate(initial_blocks, axis=0),
                counts,
                [spec.max_steps for spec in specs],
                legitimacies,
                strategies,
                faults,
            ),
            generator,
        )

        results: dict[int, MonteCarloResult] = {}
        start = 0
        for (index, spec), count, fault in zip(members, counts, faults):
            rows = slice(start, start + count)
            start += count
            results[index] = reduce_trials(
                *point_outcomes(
                    run, rows, fault is not None, index, spec.label
                ),
                keep_samples=keep_samples,
                sink=sink,
            )
        return results, run.stepping


def _dispatch_groups(
    specs: Sequence[SweepPointSpec], signature: Callable
) -> list[tuple[SweepPointSpec, np.ndarray]]:
    """``(first member spec, member mask)`` per distinct signature, in
    first-seen order."""
    members: dict[tuple, list[int]] = {}
    for position, spec in enumerate(specs):
        members.setdefault(signature(spec), []).append(position)
    groups = []
    for positions in members.values():
        mask = np.zeros(len(specs), dtype=bool)
        mask[positions] = True
        groups.append((specs[positions[0]], mask))
    return groups
