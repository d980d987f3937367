"""Vectorized Monte-Carlo batch engine over dense code matrices.

A sweep point's trials are advanced *in lockstep*: the batch state is one
``(trials × processes)`` integer code matrix (see
:class:`repro.core.encoding.StateEncoding`), enabledness is a table gather
(:class:`repro.core.encoding.CompiledKernelTables`), scheduler draws and
outcome sampling are vectorized NumPy RNG, legitimacy is a compiled
predicate over the code matrix, and converged/terminal rows are retired in
place (the active matrix shrinks as trials finish).  Per simulated step
the Python interpreter executes a constant number of array operations
regardless of the trial count — this is what makes the N = 20–50 Q1/Q2/Q3
presets affordable.

The engine reproduces the scalar path's *distributions*, not its random
streams: action choice is uniform over the neighborhood's enabled actions
and outcomes follow the resolved probability rows, exactly as
:meth:`repro.core.kernel.TransitionKernel.sample_step`, but the draws come
from a NumPy generator.  ``engine="scalar"`` in
:class:`repro.markov.montecarlo.MonteCarloRunner` keeps the loop-per-trial
path as the equivalence oracle; the statistical agreement of the two
engines is asserted by ``tests/test_batch_engine.py``.

**Legitimacy compilation.**  Arbitrary global predicates cannot be tabled
per neighborhood, so legitimacy is expressed as a :class:`BatchLegitimacy`
strategy:

* :class:`EnabledCountLegitimacy` — ``legitimate(γ) ⇔ |Enabled(γ)| = k``.
  Free (the enabled matrix is computed every step anyway) and exact for
  the paper's workloads: token circulation (token ⇔ enabled, Section 3.1),
  Dijkstra's ring (privilege ⇔ enabled), and leader election on trees
  (``LC ⇔ terminal``, Lemma 10) — all preserved by the coin-toss
  transformer because ``Trans(A)`` keeps the guard ``G_A``.
* :class:`DecodingLegitimacy` — fallback for arbitrary predicates:
  decodes each active row (memoized per code vector) and calls the Python
  predicate.  Correct for everything, slower, still leaves the stepping
  itself vectorized.

**One lockstep loop.**  Every lockstep run — a single estimate
(:meth:`BatchEngine.run`, :meth:`BatchEngine.run_with_fault`, the batch
engine of :class:`~repro.markov.montecarlo.MonteCarloRunner`) and every
fused multi-point sweep (:class:`~repro.markov.sweep_engine.SweepRunner`)
— executes :meth:`BatchEngine.run_block` over a :class:`LockstepBlock`:
a code matrix whose rows carry a point id and a step budget, with
per-point legitimacy predicates, scheduler strategies, and fault plans.
One step is gather → legitimacy (→ fault trigger) → retire converged →
retire terminal → retire over budget → scheduler choice → outcome
sampling; a one-point block is the classic single-batch loop, and a
fault-free block never touches the fault bookkeeping.

**Rank-space super-stepping.**  When the step is a pure function of the
configuration — deterministic tables (every neighborhood ≤ 1 action,
every action 1 outcome) under the synchronous daemon, or the central
daemon on runs where every reachable state has ≤ 1 enabled process — the
run needs no randomness at all and the whole block can advance in *rank
space*: configurations are interned to dense ids over their mixed-radix
ranks, a successor array ``succ`` and legitimate/terminal event bitmaps
are compiled over the trial-reachable closure (bounded by
:data:`SUPERSTEP_BUDGET` states and the largest row budget in depth),
and trials jump via pointer-doubling composition ``succ_{2k} =
succ_k[succ_k]``.  Exact first-hit times come from the binary-lifting
descent: a jump of size ``2^j`` is taken only when the reach bitmap
proves no event occurs within the window, which bisects the last jump
down to the exact step of the first legitimate/terminal hit, so recorded
times are bit-identical to the per-step path.  :meth:`BatchEngine.run_block`
takes this path by itself whenever the block qualifies and records the
path it took, or why it could not, in :attr:`BatchRunResult.stepping`.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import (
    CompiledKernelTables,
    StateEncoding,
    compile_tables,
    expansion_context,
)
from repro.core.kernel import DEFAULT_TABLE_BUDGET, TransitionKernel
from repro.errors import MarkovError
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)

__all__ = [
    "BatchLegitimacy",
    "EnabledCountLegitimacy",
    "DecodingLegitimacy",
    "compile_legitimacy",
    "BatchSamplerStrategy",
    "batch_strategy_for",
    "register_batch_sampler",
    "BatchEngine",
    "BatchRunResult",
    "LockstepBlock",
    "PROFILE_PHASES",
    "SUPERSTEP_BUDGET",
]


# ----------------------------------------------------------------------
# legitimacy predicates over code matrices
# ----------------------------------------------------------------------
class BatchLegitimacy:
    """Strategy interface: legitimacy of every active trial at once."""

    def evaluate(
        self,
        codes: np.ndarray,
        enabled: np.ndarray,
        engine: "BatchEngine",
    ) -> np.ndarray:
        """Boolean vector over the rows of ``codes``."""
        raise NotImplementedError  # pragma: no cover - interface


class EnabledCountLegitimacy(BatchLegitimacy):
    """``legitimate(γ) ⇔ |Enabled(γ)| = count`` — gather-free.

    The caller asserts the equivalence (it is a property of the algorithm
    and specification, e.g. Lemma 10 for Algorithm 2); the engine only
    counts true bits in the enabled matrix it already computed.
    """

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 0:
            raise MarkovError("enabled count must be non-negative")
        self.count = count

    def evaluate(self, codes, enabled, engine):
        return enabled.sum(axis=1) == self.count


class DecodingLegitimacy(BatchLegitimacy):
    """Fallback: decode each row and call a Python predicate (memoized).

    The memo is keyed by the raw code-vector bytes, so revisited
    configurations — common near convergence — skip both the decode and
    the predicate.
    """

    __slots__ = ("_predicate", "_cache")

    def __init__(
        self, predicate: Callable[[Configuration], bool]
    ) -> None:
        self._predicate = predicate
        self._cache: dict[bytes, bool] = {}

    def evaluate(self, codes, enabled, engine):
        cache = self._cache
        decode = engine.encoding.decode
        predicate = self._predicate
        result = np.empty(codes.shape[0], dtype=bool)
        for row in range(codes.shape[0]):
            key = codes[row].tobytes()
            verdict = cache.get(key)
            if verdict is None:
                verdict = bool(predicate(decode(codes[row])))
                cache[key] = verdict
            result[row] = verdict
        return result


def compile_legitimacy(
    legitimate: Callable[[Configuration], bool] | BatchLegitimacy,
) -> BatchLegitimacy:
    """Accept a ready strategy or wrap a plain predicate in the fallback."""
    if isinstance(legitimate, BatchLegitimacy):
        return legitimate
    return DecodingLegitimacy(legitimate)


# ----------------------------------------------------------------------
# vectorized scheduler samplers
# ----------------------------------------------------------------------
class BatchSamplerStrategy:
    """Vectorized counterpart of a scalar scheduler sampler."""

    def choose(
        self, enabled: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Mover mask (subset of ``enabled``, non-empty per row)."""
        raise NotImplementedError  # pragma: no cover - interface


class _SynchronousBatch(BatchSamplerStrategy):
    """Every enabled process moves."""

    def choose(self, enabled, generator):
        return enabled


class _CentralRandomizedBatch(BatchSamplerStrategy):
    """Uniform single enabled process per trial (Definition 6, central)."""

    def choose(self, enabled, generator):
        counts = enabled.sum(axis=1)
        target = (generator.random(enabled.shape[0]) * counts).astype(
            np.int64
        )
        target = np.minimum(target, np.maximum(counts - 1, 0))
        ranks = np.cumsum(enabled, axis=1)
        return enabled & (ranks == (target + 1)[:, None])


class _IndependentCoinBatch(BatchSamplerStrategy):
    """Per-process coin, redrawn per trial until non-empty.

    With probability ½ this is the distributed randomized scheduler
    (uniform over non-empty subsets of the enabled set — the rejection
    sampling matches
    :meth:`repro.random_source.RandomSource.sample_nonempty_subset`); other
    biases give the Bernoulli sampler.
    """

    __slots__ = ("_p",)

    def __init__(self, probability: float) -> None:
        self._p = probability

    def choose(self, enabled, generator):
        movers = (generator.random(enabled.shape) < self._p) & enabled
        empty = np.flatnonzero(~movers.any(axis=1))
        while empty.size:
            redraw = (
                generator.random((empty.size, enabled.shape[1])) < self._p
            ) & enabled[empty]
            movers[empty] = redraw
            empty = empty[~redraw.any(axis=1)]
        return movers


_BATCH_STRATEGIES: dict[type, Callable[[object], BatchSamplerStrategy]] = {
    SynchronousSampler: lambda sampler: _SynchronousBatch(),
    CentralRandomizedSampler: lambda sampler: _CentralRandomizedBatch(),
    DistributedRandomizedSampler: lambda sampler: _IndependentCoinBatch(0.5),
    BernoulliSampler: lambda sampler: _IndependentCoinBatch(sampler._p),
}


def register_batch_sampler(
    sampler_type: type,
    factory: Callable[[object], BatchSamplerStrategy],
) -> None:
    """Register a vectorized strategy for a custom sampler type."""
    _BATCH_STRATEGIES[sampler_type] = factory


def batch_strategy_for(sampler: object) -> BatchSamplerStrategy | None:
    """Vectorized strategy for a scalar sampler, or ``None`` (stateful
    samplers like round-robin or scripted adversaries have no lockstep
    equivalent and keep the scalar engine)."""
    factory = _BATCH_STRATEGIES.get(type(sampler))
    return factory(sampler) if factory is not None else None


# ----------------------------------------------------------------------
# results and blocks
# ----------------------------------------------------------------------
#: Per-phase keys of a profiled per-step run (milliseconds on
#: :attr:`BatchRunResult.profile`).
PROFILE_PHASES = ("gather", "legitimacy", "retire", "draw")

#: Maximum interned states of a super-stepping plan before the block
#: steps per step instead.  Sized so a 10⁵-trial deterministic ring-30
#: block (≈ 6 × 10⁶ reachable states) compiles while pathological spaces
#: abort before exhausting memory.
SUPERSTEP_BUDGET = 8_000_000

# Pointer-doubling ladder height: top jumps cover 2^(levels-1) steps.
_MAX_LADDER_LEVELS = 7


class BatchRunResult:
    """Per-row outcome vectors of one lockstep run.

    Every row retires exactly one way: ``converged`` (``times[r]`` is
    its convergence step, meaningful only there), ``hit_terminal`` (an
    illegitimate terminal configuration, which can never converge — the
    scalar path counts it as censored, and so do we), or ``timed_out``
    (its step budget ran out).  Rows of faulted points also fill the
    fault-timeline vectors (see :mod:`repro.stabilization.faults`):
    ``fault_times[r]`` is the step at which the row's fault fired
    (``-1`` if it never did), ``legit_counts``/``observations`` feed
    the availability fraction, and ``max_runs[r]`` is the longest
    contiguous run of illegitimate observations (the *maximum
    excursion*).  ``profile`` is ``None`` unless the run was profiled,
    in which case it maps phase name → milliseconds
    (:data:`PROFILE_PHASES`, plus ``superstep_build`` and
    ``superstep_execute`` when the rank-space path ran).
    """

    __slots__ = (
        "times",
        "converged",
        "hit_terminal",
        "timed_out",
        "fault_times",
        "legit_counts",
        "observations",
        "max_runs",
        "profile",
        "_stepping",
    )

    def __init__(self, rows: int) -> None:
        self.times = np.zeros(rows, dtype=np.int64)
        self.converged = np.zeros(rows, dtype=bool)
        self.hit_terminal = np.zeros(rows, dtype=bool)
        self.timed_out = np.zeros(rows, dtype=bool)
        self.fault_times = np.full(rows, -1, dtype=np.int64)
        self.legit_counts = np.zeros(rows, dtype=np.int64)
        self.observations = np.zeros(rows, dtype=np.int64)
        self.max_runs = np.zeros(rows, dtype=np.int64)
        self.profile: dict[str, float] | None = None
        self._stepping = ""

    @property
    def stepping(self) -> str:
        """Which path ran: ``"superstep"``, or ``"per-step:<reason>"``.

        The reason names the first condition that ruled super-stepping
        out: ``fault`` (a point carries a fault plan), ``strategy`` (not
        one synchronous or central scheduler), ``legitimacy`` (not one
        :class:`EnabledCountLegitimacy`), ``stochastic`` (some
        neighborhood has several actions or outcomes),
        ``central-choice`` (the central daemon reached a state with
        several enabled processes), or ``over-budget`` (the reachable
        closure outgrew :data:`SUPERSTEP_BUDGET` states).
        """
        return self._stepping

    @property
    def stabilization_times(self) -> list[float]:
        """Converged rows' times, row order, as floats."""
        return [float(t) for t in self.times[self.converged]]


class LockstepBlock:
    """The rows of one lockstep run: one or more points over one set of
    compiled tables.

    Rows are point-major — point ``i`` owns ``counts[i]`` consecutive
    rows of ``codes`` and the step budget ``max_steps[i]``.
    ``legitimacies`` and ``strategies`` are dispatch groups, ``(object,
    member mask over points)`` pairs evaluated with one vectorized call
    per group and step; ``faults[i]`` is point ``i``'s
    :class:`~repro.stabilization.faults.CompiledFault` or ``None``.
    """

    __slots__ = (
        "codes",
        "offsets",
        "point",
        "budget",
        "legitimacies",
        "strategies",
        "faults",
    )

    def __init__(
        self,
        codes: np.ndarray,
        counts: Sequence[int],
        max_steps: Sequence[int],
        legitimacies: Sequence[tuple[BatchLegitimacy, np.ndarray]],
        strategies: Sequence[tuple[BatchSamplerStrategy, np.ndarray]],
        faults: Sequence[object],
    ) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        self.codes = codes
        self.offsets = np.cumsum(counts) - counts
        self.point = np.repeat(np.arange(counts.size), counts)
        self.budget = np.repeat(np.asarray(max_steps, dtype=np.int64), counts)
        self.legitimacies = list(legitimacies)
        self.strategies = list(strategies)
        self.faults = list(faults)

    @classmethod
    def single(
        cls,
        strategy: BatchSamplerStrategy,
        legitimacy: BatchLegitimacy,
        codes: np.ndarray,
        max_steps: int,
        fault=None,
    ) -> "LockstepBlock":
        """A one-point block: every row shares one budget, legitimacy,
        strategy, and fault plan."""
        members = np.ones(1, dtype=bool)
        return cls(
            codes,
            [codes.shape[0]],
            [max_steps],
            [(legitimacy, members)],
            [(strategy, members)],
            [fault],
        )


class _PhaseClock:
    """Wall-clock phase totals of one profiled run, in seconds."""

    __slots__ = ("totals", "_mark")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(PROFILE_PHASES, 0.0)
        self._mark = time.perf_counter()

    def lap(self, phase: str | None) -> None:
        """Charge the time since the last lap to ``phase``; ``None``
        drops it."""
        now = time.perf_counter()
        if phase is not None:
            self.totals[phase] = self.totals.get(phase, 0.0) + now - self._mark
        self._mark = now

    def milliseconds(self) -> dict[str, float]:
        return {phase: value * 1000.0 for phase, value in self.totals.items()}


# ----------------------------------------------------------------------
# rank-space super-stepping
# ----------------------------------------------------------------------
def _superstep_refusal(
    block: LockstepBlock, tables: CompiledKernelTables
) -> str | None:
    """Why ``block`` cannot super-step before any closure is built, or
    ``None`` when it may try.

    Only cheap checks: the table test reads ``action_count`` and
    ``outcome_cum`` directly, and a central-daemon block whose start
    rows already offer a choice is refused from one gather, so such
    blocks never pay for an
    :class:`~repro.core.encoding.ExpansionContext`.
    """
    if any(fault is not None for fault in block.faults):
        return "fault"
    strategy_type = type(block.strategies[0][0])
    if len(block.strategies) != 1 or strategy_type not in (
        _SynchronousBatch,
        _CentralRandomizedBatch,
    ):
        return "strategy"
    if (
        len(block.legitimacies) != 1
        or type(block.legitimacies[0][0]) is not EnabledCountLegitimacy
    ):
        return "legitimacy"
    single_outcome = (tables.outcome_cum < 1.5).sum(axis=1) == 1
    if not ((tables.action_count <= 1).all() and single_outcome.all()):
        return "stochastic"
    if strategy_type is _CentralRandomizedBatch:
        enabled = tables.enabled(tables.pack(block.codes))
        if (enabled.sum(axis=1) > 1).any():
            return "central-choice"
    return None


class _RankInterner:
    """Vectorized open-addressing set interning int64 ranks to dense ids.

    Insertion-ordered: ids are assigned in first-seen order and the
    id → rank log is kept as chunks (one per insertion round) so the
    super-stepping planner can walk its BFS frontier without re-hashing.
    Ranks are non-negative, so ``-1`` is a free empty-slot sentinel; the
    table never deletes, which keeps linear-probe chains valid forever.
    """

    __slots__ = ("_capacity", "_mask", "_keys", "_values", "chunks", "count")

    def __init__(self, capacity: int = 1 << 16) -> None:
        self._capacity = capacity
        self._mask = capacity - 1
        self._keys = np.full(capacity, -1, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self.chunks: list[np.ndarray] = []
        self.count = 0

    def _home_slots(self, ranks: np.ndarray) -> np.ndarray:
        # splitmix64-style scramble; uint64 arithmetic wraps silently.
        mixed = ranks.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        return (mixed & np.uint64(self._mask)).astype(np.int64)

    def intern(self, ranks: np.ndarray) -> np.ndarray:
        """Ids of ``ranks`` (aligned), assigning fresh ids to new ranks."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if not ranks.size:
            return np.empty(0, dtype=np.int64)
        unique, inverse = np.unique(ranks, return_inverse=True)
        while (self.count + unique.size) * 5 > self._capacity * 3:
            self._grow()
        keys, values = self._keys, self._values
        ids = np.empty(unique.size, dtype=np.int64)
        slots = self._home_slots(unique)
        pending = np.arange(unique.size)
        fresh_ranks: list[np.ndarray] = []
        while pending.size:
            probe = slots[pending]
            found = keys[probe]
            hit = found == unique[pending]
            if hit.any():
                ids[pending[hit]] = values[probe[hit]]
            empty = found == -1
            if empty.any():
                # Claim empty slots by write-then-verify: colliding rows
                # targeting one slot race, the surviving write wins and
                # the losers keep probing.
                claimers = pending[empty]
                cslots = probe[empty]
                keys[cslots] = unique[claimers]
                won = keys[cslots] == unique[claimers]
                winners = claimers[won]
                new_ids = self.count + np.arange(
                    winners.size, dtype=np.int64
                )
                values[cslots[won]] = new_ids
                ids[winners] = new_ids
                fresh_ranks.append(unique[winners])
                self.count += winners.size
                miss = np.zeros(pending.size, dtype=bool)
                miss[empty] = ~won
                unresolved = miss
            else:
                unresolved = np.zeros(pending.size, dtype=bool)
            unresolved |= ~hit & (found != -1) & (found != unique[pending])
            pending = pending[unresolved]
            slots[pending] = (slots[pending] + 1) & self._mask
        for chunk in fresh_ranks:
            if chunk.size:
                self.chunks.append(chunk)
        return ids[inverse]

    def _grow(self) -> None:
        self._capacity *= 4
        self._mask = self._capacity - 1
        self._keys = np.full(self._capacity, -1, dtype=np.int64)
        self._values = np.zeros(self._capacity, dtype=np.int64)
        if not self.count:
            return
        all_ranks = np.concatenate(self.chunks)
        all_ids = np.arange(self.count, dtype=np.int64)
        keys, values = self._keys, self._values
        slots = self._home_slots(all_ranks)
        pending = np.arange(all_ranks.size)
        while pending.size:
            probe = slots[pending]
            keys[probe] = all_ranks[pending]
            won = keys[probe] == all_ranks[pending]
            values[probe[won]] = all_ids[pending[won]]
            pending = pending[~won]
            slots[pending] = (slots[pending] + 1) & self._mask


class _SuperstepPlan:
    """Compiled rank-space successor structure of one deterministic run.

    ``succ[i]`` is the dense id of state ``i``'s unique successor over
    the trial-reachable closure, ``legit``/``event`` mark legitimate and
    legitimate-or-terminal states, and ``init_ids`` are the rows' start
    states.  Built per run (the closure depends on the initial codes and
    the largest row budget) and discarded afterwards.
    """

    __slots__ = ("succ", "event", "legit", "init_ids")

    def __init__(
        self,
        succ: np.ndarray,
        event: np.ndarray,
        legit: np.ndarray,
        init_ids: np.ndarray,
    ) -> None:
        self.succ = succ
        self.event = event
        self.legit = legit
        self.init_ids = init_ids

    @classmethod
    def build(
        cls, tables: CompiledKernelTables, block: LockstepBlock
    ) -> "_SuperstepPlan | str":
        """Compile the closure of a block that passed
        :func:`_superstep_refusal`, or return why it must step per step
        after all: ``"central-choice"`` when the central daemon meets a
        state with several enabled processes, ``"over-budget"`` when the
        closure outgrows :data:`SUPERSTEP_BUDGET` states (or its ranks
        outgrow int64)."""
        context = expansion_context(tables)
        if not context.int64_safe:
            return "over-budget"
        central = type(block.strategies[0][0]) is _CentralRandomizedBatch
        depth_cap = int(block.budget.max(initial=0))

        interner = _RankInterner()
        init_ids = interner.intern(
            block.codes.astype(np.int64) @ context.weights_row
        )
        if interner.count > SUPERSTEP_BUDGET:
            return "over-budget"

        succ_chunks = [np.empty(0, dtype=np.int64)]
        count_chunks = [np.empty(0, dtype=np.int64)]
        chunk_cursor = 0
        processed = 0
        depth = 0
        while processed < interner.count:
            frontier = np.concatenate(interner.chunks[chunk_cursor:])
            chunk_cursor = len(interner.chunks)
            succ_ranks, counts = context.deterministic_successor_ranks(
                frontier
            )
            if central and counts.size and int(counts.max()) > 1:
                return "central-choice"
            count_chunks.append(counts)
            if depth >= depth_cap:
                # Depth-capped tail: states first reached at the final
                # step can be *occupied* but never stepped from, so
                # their successors are irrelevant — self-loop them
                # instead of growing the closure further.
                succ_chunks.append(
                    np.arange(
                        processed,
                        processed + frontier.size,
                        dtype=np.int64,
                    )
                )
                processed += frontier.size
                break
            succ_ids = interner.intern(succ_ranks)
            if interner.count > SUPERSTEP_BUDGET:
                return "over-budget"
            succ_chunks.append(succ_ids)
            processed += frontier.size
            depth += 1

        succ = np.concatenate(succ_chunks)
        counts_all = np.concatenate(count_chunks)
        legit = counts_all == block.legitimacies[0][0].count
        event = legit | (counts_all == 0)
        if interner.count < 2**31:
            succ = succ.astype(np.int32)
        return cls(succ, event, legit, init_ids)

    def execute(self, budget: np.ndarray, result: BatchRunResult) -> None:
        """Jump every row to its exact first event or its step budget.

        Pointer-doubling ladder + binary-lifting descent.  The reach
        bitmap of level ``j`` answers "is there an event within the next
        ``2^j`` steps?", so taking a jump exactly when the answer is *no*
        bisects the last jump and lands each surviving row one step
        short of its first event — the final single step then hits it,
        making recorded times bit-identical to the per-step path.  Rows
        whose own budget runs out first drain ``rem`` to zero through
        the same jumps and retire as timed out, as the per-step budget
        check retires them.
        """
        succ0 = self.succ
        event = self.event
        legit = self.legit
        max_steps = int(budget.max(initial=0))
        levels = min(_MAX_LADDER_LEVELS, max(max_steps.bit_length(), 1))
        succ_pows = [succ0]
        reach_pows = [event[succ0]]
        for _ in range(1, levels):
            succ_k = succ_pows[-1]
            reach_k = reach_pows[-1]
            succ_pows.append(succ_k[succ_k])
            reach_pows.append(reach_k | reach_k[succ_k])
        top = levels - 1
        top_jump = 1 << top
        succ_top = succ_pows[top]
        reach_top = reach_pows[top]
        reach_one = reach_pows[0]

        rows = np.arange(budget.size)
        cur = self.init_ids.copy()
        t = np.zeros(cur.size, dtype=np.int64)
        while cur.size:
            ev = event[cur]
            if ev.any():
                conv = legit[cur]  # conv ⊆ ev, and legitimacy wins over
                term = ev & ~conv  # terminal, as in the per-step path
                result.times[rows[conv]] = t[conv]
                result.converged[rows[conv]] = True
                result.hit_terminal[rows[term]] = True
                keep = ~ev
                rows, cur, t, budget = (
                    rows[keep], cur[keep], t[keep], budget[keep]
                )
                if not cur.size:
                    break
            over = t >= budget
            if over.any():
                result.timed_out[rows[over]] = True
                keep = ~over
                rows, cur, t, budget = (
                    rows[keep], cur[keep], t[keep], budget[keep]
                )
                if not cur.size:
                    break
            rem = budget - t
            while True:
                jump = (rem >= top_jump) & ~reach_top[cur]
                if not jump.any():
                    break
                cur[jump] = succ_top[cur[jump]]
                t[jump] += top_jump
                rem[jump] -= top_jump
            for level in range(top - 1, -1, -1):
                size = 1 << level
                jump = (rem >= size) & ~reach_pows[level][cur]
                if jump.any():
                    cur[jump] = succ_pows[level][cur[jump]]
                    t[jump] += size
                    rem[jump] -= size
            final = (rem >= 1) & reach_one[cur]
            if final.any():
                cur[final] = succ0[cur[final]]
                t[final] += 1


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchEngine:
    """Compiled encoding + tables for one system, reusable across runs.

    Mirrors the kernel-sharing contract of
    :class:`~repro.markov.montecarlo.MonteCarloRunner`: compile once per
    (algorithm, topology), then every sweep point's batch is pure array
    work.  Compilation enumerates the full neighborhood product space, so
    it is subject to the same ``max_entries`` budget as
    :meth:`TransitionKernel.precompute`.
    """

    def __init__(
        self,
        kernel: TransitionKernel,
        max_entries: int = DEFAULT_TABLE_BUDGET,
    ) -> None:
        self.kernel = kernel
        self.encoding = StateEncoding(kernel)
        self.tables = compile_tables(kernel, self.encoding, max_entries)

    def run(
        self,
        strategy: BatchSamplerStrategy,
        legitimacy: BatchLegitimacy,
        initial_codes: np.ndarray,
        max_steps: int,
        generator: np.random.Generator,
        *,
        profile: bool = False,
    ) -> BatchRunResult:
        """Advance all trials in lockstep until retirement or budget.

        Semantics per trial match :func:`repro.core.simulate.run_until`:
        legitimacy is tested on the initial configuration (time 0) and
        after every step; an illegitimate terminal configuration retires
        the trial as censored; ``max_steps`` bounds the sampler calls.
        ``profile=True`` attaches per-phase millisecond totals to the
        result.
        """
        return self.run_block(
            LockstepBlock.single(
                strategy, legitimacy, initial_codes, max_steps
            ),
            generator,
            profile=profile,
        )

    def run_with_fault(
        self,
        strategy: BatchSamplerStrategy,
        legitimacy: BatchLegitimacy,
        initial_codes: np.ndarray,
        max_steps: int,
        generator: np.random.Generator,
        fault,
    ) -> BatchRunResult:
        """Lockstep batch with one transient corruption event per trial.

        ``fault`` is a :class:`repro.stabilization.faults.CompiledFault`;
        :meth:`run_block` documents the fault timeline.  The scalar
        oracle (:class:`~repro.markov.montecarlo.MonteCarloRunner`
        ``engine="scalar"``) implements the identical timeline, so
        deterministic cells agree bit-for-bit.
        """
        return self.run_block(
            LockstepBlock.single(
                strategy, legitimacy, initial_codes, max_steps, fault
            ),
            generator,
        )

    def run_block(
        self,
        block: LockstepBlock,
        generator: np.random.Generator,
        profile: bool = False,
    ) -> BatchRunResult:
        """The lockstep loop: advance every row of ``block`` until it
        converges, hits an illegitimate terminal configuration, or
        exhausts its own step budget.

        A block that qualifies super-steps in rank space (see the module
        docstring) and draws nothing from ``generator``; every other
        block steps per step.  Faulted points follow the fault timeline
        documented in :mod:`repro.stabilization.faults`: the corruption
        is one extra scatter into the code matrix, a pending fault
        blocks convergence retirement, a pending fixed-step fault parks
        terminal rows in place (the corruption may re-enable them), and
        every legitimacy observation feeds the availability/excursion
        counters.
        """
        result = BatchRunResult(block.codes.shape[0])
        clock = _PhaseClock() if profile else None
        reason = _superstep_refusal(block, self.tables)
        plan = None
        if reason is None:
            plan = _SuperstepPlan.build(self.tables, block)
            if isinstance(plan, str):
                reason, plan = plan, None
        if plan is not None:
            if clock:
                clock.lap("superstep_build")
            plan.execute(block.budget, result)
            if clock:
                clock.lap("superstep_execute")
            result._stepping = "superstep"
        else:
            if clock:
                clock.lap(None)
            self._step(block, result, generator, clock)
            result._stepping = f"per-step:{reason}"
        if clock:
            result.profile = clock.milliseconds()
        return result

    def _step(
        self,
        block: LockstepBlock,
        result: BatchRunResult,
        generator: np.random.Generator,
        clock: _PhaseClock | None,
    ) -> None:
        """The per-step path of :meth:`run_block`."""
        tables = self.tables
        codes = np.array(block.codes, copy=True)
        point = block.point
        budget = block.budget
        active = np.arange(codes.shape[0])
        legitimacies = block.legitimacies
        strategies = block.strategies
        faults = block.faults

        def legitimate(codes_m, enabled_m, point_m):
            # Homogeneous blocks (one signature — the Q1/Q2 shape) skip
            # the row masking: dispatch is only paid when points differ.
            if len(legitimacies) == 1:
                return legitimacies[0][0].evaluate(codes_m, enabled_m, self)
            legit_m = np.zeros(len(point_m), dtype=bool)
            for legitimacy, members in legitimacies:
                rows = members[point_m]
                if rows.any():
                    legit_m[rows] = legitimacy.evaluate(
                        codes_m[rows], enabled_m[rows], self
                    )
            return legit_m

        def choose(enabled_m, point_m):
            if len(strategies) == 1:
                return strategies[0][0].choose(enabled_m, generator)
            movers_m = np.zeros_like(enabled_m)
            for strategy, members in strategies:
                rows = members[point_m]
                if rows.any():
                    movers_m[rows] = strategy.choose(
                        enabled_m[rows], generator
                    )
            return movers_m

        # Fault timeline.  ``trigger`` per point: -2 no fault, -1 at
        # first legitimacy, >= 0 a fixed step.  ``pending`` and the
        # availability/excursion counters are aligned with ``active``
        # and scattered into the result only when rows retire, keeping
        # the per-step bookkeeping free of fancy indexing (the fault
        # path must stay within a few percent of the plain one — see
        # ``benchmarks/bench_fault_injection.py``).  ``pending_count``
        # mirrors ``pending.sum()``: once every fault has fired, the
        # trigger/freeze machinery short-circuits.
        any_fault = any(fault is not None for fault in faults)
        trigger = np.array(
            [
                -2
                if fault is None
                else (-1 if fault.at_convergence else fault.step)
                for fault in faults
            ],
            dtype=np.int64,
        )
        pending = trigger[point] != -2
        pending_count = int(pending.sum())
        cur_run = obs = legit_seen = run_peak = None
        if any_fault:
            cur_run = np.zeros(active.size, dtype=np.int64)
            obs = np.zeros(active.size, dtype=np.int64)
            legit_seen = np.zeros(active.size, dtype=np.int64)
            run_peak = np.zeros(active.size, dtype=np.int64)

        def retire(done: np.ndarray) -> np.ndarray:
            """Drop the ``done`` rows (flushing their fault counters);
            returns the keep mask for the caller's step-local arrays."""
            nonlocal active, codes, point, budget, pending, pending_count
            nonlocal cur_run, obs, legit_seen, run_peak
            keep = ~done
            if any_fault:
                retired = active[done]
                result.observations[retired] = obs[done]
                result.legit_counts[retired] = legit_seen[done]
                result.max_runs[retired] = run_peak[done]
                cur_run, obs = cur_run[keep], obs[keep]
                legit_seen, run_peak = legit_seen[keep], run_peak[keep]
                pending = pending[keep]
                if pending_count:
                    pending_count = int(pending.sum())
            active, codes = active[keep], codes[keep]
            point, budget = point[keep], budget[keep]
            return keep

        step = 0
        # A lower bound on the smallest remaining budget: the vector
        # budget test runs only once some row can have exhausted it.
        budget_floor = int(budget.min(initial=0))
        while active.size:
            keys = tables.pack(codes)
            enabled = tables.enabled(keys)
            if clock:
                clock.lap("gather")
            legit = legitimate(codes, enabled, point)
            if pending_count:
                due = trigger[point]
                fire = pending & ((due == step) | ((due == -1) & legit))
                if fire.any():
                    fired = np.flatnonzero(fire)
                    members = point[fired]
                    for member in np.unique(members).tolist():
                        rows = fired[members == member]
                        trial_ids = active[rows] - block.offsets[member]
                        faults[member].scatter(codes, rows, trial_ids)
                    result.fault_times[active[fired]] = step
                    pending[fired] = False
                    pending_count -= fired.size
                    # The corrupted rows' neighborhood keys, enabledness,
                    # and legitimacy are re-derived post-corruption.
                    keys[fired] = tables.pack(codes[fired])
                    enabled[fired] = tables.enabled(keys[fired])
                    legit[fired] = legitimate(
                        codes[fired], enabled[fired], point[fired]
                    )
            if clock:
                clock.lap("legitimacy")
            if any_fault:
                obs += 1
                legit_seen += legit
                cur_run = np.where(legit, 0, cur_run + 1)
                np.maximum(run_peak, cur_run, out=run_peak)
                done = legit & ~pending if pending_count else legit
            else:
                done = legit
            if done.any():
                retired = active[done]
                result.times[retired] = step
                result.converged[retired] = True
                keep = retire(done)
                if not active.size:
                    break
                keys, enabled = keys[keep], enabled[keep]
            # Illegitimate terminal rows can never converge (censored, as
            # in the scalar path) — unless a pending fixed-step fault may
            # re-enable them: those idle in place, and time still passes.
            terminal = ~enabled.any(axis=1)
            frozen = None
            if pending_count:
                frozen = terminal & pending & (trigger[point] >= 0)
                terminal &= ~frozen
            if terminal.any():
                result.hit_terminal[active[terminal]] = True
                keep = retire(terminal)
                if frozen is not None:
                    frozen = frozen[keep]
                if not active.size:
                    break
                keys, enabled = keys[keep], enabled[keep]
            if step >= budget_floor:
                over = budget <= step
                if over.any():
                    result.timed_out[active[over]] = True
                    keep = retire(over)
                    if frozen is not None:
                        frozen = frozen[keep]
                    if not active.size:
                        break
                    keys, enabled = keys[keep], enabled[keep]
                budget_floor = int(budget.min())
            if clock:
                clock.lap("retire")
            if frozen is not None and frozen.any():
                move = ~frozen
                movers = choose(enabled[move], point[move])
                codes[move] = tables.sample(
                    codes[move], keys[move], movers, generator
                )
            else:
                movers = choose(enabled, point)
                codes = tables.sample(codes, keys, movers, generator)
            if clock:
                clock.lap("draw")
            step += 1
        if clock:
            clock.lap("retire")


def encode_initials(
    encoding: StateEncoding,
    initial_configurations: Sequence[Configuration],
    trials: int,
) -> np.ndarray:
    """Tile explicit initial configurations over the trial axis, matching
    the scalar path's ``trial % len(initial_configurations)`` cycling."""
    base = encoding.encode_batch(list(initial_configurations))
    repeats = -(-trials // base.shape[0])  # ceil division
    return np.tile(base, (repeats, 1))[:trials]
