"""Compiled code-space exploration — the default engine of explore.

:meth:`repro.stabilization.statespace.StateSpace.explore` runs this
module whenever the system compiles to
:class:`~repro.core.encoding.CompiledKernelTables` (at most
:data:`MAX_SHARDABLE_PROCESSES` processes, neighborhood space within the
compilation budget).  Exploration happens entirely in *code space*:
configurations are mixed-radix ranks over the
:class:`~repro.core.encoding.StateEncoding`, enabledness is one gather
per block, and a successor is integer arithmetic instead of tuple
surgery plus dict interning.  ``shards=1`` (the default) expands every
block in-process; ``shards > 1`` spreads the blocks across
``multiprocessing`` workers that receive the immutable tables (read-only
NumPy storage, so shipping them is one cheap pickle — or free
copy-on-write under the ``fork`` start method).

The result is **bit-for-bit identical** to the reference walk
(``use_kernel=False``): interned ids, edge order, and enabled tuples all
match, because every block is replayed in frontier order (see
``tests/test_sharded_explore.py``).

Two modes cover the two exploration modes:

* **full space** (``initial=None``): every configuration is a seed and
  its canonical id *is* its enumeration rank, so the id space needs no
  merge at all — blocks are contiguous rank ranges whose edge lists
  concatenate;
* **reachable fragment** (explicit ``initial``): a level-synchronous
  BFS; each level's frontier is split into blocks, and the master
  interns discovered ranks in (source order, edge order) — the exact
  order the reference FIFO walk uses.

Entry points: :func:`explore_compiled` (called by ``StateSpace.explore``),
:func:`resolve_shards`, and the process-wide default used by the
``--shards`` CLI flag (:func:`set_default_shards` /
:func:`get_default_shards`).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from itertools import islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import CompiledKernelTables, ExpansionContext
from repro.core.system import System
from repro.errors import SchedulerError, StateSpaceError
from repro.schedulers.relations import SchedulerRelation

# One-way dependency: statespace imports this module only lazily inside
# ``StateSpace.explore``, so importing its helpers here is cycle-free.
from repro.stabilization.statespace import (
    StateSpace,
    mask_to_subset,
    subset_to_mask,
)

__all__ = [
    "ExpansionContext",
    "explore_compiled",
    "resolve_shards",
    "set_default_shards",
    "get_default_shards",
    "MAX_SHARDABLE_PROCESSES",
]

#: Activation bitmasks travel as int64 words; beyond this many processes
#: ``StateSpace.explore`` takes the kernel walk instead (whose
#: exploration budget such systems exceed anyway).
MAX_SHARDABLE_PROCESSES = 62

#: Frontiers smaller than this are expanded in-process: the pickle +
#: scheduling overhead of a worker round-trip exceeds the work.
MIN_FRONTIER_FOR_WORKERS = 256

#: Most sources expanded in one block: bounds the ``(block, processes)``
#: gather matrices, so a large space costs no more scratch memory than a
#: moderate one.
MAX_BLOCK = 1 << 16

#: Sources whose edges are turned into Python tuples at once.
REPLAY_SOURCES = 1024

#: Wall-clock budget (seconds) for one pool task batch.  A worker that
#: dies mid-task (OOM kill, SIGKILL) loses its task, and a bare
#: ``Pool.map`` would then block forever; ``map_async(...).get`` with
#: this timeout surfaces the death as a supervisable failure instead.
#: Module-level so tests (and desperate operators) can lower it.
POOL_TASK_TIMEOUT = 600.0

#: Process-wide default shard count, used when ``StateSpace.explore`` is
#: called with ``shards=None`` — set by the ``--shards`` CLI flag.
_DEFAULT_SHARDS = 1


def set_default_shards(shards: int | str) -> int:
    """Set the process-wide default shard count (``"auto"`` allowed).

    Returns the resolved count.  ``StateSpace.explore(shards=None)`` —
    i.e. every exploration that does not choose explicitly, including all
    experiment runners — picks this default up, which is how the
    ``--shards`` flag of ``python -m repro.experiments run`` reaches
    exploration without threading a parameter through every runner.
    """
    global _DEFAULT_SHARDS
    _DEFAULT_SHARDS = resolve_shards(shards)
    return _DEFAULT_SHARDS


def get_default_shards() -> int:
    """The process-wide default shard count (1 unless configured)."""
    return _DEFAULT_SHARDS


def resolve_shards(shards: int | str | None) -> int:
    """Normalize a ``shards`` argument to a positive worker count.

    ``None`` → the process-wide default; ``"auto"`` → the number of CPUs
    available to this process (affinity-aware, capped at 8 — exploration
    merge work is serial, so very wide pools stop paying off); an int is
    validated and returned as-is.
    """
    if shards is None:
        return _DEFAULT_SHARDS
    if isinstance(shards, str):
        if shards != "auto":
            raise StateSpaceError(
                f"shards must be a positive int or 'auto', got {shards!r}"
            )
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            available = os.cpu_count() or 1
        return max(1, min(available, 8))
    if shards < 1:
        raise StateSpaceError(
            f"shards must be a positive int or 'auto', got {shards!r}"
        )
    return int(shards)


# ----------------------------------------------------------------------
# the compiled expansion shared by the in-process path and the workers
# ----------------------------------------------------------------------
class _ShardContext(ExpansionContext):
    """Read-only expansion state: shared lookups plus the relation.

    Built once per exploration in-process, or once per worker process.
    Subset plans are cached per enabled pattern, so ``relation.subsets``
    runs once per distinct enabled set of the whole exploration.
    """

    def __init__(
        self,
        tables: CompiledKernelTables,
        relation: SchedulerRelation,
        action_mode: str,
    ) -> None:
        super().__init__(tables)
        self.relation = relation
        self.action_mode = action_mode
        self.bits = np.int64(1) << np.arange(
            self.num_processes, dtype=np.int64
        )
        self._plans: dict[
            tuple[int, ...], list[tuple[int, tuple[int, ...]]]
        ] = {}
        self._incidences: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def plan(
        self, enabled: tuple[int, ...]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """``(mask, subset)`` per allowed subset, in ``relation.subsets``
        order; a repeated mask keeps its first subset, as the walk's
        keep-first edge dedup does."""
        plan = self._plans.get(enabled)
        if plan is None:
            allowed = subset_to_mask(enabled)
            by_mask: dict[int, tuple[int, ...]] = {}
            for subset in self.relation.subsets(enabled):
                mask = subset_to_mask(subset)
                if mask & ~allowed:
                    raise SchedulerError(
                        f"scheduler chose a disabled process in {subset}"
                    )
                by_mask.setdefault(mask, subset)
            plan = list(by_mask.items())
            self._plans[enabled] = plan
        return plan

    def incidence(self, pattern: int) -> tuple[np.ndarray, np.ndarray]:
        """Subset masks and ``(subsets, processes)`` 0/1 incidence matrix
        of one enabled bitmask, in plan order (none for terminals, whose
        subsets the walk never asks for)."""
        cached = self._incidences.get(pattern)
        if cached is None:
            enabled = mask_to_subset(pattern)
            masks = [mask for mask, _ in self.plan(enabled)] if enabled else []
            mask_array = np.array(masks, dtype=np.int64)
            cached = (
                mask_array,
                ((mask_array[:, None] & self.bits) != 0).astype(np.int64),
            )
            self._incidences[pattern] = cached
        return cached


#: Wire format of one expanded block, all flat and cheap to pickle:
#: (per-source enabled counts, flat enabled process ids, per-source edge
#:  counts, flat edge masks, flat edge target ranks).  Arrays are int64;
#: ``targets`` degrades to a Python list when ranks exceed int64.
_ChunkResult = tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, "np.ndarray | list[int]"
]


def _expand_block(
    context: _ShardContext, codes: np.ndarray, ranks: Sequence[int]
) -> _ChunkResult:
    """Expand one block of sources entirely in code space.

    Reproduces the reference walk's per-source behavior exactly — same
    ``enabled`` tuples (sorted process ids), same subset enumeration
    through ``relation.subsets``, same branch order as
    :func:`repro.core.system.compose_weighted_targets`, and the same
    keep-first edge dedup — but a successor is ``source rank + Σ (new
    code − old code) · weight`` instead of tuple surgery, and enabledness
    is one vectorized gather for the whole block.

    Deterministic blocks (every enabled cell has one applicable action
    with one outcome — the paper's Algorithms 1 and 2) skip the
    per-source loop under any relation (:func:`_deterministic_edges`).
    """
    tables = context.tables
    keys = tables.pack(codes)
    enabled_matrix = tables.enabled_flat[keys]
    counts_matrix = tables.action_count[keys]
    bases_matrix = tables.action_base[keys]

    enabled_counts = enabled_matrix.sum(axis=1, dtype=np.int64)
    enabled_cols = np.nonzero(enabled_matrix)[1].astype(np.int64)

    first_only = context.action_mode == "first"

    # ------------------------------------------------------------------
    # deterministic-block layer: any relation, whole-block arrays
    # ------------------------------------------------------------------
    if context.int64_safe:
        single = enabled_matrix if first_only else counts_matrix == 1
        deterministic = single & (context.arity[bases_matrix] == 1)
        if not (enabled_matrix & ~deterministic).any():
            return (
                enabled_counts,
                enabled_cols,
                *_deterministic_edges(
                    context, codes, ranks, enabled_matrix, bases_matrix
                ),
            )

    # ------------------------------------------------------------------
    # scalar replay layer: any relation, any action/outcome structure
    # ------------------------------------------------------------------
    counts = counts_matrix.tolist()
    bases = bases_matrix.tolist()
    rows = codes.tolist()
    per_row = enabled_counts.tolist()
    flat_enabled = enabled_cols.tolist()
    outcome_codes = context.outcome_codes
    weights = context.config_weights

    edge_counts: list[int] = []
    edge_masks: list[int] = []
    edge_targets: list[int] = []

    cursor = 0
    for index, source_rank in enumerate(ranks):
        count = per_row[index]
        enabled = tuple(flat_enabled[cursor : cursor + count])
        cursor += count
        emitted = 0
        if enabled:
            row = rows[index]
            row_counts = counts[index]
            row_bases = bases[index]
            for mask, subset in context.plan(enabled):
                # Edges dedup keep-first *within* a subset (distinct
                # subsets have distinct masks, so cross-subset duplicates
                # cannot occur); a subset with a single branch — one
                # applicable action per mover, one outcome each — needs
                # no dedup at all.
                if len(subset) == 1:
                    process = subset[0]
                    base = row_bases[process]
                    stop = base + (1 if first_only else row_counts[process])
                    weight = weights[process]
                    old = row[process] * weight
                    if stop == base + 1 and len(outcome_codes[base]) == 1:
                        edge_masks.append(mask)
                        edge_targets.append(
                            source_rank + outcome_codes[base][0] * weight - old
                        )
                        emitted += 1
                        continue
                    seen: set[int] = set()
                    for action_row in range(base, stop):
                        for code in outcome_codes[action_row]:
                            target = source_rank + code * weight - old
                            if target not in seen:
                                seen.add(target)
                                edge_masks.append(mask)
                                edge_targets.append(target)
                                emitted += 1
                    continue
                choice_lists = [
                    [
                        (
                            weights[process],
                            row[process] * weights[process],
                            outcome_codes[action_row],
                        )
                        for action_row in range(
                            row_bases[process],
                            row_bases[process]
                            + (1 if first_only else row_counts[process]),
                        )
                    ]
                    for process in subset
                ]
                if all(
                    len(choices) == 1 and len(choices[0][2]) == 1
                    for choices in choice_lists
                ):
                    target = source_rank
                    for weight, old, codes_ in (
                        choices[0] for choices in choice_lists
                    ):
                        target += codes_[0] * weight - old
                    edge_masks.append(mask)
                    edge_targets.append(target)
                    emitted += 1
                    continue
                seen = set()
                for assignment in product(*choice_lists):
                    outcome_spaces = [codes_ for _, _, codes_ in assignment]
                    for combo in product(*outcome_spaces):
                        target = source_rank
                        for (weight, old, _), code in zip(assignment, combo):
                            target += code * weight - old
                        if target not in seen:
                            seen.add(target)
                            edge_masks.append(mask)
                            edge_targets.append(target)
                            emitted += 1
        edge_counts.append(emitted)

    if context.int64_safe:
        targets: np.ndarray | list[int] = np.fromiter(
            edge_targets, dtype=np.int64, count=len(edge_targets)
        )
    else:
        targets = edge_targets
    return (
        enabled_counts,
        enabled_cols,
        np.fromiter(edge_counts, dtype=np.int64, count=len(edge_counts)),
        np.fromiter(edge_masks, dtype=np.int64, count=len(edge_masks)),
        targets,
    )


def _deterministic_edges(
    context: _ShardContext,
    codes: np.ndarray,
    ranks: Sequence[int],
    enabled_matrix: np.ndarray,
    bases_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge counts, masks and target ranks of a deterministic block.

    Every subset step has exactly one target, ``rank + Σ delta`` over its
    movers, and distinct subsets have distinct masks, so no dedup is
    needed.  Sources are grouped by enabled bitmask: each distinct
    pattern's plan becomes a ``(subsets, processes)`` incidence matrix,
    its sources' targets are one product ``delta[rows] @ incidence.T``,
    and masks and targets are scattered to per-source offsets in plan
    order — whatever order ``relation.subsets`` yields.
    """
    rank_array = np.fromiter(ranks, dtype=np.int64, count=len(codes))
    # Post-state delta of each (source, process) solo move:
    # (new code − old code) · weight — zero where disabled.
    delta = np.where(
        enabled_matrix,
        (context.first_outcome[bases_matrix] - codes.astype(np.int64))
        * context.weights_row,
        0,
    )
    patterns, group = np.unique(
        enabled_matrix @ context.bits, return_inverse=True
    )
    plans = [context.incidence(pattern) for pattern in patterns.tolist()]
    edge_counts = np.array(
        [len(plan_masks) for plan_masks, _ in plans], dtype=np.int64
    )[group]
    offsets = np.cumsum(edge_counts) - edge_counts
    masks = np.empty(int(edge_counts.sum()), dtype=np.int64)
    targets = np.empty_like(masks)
    order = np.argsort(group, kind="stable")
    stops = np.cumsum(np.bincount(group, minlength=len(plans))).tolist()
    start = 0
    for (plan_masks, incidence), stop in zip(plans, stops):
        rows = order[start:stop]
        start = stop
        slots = offsets[rows, None] + np.arange(len(plan_masks))
        masks[slots] = plan_masks
        targets[slots] = rank_array[rows, None] + delta[rows] @ incidence.T
    return edge_counts, masks, targets


# ----------------------------------------------------------------------
# worker plumbing
# ----------------------------------------------------------------------
_WORKER_CONTEXT: _ShardContext | None = None


def _init_worker(
    tables: CompiledKernelTables,
    relation: SchedulerRelation,
    action_mode: str,
) -> None:
    """Pool initializer: build the per-worker read-only context once."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _ShardContext(tables, relation, action_mode)


def _expand_ranks(
    ranks: Sequence[int], context: _ShardContext | None = None
) -> _ChunkResult:
    """Expand one block of ranks: a ``range`` of the full space (cheap to
    pickle) or a slice of a reachable frontier.

    As a pool task ``context`` defaults to the worker's initialized
    global; the in-process path passes its own.
    """
    if context is None:
        context = _WORKER_CONTEXT
    assert context is not None
    return _expand_block(context, context.codes_of_ranks(ranks), ranks)


def _blocks(total: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``[start, stop)`` blocks covering ``total``:
    one per shard, but never more than :data:`MAX_BLOCK` sources each."""
    count = min(total, max(shards, -(-total // MAX_BLOCK)))
    step, remainder = divmod(total, count)
    bounds = []
    start = 0
    for block in range(count):
        stop = start + step + (1 if block < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _make_pool(
    shards: int,
    tables: CompiledKernelTables,
    relation: SchedulerRelation,
    action_mode: str,
):
    """A worker pool, preferring ``fork`` (copy-on-write table sharing)."""
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        mp_context = multiprocessing.get_context()
    return mp_context.Pool(
        processes=shards,
        initializer=_init_worker,
        initargs=(tables, relation, action_mode),
    )


def _warn_pool_failure(error: BaseException, action: str) -> None:
    warnings.warn(
        "sharded exploration worker pool failed"
        f" ({type(error).__name__}: {error}); {action}",
        RuntimeWarning,
        stacklevel=3,
    )


class _SupervisedPool:
    """Pool wrapper that survives worker death.

    ``map`` runs a task batch with a wall-clock budget
    (:data:`POOL_TASK_TIMEOUT` — a killed worker loses its task, which
    a bare ``Pool.map`` would wait on forever).  On the first failure
    the batch is retried once on a fresh pool; on the second the pool
    is written off for good and this batch — and every later one — runs
    in-process through ``fallback``, with a clear warning instead of an
    opaque multiprocessing traceback.  Results are identical on every
    path; only wall-clock changes.
    """

    def __init__(
        self,
        shards: int,
        tables: CompiledKernelTables,
        relation: SchedulerRelation,
        action_mode: str,
        task: Callable,
        fallback: Callable[[list], list[_ChunkResult]],
    ) -> None:
        self._factory = lambda: _make_pool(
            shards, tables, relation, action_mode
        )
        self._task = task
        self._fallback = fallback
        self._pool = None
        self.broken = False

    def map(self, chunks: list) -> list[_ChunkResult]:
        if not self.broken:
            for retry in (False, True):
                if self._pool is None:
                    self._pool = self._factory()
                try:
                    return self._pool.map_async(self._task, chunks).get(
                        POOL_TASK_TIMEOUT
                    )
                except Exception as error:
                    self._close()
                    _warn_pool_failure(
                        error,
                        "falling back to in-process expansion"
                        if retry
                        else "retrying the batch on a fresh pool",
                    )
            self.broken = True
        return self._fallback(chunks)

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Tear down the pool (idempotent)."""
        self._close()


# ----------------------------------------------------------------------
# the compiled explorer
# ----------------------------------------------------------------------
class _Expander:
    """Expands rank sequences block by block: in-process, or on a worker
    pool (created on first use) for large inputs when ``shards > 1``."""

    def __init__(self, context: _ShardContext, shards: int) -> None:
        self.context = context
        self.shards = shards
        self.pool: _SupervisedPool | None = None

    def __call__(self, ranks: Sequence[int]) -> Iterable[_ChunkResult]:
        pooled = self.shards > 1 and len(ranks) >= MIN_FRONTIER_FOR_WORKERS
        chunks = [
            ranks[start:stop]
            for start, stop in _blocks(
                len(ranks), self.shards if pooled else 1
            )
        ]
        if not pooled:
            # Lazily, so one block's arrays are alive at a time.
            return (_expand_ranks(chunk, self.context) for chunk in chunks)
        if self.pool is None:
            context = self.context
            self.pool = _SupervisedPool(
                self.shards,
                context.tables,
                context.relation,
                context.action_mode,
                _expand_ranks,
                lambda chunks: [
                    _expand_ranks(chunk, context) for chunk in chunks
                ],
            )
        return self.pool.map(chunks)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def explore_compiled(
    system: System,
    relation: SchedulerRelation,
    initial: Iterable[Configuration] | None,
    max_configurations: int,
    action_mode: str,
    tables: CompiledKernelTables,
    shards: int,
) -> StateSpace:
    """``StateSpace.explore`` over compiled tables (see module docs).

    ``shards=1`` expands every block in-process; more shards spread the
    blocks over a worker pool.  The result's ``path`` is ``"sharded"``
    when a pool expanded any block, ``"compiled"`` otherwise.
    """
    context = _ShardContext(tables, relation, action_mode)
    expand = _Expander(context, shards)
    edges: list[list[tuple[int, int]]] = []
    enabled_lists: list[tuple[int, ...]] = []
    try:
        if initial is None:
            # Full space: ids are enumeration ranks; no id merge needed.
            # Edges reference one shared int object per id, as the walk's
            # do, instead of a fresh int per edge.
            ids = np.arange(system.num_configurations()).astype(object)
            for result in expand(range(len(ids))):
                _append_chunk(
                    result,
                    enabled_lists,
                    edges,
                    lambda targets: ids[targets].tolist(),
                )
            configurations = list(system.all_configurations())
            index = dict(zip(configurations, ids.tolist()))
        else:
            configurations, index = _explore_frontier(
                context,
                list(initial),
                max_configurations,
                expand,
                enabled_lists,
                edges,
            )
    finally:
        expand.close()
    return StateSpace(
        system,
        relation,
        configurations,
        index,
        edges,
        enabled_lists,
        path="compiled" if expand.pool is None else "sharded",
    )


def _append_chunk(
    result: _ChunkResult,
    enabled_lists: list[tuple[int, ...]],
    edges: list[list[tuple[int, int]]],
    to_ids: Callable[["np.ndarray | list[int]"], list[int]],
) -> None:
    """Replay one chunk's flat wire arrays into per-source Python lists,
    mapping target ranks to canonical ids with ``to_ids`` (in edge
    order)."""
    en_counts, en_cols, edge_counts, masks, targets = result
    cols = iter(en_cols.tolist())
    enabled_lists.extend(
        tuple(islice(cols, count)) for count in en_counts.tolist()
    )
    # A slice of sources at a time: the per-edge Python lists stay small
    # next to the edge tuples they become.
    counts = edge_counts.tolist()
    start = 0
    for first in range(0, len(counts), REPLAY_SOURCES):
        slice_counts = counts[first : first + REPLAY_SOURCES]
        stop = start + sum(slice_counts)
        pairs = iter(
            zip(masks[start:stop].tolist(), to_ids(targets[start:stop]))
        )
        edges.extend(list(islice(pairs, count)) for count in slice_counts)
        start = stop


def _explore_frontier(
    context: _ShardContext,
    seeds: list[Configuration],
    max_configurations: int,
    expand: _Expander,
    enabled_lists: list[tuple[int, ...]],
    edges: list[list[tuple[int, int]]],
) -> tuple[list[Configuration], dict[Configuration, int]]:
    """Reachable-fragment mode: level-synchronous BFS with canonical merge.

    The master owns the rank → id interning; blocks only expand.  Each
    level's results are replayed in (source order, edge order), which is
    exactly the order the reference FIFO walk interns targets in, so the
    id space comes out identical.  Returns the configurations in id
    order and their index.
    """
    rank_to_id: dict[int, int] = {}
    rank_of_id: list[int] = []

    def intern(rank: int) -> int:
        state_id = rank_to_id.get(rank)
        if state_id is not None:
            return state_id
        if len(rank_of_id) >= max_configurations:
            raise StateSpaceError(
                f"exploration exceeded {max_configurations} configurations"
            )
        state_id = len(rank_of_id)
        rank_to_id[rank] = state_id
        rank_of_id.append(rank)
        return state_id

    def to_ids(targets: "np.ndarray | list[int]") -> list[int]:
        if isinstance(targets, np.ndarray):
            targets = targets.tolist()
        return [intern(rank) for rank in targets]

    encoding = context.tables.encoding
    for seed in seeds:
        intern(context.rank_of(encoding.encode(seed)))

    frontier_start = 0
    while frontier_start < len(rank_of_id):
        frontier = rank_of_id[frontier_start:]
        frontier_start = len(rank_of_id)
        for result in expand(frontier):
            _append_chunk(result, enabled_lists, edges, to_ids)
    configurations = context.configurations_of_ranks(rank_of_id)
    return configurations, dict(zip(configurations, rank_to_id.values()))
