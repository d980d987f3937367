"""Compiled exploration is bit-for-bit identical to the reference walk.

The contract (see ``docs/architecture.md``): on every path — compiled
in-process, sharded across workers, or the kernel-walk fallback —
``StateSpace.explore`` must produce the *same* canonical state space as
``use_kernel=False`` — configurations, interned ids, edge lists (order
included), enabled tuples — and therefore identical downstream verdicts,
on every topology family the registry uses (rings, trees/chains, stars)
and for deterministic as well as probabilistic systems.
"""

from __future__ import annotations

import pytest

from repro.algorithms.coloring import make_coloring_system
from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
    single_token_configuration,
    two_token_configuration,
)
from repro.algorithms.two_process import make_two_process_system
from repro.errors import ModelError, StateSpaceError
from repro.graphs.generators import figure3_chain, star
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SchedulerRelation,
    SynchronousRelation,
)
from repro.stabilization import (
    StateSpace,
    classify,
    convergence_profile,
    get_default_shards,
    resolve_shards,
    set_default_shards,
)
from repro.stabilization.sharding import MAX_SHARDABLE_PROCESSES
from repro.transformer.coin_toss import make_transformed_system


def assert_identical(space_a: StateSpace, space_b: StateSpace) -> None:
    """Full structural equality of two explored spaces."""
    assert space_a.configurations == space_b.configurations
    assert space_a.index == space_b.index
    assert space_a.edges == space_b.edges
    assert space_a.enabled == space_b.enabled


def explore_pair(system, relation, shards, **kwargs):
    oracle = StateSpace.explore(system, relation, use_kernel=False, **kwargs)
    sharded = StateSpace.explore(system, relation, shards=shards, **kwargs)
    return oracle, sharded


# ----------------------------------------------------------------------
# ring / tree / star topologies, all relations
# ----------------------------------------------------------------------
TOPOLOGY_CASES = [
    pytest.param(lambda: make_token_ring_system(5), id="ring5-token"),
    pytest.param(lambda: make_token_ring_system(6), id="ring6-token"),
    pytest.param(
        lambda: make_leader_tree_system(figure3_chain()), id="chain4-leader"
    ),
    pytest.param(lambda: make_leader_tree_system(star(3)), id="star3-leader"),
]

RELATIONS = [
    pytest.param(CentralRelation, id="central"),
    pytest.param(DistributedRelation, id="distributed"),
    pytest.param(SynchronousRelation, id="synchronous"),
]


@pytest.mark.parametrize("make_system", TOPOLOGY_CASES)
@pytest.mark.parametrize("make_relation", RELATIONS)
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_identical_across_topologies(
    make_system, make_relation, shards
):
    oracle, sharded = explore_pair(
        make_system(), make_relation(), shards=shards
    )
    assert_identical(oracle, sharded)


def test_sharded_identical_probabilistic_two_process():
    """Multi-outcome (probabilistic) actions take the scalar replay path."""
    system = make_two_process_system()
    for relation in (
        CentralRelation(),
        DistributedRelation(),
        SynchronousRelation(),
    ):
        oracle, sharded = explore_pair(system, relation, shards=3)
        assert_identical(oracle, sharded)


def test_sharded_identical_transformed_ring():
    """The coin-toss transformer mixes deterministic and coin actions."""
    system = make_transformed_system(make_token_ring_system(5))
    for relation in (CentralRelation(), SynchronousRelation()):
        oracle, sharded = explore_pair(system, relation, shards=4)
        assert_identical(oracle, sharded)


def test_sharded_identical_action_mode_first():
    oracle, sharded = explore_pair(
        make_two_process_system(),
        SynchronousRelation(),
        shards=2,
        action_mode="first",
    )
    assert_identical(oracle, sharded)


def test_sharded_rejects_unknown_action_mode():
    """Sharding must not relax the sequential path's validation."""
    from repro.errors import ModelError

    with pytest.raises(ModelError):
        StateSpace.explore(
            make_token_ring_system(5),
            CentralRelation(),
            action_mode="bogus",
            shards=2,
        )


# ----------------------------------------------------------------------
# reachable-fragment (explicit initial set) mode
# ----------------------------------------------------------------------
def test_sharded_identical_restricted_initial():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    oracle = StateSpace.explore(
        system, CentralRelation(), initial=seeds, use_kernel=False
    )
    sharded = StateSpace.explore(
        system, CentralRelation(), initial=seeds, shards=4
    )
    assert_identical(oracle, sharded)
    # The fragment really is a fragment (regression guard: the sharded
    # path must not silently explore the full space).
    assert oracle.num_configurations < system.num_configurations()


def test_sharded_restricted_worker_pool_path(monkeypatch):
    """Force the frontier-mode pool dispatch (levels > threshold).

    The default ``MIN_FRONTIER_FOR_WORKERS`` keeps small test frontiers
    in-process; shrinking it makes every BFS level round-trip through
    real worker processes, covering the chunking/pickling/merge path.
    """
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "MIN_FRONTIER_FOR_WORKERS", 2)
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    for relation in (CentralRelation(), DistributedRelation()):
        oracle = StateSpace.explore(
            system, relation, initial=seeds, use_kernel=False
        )
        sharded = StateSpace.explore(
            system, relation, initial=seeds, shards=3
        )
        assert_identical(oracle, sharded)
        assert sharded.path == "sharded"


def test_sharded_restricted_budget_enforced():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    with pytest.raises(StateSpaceError):
        StateSpace.explore(
            system,
            CentralRelation(),
            initial=seeds,
            max_configurations=10,
            shards=4,
        )


def test_sharded_full_budget_enforced():
    with pytest.raises(StateSpaceError):
        StateSpace.explore(
            make_token_ring_system(6),
            CentralRelation(),
            max_configurations=100,
            shards=4,
        )


# ----------------------------------------------------------------------
# downstream analyses see identical inputs → identical verdicts
# ----------------------------------------------------------------------
def test_sharded_identical_downstream_verdicts():
    cases = [
        (make_token_ring_system(6), TokenCirculationSpec(), CentralRelation()),
        (
            make_leader_tree_system(star(3)),
            TreeLeaderSpec(),
            DistributedRelation(),
        ),
        (
            make_leader_tree_system(figure3_chain()),
            TreeLeaderSpec(),
            SynchronousRelation(),
        ),
    ]
    for system, spec, relation in cases:
        oracle, sharded = explore_pair(system, relation, shards=4)
        mask_oracle = oracle.legitimate_mask(spec.legitimate)
        mask_sharded = sharded.legitimate_mask(spec.legitimate)
        assert mask_oracle == mask_sharded
        verdict_oracle = classify(system, spec, relation, space=oracle)
        verdict_sharded = classify(system, spec, relation, space=sharded)
        assert verdict_oracle == verdict_sharded
        assert convergence_profile(
            oracle, mask_oracle
        ) == convergence_profile(sharded, mask_sharded)


# ----------------------------------------------------------------------
# shard-count plumbing
# ----------------------------------------------------------------------
def test_resolve_shards_values():
    assert resolve_shards(1) == 1
    assert resolve_shards(7) == 7
    assert resolve_shards("auto") >= 1
    assert resolve_shards(None) == get_default_shards()
    with pytest.raises(StateSpaceError):
        resolve_shards(0)
    with pytest.raises(StateSpaceError):
        resolve_shards(-2)
    with pytest.raises(StateSpaceError):
        resolve_shards("many")


def test_default_shards_round_trip():
    original = get_default_shards()
    try:
        assert set_default_shards(3) == 3
        assert get_default_shards() == 3
        system = make_token_ring_system(5)
        implicit = StateSpace.explore(system, CentralRelation())
        explicit = StateSpace.explore(system, CentralRelation(), shards=1)
        assert_identical(implicit, explicit)
    finally:
        set_default_shards(original)


def test_shards_auto_explores():
    system = make_token_ring_system(5)
    oracle = StateSpace.explore(system, CentralRelation(), use_kernel=False)
    auto = StateSpace.explore(system, CentralRelation(), shards="auto")
    assert_identical(oracle, auto)


def test_use_kernel_false_still_oracle():
    """The reference-path escape hatch ignores sharding entirely."""
    system = make_token_ring_system(5)
    reference = StateSpace.explore(
        system, CentralRelation(), use_kernel=False, shards=4
    )
    assert reference.path == "reference"
    compiled = StateSpace.explore(system, CentralRelation(), shards=1)
    assert_identical(reference, compiled)


# ----------------------------------------------------------------------
# pool hardening: worker death, hangs, and the in-process fallback
# ----------------------------------------------------------------------
def _raise_in_worker(chunk):
    raise ValueError("injected worker failure")


def _hang_in_worker(chunk):
    import time

    time.sleep(60)


def _die_in_worker(chunk):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _make_supervised_pool(task, fallback):
    from repro.core.encoding import compile_tables
    from repro.core.kernel import TransitionKernel
    from repro.stabilization import sharding

    tables = compile_tables(TransitionKernel(make_token_ring_system(4)))
    return sharding._SupervisedPool(
        2, tables, CentralRelation(), "all", task, fallback
    )


def test_supervised_pool_retries_once_then_falls_back():
    calls: list[list] = []

    def fallback(chunks):
        calls.append(list(chunks))
        return ["fallback"] * len(chunks)

    pool = _make_supervised_pool(_raise_in_worker, fallback)
    try:
        with pytest.warns(RuntimeWarning) as record:
            assert pool.map([1, 2]) == ["fallback", "fallback"]
        messages = [str(warning.message) for warning in record]
        assert any("retrying the batch" in message for message in messages)
        assert any("falling back" in message for message in messages)
        assert pool.broken
        # Once written off, every later batch skips straight to the
        # in-process fallback — no fresh pools, no fresh warnings.
        assert pool.map([3]) == ["fallback"]
        assert calls == [[1, 2], [3]]
    finally:
        pool.close()


@pytest.mark.parametrize(
    "task", [_hang_in_worker, _die_in_worker], ids=["hung", "sigkilled"]
)
def test_supervised_pool_survives_lost_tasks(task, monkeypatch):
    """A killed or hung worker loses its task; the wall-clock budget on
    ``map_async(...).get`` turns that into a supervisable failure
    instead of the infinite wait a bare ``Pool.map`` would give."""
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "POOL_TASK_TIMEOUT", 0.2)
    pool = _make_supervised_pool(task, lambda chunks: list(chunks))
    try:
        with pytest.warns(RuntimeWarning) as record:
            assert pool.map([1, 2]) == [1, 2]
        assert any(
            "falling back" in str(warning.message) for warning in record
        )
        assert pool.broken
    finally:
        pool.close()


def test_exploration_result_survives_broken_pool(monkeypatch):
    """End to end: with the pool timing out every batch, sharded
    exploration degrades to in-process expansion and still produces the
    oracle's exact state space."""
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "POOL_TASK_TIMEOUT", 0.0001)
    system = make_token_ring_system(9)  # 512 configs: takes the pool path
    oracle = StateSpace.explore(system, CentralRelation(), use_kernel=False)
    with pytest.warns(RuntimeWarning) as record:
        survived = StateSpace.explore(system, CentralRelation(), shards=2)
    assert any(
        "falling back" in str(warning.message) for warning in record
    )
    assert_identical(oracle, survived)


# ----------------------------------------------------------------------
# the in-process default: which layer runs, and the path it reports
# ----------------------------------------------------------------------
class _ReversedDistributedRelation(SchedulerRelation):
    """Every non-empty subset, in reverse of the canonical order."""

    name = "reversed-distributed"

    def subsets(self, enabled):
        yield from reversed(list(DistributedRelation().subsets(enabled)))


@pytest.fixture
def layer_calls(monkeypatch):
    """Count the compiled expander's calls into the deterministic-block
    layer (``deterministic``) and into any block (``blocks``)."""
    from repro.stabilization import sharding

    calls = {"deterministic": 0, "blocks": 0}

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        sharding,
        "_deterministic_edges",
        spy("deterministic", sharding._deterministic_edges),
    )
    monkeypatch.setattr(
        sharding, "_expand_block", spy("blocks", sharding._expand_block)
    )
    return calls


def assert_matches_reference(system, relation, **kwargs):
    """Default exploration against ``use_kernel=False``; returns the
    default-path space."""
    reference = StateSpace.explore(
        system, relation, use_kernel=False, **kwargs
    )
    space = StateSpace.explore(system, relation, **kwargs)
    assert_identical(reference, space)
    return space


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "initial"])
def test_vector_layer_follows_relation_order(layer_calls, restricted):
    """A relation with a non-canonical subset order still takes the
    deterministic-block layer, and edges come out in its order."""
    system = make_token_ring_system(6)
    kwargs = (
        {"initial": [next(system.all_configurations())]} if restricted else {}
    )
    space = assert_matches_reference(
        system, _ReversedDistributedRelation(), **kwargs
    )
    assert space.path == "compiled"
    assert layer_calls["deterministic"] == layer_calls["blocks"] > 0
    multi = next(edges for edges in space.edges if len(edges) > 1)
    masks = [mask for mask, _ in multi]
    assert masks == sorted(masks, reverse=True)


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "initial"])
@pytest.mark.parametrize(
    "make_relation",
    [CentralRelation, DistributedRelation, _ReversedDistributedRelation],
)
def test_probabilistic_blocks_take_scalar_replay(
    layer_calls, make_relation, restricted
):
    system = make_transformed_system(make_token_ring_system(4))
    kwargs = (
        {"initial": [next(system.all_configurations())]} if restricted else {}
    )
    space = assert_matches_reference(system, make_relation(), **kwargs)
    assert space.path == "compiled"
    assert layer_calls["blocks"] > 0
    assert layer_calls["deterministic"] == 0


def test_over_budget_tables_take_the_walk_restricted():
    """The hub's neighborhood (17^5 colorings) exceeds the table budget."""
    system = make_coloring_system(star(4), palette_size=17)
    seeds = [next(system.all_configurations())]
    for relation in (CentralRelation(), DistributedRelation()):
        space = assert_matches_reference(system, relation, initial=seeds)
        assert space.path == "walk:over-budget"


def test_over_budget_tables_take_the_walk_full(monkeypatch):
    """Full spaces past the table budget are too large for a unit test;
    refusing compilation exercises the same fallback."""
    from repro.stabilization import statespace

    def refuse(kernel):
        raise ModelError("neighborhood space over budget (forced)")

    monkeypatch.setattr(statespace, "compile_tables", refuse)
    space = assert_matches_reference(
        make_token_ring_system(5), DistributedRelation()
    )
    assert space.path == "walk:over-budget"


def test_more_than_62_processes_take_the_walk():
    """Activation masks no longer fit an int64: restricted-only, as the
    full space of 64 processes is astronomically large."""
    system = make_token_ring_system(64)
    assert system.num_processes > MAX_SHARDABLE_PROCESSES
    for relation, seed in (
        (CentralRelation(), single_token_configuration(system, 0)),
        (DistributedRelation(), two_token_configuration(system, 0, 3)),
    ):
        space = assert_matches_reference(system, relation, initial=[seed])
        assert space.path == "walk:processes"


def test_path_reports_every_value():
    ring = make_token_ring_system(9)  # 512 configs: pools when sharded
    coloring = make_coloring_system(star(4), palette_size=17)
    ring64 = make_token_ring_system(64)
    central = CentralRelation()
    spaces = {
        "compiled": StateSpace.explore(ring, central),
        "sharded": StateSpace.explore(ring, central, shards=2),
        "reference": StateSpace.explore(ring, central, use_kernel=False),
        "walk:over-budget": StateSpace.explore(
            coloring, central, initial=[next(coloring.all_configurations())]
        ),
        "walk:processes": StateSpace.explore(
            ring64, central, initial=[single_token_configuration(ring64)]
        ),
    }
    for path, space in spaces.items():
        assert space.path == path
    with pytest.raises(AttributeError):
        spaces["compiled"].path = "reference"


class _RepeatingRelation(SchedulerRelation):
    """Central subsets, each yielded twice (the second a duplicate)."""

    name = "repeating"

    def subsets(self, enabled):
        for process in enabled:
            yield (process,)
            yield (process,)


class _DisabledRelation(SchedulerRelation):
    """Always activates process 0, enabled or not."""

    name = "disabled"

    def subsets(self, enabled):
        yield (0,)


@pytest.mark.parametrize(
    "system",
    [make_token_ring_system(5), make_two_process_system()],
    ids=["deterministic", "probabilistic"],
)
def test_repeated_subsets_dedup_like_the_reference(system):
    assert_matches_reference(system, _RepeatingRelation())


def test_disabled_mover_is_rejected_like_the_reference():
    from repro.errors import SchedulerError

    system = make_token_ring_system(5)
    for use_kernel in (False, True):
        with pytest.raises(SchedulerError):
            StateSpace.explore(
                system, _DisabledRelation(), use_kernel=use_kernel
            )


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "initial"])
def test_large_levels_split_into_blocks(monkeypatch, restricted):
    """Block splitting (bounded scratch memory) is invisible in the
    result."""
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "MAX_BLOCK", 7)
    system = make_token_ring_system(5)
    kwargs = (
        {"initial": [next(system.all_configurations())]} if restricted else {}
    )
    for relation in (DistributedRelation(), SynchronousRelation()):
        assert_matches_reference(system, relation, **kwargs)
