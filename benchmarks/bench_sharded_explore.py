"""Exhaustive state-space exploration benchmarks.

Two points, both Algorithm 1 on an oriented ring:

* ring-10 under the central daemon (59049 configurations, 393660
  edges), explored in-process (the compiled default) and sharded, so
  ``BENCH_kernel.json`` records the shard-scaling trajectory next to the
  other hot paths;
* ring-8 under the distributed daemon (6561 configurations, 384063
  edges — up to 2^|Enabled| − 1 activation subsets per configuration),
  the compiled default timed against the reference walk
  (``use_kernel=False``).

Every compiled result is asserted bit-for-bit equal to the reference
walk — a benchmark that drifted semantically would be worthless.
"""

import pytest

from repro.algorithms.token_ring import make_token_ring_system
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.statespace import StateSpace

RING_SIZE = 10
EXPECTED_CONFIGURATIONS = 59049
EXPECTED_EDGES = 393660

DISTRIBUTED_RING_SIZE = 8
DISTRIBUTED_CONFIGURATIONS = 6561
DISTRIBUTED_EDGES = 384063


def _explore(system, shards):
    return StateSpace.explore(system, CentralRelation(), shards=shards)


def _assert_identical(space, reference):
    assert space.configurations == reference.configurations
    assert space.index == reference.index
    assert space.edges == reference.edges
    assert space.enabled == reference.enabled


def test_explore_ring10_shards1(benchmark):
    """Compiled in-process: the baseline the shard speedup divides by."""
    system = make_token_ring_system(RING_SIZE)
    space = benchmark.pedantic(
        lambda: _explore(system, 1), rounds=3, iterations=1
    )
    assert space.path == "compiled"
    assert space.num_configurations == EXPECTED_CONFIGURATIONS
    assert space.num_edges == EXPECTED_EDGES


def test_explore_ring10_shards2(benchmark):
    system = make_token_ring_system(RING_SIZE)
    space = benchmark.pedantic(
        lambda: _explore(system, 2), rounds=3, iterations=1
    )
    assert space.num_configurations == EXPECTED_CONFIGURATIONS
    assert space.num_edges == EXPECTED_EDGES


def test_explore_ring10_shards4(benchmark):
    system = make_token_ring_system(RING_SIZE)
    space = benchmark.pedantic(
        lambda: _explore(system, 4), rounds=3, iterations=1
    )
    assert space.num_configurations == EXPECTED_CONFIGURATIONS
    assert space.num_edges == EXPECTED_EDGES


def test_explore_ring10_sharded_equals_oracle():
    """Not a timing: the equivalence guarantee on the benchmark point."""
    system = make_token_ring_system(RING_SIZE)
    reference = StateSpace.explore(
        system, CentralRelation(), use_kernel=False
    )
    for shards in (1, 4):
        _assert_identical(_explore(system, shards), reference)


@pytest.fixture(scope="module")
def distributed_ring():
    system = make_token_ring_system(DISTRIBUTED_RING_SIZE)
    reference = StateSpace.explore(
        system, DistributedRelation(), use_kernel=False
    )
    assert reference.num_configurations == DISTRIBUTED_CONFIGURATIONS
    assert reference.num_edges == DISTRIBUTED_EDGES
    return system, reference


def test_explore_ring8_distributed_default(benchmark, distributed_ring):
    system, reference = distributed_ring
    space = benchmark.pedantic(
        lambda: StateSpace.explore(system, DistributedRelation()),
        rounds=3,
        iterations=1,
    )
    assert space.path == "compiled"
    _assert_identical(space, reference)


def test_explore_ring8_distributed_reference(benchmark, distributed_ring):
    """The reference walk the compiled default is measured against."""
    system, reference = distributed_ring
    space = benchmark.pedantic(
        lambda: StateSpace.explore(
            system, DistributedRelation(), use_kernel=False
        ),
        rounds=1,
        iterations=1,
    )
    _assert_identical(space, reference)
