"""Micro-benchmarks of the parametric-chain sweep tier.

The point of :class:`~repro.markov.parametric.ParametricChain` is that a
bias sweep re-instantiates only the CSR ``data`` vector and reuses the
per-target :class:`~repro.markov.hitting.TransientPlan` (backward
closure, ``Q`` scatter plan, natural-order ``I − Q`` assembly), instead
of rebuilding the chain and the plan at every grid point; each point
still pays one numeric factorization.  Two blocks, one per side of the
plan's dense/sparse cut:

* Herman random-bit ring 7 (128 states, synchronous; dense kind) on a
  64-point bias grid, against rebuilding the compiled chain per point —
  the speedup the optimizer's refinement loop rides on (bar ≥ 5×,
  measured ≈ 30×);
* Herman speed-reducer ring 5 (704 transient states, 1.1 % of the block
  non-zero; sparse kind) on a 64-point ``(p, q)`` grid — the OPT1 block
  the natural-order SuperLU path serves.
"""

import numpy as np

from repro.algorithms.herman_ring import HermanSingleTokenSpec
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_speed_reducer_system,
)
from repro.markov.builder import build_chain
from repro.markov.hitting import expected_hitting_times
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import SynchronousDistribution

RING_SIZE = 7
GRID = tuple(np.linspace(0.05, 0.95, 64))
#: 8 × 8 ``(p, q)`` grid for the two-coin speed reducer.
REDUCER_GRID = tuple(
    {"p": float(p), "q": float(q)}
    for p in np.linspace(0.1, 0.9, 8)
    for q in np.linspace(0.1, 0.9, 8)
)


def _target(pchain):
    return pchain.mark(HermanSingleTokenSpec().legitimate)


def test_parametric_sweep_reinstantiate(benchmark):
    """64-point bias sweep through one ParametricChain: structure and
    transient plan built once, per point only ``data`` + factor + solve."""
    pchain = ParametricChain(
        make_herman_random_bit_system(RING_SIZE), SynchronousDistribution()
    )
    target = _target(pchain)

    def sweep():
        return pchain.hitting_sweep(
            [{"p": value} for value in GRID], target, objective="mean"
        )

    values = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(values) == len(GRID)
    assert all(value > 0.0 for value in values)


def test_parametric_sweep_rebuild_per_point(benchmark):
    """The same 64-point sweep rebuilding the compiled chain and solving
    from scratch at every grid point (the pre-parametric baseline)."""
    pchain = ParametricChain(
        make_herman_random_bit_system(RING_SIZE), SynchronousDistribution()
    )
    target = _target(pchain)

    def sweep():
        values = []
        for value in GRID:
            chain = build_chain(
                make_herman_random_bit_system(RING_SIZE, bias=value),
                SynchronousDistribution(),
                engine="compiled",
            )
            times = expected_hitting_times(chain, target)
            values.append(float(times[~target].mean()))
        return values

    values = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(values) == len(GRID)
    assert all(value > 0.0 for value in values)


def test_parametric_sweep_speed_reducer_ring5(benchmark):
    """64-point ``(p, q)`` sweep over the 704-state sparse-kind block."""
    pchain = ParametricChain(
        make_herman_speed_reducer_system(5), SynchronousDistribution()
    )
    target = _target(pchain)
    assert pchain._solver(target).kind == "sparse"
    assert pchain._solver(target).solve_ids.shape == (704,)

    def sweep():
        return pchain.hitting_sweep(
            list(REDUCER_GRID), target, objective="mean"
        )

    values = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(values) == len(REDUCER_GRID)
    assert all(value > 0.0 for value in values)
