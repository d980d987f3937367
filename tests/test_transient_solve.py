"""The one transient solver: both sides of the dense/sparse cut.

Every hitting-time solve — :func:`~repro.markov.hitting.hitting_summary`
on a concrete chain and :meth:`ParametricChain.expected_times` per
parameter point — runs one :class:`~repro.markov.hitting.TransientPlan`.
The plan factors ``I - Q`` densely (LAPACK) when at least 1/20 of the
block is non-zero and with natural-order SuperLU below.  These tests pin
its answers against a dense ``np.linalg.solve`` of ``I - Q`` on chains
from each side of that cut, its ``kind`` reason code on both holders,
and the chain's one-factorization-per-solve-set cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.herman_ring import HermanSingleTokenSpec
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_speed_reducer_system,
)
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.markov import hitting
from repro.markov.builder import build_chain
from repro.markov.hitting import (
    TransientPlan,
    expected_hitting_times,
    hitting_summary,
)
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import (
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)

#: name → (system builder, distribution, legitimacy, expected plan kind).
CASES = {
    # 494 transient states, 7.8 % of the block non-zero.
    "random-bit-ring9-synchronous": (
        lambda: make_herman_random_bit_system(9),
        SynchronousDistribution,
        HermanSingleTokenSpec().legitimate,
        "dense",
    ),
    # 704 transient states, 1.1 % non-zero.
    "speed-reducer-ring5-synchronous": (
        lambda: make_herman_speed_reducer_system(5),
        SynchronousDistribution,
        HermanSingleTokenSpec().legitimate,
        "sparse",
    ),
    # 4072 transient states, 0.7 % non-zero.
    "token-ring6-distributed": (
        lambda: make_token_ring_system(6),
        DistributedRandomizedDistribution,
        TokenCirculationSpec().legitimate,
        "sparse",
    ),
}

#: The coin-parametric (Herman) cases, one per side of the cut.
PARAMETRIC_CASES = [
    "random-bit-ring9-synchronous",
    "speed-reducer-ring5-synchronous",
]


def _chain_and_target(name):
    build, distribution, legitimate, _ = CASES[name]
    chain = build_chain(build(), distribution())
    return chain, chain.mark(legitimate)


def _dense_reference(chain, target):
    """Expected times from one dense ``np.linalg.solve`` of ``I - Q``."""
    transient = np.flatnonzero(~target)
    m = len(transient)
    q = chain.sparse_matrix()[transient][:, transient]
    identity_minus_q = -q.toarray()
    identity_minus_q[np.arange(m), np.arange(m)] += 1.0
    reference = np.zeros(chain.num_states)
    reference[transient] = np.linalg.solve(identity_minus_q, np.ones(m))
    return reference


@pytest.mark.parametrize("name", sorted(CASES))
def test_expected_times_match_dense_solve(name):
    chain, target = _chain_and_target(name)
    times = expected_hitting_times(chain, target)
    np.testing.assert_allclose(
        times, _dense_reference(chain, target), rtol=1e-12, atol=0.0
    )
    assert chain._transient_lu[1].kind == CASES[name][3]


@pytest.mark.parametrize("name", sorted(CASES))
def test_hitting_summary_factors_once(name, monkeypatch):
    chain, target = _chain_and_target(name)
    factored = []
    original = TransientPlan.factor

    def counting_factor(plan, data):
        factored.append(plan.kind)
        return original(plan, data)

    monkeypatch.setattr(TransientPlan, "factor", counting_factor)
    summary = hitting_summary(chain, target)
    assert summary.converges_with_probability_one
    # Absorption and expected times share the solve set: one plan, one
    # factorization, two back-substitutions.
    assert factored == [CASES[name][3]]


@pytest.mark.parametrize("name", PARAMETRIC_CASES)
def test_parametric_plan_matches_chain_plan(name):
    build, distribution, legitimate, kind = CASES[name]
    pchain = ParametricChain(build(), distribution())
    target = pchain.mark(legitimate)
    plan = pchain._solver(target)
    assert plan.kind == kind
    assert pchain._solver(target) is plan  # one plan per target
    chain = pchain.instantiate(None)
    reference = expected_hitting_times(chain, target)
    assert np.array_equal(pchain.expected_times(None, target), reference)
    assert chain._transient_lu[1].kind == kind


def test_chain_cache_refactors_for_a_new_solve_set():
    chain, target = _chain_and_target("random-bit-ring9-synchronous")
    solve_ids = np.flatnonzero(~target)
    partial = solve_ids[: len(solve_ids) // 2]
    hitting._transient_solve(chain, partial, np.ones(len(partial)))
    assert np.array_equal(chain._transient_lu[1].solve_ids, partial)
    times = expected_hitting_times(chain, target)
    assert np.array_equal(chain._transient_lu[1].solve_ids, solve_ids)
    np.testing.assert_allclose(
        times, _dense_reference(chain, target), rtol=1e-12, atol=0.0
    )
