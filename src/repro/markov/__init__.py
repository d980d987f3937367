"""Markov-chain analysis: exact hitting times and Monte-Carlo estimation
(per-trial scalar engine and vectorized lockstep batch engine)."""

from repro.markov.batch import (
    BatchEngine,
    BatchLegitimacy,
    DecodingLegitimacy,
    EnabledCountLegitimacy,
    batch_strategy_for,
    register_batch_sampler,
)
from repro.markov.builder import CHAIN_ENGINES, build_chain
from repro.markov.chain import MarkovChain, ROW_SUM_TOLERANCE
from repro.markov.hitting import (
    ABSORPTION_TOLERANCE,
    HittingSummary,
    absorption_probabilities,
    expected_hitting_times,
    hitting_summary,
)
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.parametric import (
    ParametricChain,
    build_parametric_chain,
)
from repro.markov.mdp import (
    MDP_DAEMONS,
    MarkovDecisionProcess,
    build_mdp,
)
from repro.markov.montecarlo import (
    MonteCarloResult,
    MonteCarloRunner,
    estimate_stabilization_time,
    random_configuration,
    random_configurations,
)
from repro.markov.sweep_engine import (
    SWEEP_ENGINES,
    PointExecution,
    SweepPointSpec,
    SweepRunner,
)

__all__ = [
    "build_chain",
    "CHAIN_ENGINES",
    "ParametricChain",
    "build_parametric_chain",
    "MarkovChain",
    "ROW_SUM_TOLERANCE",
    "absorption_probabilities",
    "expected_hitting_times",
    "hitting_summary",
    "HittingSummary",
    "ABSORPTION_TOLERANCE",
    "lumped_synchronous_transformed_chain",
    "MDP_DAEMONS",
    "MarkovDecisionProcess",
    "build_mdp",
    "MonteCarloResult",
    "MonteCarloRunner",
    "estimate_stabilization_time",
    "random_configuration",
    "random_configurations",
    "BatchEngine",
    "BatchLegitimacy",
    "EnabledCountLegitimacy",
    "DecodingLegitimacy",
    "batch_strategy_for",
    "register_batch_sampler",
    "SWEEP_ENGINES",
    "SweepPointSpec",
    "SweepRunner",
    "PointExecution",
]
