"""Execution engine: drive a system with a scheduler sampler.

The simulator repeatedly asks a *sampler* (see
:mod:`repro.schedulers.samplers`) for a non-empty subset of the enabled
processes, performs the atomic step (sampling action outcomes through the
given :class:`~repro.random_source.RandomSource`), and records a
:class:`~repro.core.trace.Trace`.

By default each run drives a :class:`~repro.core.kernel.TransitionKernel`
wrapped around the system, so guards and outcome statements execute once
per distinct local neighborhood instead of once per step; pass an existing
``kernel`` to share its memo tables across many runs (Monte-Carlo sweeps),
or ``use_kernel=False`` to execute through the reference
:class:`~repro.core.system.System` semantics directly.  Both paths consume
identical random streams, so traces are bit-for-bit reproducible across
them.  ``record=False`` switches the trace to compact mode (O(1) memory;
only the initial/final configurations and the step count survive).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.configuration import Configuration
from repro.core.kernel import (
    Engine,
    KernelCursor,
    TransitionKernel,
    resolve_engine,
)
from repro.core.system import System
from repro.core.trace import Step, Trace
from repro.errors import SchedulerError
from repro.random_source import RandomSource

__all__ = ["SchedulerSampler", "run", "run_until", "SimulationResult"]


class SchedulerSampler(Protocol):
    """Strategy choosing which enabled processes move in each step.

    ``system`` may be the :class:`System` itself or a
    :class:`~repro.core.kernel.TransitionKernel` proxying it — samplers
    that query enabledness get the memoized fast path automatically.
    """

    def choose(
        self,
        system: Engine,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        """Return a non-empty subset of ``enabled``."""
        ...  # pragma: no cover - protocol


class SimulationResult:
    """Outcome of :func:`run_until`: the trace plus why it stopped."""

    __slots__ = ("trace", "converged", "hit_terminal", "steps_taken")

    def __init__(
        self,
        trace: Trace,
        converged: bool,
        hit_terminal: bool,
    ) -> None:
        self.trace = trace
        self.converged = converged
        self.hit_terminal = hit_terminal
        self.steps_taken = trace.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(steps={self.steps_taken},"
            f" converged={self.converged}, terminal={self.hit_terminal})"
        )


class _SystemCursor:
    """Reference-semantics twin of :class:`KernelCursor` (full rescans)."""

    __slots__ = ("_system", "configuration", "enabled")

    def __init__(self, system: System, configuration: Configuration) -> None:
        self._system = system
        self.configuration = configuration
        self.enabled = system.enabled_processes(configuration)

    def advance(self, subset: Sequence[int], rng: RandomSource):
        self.configuration, moves = self._system.sample_step(
            self.configuration, subset, rng
        )
        self.enabled = self._system.enabled_processes(self.configuration)
        return moves


def _cursor(engine: Engine, initial: Configuration):
    if isinstance(engine, TransitionKernel):
        return KernelCursor(engine, initial)
    return _SystemCursor(engine, initial)


def run(
    system: System,
    sampler: SchedulerSampler,
    initial: Configuration,
    max_steps: int,
    rng: RandomSource,
    kernel: TransitionKernel | None = None,
    use_kernel: bool = True,
    record: bool = True,
) -> Trace:
    """Execute up to ``max_steps`` steps (stops early at terminal configs)."""
    engine = resolve_engine(system, kernel, use_kernel)
    trace = Trace.starting_at(initial, keep_configurations=record)
    cursor = _cursor(engine, initial)
    for _ in range(max_steps):
        enabled = cursor.enabled
        if not enabled:
            break
        subset = list(
            sampler.choose(engine, cursor.configuration, enabled, rng)
        )
        _validate_subset(subset, enabled)
        moves = cursor.advance(subset, rng)
        trace.append(Step(moves) if record else None, cursor.configuration)
    return trace


def run_until(
    system: System,
    sampler: SchedulerSampler,
    initial: Configuration,
    stop: Callable[[Configuration], bool],
    max_steps: int,
    rng: RandomSource,
    kernel: TransitionKernel | None = None,
    use_kernel: bool = True,
    record: bool = True,
) -> SimulationResult:
    """Execute until ``stop(configuration)`` holds or budgets run out.

    The predicate is also checked on the initial configuration, matching
    the convention that stabilization time from a legitimate configuration
    is zero.  ``hit_terminal`` reports a stop in an illegitimate terminal
    configuration, also when it is reached on the last budgeted step (or
    is the initial configuration of a zero budget).
    """
    engine = resolve_engine(system, kernel, use_kernel)
    trace = Trace.starting_at(initial, keep_configurations=record)
    if stop(initial):
        return SimulationResult(trace, converged=True, hit_terminal=False)
    cursor = _cursor(engine, initial)
    for _ in range(max_steps):
        enabled = cursor.enabled
        if not enabled:
            return SimulationResult(
                trace,
                converged=stop(cursor.configuration),
                hit_terminal=True,
            )
        subset = list(
            sampler.choose(engine, cursor.configuration, enabled, rng)
        )
        _validate_subset(subset, enabled)
        moves = cursor.advance(subset, rng)
        trace.append(Step(moves) if record else None, cursor.configuration)
        if stop(cursor.configuration):
            return SimulationResult(trace, converged=True, hit_terminal=False)
    # Out of budget: a terminal final configuration still counts as
    # terminal, as in the lockstep engines (terminal before budget).
    return SimulationResult(
        trace, converged=False, hit_terminal=not cursor.enabled
    )


def _validate_subset(subset: Sequence[int], enabled: Sequence[int]) -> None:
    if not subset:
        raise SchedulerError("sampler returned an empty subset")
    enabled_set = set(enabled)
    offenders = [p for p in subset if p not in enabled_set]
    if offenders:
        raise SchedulerError(
            f"sampler chose disabled processes {offenders}"
        )
    if len(set(subset)) != len(subset):
        raise SchedulerError("sampler returned duplicate processes")
