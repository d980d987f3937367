"""Unit tests for traces, lassos, and the simulator."""

import pytest

from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.core.simulate import run, run_until
from repro.core.system import Move
from repro.core.trace import Lasso, Step, Trace, lasso_from_trace
from repro.errors import ModelError, SchedulerError
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    DistributedRandomizedSampler,
    ScriptedSampler,
    SynchronousSampler,
)


def _step(*processes):
    return Step(tuple(Move(p, "A", 0) for p in processes))


class TestTrace:
    def test_starting_at(self):
        trace = Trace.starting_at(((0,),))
        assert trace.initial == ((0,),)
        assert trace.final == ((0,),)
        assert trace.length == 0

    def test_append(self):
        trace = Trace.starting_at(((0,),))
        trace.append(_step(0), ((1,),))
        assert trace.final == ((1,),)
        assert trace.length == 1
        assert trace.acting_sets() == [frozenset({0})]

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            Trace(configurations=[((0,),), ((1,),)], steps=[])

    def test_empty_trace_errors(self):
        trace = Trace()
        with pytest.raises(ModelError):
            _ = trace.initial
        with pytest.raises(ModelError):
            _ = trace.final
        with pytest.raises(ModelError):
            trace.append(_step(0), ((1,),))

    def test_visits_and_first_index(self):
        trace = Trace.starting_at(((0,),))
        trace.append(_step(0), ((1,),))
        assert trace.visits(((1,),))
        assert not trace.visits(((2,),))
        assert trace.first_index_where(lambda c: c == ((1,),)) == 1
        assert trace.first_index_where(lambda c: c == ((9,),)) is None

    def test_iteration_and_len(self):
        trace = Trace.starting_at(((0,),))
        trace.append(_step(0), ((1,),))
        assert list(trace) == [((0,),), ((1,),)]
        assert len(trace) == 2


class TestLasso:
    def _make(self):
        # prefix: a -> b ; cycle: b -> c -> b
        return Lasso(
            prefix_configurations=(((0,),), ((1,),)),
            prefix_steps=(_step(0),),
            cycle_configurations=(((2,),), ((1,),)),
            cycle_steps=(_step(0), _step(0)),
        )

    def test_entry_and_ring(self):
        lasso = self._make()
        assert lasso.entry == ((1,),)
        assert lasso.cycle_ring() == [((1,),), ((2,),)]
        assert lasso.cycle_length == 2

    def test_unroll(self):
        lasso = self._make()
        trace = lasso.unroll(2)
        assert trace.length == 1 + 4
        assert trace.final == ((1,),)

    def test_unroll_zero(self):
        assert self._make().unroll(0).final == ((1,),)

    def test_unroll_negative(self):
        with pytest.raises(ModelError):
            self._make().unroll(-1)

    def test_infinitely_often(self):
        assert self._make().configurations_seen_infinitely_often() == {
            ((1,),),
            ((2,),),
        }

    def test_cycle_must_loop_back(self):
        with pytest.raises(ModelError):
            Lasso(
                prefix_configurations=(((0,),),),
                prefix_steps=(),
                cycle_configurations=(((1,),),),
                cycle_steps=(_step(0),),
            )

    def test_lasso_from_trace(self):
        trace = Trace.starting_at(((0,),))
        trace.append(_step(0), ((1,),))
        trace.append(_step(0), ((2,),))
        trace.append(_step(0), ((1,),))
        lasso = lasso_from_trace(trace, 1)
        assert lasso.entry == ((1,),)
        assert lasso.cycle_length == 2

    def test_lasso_from_trace_validates(self):
        trace = Trace.starting_at(((0,),))
        trace.append(_step(0), ((1,),))
        with pytest.raises(ModelError):
            lasso_from_trace(trace, 0)


class TestRun:
    def test_run_stops_at_terminal(self, two_process_system):
        trace = run(
            two_process_system,
            SynchronousSampler(),
            ((False,), (False,)),
            max_steps=10,
            rng=RandomSource(0),
        )
        assert trace.final == ((True,), (True,))
        assert trace.length == 1

    def test_run_respects_budget(self, two_process_system):
        # (true,false) -> (false,false) -> ... never terminal under a
        # central scripted scheduler bouncing process 0.
        sampler = ScriptedSampler([(0,), (0,)])
        trace = run(
            two_process_system,
            sampler,
            ((True,), (False,)),
            max_steps=2,
            rng=RandomSource(0),
        )
        assert trace.length == 2

    def test_run_until_converges(self, two_process_system):
        spec = BothTrueSpec()
        result = run_until(
            two_process_system,
            DistributedRandomizedSampler(),
            ((False,), (True,)),
            stop=lambda c: spec.legitimate(two_process_system, c),
            max_steps=500,
            rng=RandomSource(5),
        )
        assert result.converged

    def test_run_until_initial_already_legit(self, two_process_system):
        spec = BothTrueSpec()
        result = run_until(
            two_process_system,
            SynchronousSampler(),
            ((True,), (True,)),
            stop=lambda c: spec.legitimate(two_process_system, c),
            max_steps=5,
            rng=RandomSource(0),
        )
        assert result.converged
        assert result.steps_taken == 0

    def test_run_until_budget_exhausted(self, two_process_system):
        sampler = ScriptedSampler([(0,)] * 3)
        result = run_until(
            two_process_system,
            sampler,
            ((True,), (False,)),
            stop=lambda c: False,
            max_steps=3,
            rng=RandomSource(0),
        )
        assert not result.converged
        assert not result.hit_terminal

    @pytest.mark.parametrize(
        "initial,max_steps",
        [
            (((True,), (True,)), 0),  # terminal start, zero budget
            (((False,), (False,)), 1),  # terminal on the last step
        ],
    )
    def test_run_until_terminal_wins_over_budget(
        self, two_process_system, initial, max_steps
    ):
        """Stopping in an illegitimate terminal configuration is
        terminal, even when the budget ends on that very step."""
        result = run_until(
            two_process_system,
            SynchronousSampler(),
            initial,
            stop=lambda c: False,
            max_steps=max_steps,
            rng=RandomSource(0),
        )
        assert not result.converged
        assert result.hit_terminal

    def test_bad_sampler_empty_subset(self, two_process_system):
        class Empty:
            def choose(self, system, configuration, enabled, rng):
                return []

        with pytest.raises(SchedulerError):
            run(
                two_process_system,
                Empty(),
                ((False,), (False,)),
                max_steps=1,
                rng=RandomSource(0),
            )

    def test_bad_sampler_disabled_process(self, two_process_system):
        class Bad:
            def choose(self, system, configuration, enabled, rng):
                return [0, 1]

        with pytest.raises(SchedulerError):
            run(
                two_process_system,
                Bad(),
                ((True,), (False,)),
                max_steps=1,
                rng=RandomSource(0),
            )

    def test_bad_sampler_duplicates(self, two_process_system):
        class Dup:
            def choose(self, system, configuration, enabled, rng):
                return [0, 0]

        with pytest.raises(SchedulerError):
            run(
                two_process_system,
                Dup(),
                ((False,), (False,)),
                max_steps=1,
                rng=RandomSource(0),
            )
