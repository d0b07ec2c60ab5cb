"""Unit + property tests for the DES kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimError,
    Simulator,
    Timeout,
)


class TestTimeAdvance:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_single_timeout(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(2.5)

        sim.process(proc(sim))
        assert sim.run() == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        times = []

        def proc(sim):
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(0.5)
            times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [1.0, 1.5]

    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(10.0)

        sim.process(proc(sim))
        assert sim.run(until=4.0) == 4.0
        assert sim.peek() == 10.0

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=20))
    def test_time_never_decreases(self, delays):
        sim = Simulator()
        seen = []

        def proc(sim, d):
            yield sim.timeout(d)
            seen.append(sim.now)

        for d in delays:
            sim.process(proc(sim, d))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)


class TestFifoOrdering:
    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in range(10):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == list(range(10))


class TestRankedBatches:
    def _queue(self, sim, order, when, rank, tag):
        ev = sim.event()
        ev.callbacks.append(lambda e: order.append((sim.now, tag, e.value)))
        sim.fire_at(ev, when, rank, value=tag)
        return ev

    def test_one_instant_fires_in_rank_order_however_late_joined(self):
        sim = Simulator()
        order = []
        self._queue(sim, order, 2.0, 5, "late-rank")
        sim.timeout(2.0).callbacks.append(lambda e: order.append((sim.now, "timeout", None)))
        self._queue(sim, order, 2.0, 1, "early-rank")
        self._queue(sim, order, 2.0, 3, "mid-rank")
        sim.run()
        # One heap entry, opened by the first request: all three fire
        # before the timeout scheduled between them, in rank order.
        assert [tag for _, tag, _ in order] == [
            "early-rank",
            "mid-rank",
            "late-rank",
            "timeout",
        ]
        assert all(t == 2.0 for t, _, _ in order)
        assert sim.events_dispatched == 2

    def test_request_while_firing_opens_a_new_batch(self):
        sim = Simulator()
        order = []

        def join(_ev):
            order.append("first")
            self._queue(sim, order, sim.now, 0, "joined-during-fire")

        ev = sim.event()
        ev.callbacks.append(join)
        sim.fire_at(ev, 1.0, 9)
        self._queue(sim, order, 1.0, 10, "second")
        sim.run()
        assert [o if isinstance(o, str) else o[1] for o in order] == [
            "first",
            "second",
            "joined-during-fire",
        ]

    def test_resumes_a_waiting_process_with_the_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def proc():
            got.append((yield ev))
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        sim.fire_at(ev, 4.5, 0, value="go")
        sim.run()
        assert got == ["go", 4.5]

    def test_rejects_past_non_finite_and_double_triggers(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.fire_at(sim.event(), 0.5, 0)
        with pytest.raises(ValueError):
            sim.fire_at(sim.event(), float("nan"), 0)
        with pytest.raises(ValueError):
            sim.fire_at(sim.event(), float("inf"), 0)
        ev = sim.event()
        sim.fire_at(ev, 2.0, 0)
        with pytest.raises(SimError):
            sim.fire_at(ev, 3.0, 0)


class TestEvents:
    def test_manual_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter(sim):
            got.append((yield ev))

        def firer(sim):
            yield sim.timeout(3.0)
            ev.succeed("payload")

        sim.process(waiter(sim))
        sim.process(firer(sim))
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimError):
            _ = sim.event().value

    def test_fail_propagates_into_waiter(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def waiter(sim):
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def firer(sim):
            yield sim.timeout(1.0)
            ev.fail(ValueError("boom"))

        sim.process(waiter(sim))
        sim.process(firer(sim))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_raises_at_run(self):
        sim = Simulator()
        ev = sim.event()

        def firer(sim):
            yield sim.timeout(1.0)
            ev.fail(RuntimeError("lost failure"))

        sim.process(firer(sim))
        with pytest.raises(RuntimeError, match="lost failure"):
            sim.run()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_yield_already_processed_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(41)
        got = []

        def late(sim):
            yield sim.timeout(5.0)
            got.append((yield ev) + 1)

        sim.process(late(sim))
        sim.run()
        assert got == [42]


class TestProcesses:
    def test_process_is_event_with_return_value(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(2.0)
            return "result"

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + "!"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "result!"

    def test_process_exception_fails_parent(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1.0)
            raise KeyError("inner")

        def parent(sim):
            with pytest.raises(KeyError):
                yield sim.process(child(sim))
            return "recovered"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "recovered"

    def test_unwaited_process_exception_surfaces(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("unobserved crash")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="unobserved crash"):
            sim.run()

    def test_yielding_non_event_is_error(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimError, match="only yield Event"):
            sim.run()

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="generator"):
            sim.process(lambda: None)

    def test_interrupt_wakes_sleeper(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        def poker(sim, target):
            yield sim.timeout(2.0)
            target.interrupt("wake up")

        target = sim.process(sleeper(sim))
        sim.process(poker(sim, target))
        sim.run()
        assert log == [(2.0, "wake up")]

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(0.1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimError):
            p.interrupt()


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()

        def proc(sim):
            result = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            return (sim.now, result)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (3.0, ["a", "b"])

    def test_any_of_fires_on_fastest(self):
        sim = Simulator()

        def proc(sim):
            result = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            return (sim.now, result)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (1.0, "fast")

    def test_all_of_propagates_failure(self):
        sim = Simulator()
        ev = sim.event()

        def proc(sim):
            try:
                yield sim.all_of([sim.timeout(1), ev])
            except ValueError:
                return "caught"

        def firer(sim):
            yield sim.timeout(0.5)
            ev.fail(ValueError("bad"))

        p = sim.process(proc(sim))
        sim.process(firer(sim))
        sim.run()
        assert p.value == "caught"

    def test_mixed_simulators_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        with pytest.raises(SimError):
            AllOf(sim1, [sim1.event(), sim2.event()])

    def test_all_of_with_already_fired_events(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("pre")

        def proc(sim):
            result = yield sim.all_of([done, sim.timeout(2, "post")])
            return result

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == ["pre", "post"]


class TestStepPeek:
    def test_step_and_peek(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        assert sim.peek() == 0.0  # bootstrap event
        steps = 0
        while sim.step():
            steps += 1
        assert steps >= 3
        assert sim.peek() is None
