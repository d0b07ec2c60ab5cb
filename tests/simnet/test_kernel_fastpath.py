"""Tests for the kernel fast path: lazy cancellation.

**Tombstone cancellation** — ``Event.cancel()`` must keep drain
semantics (a popped tombstone still advances the clock) while
dispatching nothing, and yielding on a cancelled event must be a hard
error, not a silent hang.

Plus the regression for the stale-completion-timer bug: a flow killed
and replaced in the same timestep must not be finished early (or
crashed) by the dead flow's still-queued timer.
"""

from __future__ import annotations

import random

import pytest

from repro.simnet.kernel import SimError, Simulator
from repro.simnet.network import FlowFailed, Network

# ---------------------------------------------------------------------------
# lazy cancellation
# ---------------------------------------------------------------------------


def test_cancelled_timer_still_advances_clock():
    sim = Simulator()
    fired = []
    keep = sim.timeout(2.0)
    keep.callbacks.append(lambda ev: fired.append(sim.now))
    sim.timeout(5.0).cancel()
    assert sim.run() == 5.0  # tombstone drained the clock to 5.0
    assert fired == [2.0]
    assert sim.events_cancelled == 1
    assert sim.events_dispatched == 1  # the tombstone dispatched nothing


def test_cancel_after_dispatch_is_noop():
    sim = Simulator()
    t = sim.timeout(1.0)
    sim.run()
    t.cancel()
    assert not t.cancelled  # already processed: nothing to tombstone


def test_yielding_cancelled_event_is_an_error():
    sim = Simulator()
    t = sim.timeout(1.0)
    t.cancel()

    def proc():
        yield t

    sim.process(proc(), name="bad-waiter")
    with pytest.raises(SimError, match="cancelled"):
        sim.run()


def test_condition_over_cancelled_event_is_an_error():
    sim = Simulator()
    t = sim.timeout(1.0)
    t.cancel()
    with pytest.raises(SimError, match="cancelled"):
        sim.any_of([t, sim.timeout(2.0)])
    with pytest.raises(SimError, match="cancelled"):
        sim.all_of([t])


def test_cancel_storm_keeps_survivors_ordering():
    sim = Simulator()
    rng = random.Random(11)
    fired = []
    timers = []
    for i in range(300):
        t = sim.timeout(rng.uniform(0.0, 30.0), value=i)
        t.callbacks.append(lambda ev: fired.append(ev.value))
        timers.append(t)
    survivors = [t for i, t in enumerate(timers) if i % 3 == 0]
    for i, t in enumerate(timers):
        if i % 3:
            t.cancel()
    sim.run()
    expect = [
        t._value for t in sorted(survivors, key=lambda t: (t.delay, t._value))
    ]
    assert fired == expect
    assert sim.events_cancelled == 200
    assert sim.events_dispatched == 100


def test_run_until_and_peek():
    sim = Simulator()
    fired = []
    for d in (1.0, 9.0, 21.0):
        sim.timeout(d, value=d).callbacks.append(
            lambda ev: fired.append(ev.value)
        )
    assert sim.peek() == 1.0
    assert sim.run(until=10.0) == 10.0
    assert fired == [1.0, 9.0]
    assert sim.peek() == 21.0
    assert sim.run() == 21.0
    assert fired == [1.0, 9.0, 21.0]
    assert sim.peek() is None


# ---------------------------------------------------------------------------
# stale-completion-timer regressions (flow killed + replaced, same timestep)
# ---------------------------------------------------------------------------


def test_local_capped_flow_killed_mid_drain_then_reposted():
    # The dead flow's drain timer (t=1.0) is tombstoned by the kill; if
    # it fired anyway it would double-trigger done / credit phantom bytes.
    sim = Simulator()
    net = Network(sim)
    finished = []

    def driver():
        f1 = net.transfer_flow((), 1e6, rate_cap=1e6)  # drains in 1 s
        f1.done.defuse()
        yield sim.timeout(0.5)
        assert net.fail_flow(f1, reason="test-kill")
        f2 = net.transfer_flow((), 2e6, rate_cap=1e6)  # same timestep
        got = yield f2.done
        finished.append((sim.now, got))

    sim.process(driver(), name="driver")
    sim.run()
    assert finished == [(2.5, 2e6)]
    assert net.bytes_delivered == 2e6  # the killed flow credited nothing


def test_link_flow_killed_then_reposted_same_timestep():
    # f1 (would finish at t=1.0) dies at t=0.25; f2 starts in the same
    # timestep over the same links.  f1's superseded completion timer
    # must not finish f2 early: f2 completes on its own timeline.
    sim = Simulator()
    net = Network(sim)
    a = net.add_link("a", 1e6)
    b = net.add_link("b", 1e6)
    finished = []

    def driver():
        f1 = net.transfer_flow((a, b), 1e6)
        f1.done.defuse()
        yield sim.timeout(0.25)
        assert net.fail_flow(f1, reason="test-kill")
        f2 = net.transfer_flow((a, b), 1e6)
        got = yield f2.done
        finished.append((sim.now, got))

    sim.process(driver(), name="driver")
    sim.run()
    assert finished == [(1.25, 1e6)]
    assert net.bytes_delivered == 1e6


def test_killed_flow_failure_is_pre_defused():
    sim = Simulator()
    net = Network(sim)
    a = net.add_link("a", 1e6)
    b = net.add_link("b", 1e6)

    def driver():
        f = net.transfer_flow((a, b), 1e9)
        yield sim.timeout(0.1)
        net.fail_flow(f, reason="nobody-waits")

    sim.process(driver(), name="driver")
    sim.run()  # must not raise FlowFailed at drain


def test_waiter_on_killed_flow_sees_flowfailed():
    sim = Simulator()
    net = Network(sim)
    a = net.add_link("a", 1e6)
    b = net.add_link("b", 1e6)
    caught = []

    def waiter(f):
        try:
            yield f.done
        except FlowFailed as exc:
            caught.append(str(exc))

    def killer(f):
        yield sim.timeout(0.1)
        net.fail_flow(f, reason="chaos")

    f = net.transfer_flow((a, b), 1e9)
    sim.process(waiter(f), name="waiter")
    sim.process(killer(f), name="killer")
    sim.run()
    assert caught and "chaos" in caught[0]
