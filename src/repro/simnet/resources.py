"""Resources for the DES: slot pools, processor-sharing rate devices, stores.

* :class:`SlotPool` — a counting semaphore with a FIFO wait queue; models
  the map/reduce slots of a TaskTracker and the CPU slots of a node.
* :class:`RateDevice` — a device with a fixed service rate (bytes/s)
  shared equally among concurrent jobs (processor sharing); models a
  node's disk, where concurrent spills and reads divide the bandwidth.
  Same-instant arrivals and departures share one deferred PS
  recomputation; the synchronous-recompute oracle it is diffed against
  lives in ``tests/simnet/reference_engine.py``.
* :class:`Store` — an unbounded FIFO channel of items with blocking get;
  models mailbox-style handoff between simulated processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.simnet.kernel import Event, SimError, Simulator

_INF = float("inf")


class SlotPool:
    """``capacity`` identical slots acquired/released FIFO.

    ``acquire()`` returns an event that fires when a slot is granted; the
    holder must call ``release()`` exactly once.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "slots"):
        if capacity < 1:
            raise ValueError(f"slot pool needs capacity >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # Bound at construction: attach the Observer before building models.
        self._metrics_on = sim.obs.enabled
        self._occupancy = sim.obs.metrics.histogram(f"slots.{name}.in_use")
        self._queued = sim.obs.metrics.histogram(f"slots.{name}.queued")

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            if self._metrics_on:
                self._occupancy.set(self._in_use)
            ev.succeed(self)
        else:
            self._waiters.append(ev)
            if self._metrics_on:
                self._queued.set(len(self._waiters))
        return ev

    def try_acquire(self) -> bool:
        """Grab a slot synchronously when one is free; never queues.

        The event-free companion to :meth:`acquire` for hot loops that
        can pair it with a direct :meth:`release` (no grant event, no
        dispatch).  Returns False when the pool is full — callers then
        fall back to the queued ``acquire()`` path.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            if self._metrics_on:
                self._occupancy.set(self._in_use)
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"release() on empty pool {self.name!r}")
        if self._waiters:
            # Hand the slot straight to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed(self)
            if self._metrics_on:
                self._queued.set(len(self._waiters))
        else:
            self._in_use -= 1
            if self._metrics_on:
                self._occupancy.set(self._in_use)

    def cancel(self, request: Event) -> None:
        """End one ``acquire()`` request, whatever state it reached.

        A queued request is withdrawn; a granted one is released.  This
        is the safe companion to ``acquire()`` for interruptible holders
        (fault injection): calling it exactly once per request — in a
        ``finally`` — never leaks a slot and never double-releases.
        """
        try:
            self._waiters.remove(request)
            if self._metrics_on:
                self._queued.set(len(self._waiters))
            return  # withdrawn before a slot was ever granted
        except ValueError:
            pass
        if request.triggered:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SlotPool {self.name} {self._in_use}/{self.capacity}>"


class _PSJob:
    __slots__ = ("remaining", "event")

    def __init__(self, remaining: float, event: Event):
        self.remaining = remaining
        self.event = event


class RateDevice:
    """A fixed-rate device with egalitarian processor sharing.

    ``transfer(nbytes)`` returns an event that fires once ``nbytes`` have
    been served; while ``n`` jobs are active each receives ``rate / n``.
    Completion order equals the order implied by remaining work — the
    classic PS queue, recomputed at every arrival/departure.
    """

    _EPS = 1e-9

    def __init__(self, sim: Simulator, rate: float, name: str = "device"):
        if not 0.0 < rate < _INF:
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.name = name
        self._jobs: list[_PSJob] = []
        self._last_t = 0.0
        self._timer_token = 0
        self._pending: Optional[Event] = None
        #: Horizon batching: same-instant arrivals / departures collapse
        #: into one PS recomputation via a 0-delay pooled tick.
        self._flush_tick: Optional[Event] = None
        self.bytes_served = 0.0
        self.busy_time = 0.0
        self.jobs_completed = 0
        # Bound at construction like SlotPool's gauges; the enabled flag
        # lets the hot paths skip even the null-object dispatch.
        self._metrics_on = sim.obs.enabled
        self._depth = sim.obs.metrics.histogram(f"device.{name}.jobs")
        self._served = sim.obs.metrics.counter(f"device.{name}.bytes")

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the device spent with work queued."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def set_rate(self, rate: float) -> None:
        """Change the service rate mid-simulation (fault injection).

        Work already served stays served: the device is advanced to the
        current time at the old rate, then in-flight jobs are re-timed at
        the new one (the token bump supersedes the stale timer).
        """
        if not 0.0 < rate < _INF:
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self._advance()
        self.rate = float(rate)
        self._reschedule()

    def transfer(self, nbytes: float) -> Event:
        """Serve ``nbytes``; the returned event's value is the nbytes served."""
        if not 0.0 <= nbytes < _INF:
            raise ValueError(f"transfer size must be finite and >= 0: {nbytes}")
        ev = self.sim.event()
        if nbytes == 0:
            ev.succeed(0.0)
            return ev
        self._advance()
        self._jobs.append(_PSJob(float(nbytes), ev))
        if self._metrics_on:
            self._depth.set(len(self._jobs))
            self._served.add(nbytes)
        self._reschedule()
        return ev

    # -- internals ----------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0 or not self._jobs:
            return
        self.busy_time += dt
        share = self.rate / len(self._jobs)
        served = share * dt
        for job in self._jobs:
            before = job.remaining
            job.remaining -= served
            self.bytes_served += min(served, max(before, 0.0))

    def _reschedule(self) -> None:
        self._timer_token += 1
        if self._pending is not None:
            # Tombstone the superseded timer so the kernel never pays a
            # dispatch for it (the token check still guards correctness;
            # cancelled entries advance the clock identically).
            self._pending.cancel()
            self._pending = None
        # Work is already integrated (_advance ran at the mutation), so
        # the recomputation can wait until every same-instant
        # arrival/departure is in: one solve per instant instead of one
        # per job.  Intermediate shares are unobservable (dt=0);
        # completions shift only in intra-instant dispatch order.
        ft = self._flush_tick
        if ft is not None and ft.callbacks is not None:
            return  # a flush for this instant is already queued
        self._flush_tick = self.sim.tick(0.0, self._flush)

    def _flush(self, ev: Event) -> None:
        self._flush_tick = None
        self._reschedule_now()

    def _reschedule_now(self) -> None:
        token = self._timer_token
        # Complete anything already done.
        done = [j for j in self._jobs if j.remaining <= self._EPS]
        if done:
            self._jobs = [j for j in self._jobs if j.remaining > self._EPS]
            self.jobs_completed += len(done)
            if self._metrics_on:
                self._depth.set(len(self._jobs))
            for job in done:
                job.event.succeed(None)
        if not self._jobs:
            return
        share = self.rate / len(self._jobs)
        min_rem = min(j.remaining for j in self._jobs)
        delay = min_rem / share
        # Pin the jobs this timer is meant to finish: float rounding can
        # leave a residual smaller than the clock's resolution, which
        # would otherwise respawn zero-length timers forever.
        targets = [j for j in self._jobs if j.remaining <= min_rem * (1 + 1e-9)]
        # Pooled tick: fires at the same (instant, seq) a timeout(delay)
        # would, but the event object comes from the kernel's arena.
        self._pending = self.sim.tick(
            delay, lambda ev: self._on_timer(token, targets)
        )

    def _on_timer(self, token: int, targets: list[_PSJob]) -> None:
        if token != self._timer_token:
            return  # superseded by a later arrival/departure
        self._pending = None
        self._advance()
        for job in targets:
            job.remaining = 0.0
        ft = self._flush_tick
        if ft is not None and ft.callbacks is not None:
            # An arrival already queued a flush for this instant — fold
            # the completion into it rather than double-solving.
            self._timer_token += 1
            return
        # Isolated completions recompute synchronously: there is nothing
        # to coalesce with, and the extra flush tick would make sparse
        # traffic strictly more expensive.
        self._timer_token += 1
        self._reschedule_now()


class Store:
    """An unbounded FIFO channel: ``put`` never blocks, ``get`` waits for an item."""

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        return self._items.popleft() if self._items else None
