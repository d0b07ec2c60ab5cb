"""Test-only oracles for the flow engine, the max-min solver and the PS
rate device.

:class:`ReferenceNetwork` is the original scalar flow engine: per-flow
eager accounting on every advance (remaining bytes, link bytes and busy
time), a synchronous max-min solve on every membership or capacity
change, and plain :class:`~repro.simnet.kernel.Timeout` timers.
:class:`ReferenceRateDevice` recomputes its processor-sharing shares
synchronously on every arrival instead of deferring to one flush per
instant.  :class:`ReferenceSolverNetwork` keeps the production engine
but replaces the production max-min solver with
:func:`maxmin_rates_reference`, a from-scratch progressive-filling pass
over every active flow on every solve.

All three subclass the production classes and override only the
methods that differ, so topology, transfers, kills and partitions are
the production code.  Whole-experiment tests swap them in at their
single construction site, ``repro.simnet.cluster``, with
:func:`use_reference_engine` or :func:`use_reference_solver`, and then
require bit-identical exports.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet import cluster
from repro.simnet.network import Flow, Link, Network
from repro.simnet.resources import RateDevice


def maxmin_rates_reference(net: Network) -> None:
    """Progressive filling over all links touched by ``net``'s active flows.

    Per-flow rate caps participate as virtual bottlenecks: whenever
    the smallest unfrozen cap is tighter than the tightest link
    share, that flow freezes at its cap (releasing link capacity to
    the others) — the standard capped max-min extension.

    This is the slow reference the production solver is pinned
    against; it recomputes every flow's ``rate`` from scratch on every
    call and touches nothing else.
    """
    eps = Network._EPS
    unfrozen: set[Flow] = set(net._flows)
    residual: dict[Link, float] = {}
    for flow in net._flows:
        flow.rate = 0.0
        for link in flow.path:
            residual.setdefault(link, link.capacity)

    while unfrozen:
        # Bottleneck link: smallest per-flow fair share among links that
        # still carry unfrozen flows.
        best_link: Optional[Link] = None
        best_share = float("inf")
        # Sort by name so epsilon-ties resolve the same way every run.
        for link in sorted(residual, key=lambda l: l.name):
            n = sum(1 for f in link._flows if f in unfrozen)
            if n == 0:
                continue
            share = residual[link] / n
            if share < best_share - eps:
                best_share = share
                best_link = link
        # Tightest protocol cap among unfrozen flows.
        capped = min(unfrozen, key=lambda f: (f.rate_cap, f.seq))
        if capped.rate_cap < best_share:
            rate = capped.rate_cap
            capped.rate = rate
            unfrozen.discard(capped)
            for link in capped.path:
                residual[link] = max(0.0, residual[link] - rate)
            continue
        if best_link is None:
            # Remaining flows traverse no constrained link (shouldn't
            # happen for non-empty paths); cap-bound or effectively
            # infinite.
            for flow in unfrozen:
                flow.rate = min(flow.rate_cap, 1e18)
            break
        froze = [f for f in best_link._flows if f in unfrozen]
        for flow in froze:
            flow.rate = best_share
            unfrozen.discard(flow)
            for link in flow.path:
                residual[link] = max(0.0, residual[link] - best_share)


class ReferenceSolverNetwork(Network):
    """The production engine with a from-scratch solve of every flow."""

    def _maxmin_rates(self) -> None:
        self._dirty.clear()
        if self._flows:
            self.rate_recomputes += 1
            self.rate_recompute_flows += len(self._flows)
            self._settle_component(self._flows)
            maxmin_rates_reference(self)
            self._sync_rates()


class ReferenceNetwork(Network):
    """Per-flow eager accounting, synchronous solve, ``Timeout`` timers."""

    def _timer(self, delay, cb):
        timer = self.sim.timeout(delay)
        timer.callbacks.append(cb)
        return timer

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0:
            return
        busy: set[Link] = set()
        for flow in self._flows:
            moved = flow.rate * dt
            flow.remaining -= moved
            for link in flow.path:
                link.bytes_carried += moved
                busy.add(link)
        for link in busy:
            link.busy_time += dt

    def _join_links(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.add(flow)
            self._dirty.add(link)

    def _leave_links(self, flow: Flow) -> None:
        for link in flow.path:
            link._flows.discard(flow)
            self._dirty.add(link)

    # Link counters are settled eagerly and there are no dense slots.
    def _settle_component(self, flows) -> None:
        pass

    def _sync_rates(self) -> None:
        pass

    def settle_accounting(self) -> None:
        pass

    def _reallocate(self) -> None:
        self._timer_token += 1
        token = self._timer_token
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        # Simultaneous finishes complete in start order, never in
        # set-iteration order.
        finished = sorted(
            (f for f in self._flows if f.remaining <= self._EPS),
            key=lambda f: f.seq,
        )
        for flow in finished:
            self._finish(flow)
        if not self._flows:
            self._dirty.clear()
            return

        self._maxmin_rates()

        next_done = float("inf")
        for f in self._flows:
            if f.rate > 0:
                t = f.remaining / f.rate
                if t < next_done:
                    next_done = t
        if next_done == float("inf"):
            raise RuntimeError("network allocation produced starved flows")
        # Pin the flows this timer finishes (see Network._solve).
        limit = next_done * (1 + 1e-9)
        targets = [
            f for f in self._flows if f.rate > 0 and f.remaining / f.rate <= limit
        ]
        timer = self.sim.timeout(next_done)
        timer.callbacks.append(lambda ev: self._on_reference_timer(token, targets))
        self._pending_timer = timer

    def _on_reference_timer(self, token: int, targets: list) -> None:
        if token != self._timer_token:
            return
        self._pending_timer = None
        self._advance()
        for flow in targets:
            flow.remaining = 0.0
        self._reallocate()


class ReferenceRateDevice(RateDevice):
    """Processor sharing recomputed synchronously on every change."""

    def _reschedule(self) -> None:
        self._timer_token += 1
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._reschedule_now()


def use_reference_engine(monkeypatch) -> None:
    """Build every cluster the calling test constructs from here on with
    the oracle classes (undone at test teardown)."""
    monkeypatch.setattr(cluster, "Network", ReferenceNetwork)
    monkeypatch.setattr(cluster, "RateDevice", ReferenceRateDevice)


def use_reference_solver(monkeypatch) -> None:
    """Build every cluster network the calling test constructs from here
    on with the reference max-min solver (undone at test teardown)."""
    monkeypatch.setattr(cluster, "Network", ReferenceSolverNetwork)
