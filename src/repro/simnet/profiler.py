"""Wall-clock self-profiler for the simulation kernel.

``BENCH_scalability`` showed heartbeat dispatch dominating the 1000-node
runs, but only as a guess from event counts — nothing attributed *host*
time to event categories.  :class:`SelfProfiler` closes that gap: when
attached to a :class:`~repro.simnet.kernel.Simulator` it bins the wall
time of every dispatched event by what the event was for (heartbeat,
flow, scheduler, task, and everything-else kernel work, heap pop/peek
bookkeeping included), so "heartbeats dominate" becomes a measured breakdown future
perf PRs can gate on.

Two properties the bench harness depends on:

* **zero cost when off** — the profiler is a single ``is not None``
  test at the top of ``Simulator.run()``; with no profiler attached the
  kernel's hot loop is byte-for-byte the pre-profiler code path, so
  timed bench legs are unpolluted.
* **deterministic event counts** — the per-bin ``events`` counters
  depend only on the simulation (same seed → same counts);
  ``deterministic_view`` strips the wall-clock fields so same-seed
  double runs diff byte-identical.

The clock is injectable (tests pass a fake counter) and defaults to
:func:`time.perf_counter`.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

#: Attribution bins, in report order.  ``kernel`` is heap pop/peek
#: overhead plus anything unclassified.
BINS = ("heartbeat", "flow", "scheduler", "task", "kernel")

#: Ordered substring rules mapping an event label to a bin.  First hit
#: wins, so the specific task/tracker names come before the broad
#: class-name rules.  Labels are derived by the kernel from the event's
#: first callback: ``ClassName.method`` for bound methods, the process
#: name for process resumptions, ``__qualname__`` for plain functions.
_RULES: tuple[tuple[str, str], ...] = (
    # Heartbeat machinery: tasktracker heartbeat loops + expiry sweeps.
    ("tracker", "heartbeat"),
    ("heartbeat", "heartbeat"),
    ("expiry", "heartbeat"),
    # Task execution: map/reduce attempt processes ("map3", "red0").
    ("map", "task"),
    ("red", "task"),
    ("merge", "task"),
    ("spill", "task"),
    # Scheduler: dispatch loops, arrivals, preemption, job monitors.
    ("sched", "scheduler"),
    ("dispatch", "scheduler"),
    ("arrival", "scheduler"),
    ("submit", "scheduler"),
    ("rebalance", "scheduler"),
    ("preempt", "scheduler"),
    ("monitor", "scheduler"),
    ("sweep", "scheduler"),
    ("job", "scheduler"),
    ("engine", "scheduler"),
    # Flow/transport: the network fluid solver and rate devices.
    ("network", "flow"),
    ("flow", "flow"),
    ("link", "flow"),
    ("ratedevice", "flow"),
    ("slotpool", "flow"),
    ("store", "flow"),
    ("flush", "flow"),
    ("jetty", "flow"),
    ("fetch", "flow"),
    ("stream", "flow"),
    ("transport", "flow"),
)


def categorize(label: str) -> str:
    """Map an event label to one of :data:`BINS` (default ``kernel``)."""
    low = label.lower()
    for needle, bin_name in _RULES:
        if needle in low:
            return bin_name
    return "kernel"


class SelfProfiler:
    """Accumulates per-bin event counts and wall seconds.

    Attach with :meth:`Simulator.attach_profiler`; read back with
    :meth:`snapshot`.  One profiler may span several ``run()`` calls
    (and several simulators sequentially) — bins accumulate.
    """

    __slots__ = ("clock", "leg", "bins", "_label_cache")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        leg: str = "",
    ) -> None:
        self.clock: Callable[[], float] = clock or time.perf_counter
        #: Free-form tag for the run this profile covers (e.g.
        #: ``"multi_tenant@500"``); carried into the snapshot so bench
        #: exports can group breakdowns per leg.
        self.leg = leg
        #: bin -> [events, wall_seconds]
        self.bins: dict[str, list] = {b: [0, 0.0] for b in BINS}
        #: label -> bin memo; dispatch labels repeat heavily.
        self._label_cache: dict[str, str] = {}

    def record(self, label: str, seconds: float) -> None:
        bin_name = self._label_cache.get(label)
        if bin_name is None:
            bin_name = categorize(label)
            self._label_cache[label] = bin_name
        cell = self.bins[bin_name]
        cell[0] += 1
        cell[1] += seconds

    def record_overhead(self, bin_name: str, seconds: float) -> None:
        """Pop/peek bookkeeping time (no event dispatched)."""
        self.bins[bin_name][1] += seconds

    def snapshot(self) -> dict:
        """Full breakdown, wall-clock fields included."""
        bins = {
            name: {"events": cell[0], "wall_seconds": cell[1]}
            for name, cell in self.bins.items()
        }
        total_events = sum(cell[0] for cell in self.bins.values())
        total_wall = sum(cell[1] for cell in self.bins.values())
        return {
            "leg": self.leg,
            "bins": bins,
            "total": {"events": total_events, "wall_seconds": total_wall},
        }


def deterministic_view(profile: dict) -> dict:
    """A snapshot with every wall-clock field stripped.

    Event counts per bin depend only on the simulation, so this view is
    byte-identical across same-seed runs — it is what CI diffs.
    Accepts either a single :meth:`SelfProfiler.snapshot` dict or any
    nested structure of them (dicts/lists are walked recursively and
    keys ending in ``wall_seconds`` are dropped).
    """
    if isinstance(profile, dict):
        return {
            k: deterministic_view(v)
            for k, v in profile.items()
            if not k.endswith("wall_seconds")
        }
    if isinstance(profile, list):
        return [deterministic_view(v) for v in profile]
    return profile
