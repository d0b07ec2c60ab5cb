"""Test-only oracle for the TaskTracker heartbeat loop.

:class:`ReferenceTaskTracker` is the original fixed per-tracker loop:
every tracker beats every ``heartbeat_interval`` from its first beat to
the job's end, paying three kernel ticks, the slot-budget queries and
two RPC-latency evaluations per beat, and adding to the RPC counters as
each beat responds.  It subclasses the production
:class:`~repro.hadoop.tasktracker.TaskTracker` and overrides only
:meth:`run`, so slot accounting and the task-process callbacks are the
production code; it never parks, so the job's heartbeat calendar stays
empty and inert.

Whole-experiment tests swap it in at its construction site,
``repro.hadoop.simulation``, with :func:`use_reference_tracker`, and
then require byte-identical exports and trace stores.
"""

from __future__ import annotations

from repro.hadoop import simulation
from repro.hadoop.tasktracker import TaskTracker
from repro.simnet.kernel import Interrupt


class ReferenceTaskTracker(TaskTracker):
    """A tracker that beats every interval until the job ends."""

    def run(self):
        env = self.env
        sim = env.sim
        jt = env.jobtracker
        jt.tracker_registered(self.node_id, sim.now)
        stagger = (self.worker_index / max(1, env.num_workers)) * (
            self.config.heartbeat_interval
        )
        try:
            yield sim.tick(stagger, shared=True)
            while not (jt.job_done or jt.job_failed):
                yield sim.tick(
                    env.rpc.latency(self.config.rpc_status_bytes), shared=True
                )
                completions = self._completed_unreported
                self._completed_unreported = []
                maps, reduces = jt.heartbeat(
                    node=self.node_id,
                    free_map_slots=self.free_map_slots,
                    free_reduce_slots=self.free_reduce_slots,
                    completed_map_ids=completions,
                    now=sim.now,
                )
                yield sim.tick(
                    env.rpc.latency(self.config.rpc_status_bytes), shared=True
                )
                for attempt in maps:
                    self.running_maps += 1
                    proc = env.spawn_on_node(
                        self.node_id,
                        env.run_map_task(attempt, self),
                        name=f"map{attempt.task_id}",
                    )
                    env.note_attempt("map", attempt, proc, self)
                for rattempt in reduces:
                    self.running_reduces += 1
                    proc = env.spawn_on_node(
                        self.node_id,
                        env.run_reduce_task(rattempt, self),
                        name=f"red{rattempt.task_id}",
                    )
                    env.note_attempt("reduce", rattempt, proc, self)
                obs = sim.obs
                if obs.enabled:
                    obs.metrics.counter("transport.rpc.heartbeats").add()
                    obs.metrics.counter("transport.rpc.bytes").add(
                        2 * self.config.rpc_status_bytes
                    )
                    if maps or reduces:
                        obs.tracer.instant(
                            "transport.rpc",
                            f"assign n{self.node_id}",
                            track=f"rpc:n{self.node_id}",
                            maps=len(maps),
                            reduces=len(reduces),
                        )
                yield sim.tick(self.config.heartbeat_interval, shared=True)
        except Interrupt:
            return


def use_reference_tracker(monkeypatch) -> None:
    """Build every TaskTracker the calling test starts from here on with
    the oracle loop (undone at test teardown)."""
    monkeypatch.setattr(simulation, "TaskTracker", ReferenceTaskTracker)
