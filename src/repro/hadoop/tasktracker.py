"""TaskTracker: the per-node heartbeat loop and slot accounting.

Each worker node runs one TaskTracker process: every
``heartbeat_interval`` seconds it pays the Hadoop-RPC cost of a status
call to the JobTracker (on the master node), reports task completions,
and receives assignments — at most one map and one reduce per beat, the
0.20.2 behaviour whose slot-fill ramp is visibly part of Hadoop's
overhead at small input sizes.

Most beats of a large cluster are idle: the tracker has nothing to
report and the JobTracker nothing to hand out.  Such a beat changes only
``JobTracker.last_heartbeat`` and two RPC counters, so the trackers of
one job share a :class:`HeartbeatCalendar` that *parks* a tracker after
an idle beat and keeps its phase — the next beat's start, call and
response instants, advanced with the same float chain the kernel clock
would follow.  A parked tracker holds no heap entry.  The calendar
resumes it for a real beat only when that beat could matter: the
tracker has a completion to report, the JobTracker has assignable work,
or the job is over.  The skipped beats' ``last_heartbeat`` updates and
counters are applied lazily, so every export and trace is the one the
tracker would have produced had it beaten every interval.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Optional

from repro.hadoop.jobtracker import JobTracker, MapAttempt, ReduceAttempt
from repro.simnet.kernel import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.simulation import HadoopSimulation

#: Tracker ranks in spawn order, across every job of every simulator.
_RANKS = itertools.count()


class TaskTracker:
    """One worker node's tracker state + heartbeat process."""

    def __init__(self, env: "HadoopSimulation", worker_index: int):
        self.env = env
        self.worker_index = worker_index
        self.node_id = env.worker_node_id(worker_index)
        self.config = env.config
        self.running_maps = 0
        self.running_reduces = 0
        self._completed_unreported: list[int] = []
        #: Order among trackers sharing an instant.  Trackers booted at
        #: one instant with one stagger (the same worker of two jobs
        #: dispatched together, or of every live job when a node
        #: restarts) share every beat instant, and beat in spawn order.
        self.rank = next(_RANKS)
        # -- calendar phase (see HeartbeatCalendar) ---------------------------
        #: Start instant of the next beat that has not begun.
        self.next_beat = 0.0
        #: Call instant of the last skipped beat not yet written to
        #: ``JobTracker.last_heartbeat``.
        self.skipped_call: Optional[float] = None
        #: Response instant of a skipped beat whose call passed but whose
        #: response had not when the phase was last advanced.
        self.pending_response: Optional[float] = None
        #: Skipped beats whose response passed, not yet on the counters.
        self.skipped_beats = 0
        #: Bumped on every unpark; stale calendar heap entries carry an
        #: older value.
        self.park_token = 0

    @property
    def free_map_slots(self) -> int:
        free = self.config.map_slots - self.running_maps
        sched = self.env.sched
        if sched is not None:
            # Shared cluster: the grant also respects other tenants' usage
            # of this node and this job's fair/capacity share.
            free = sched.map_budget(self.node_id, free)
        return free

    @property
    def free_reduce_slots(self) -> int:
        free = self.config.reduce_slots - self.running_reduces
        sched = self.env.sched
        if sched is not None:
            free = sched.reduce_budget(self.node_id, free)
        return free

    # -- callbacks from task processes ----------------------------------------
    def map_completed(self, attempt: MapAttempt) -> None:
        self.running_maps -= 1
        self._slot_freed("map")
        self._completed_unreported.append(attempt.task_id)
        self.env.calendar.news(self)

    def map_failed(self, attempt: MapAttempt) -> None:
        """An attempt died on this (live) node; the slot frees, nothing
        is reported — the JobTracker was told directly."""
        self.running_maps -= 1
        self._slot_freed("map")

    def reduce_completed(self, attempt: ReduceAttempt) -> None:
        self.running_reduces -= 1
        self._slot_freed("reduce")

    def reduce_failed(self, attempt: ReduceAttempt) -> None:
        """A reduce attempt gave up on this (live) node; the slot frees —
        the JobTracker was told directly (``reduce_attempt_failed``)."""
        self.running_reduces -= 1
        self._slot_freed("reduce")

    def _slot_freed(self, kind: str) -> None:
        sched = self.env.sched
        if sched is not None:
            sched.task_finished(self.node_id, kind)

    # -- the heartbeat loop -------------------------------------------------------
    def run(self):
        """DES process: beat until the job is done (or this node dies).

        A beat starts by checking whether the job is over, pays the RPC
        latency to the call (report completions, receive work), pays it
        again to the response (spawn the assigned attempts) and sleeps
        one interval.  After a beat that leaves nothing to report and
        nothing to fetch the tracker parks on the calendar, which
        resumes it either at a beat's start or, when that start has
        already passed, directly at the beat's call.
        """
        env = self.env
        sim = env.sim
        jt: JobTracker = env.jobtracker
        calendar = env.calendar
        lat = calendar.rpc_latency
        interval = self.config.heartbeat_interval
        jt.tracker_registered(self.node_id, sim.now)
        # Stagger first beats so 7 trackers don't align artificially.
        stagger = (self.worker_index / max(1, env.num_workers)) * interval
        self.next_beat = sim.now + stagger
        try:
            at_call = yield calendar.park(self)
            while True:
                if not at_call:
                    if jt.job_done or jt.job_failed:
                        calendar.retire(self)
                        return
                    yield self._wake_at(sim.now + lat)
                # The status call: request to the master and response back.
                completions = self._completed_unreported
                self._completed_unreported = []
                maps, reduces = jt.heartbeat(
                    node=self.node_id,
                    free_map_slots=self.free_map_slots,
                    free_reduce_slots=self.free_reduce_slots,
                    completed_map_ids=completions,
                    now=sim.now,
                )
                calendar.called(self)
                yield self._wake_at(sim.now + lat)
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
                    calendar.count_beats(1)
                    if maps or reduces:
                        obs.tracer.instant(
                            "transport.rpc",
                            f"assign n{self.node_id}",
                            track=f"rpc:n{self.node_id}",
                            maps=len(maps),
                            reduces=len(reduces),
                        )
                if (
                    self._completed_unreported
                    or jt.job_done
                    or jt.job_failed
                    or jt.has_assignable_work()
                ):
                    yield self._wake_at(sim.now + interval)
                    at_call = False
                else:
                    self.next_beat = sim.now + interval
                    at_call = yield calendar.park(self)
        except Interrupt:
            # Node crashed; the JobTracker learns via heartbeat expiry.
            calendar.retire(self)
            return

    def _wake_at(self, when: float) -> Event:
        """An event firing at ``when`` in rank order among the trackers
        due then: beats from different trackers landing on one instant
        share a heap entry, and a tracker the calendar resumes later
        still takes its place among them."""
        ev = Event(self.env.sim)
        self.env.sim.fire_at(ev, when, self.rank)
        return ev


class HeartbeatCalendar:
    """One job's parked TaskTrackers and the rules that resume them.

    A tracker parks after a beat that left it nothing to report while
    the JobTracker has no assignable work.  Its phase stays in
    :attr:`TaskTracker.next_beat`; each skipped beat ``k`` would have
    started at ``T``, called at ``C = T + lat``, responded at
    ``R = C + lat`` and been followed by ``T' = R + interval`` — the
    exact float chain of the unparked loop.

    A parked tracker is resumed for its first beat whose call falls
    after now (at the beat's start if that is still ahead, else at the
    call) in three cases:

    * it has a completion to report (:meth:`news`);
    * the JobTracker has assignable work (:meth:`ensure`).  The calendar
      then walks the parked trackers one call instant at a time for as
      long as the work lasts: each resumed tracker's call triggers the
      next resumption, so a tracker that cannot take the work (its
      slots or its scheduler budget are full) still polls exactly as an
      unparked one would;
    * the job is done or failed (:meth:`job_over`).  Every tracker
      resumes at its first beat start at or after that instant and
      exits there, or finishes the beat whose start already passed.

    Skipped beats are accounted without events: their calls' instants go
    to ``JobTracker.last_heartbeat`` whenever the JobTracker is about to
    read it (:meth:`sync`), and their responses to the
    ``transport.rpc.heartbeats`` / ``transport.rpc.bytes`` counters when
    the tracker resumes, parks again or stops.

    A skipped call is taken to happen before anything else at its
    instant, and a resumed beat is queued when it is resumed rather than
    one step earlier, so exactness assumes that no other model event
    shares a float instant with a tracker's beat.  Trackers sharing beat
    instants with each other are exact: they beat in rank order through
    the kernel's ranked batches.  The production-vs-reference
    differential tests check the assumption per scenario.
    """

    def __init__(self, env: "HadoopSimulation"):
        self.sim = env.sim
        self.jt = env.jobtracker
        self.interval = env.config.heartbeat_interval
        self.rpc_bytes = env.config.rpc_status_bytes
        #: One status call's one-way cost; a pure interpolation, so one
        #: evaluation per job gives the float every beat would compute.
        self.rpc_latency = env.rpc.latency(self.rpc_bytes)
        #: Parked trackers, in park order -> the event each one's process
        #: waits on.
        self._parked: dict[TaskTracker, Event] = {}
        #: ``(call instant, rank, park token, tracker)`` for parked
        #: trackers; entries go stale when a tracker unparks (its token
        #: moves on) and call instants lag until the phase is advanced.
        self._heap: list = []
        #: Resumed trackers -> the call instant they resumed for, until
        #: that call happens.
        self._resumed: dict[TaskTracker, float] = {}

    # -- the tracker's side ---------------------------------------------------
    def park(self, tracker: TaskTracker) -> Event:
        """Park ``tracker`` at its phase; returns the event its process
        waits on (its value says whether it resumes at a call)."""
        self._settle(tracker)
        ev = self._parked[tracker] = self.sim.event()
        heapq.heappush(
            self._heap,
            (
                tracker.next_beat + self.rpc_latency,
                tracker.rank,
                tracker.park_token,
                tracker,
            ),
        )
        jt = self.jt
        if tracker._completed_unreported or jt.job_done or jt.job_failed:
            self._resume(tracker)
        else:
            self.ensure()
        return ev

    def called(self, tracker: TaskTracker) -> None:
        """``tracker`` just made a status call: continue the walk (the
        call may also have announced the completion that lets reduces
        start)."""
        self._resumed.pop(tracker, None)
        self.ensure()

    def retire(self, tracker: TaskTracker) -> None:
        """``tracker`` exits (job over) or died with its node."""
        now = self.sim.now
        if tracker in self._parked:
            self._unpark(tracker, now)
        self._settle(tracker)
        if self._resumed.pop(tracker, None) is not None:
            self.ensure()  # a walk step died with its node

    def count_beats(self, n: int) -> None:
        """Add ``n`` completed beats to the RPC counters."""
        metrics = self.sim.obs.metrics
        metrics.counter("transport.rpc.heartbeats").add_times(1.0, n)
        metrics.counter("transport.rpc.bytes").add_times(2 * self.rpc_bytes, n)

    # -- reasons to resume ----------------------------------------------------------
    def news(self, tracker: TaskTracker) -> None:
        """``tracker`` has a completion to report at its next call."""
        if tracker in self._parked:
            self._resume(tracker)

    def work_appeared(self) -> None:
        """The JobTracker may have work to hand out."""
        self.ensure()

    def job_over(self) -> None:
        """The job is done or failed: every parked tracker resumes to
        stop at its next beat start."""
        for tracker in list(self._parked):
            self._resume(tracker)

    def sync(self, now: float) -> None:
        """Write every skipped call up to ``now`` into
        ``JobTracker.last_heartbeat``."""
        heap = self._heap
        if not heap or heap[0][0] > now:
            return  # no parked tracker has a call due
        for tracker in self._parked:
            self._advance(tracker, now)
            self._write_last_call(tracker)
        lat = self.rpc_latency
        self._heap = [
            (tracker.next_beat + lat, rank, token, tracker)
            for (_, rank, token, tracker) in heap
            if tracker.park_token == token
        ]
        heapq.heapify(self._heap)

    def flush(self) -> None:
        """Account every skipped beat up to now (a run stopped early)."""
        now = self.sim.now
        for tracker in self._parked:
            self._advance(tracker, now)
            self._write_last_call(tracker)
        for tracker in (*self._parked, *self._resumed):
            self._settle(tracker)

    def ensure(self) -> None:
        """If the JobTracker has assignable work, make sure the earliest
        call among parked trackers is a real one."""
        jt = self.jt
        if (
            not self._parked
            or jt.job_done
            or jt.job_failed
            or not jt.has_assignable_work()
        ):
            return
        now = self.sim.now
        lat = self.rpc_latency
        heap = self._heap
        while True:
            call, rank, token, tracker = heap[0]
            if tracker.park_token != token:
                heapq.heappop(heap)
            elif call <= now:
                self._advance(tracker, now)
                heapq.heapreplace(
                    heap, (tracker.next_beat + lat, rank, token, tracker)
                )
            else:
                break
        if self._resumed and min(self._resumed.values()) <= call:
            return  # a resumed tracker calls first and walks on from there
        self._resume(tracker)

    # -- phase arithmetic ---------------------------------------------------------
    def _advance(self, tracker: TaskTracker, t: float) -> None:
        """Skip ``tracker``'s beats whose call is at or before ``t``."""
        pending = tracker.pending_response
        if pending is not None and pending <= t:
            tracker.skipped_beats += 1
            tracker.pending_response = None
        lat = self.rpc_latency
        start = tracker.next_beat
        call = start + lat
        while call <= t:
            response = call + lat
            tracker.skipped_call = call
            start = response + self.interval
            if response > t:
                tracker.pending_response = response
                break
            tracker.skipped_beats += 1
            call = start + lat
        tracker.next_beat = start

    def _unpark(self, tracker: TaskTracker, now: float) -> Event:
        """Take ``tracker`` off the calendar; returns its park event."""
        self._advance(tracker, now)
        self._write_last_call(tracker)
        tracker.park_token += 1
        return self._parked.pop(tracker)

    def _resume(self, tracker: TaskTracker) -> None:
        """Materialise ``tracker``'s first beat whose call is after now."""
        now = self.sim.now
        ev = self._unpark(tracker, now)
        start = tracker.next_beat
        call = start + self.rpc_latency
        self._resumed[tracker] = call
        if start >= now:
            self.sim.fire_at(ev, start, tracker.rank, False)
        else:
            self.sim.fire_at(ev, call, tracker.rank, True)

    def _write_last_call(self, tracker: TaskTracker) -> None:
        call = tracker.skipped_call
        if call is not None:
            tracker.skipped_call = None
            jt = self.jt
            if tracker.node_id not in jt.blacklisted:
                jt.last_heartbeat[tracker.node_id] = call

    def _settle(self, tracker: TaskTracker) -> None:
        """Put ``tracker``'s skipped beats whose response passed on the
        counters."""
        pending = tracker.pending_response
        if pending is not None and pending <= self.sim.now:
            tracker.skipped_beats += 1
            tracker.pending_response = None
        n = tracker.skipped_beats
        if n:
            tracker.skipped_beats = 0
            if self.sim.obs.enabled:
                self.count_beats(n)
