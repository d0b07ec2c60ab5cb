"""DES model of MapReduce running on MPI-D (paper Figure 4 + Section IV-C).

Process layout mirrors the paper's experiment: the master (rank 0) lives
on the master node and hands out static splits at start; mapper
processes are pinned round-robin across the worker nodes with their
input split stored locally ("we distribute all input data across all
nodes to guarantee the data accessing locally as in Hadoop"); reducer
processes likewise.

Each mapper iterates spill-sized chunks: local disk read, user map +
combine CPU (native rate), realignment CPU, then fixed-size partition
arrays leave as MPI messages — eager sends, so the mapper does not wait
for delivery (the overlap the paper's buffering is designed for), while
the flows still contend on the shared network.  Reducers merge arriving
bytes (CPU charged per byte on arrival order is approximated as a final
merge after the last byte, which is exact for the makespan because the
merge rate exceeds the arrival rate everywhere in our regime) and write
output locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.hadoop.hdfs import HdfsFile, HdfsNamespace
from repro.hadoop.job import JobSpec
from repro.hadoop.storage import StorageManager
from repro.mrmpi.config import MrMpiConfig
from repro.obs import Observer
from repro.simnet.cluster import Cluster, ClusterSpec
from repro.simnet.faults import (
    NETWORK_FAULT_SPECS,
    STORAGE_FAULT_SPECS,
    FaultInjector,
    FaultPlan,
)
from repro.simnet.kernel import Event, Interrupt, Process, Simulator
from repro.simnet.network import FlowFailed
from repro.transports.mpich import MpichTransport
from repro.util.rng import derive_seed, make_rng


@dataclass
class MapperMetrics:
    rank: int
    node: int
    input_bytes: float = 0.0
    sent_bytes: float = 0.0
    messages: int = 0
    spills: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class ReducerMetrics:
    rank: int
    node: int
    received_bytes: float = 0.0
    started_at: float = 0.0
    copy_done_at: float = 0.0
    finished_at: float = 0.0

    @property
    def copy_time(self) -> float:
        return self.copy_done_at - self.started_at

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class MrMpiMetrics:
    """Job-level results of one MPI-D simulation run."""

    job_name: str
    elapsed: float = 0.0
    mappers: list[MapperMetrics] = field(default_factory=list)
    reducers: list[ReducerMetrics] = field(default_factory=list)
    # -- lossy-network accounting (all zero on a loss-free run) ---------------
    #: Killed flows observed by the network during this attempt.
    flows_lost: int = 0
    #: Arrays resent by the reliable-transport mode.
    retransmits: int = 0
    #: True when a lost stream was fatal (baseline MPICH: MPI_Abort).
    aborted: bool = False
    aborted_at: Optional[float] = None
    abort_reason: Optional[str] = None

    @property
    def total_sent_bytes(self) -> float:
        return sum(m.sent_bytes for m in self.mappers)

    @property
    def total_messages(self) -> int:
        return sum(m.messages for m in self.mappers)

    def summary(self) -> dict:
        return {
            "job": self.job_name,
            "elapsed": self.elapsed,
            "mappers": len(self.mappers),
            "reducers": len(self.reducers),
            "sent_bytes": self.total_sent_bytes,
            "messages": self.total_messages,
        }

    def fault_summary(self) -> dict:
        """The lossy-network counters as one record (Hadoop-symmetric)."""
        return {
            "flows_lost": self.flows_lost,
            "retransmits": self.retransmits,
            "aborted": self.aborted,
            "aborted_at": self.aborted_at,
            "abort_reason": self.abort_reason,
        }

    def to_dict(self) -> dict:
        """JSON-serializable dump: summary plus per-process records."""
        return {
            "summary": self.summary(),
            "faults": self.fault_summary(),
            "mappers": [
                {
                    "rank": m.rank,
                    "node": m.node,
                    "input_bytes": m.input_bytes,
                    "sent_bytes": m.sent_bytes,
                    "messages": m.messages,
                    "spills": m.spills,
                    "started_at": m.started_at,
                    "finished_at": m.finished_at,
                }
                for m in self.mappers
            ],
            "reducers": [
                {
                    "rank": r.rank,
                    "node": r.node,
                    "received_bytes": r.received_bytes,
                    "copy_time": r.copy_time,
                    "duration": r.duration,
                }
                for r in self.reducers
            ],
        }


class MpiJobAborted(RuntimeError):
    """The whole MPI job died (MPICH2's reaction to a fatal stream loss).

    Carries the abort instant and the attempt's partial metrics so the
    restart loop can account for the thrown-away progress.
    """

    def __init__(self, reason: str, at: float, metrics: MrMpiMetrics):
        super().__init__(f"MPI job aborted at t={at:.3f}s: {reason}")
        self.reason = reason
        self.at = at
        self.metrics = metrics


class _NetworkOnlyHost:
    """FaultHost stub for MPI-D: crash specs are rejected up front, so
    these hooks must never fire."""

    def crash_node(self, node_id: int, now: float) -> None:
        raise AssertionError("crash spec reached a network-only injector")

    def restart_node(self, node_id: int, now: float) -> None:
        raise AssertionError("restart reached a network-only injector")


@dataclass
class MrMpiSimulation:
    """One MPI-D MapReduce job on a freshly built simulated cluster."""

    spec: JobSpec
    config: MrMpiConfig = field(default_factory=MrMpiConfig)
    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    #: Network/storage-fault plan (node crashes are modeled analytically
    #: by :func:`run_mpid_job_under_faults`, because a crash kills the
    #: whole MPI job and a clean rerun is deterministic anyway).
    fault_plan: Optional[FaultPlan] = None
    #: Seed for the reliable-transport retransmission jitter streams and
    #: the input replica placement under storage faults.
    seed: int = 2011
    #: Storage damage carried over from a previous attempt (a destroyed
    #: replica does not come back on resubmission) — the record returned
    #: by ``StorageManager.damage()``.
    prior_damage: Optional[tuple] = None
    #: Observability: True attaches an :class:`~repro.obs.Observer`; off by
    #: default so an untraced run matches the uninstrumented code exactly.
    observe: bool = False
    #: Multi-tenant mode: run against an existing kernel + cluster instead
    #: of building a private pair.  Both must be given together; faults
    #: are then owned by the engine (``fault_plan`` must stay None).
    sim: Optional[Simulator] = None
    cluster: Optional[Cluster] = None

    def __post_init__(self) -> None:
        self.shared = self.sim is not None
        if self.shared != (self.cluster is not None):
            raise ValueError("pass sim and cluster together (or neither)")
        if self.shared:
            if self.fault_plan is not None:
                raise ValueError(
                    "per-job fault plans are not supported on a shared "
                    "cluster; give the plan to the engine instead"
                )
            self.cluster_spec = self.cluster.spec
            self.obs = self.sim.obs
        else:
            self.sim = Simulator()
            # Attach before Cluster: resources bind their metrics at init.
            self.obs = Observer.attach(self.sim) if self.observe else self.sim.obs
            self.cluster = Cluster(self.sim, self.cluster_spec)
        if self.cluster_spec.num_nodes < 2:
            raise ValueError("need a master plus at least one worker node")
        self.mpich = MpichTransport()
        self.num_workers = self.cluster_spec.num_nodes - 1
        cfg = self.config
        # Round-robin pinning over worker nodes (ids 1..N-1).
        self.mapper_nodes = [
            1 + (i % self.num_workers) for i in range(cfg.num_mappers)
        ]
        self.reducer_nodes = [
            1 + ((cfg.num_mappers + i) % self.num_workers)
            for i in range(cfg.num_reducers)
        ]
        self.metrics = MrMpiMetrics(job_name=self.spec.name)
        #: Output share per reducer (key-skew model; uniform by default).
        self.partition_weights = self.spec.normalized_weights(cfg.num_reducers)
        # Flows destined to each reducer, appended by mappers.
        self._reducer_flows: list[list[Event]] = [
            [] for _ in range(cfg.num_reducers)
        ]
        self._sent_per_reducer = [0.0] * cfg.num_reducers
        self._mappers_done = 0
        self._all_mappers_done: Optional[Event] = None
        # -- trace-DAG bookkeeping (all zeros when tracing is off) ------------
        #: Each reducer's recv-phase span, so mapper sends can name the
        #: span that waits on their flows (recv begins before the first
        #: send can leave: both sides pay the same startup_time, and a
        #: mapper reads+computes before emitting).
        self._recv_sids = [0] * cfg.num_reducers
        #: Finished mapper spans; reducers draw barrier edges from them.
        self._mapper_sids: list[int] = []
        #: In-flight span ids (by metrics object id) so a gang-wide
        #: interrupt can abort the right spans.
        self._open_mapper_sids: dict[int, int] = {}
        self._open_reducer_sids: dict[int, int] = {}
        #: The job span's tracer id (set by :meth:`run`).
        self.job_sid = 0
        self.injector: Optional[FaultInjector] = None
        self.net_faults = False
        #: True when engine-owned crashes can reach this gang (shared
        #: mode; the engine flips it after construction).
        self.fault_aware = False
        #: Processes per node, so a crash can take down the whole gang.
        self._node_procs: dict[int, list[Process]] = {}
        self._job_proc: Optional[Process] = None
        self._flows_failed_at_start = 0
        #: Input replica liveness under storage faults (no repair: MPI
        #: has no NameNode healing its input); None otherwise.
        self.hdfs: Optional[HdfsNamespace] = None
        self.storage: Optional[StorageManager] = None
        self._mapper_files: dict[int, HdfsFile] = {}
        if self.fault_plan:
            for fspec in self.fault_plan.specs:
                if not isinstance(
                    fspec, NETWORK_FAULT_SPECS + STORAGE_FAULT_SPECS
                ):
                    raise ValueError(
                        f"MrMpiSimulation only injects network and storage "
                        f"faults; {type(fspec).__name__} is covered by the "
                        f"analytic restart model (run_mpid_job_under_faults)"
                    )
            workers = tuple(range(1, self.cluster_spec.num_nodes))
            if self.fault_plan.has_storage_faults():
                self._build_storage(workers)
            self.injector = FaultInjector(
                self.sim,
                self.cluster,
                self.fault_plan,
                host=_NetworkOnlyHost(),
                storage=self.storage,
                default_storage_nodes=workers,
            )
            self.net_faults = self.fault_plan.has_network_faults()

    def _build_storage(self, workers: tuple[int, ...]) -> None:
        """Lay the pre-distributed input out as one file per mapper with
        its first replica on the mapper's node (the paper's "data
        accessing locally"); extra replicas (``input_replication``) land
        on other workers and are what failover reads after a disk dies."""
        cfg = self.config
        split = int(math.ceil(self.spec.input_bytes / cfg.num_mappers))
        self.hdfs = HdfsNamespace(
            datanodes=list(workers),
            block_size=cfg.input_block_size,
            replication=cfg.input_replication,
            seed=self.seed,
        )
        for rank, node_id in enumerate(self.mapper_nodes, start=1):
            self._mapper_files[rank] = self.hdfs.create_file(
                f"{self.spec.input_file}.m{rank}", split, writer_node=node_id
            )
        self.storage = StorageManager(
            self.sim, self.cluster, self.hdfs, seed=self.seed, repair=False
        )
        if self.prior_damage is not None:
            self.storage.apply_damage(self.prior_damage)

    # -- shared-cluster plumbing ------------------------------------------------
    def _spawn(self, node_id: int, gen, name: str = "") -> Process:
        """``sim.process`` plus crash registration in fault-aware mode."""
        proc = self.sim.process(gen, name=name)
        if self.fault_aware:
            self._node_procs.setdefault(node_id, []).append(proc)
        return proc

    def ranks_per_node(self) -> dict[int, int]:
        """How many of this gang's processes are pinned to each node —
        the scheduler's gang-reservation footprint."""
        out: dict[int, int] = {}
        for n in self.mapper_nodes:
            out[n] = out.get(n, 0) + 1
        for n in self.reducer_nodes:
            out[n] = out.get(n, 0) + 1
        return out

    def crash_node(self, node_id: int, now: float) -> None:
        """Engine fan-out: a node hosting one of this gang's ranks died.

        MPICH2 semantics — any rank's host dying aborts the whole job,
        so every process of the gang is interrupted (they release their
        shared-cluster resources on the way out).  Nodes that host none
        of this job's ranks leave it untouched.
        """
        if self.metrics.aborted:
            return
        if node_id != 0 and node_id not in self.ranks_per_node():
            return
        m = self.metrics
        m.aborted = True
        m.abort_reason = f"rank host n{node_id} crashed"
        m.aborted_at = now
        for procs in self._node_procs.values():
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt(f"node {node_id} crashed: MPI_Abort")

    def restart_node(self, node_id: int, now: float) -> None:
        """A restarted node never rejoins a running MPI job."""

    # -- cost helpers -----------------------------------------------------------
    def _user_cpu(self, per_byte: float, nbytes: float) -> float:
        return nbytes * per_byte / self.config.native_speedup

    # -- processes -----------------------------------------------------------------
    def _mapper_proc(self, rank: int, node_id: int, split_bytes: float):
        sim = self.sim
        cfg = self.config
        profile = self.spec.profile
        node = self.cluster.node(node_id)
        m = MapperMetrics(rank=rank, node=node_id, input_bytes=split_bytes)
        self.metrics.mappers.append(m)
        tr = sim.obs.tracer
        sid = 0
        try:
            yield from self._mapper_body(rank, node_id, split_bytes, node, m)
        except Interrupt:
            # Our host (or a gang peer's) crashed: MPI_Abort.  Resources
            # held through ``cancel``-style finallys are already free.
            tr.abort(self._mapper_sid_of(m), outcome="interrupted")
            return

    def _mapper_sid_of(self, m: MapperMetrics) -> int:
        return self._open_mapper_sids.get(id(m), 0)

    def _mapper_body(
        self, rank: int, node_id: int, split_bytes: float, node, m: MapperMetrics
    ):
        sim = self.sim
        cfg = self.config
        profile = self.spec.profile
        yield sim.timeout(cfg.startup_time)
        m.started_at = sim.now
        tr = sim.obs.tracer
        sid = tr.begin(
            "mpid.map", f"mapper{rank}", node=node_id, input_bytes=split_bytes
        )
        self._open_mapper_sids[id(m)] = sid

        remaining = split_bytes
        # Chunk size chosen so one chunk's raw map output fills the spill
        # buffer — each iteration is exactly one spill cycle.
        chunk_in = max(1.0, cfg.spill_threshold / max(profile.map_selectivity, 1e-9))
        # Hot-loop locals: the send loop below runs once per reducer per
        # spill, so attribute chains are hoisted out of it.
        reducer_nodes = self.reducer_nodes
        weights = self.partition_weights
        reducer_flows = self._reducer_flows
        sent_per_reducer = self._sent_per_reducer
        recv_sids = self._recv_sids
        mpich = self.mpich
        partition_bytes = cfg.partition_bytes
        stream_per_msg = mpich.stream_per_msg
        reliable = self.net_faults and self.config.reliable_transport
        obs = sim.obs
        # Every full-size chunk produces the same per-reducer share, so
        # the message count, injection CPU and MPICH wire costs repeat
        # thousands of times — memoise them by share.  The fabric path
        # and base latency per reducer are loop constants outright
        # (this inlines Cluster.send's lookups; 0.0 + setup keeps the
        # local-send float association bit-identical).
        net = self.cluster.network
        nodes = self.cluster.nodes
        link_latency = self.cluster.spec.link_latency
        send_paths: list[tuple[tuple, float]] = [
            ((), 0.0)
            if rnode == node_id
            else ((nodes[node_id].uplink, nodes[rnode].downlink), link_latency)
            for rnode in reducer_nodes
        ]
        wc_cache: dict[float, tuple[int, float, float]] = {}
        # Horizon batching (tracing off): the spill chain's pure CPU
        # delays — realign, compress, the first reducer's injection
        # cost — collapse into one pooled tick at the accumulated
        # absolute instant.  The accumulation performs
        # the same float additions in the same order the chained
        # timeouts would (((t + realign) + compress) + send_cpu), so
        # every send starts at the bit-identical time.  Span boundaries
        # pin the unfused chain when tracing is on.
        fused = not obs.enabled
        # Deeper fusion — CPU slot held via try_acquire with an
        # autonomous release tick — is only valid when nothing can
        # interrupt the mapper mid-chain: an interrupted scalar mapper
        # releases its core at the interrupt instant, the release tick
        # at the phase boundary.  Fault-free runs cannot be interrupted.
        fused_cpu = (
            fused
            and self.injector is None
            and not self.net_faults
            and self.storage is None
        )
        cpus = node.cpus
        # With no more pinned ranks than cores the pool can never
        # saturate: every acquire grants instantly and every release
        # is a counter flip nobody observes (the occupancy metrics are
        # null with tracing off).  Skip slot accounting entirely — and
        # with it the autonomous release tick.
        free_run = (
            fused_cpu
            and self.ranks_per_node().get(node_id, 0) <= cpus.capacity
        )

        def release_core(ev, pool=cpus):
            pool.release()

        # Chunk-derived quantities repeat for every full chunk (only the
        # final partial differs) — memoise instead of recomputing per
        # lap.  The tracer calls are no-ops when tracing is off; `traced`
        # skips even the no-op dispatch in this, the hottest loop in the
        # whole codebase.
        traced = obs.enabled
        job_metrics = self.metrics
        prev_chunk = -1.0
        chunk_cpu = chunk_out = 0.0
        read_sid = map_sid = send_sid = 0
        while remaining > 0:
            if job_metrics.aborted:
                # Another rank hit unrecoverable data loss: MPI_Abort
                # takes everyone down (pure state check — adds no events
                # on runs that never abort).
                tr.abort(sid, outcome="aborted")
                return
            offset = split_bytes - remaining
            chunk = min(chunk_in, remaining)
            remaining -= chunk
            if chunk != prev_chunk:
                prev_chunk = chunk
                chunk_cpu = self._user_cpu(profile.map_cpu_per_byte, chunk)
                chunk_out = profile.map_output_bytes(chunk)
            if traced:
                read_sid = tr.begin("mpid.map", "read", parent=sid)
            if self.storage is None:
                yield node.disk_read(chunk)
            else:
                ok = yield from self._read_chunk(
                    rank, node, offset, chunk, read_sid
                )
                if not ok:
                    tr.abort(read_sid, outcome="data-lost")
                    tr.abort(sid, outcome="aborted")
                    return
            if traced:
                tr.end(read_sid)
            cpu = chunk_cpu
            if traced:
                map_sid = tr.begin("mpid.map", "map", parent=sid)
            if fused_cpu and (free_run or cpus.try_acquire()):
                # Whole-chain horizon batching: the core's release is an
                # autonomous tick at the map phase's end, and the mapper
                # itself sleeps straight through map + realign [+compress]
                # into the first send — one resume for the whole CPU
                # chain.  All instants are the same float accumulation
                # the chained timeouts would produce.
                t_rel = sim.now + cpu
                if not free_run:
                    sim.tick_at(t_rel, release_core)
                if traced:
                    tr.end(map_sid)
                out = chunk_out
                if out <= 0:
                    yield sim.tick_at(t_rel)
                    continue
                m.spills += 1
                pending = t_rel + out * cfg.realign_cpu_per_byte
                if cfg.compress:
                    pending = pending + out * cfg.compress_cpu_per_byte
                    out *= cfg.compression_ratio
            else:
                core = cpus.acquire()
                try:
                    if not (fused and core.triggered):
                        # An uncontended slot grants synchronously;
                        # skipping the yield saves the resume (the
                        # pre-scheduled grant event still pops harmlessly
                        # with no callbacks).
                        yield core
                    yield sim.timeout(cpu)
                finally:
                    cpus.cancel(core)
                if traced:
                    tr.end(map_sid)
                # Spill: realign + eager sends of fixed-size arrays.
                out = chunk_out
                if out <= 0:
                    continue
                m.spills += 1
                realign_sid = (
                    tr.begin("mpid.map", "realign", parent=sid) if traced else 0
                )
                if fused:
                    # Defer the realign/compress sleep into the first
                    # send's injection sleep (one tick, not 2-3 timeouts).
                    pending = sim.now + out * cfg.realign_cpu_per_byte
                    if cfg.compress:
                        pending = pending + out * cfg.compress_cpu_per_byte
                        out *= cfg.compression_ratio
                else:
                    pending = None
                    yield sim.timeout(out * cfg.realign_cpu_per_byte)
                    if cfg.compress:
                        yield sim.timeout(out * cfg.compress_cpu_per_byte)
                        out *= cfg.compression_ratio
                if traced:
                    tr.end(realign_sid)
            if traced:
                send_sid = tr.begin("mpid.map", "send", parent=sid)
            for r, rnode in enumerate(reducer_nodes):
                share = out * weights[r]
                if share <= 0:
                    continue
                cached = wc_cache.get(share)
                if cached is None:
                    n_msgs = max(1, int(share // partition_bytes) + 1)
                    cached = (
                        n_msgs,
                        n_msgs * stream_per_msg,
                        mpich.wire_costs(int(share)).setup_time,
                    )
                    wc_cache[share] = cached
                n_msgs, send_cpu, setup_time = cached
                if pending is not None:
                    yield sim.tick_at(pending + send_cpu)
                    pending = None
                else:
                    yield sim.timeout(send_cpu)  # not overlapped: injection cost
                if reliable:
                    # Each array gets its own retransmission process; the
                    # reducer waits on it exactly like a bare flow.
                    flow = self._spawn(
                        node_id,
                        self._retransmit_proc(
                            node_id, rnode, share, setup_time, rank, r, m.spills
                        ),
                        name=f"retx-m{rank}-r{r}.{m.spills}",
                    )
                else:
                    path, base_lat = send_paths[r]
                    flow = net.transfer_flow(
                        path,
                        share,
                        latency=base_lat + setup_time,
                        waiter_sid=recv_sids[r],
                    ).done
                reducer_flows[r].append(flow)
                sent_per_reducer[r] += share
                m.sent_bytes += share
                m.messages += n_msgs
                if traced:
                    obs.metrics.counter("transport.mpich.messages").add(n_msgs)
                    obs.metrics.counter("transport.mpich.bytes").add(share)
            if pending is not None:
                # No reducer received bytes this spill; the realign/
                # compress CPU was still spent.
                yield sim.tick_at(pending)
            if traced:
                tr.end(send_sid, sent_bytes=m.sent_bytes)
        m.finished_at = sim.now
        tr.end(sid, messages=m.messages, spills=m.spills)
        self._open_mapper_sids.pop(id(m), None)
        if sid:
            self._mapper_sids.append(sid)
        self._mappers_done += 1
        if self._mappers_done == cfg.num_mappers:
            assert self._all_mappers_done is not None
            self._all_mappers_done.succeed()

    def _read_chunk(self, rank: int, node, offset: float, chunk: float, read_sid: int):
        """One chunk read against the replicated input (storage-fault runs).

        Clean runs read the local replica — the placement guarantees one —
        so an undamaged run costs exactly ``node.disk_read(chunk)``.  After
        a disk death the DFS-client loop below fails over to a remote
        replica (disk + wire, contending like any other flow); when every
        replica of the covering block is gone the job aborts, because MPI-D
        has no framework that could re-create the data (the Section-V
        asymmetry the durability experiment measures).  Returns True when
        the chunk was read, False after recording a fatal abort.
        """
        sim = self.sim
        storage = self.storage
        assert storage is not None
        f = self._mapper_files[rank]
        bidx = min(int(offset // self.config.input_block_size), len(f.blocks) - 1)
        block = f.blocks[bidx]
        bid = block.block_id
        while True:
            candidates = storage.read_candidates(block, node.node_id)
            if not candidates:
                name, b = storage.block_name(bid)
                self._record_abort(f"block_lost:{name}:{b}")
                self._stop_faults()
                return False
            src_id = candidates[0]
            epoch = storage.read_epoch(src_id)
            if src_id == node.node_id:
                yield node.disk_read(chunk)
            else:
                src = self.cluster.node(src_id)
                wire = self.cluster.send(
                    src_id, node.node_id, chunk, waiter_sid=read_sid
                )
                try:
                    yield sim.all_of([src.disk_read(chunk), wire])
                except FlowFailed as exc:
                    # Mixed plans only: a lossy network killed the transfer
                    # mid-read.  Baseline MPICH treats that as fatal.
                    self._record_abort(str(exc))
                    self._stop_faults()
                    return False
            if storage.is_corrupt(bid, src_id):
                storage.note_failover("corrupt", bid, src_id)
                storage.report_corruption(bid, src_id, sim.now)
                continue
            if storage.read_ok(bid, src_id, epoch):
                return True
            storage.note_failover("replica-gone", bid, src_id)

    def _stop_faults(self) -> None:
        """Stop open-ended fault streams so the heap can drain after a
        storage abort (network aborts stop them from :meth:`run`'s job
        process instead; storage aborts leave that process blocked on
        mappers that will never finish)."""
        if self.injector is not None:
            self.injector.stop()

    def _retransmit_proc(
        self,
        src: int,
        dst: int,
        nbytes: float,
        setup: float,
        rank: int,
        reducer: int,
        seq: int,
    ):
        """One array under reliable transport: resend on a killed flow.

        The backoff jitter stream is fixed by (seed, sender rank,
        reducer, spill number), so a run's retransmission timeline is
        reproducible.  Exhausting the budget re-raises — the reducer's
        wait then aborts the job, same as the baseline.
        """
        sim = self.sim
        policy = self.mpich.reliable_policy()
        rng = make_rng(self.seed, "mpid-retransmit", rank, reducer, seq)
        attempt = 0
        while True:
            flow = self.cluster.send_flow(
                src,
                dst,
                nbytes,
                extra_latency=setup,
                waiter_sid=self._recv_sids[reducer],
            )
            try:
                yield flow.done
                return
            except FlowFailed:
                attempt += 1
                if attempt > policy.retries:
                    raise
                self.metrics.retransmits += 1
                tr = sim.obs.tracer
                sid = tr.begin(
                    "mpid.retransmit",
                    f"retx n{src}->n{dst}",
                    attempt=attempt,
                )
                if sid:
                    sim.obs.metrics.counter("transport.mpich.retransmits").add()
                yield sim.timeout(policy.delay(attempt, rng))
                tr.end(sid)

    def _record_abort(self, reason: str) -> None:
        """First fatal loss wins; the abort instant is when the network
        actually killed the stream, not when the reducer noticed."""
        m = self.metrics
        if m.aborted:
            return
        m.aborted = True
        m.abort_reason = reason
        if self.shared:
            # The network's first-failure clock is cluster-global on a
            # shared fabric and may predate this job entirely.
            m.aborted_at = self.sim.now
        else:
            at = self.cluster.network.first_flow_failure_at
            m.aborted_at = at if at is not None else self.sim.now

    def _reducer_proc(self, index: int, node_id: int):
        sim = self.sim
        cfg = self.config
        r = ReducerMetrics(rank=cfg.num_mappers + 1 + index, node=node_id)
        self.metrics.reducers.append(r)
        tr = sim.obs.tracer
        try:
            yield from self._reducer_body(index, node_id, r)
        except Interrupt:
            tr.abort(self._open_reducer_sids.get(id(r), 0), outcome="interrupted")
            return

    def _reducer_body(self, index: int, node_id: int, r: ReducerMetrics):
        sim = self.sim
        cfg = self.config
        profile = self.spec.profile
        node = self.cluster.node(node_id)
        yield sim.timeout(cfg.startup_time)
        r.started_at = sim.now
        tr = sim.obs.tracer
        sid = tr.begin("mpid.reduce", f"reducer{index}", node=node_id)
        self._open_reducer_sids[id(r)] = sid

        # Wildcard reception: wait until every mapper finished emitting,
        # then for every in-flight array destined here.
        recv_sid = tr.begin("mpid.reduce", "recv", parent=sid)
        self._recv_sids[index] = recv_sid
        yield self._all_mappers_done
        for mapper_sid in self._mapper_sids:
            # The wildcard recv cannot return before every mapper is done
            # emitting — the paper's all-senders barrier, as edges.
            tr.edge(mapper_sid, recv_sid, "barrier")
        flows = self._reducer_flows[index]
        if flows:
            try:
                yield sim.all_of(flows)
            except FlowFailed as exc:
                # Fatal stream loss: MPICH2 takes the whole job down.
                self._record_abort(str(exc))
                tr.abort(recv_sid, outcome="aborted")
                tr.abort(sid, outcome="aborted")
                return
        r.received_bytes = self._sent_per_reducer[index]
        r.copy_done_at = sim.now
        tr.end(recv_sid, received_bytes=r.received_bytes)

        # Reverse realignment (+ decompression) + merge + user reduce.
        raw_bytes = r.received_bytes
        decompress_cpu = 0.0
        if cfg.compress:
            raw_bytes = r.received_bytes / cfg.compression_ratio
            decompress_cpu = raw_bytes * cfg.decompress_cpu_per_byte
        merge_cpu = self._user_cpu(profile.reduce_cpu_per_byte, raw_bytes)
        realign_cpu = raw_bytes * cfg.realign_cpu_per_byte + decompress_cpu
        merge_sid = tr.begin("mpid.reduce", "merge", parent=sid)
        core = node.cpus.acquire()
        try:
            yield core
            yield sim.timeout(merge_cpu + realign_cpu)
        finally:
            node.cpus.cancel(core)
        tr.end(merge_sid)
        output = profile.reduce_output_bytes(raw_bytes)
        write_sid = tr.begin("mpid.reduce", "write", parent=sid, output_bytes=output)
        for _ in range(cfg.output_replication):
            yield node.disk_write(output)
        tr.end(write_sid)
        r.finished_at = sim.now
        self._open_reducer_sids.pop(id(r), None)
        tr.edge(sid, self.job_sid, "complete")
        tr.end(sid, received_bytes=r.received_bytes)

    # -- driver --------------------------------------------------------------------------
    def start(self) -> Process:
        """Launch the gang on the kernel and return the supervising
        process.  Standalone callers use :meth:`run`; the multi-tenant
        engine calls this at dispatch time and :meth:`complete` after the
        supervisor finishes."""
        sim = self.sim
        cfg = self.config
        self._all_mappers_done = sim.event()
        split = self.spec.input_bytes / cfg.num_mappers
        job_sid = sim.obs.tracer.begin(
            "mpid.job",
            self.spec.name,
            track="mpid:job",
            input_bytes=self.spec.input_bytes,
            mappers=cfg.num_mappers,
            reducers=cfg.num_reducers,
        )
        self.job_sid = job_sid
        self._flows_failed_at_start = self.cluster.network.flows_failed
        t0 = sim.now

        procs = []
        for rank, node_id in enumerate(self.mapper_nodes, start=1):
            procs.append(
                self._spawn(
                    node_id,
                    self._mapper_proc(rank, node_id, split),
                    name=f"mapper{rank}",
                )
            )
        for i, node_id in enumerate(self.reducer_nodes):
            procs.append(
                self._spawn(
                    node_id, self._reducer_proc(i, node_id), name=f"reducer{i}"
                )
            )
        if self.injector is not None:
            self.injector.start()

        def job(sim_):
            yield sim.all_of(procs)
            self.metrics.elapsed = sim.now - t0
            if self.injector is not None:
                # Open-ended loss streams must not keep the heap alive.
                self.injector.stop()

        self._job_proc = sim.process(job(sim), name="job")
        return self._job_proc

    def complete(self) -> MrMpiMetrics:
        """Finalize after the supervisor process has finished.  Raises
        :class:`MpiJobAborted` if the gang was taken down."""
        sim = self.sim
        sim.obs.tracer.end(self.job_sid, aborted=self.metrics.aborted)
        self.metrics.flows_lost = (
            self.cluster.network.flows_failed - self._flows_failed_at_start
        )
        if self.metrics.aborted:
            raise MpiJobAborted(
                self.metrics.abort_reason or "stream lost",
                self.metrics.aborted_at or sim.now,
                self.metrics,
            )
        return self.metrics

    def run(self, until: Optional[float] = None) -> MrMpiMetrics:
        if self.shared:
            raise RuntimeError(
                "shared-cluster jobs are driven by the engine: "
                "use start()/complete()"
            )
        self.start()
        self.sim.run(until=until)
        metrics = self.complete()
        if metrics.elapsed == 0.0 and until is not None:
            raise RuntimeError(f"job did not finish by t={until}")
        return metrics


def run_mpid_job(
    spec: JobSpec,
    config: Optional[MrMpiConfig] = None,
    cluster_spec: Optional[ClusterSpec] = None,
) -> MrMpiMetrics:
    """Convenience: run one MPI-D job on the default (paper) cluster."""
    return MrMpiSimulation(
        spec=spec,
        config=config or MrMpiConfig(),
        cluster_spec=cluster_spec or ClusterSpec(),
    ).run()


# -- failure semantics --------------------------------------------------------
#
# MPI-D has no task-level fault tolerance: MPICH2 aborts the whole job
# when any rank dies, and the only recovery is resubmission (optionally
# from a coordinated checkpoint).  Because a clean rerun is *identical*
# to the first attempt — same static splits, same schedule, no
# heartbeat randomness — re-running the DES per attempt would reproduce
# the same number every time.  We therefore run the DES once for the
# clean makespan and replay the (deterministic, seed-derived) crash
# timeline analytically over it.  This is the same timeline the Hadoop
# injector plays out, so a comparison sees both systems hit by the
# identical failure sequence.


@dataclass
class MrMpiFaultMetrics:
    """Accounting of one MPI-D job run under a fault plan."""

    job_name: str
    #: Makespan of one undisturbed attempt (DES-measured).
    clean_elapsed: float
    #: Wall-clock until the job finally completed; ``inf`` if it never did.
    elapsed: float = 0.0
    restarts: int = 0
    #: Progress seconds thrown away by aborts (work re-done on restart).
    lost_work_seconds: float = 0.0
    #: Extra seconds spent writing checkpoints (0 without checkpointing).
    checkpoint_overhead_seconds: float = 0.0
    #: Seconds spent in restart windows (job down, nothing running).
    restart_overhead_seconds: float = 0.0
    completed: bool = True
    checkpointed: bool = False
    # -- lossy-network accounting (DES-measured; zero for crash plans) --------
    flows_lost: int = 0
    retransmits: int = 0
    # -- storage accounting (DES-measured; zero for crash/network plans) ------
    #: Reads that skipped a dead/corrupt replica for another copy.
    read_failovers: int = 0
    #: True when every replica of some input block was destroyed — the
    #: job can never complete, no matter how many times it restarts.
    data_lost: bool = False

    @property
    def slowdown(self) -> float:
        """Faulty / clean makespan ratio (inf when the job never finished)."""
        return self.elapsed / self.clean_elapsed if self.clean_elapsed > 0 else 1.0

    @property
    def wasted_task_seconds(self) -> float:
        """Total seconds spent on work that did not advance the job.

        The MPI-D counterpart of Hadoop's ``JobMetrics.wasted_task_seconds``:
        re-executed progress, downtime between abort and restart, and the
        checkpoint tax all count — so the two systems' fault overheads are
        reported in the same unit.
        """
        return (
            self.lost_work_seconds
            + self.restart_overhead_seconds
            + self.checkpoint_overhead_seconds
        )

    def summary(self) -> dict:
        return {
            "job": self.job_name,
            "clean_elapsed": self.clean_elapsed,
            "elapsed": self.elapsed,
            "restarts": self.restarts,
            "lost_work_seconds": self.lost_work_seconds,
            "checkpoint_overhead_seconds": self.checkpoint_overhead_seconds,
            "restart_overhead_seconds": self.restart_overhead_seconds,
            "wasted_task_seconds": self.wasted_task_seconds,
            "completed": self.completed,
            "checkpointed": self.checkpointed,
            "read_failovers": self.read_failovers,
            "data_lost": self.data_lost,
        }

    def fault_summary(self) -> dict:
        """The counter set experiments report symmetrically with Hadoop."""
        return {
            "restarts": self.restarts,
            "lost_work_seconds": self.lost_work_seconds,
            "restart_overhead_seconds": self.restart_overhead_seconds,
            "checkpoint_overhead_seconds": self.checkpoint_overhead_seconds,
            "wasted_task_seconds": self.wasted_task_seconds,
            "flows_lost": self.flows_lost,
            "retransmits": self.retransmits,
            "read_failovers": self.read_failovers,
            "data_lost": self.data_lost,
        }


def replay_restarts(
    job_name: str,
    work: float,
    crashes: list[float],
    restart_overhead: float,
    checkpoint_interval: Optional[float] = None,
    checkpoint_cost: float = 0.0,
    max_restarts: int = 100,
) -> MrMpiFaultMetrics:
    """Replay a crash timeline over a job needing ``work`` clean seconds.

    Pure function of its inputs.  Without checkpointing every crash
    restarts the job from zero progress; with it, execution pays
    ``checkpoint_cost`` per ``checkpoint_interval`` of progress (an
    overhead rate of ``1 + cost/interval``) and a crash resumes from the
    last *complete* interval.  Crashes landing inside a restart window
    hit a job that is not yet running and are absorbed by it.
    """
    if work < 0:
        raise ValueError(f"work may not be negative: {work}")
    out = MrMpiFaultMetrics(
        job_name=job_name,
        clean_elapsed=work,
        checkpointed=checkpoint_interval is not None,
    )
    rate = 1.0
    if checkpoint_interval is not None:
        rate += checkpoint_cost / checkpoint_interval
    t = 0.0  # wall clock
    done = 0.0  # progress (clean-work seconds) safely banked
    for c in sorted(crashes):
        finish = t + (work - done) * rate
        if c >= finish:
            break  # the job beat this crash
        if c < t:
            continue  # during a restart window: nothing running to kill
        progress = done + (c - t) / rate
        if checkpoint_interval is not None:
            keep = min(progress, (progress // checkpoint_interval) * checkpoint_interval)
        else:
            keep = 0.0
        out.lost_work_seconds += progress - keep
        done = keep
        t = c + restart_overhead
        out.restarts += 1
        out.restart_overhead_seconds += restart_overhead
        if out.restarts > max_restarts:
            out.completed = False
            out.elapsed = float("inf")
            return out
    out.elapsed = t + (work - done) * rate
    # Every progress second executed (banked or later lost) paid the
    # checkpoint tax of (rate - 1) wall seconds.
    out.checkpoint_overhead_seconds = (rate - 1.0) * (work + out.lost_work_seconds)
    return out


def run_mpid_job_under_faults(
    spec: JobSpec,
    plan,
    config: Optional[MrMpiConfig] = None,
    cluster_spec: Optional[ClusterSpec] = None,
    nodes: Optional[tuple[int, ...]] = None,
    clean_elapsed: Optional[float] = None,
) -> MrMpiFaultMetrics:
    """One MPI-D job under a :class:`~repro.simnet.faults.FaultPlan`.

    ``nodes`` is the set whose crashes hit the job (default: every node
    in the cluster — any rank's host dying aborts an MPI job).  Pass a
    cached ``clean_elapsed`` to skip re-running the DES when sweeping
    many fault rates over the same job.
    """
    cfg = config or MrMpiConfig()
    cspec = cluster_spec or ClusterSpec()
    if nodes is None:
        nodes = tuple(range(cspec.num_nodes))
    if clean_elapsed is None:
        clean_elapsed = run_mpid_job(spec, config=cfg, cluster_spec=cspec).elapsed
    # Adaptive horizon: the crash timeline must cover the (unknown)
    # faulty makespan.  Prefix consistency of ``crash_times`` makes
    # doubling safe — earlier crashes never move.
    horizon = max(4.0 * clean_elapsed, 600.0)
    while True:
        crashes = plan.crash_times(nodes, horizon)
        result = replay_restarts(
            spec.name,
            clean_elapsed,
            crashes,
            restart_overhead=cfg.restart_overhead,
            checkpoint_interval=cfg.checkpoint_interval,
            checkpoint_cost=cfg.checkpoint_cost,
            max_restarts=cfg.max_restarts,
        )
        if not result.completed or result.elapsed <= horizon:
            return result
        horizon *= 2.0


def run_mpid_job_under_net_faults(
    spec: JobSpec,
    plan: FaultPlan,
    config: Optional[MrMpiConfig] = None,
    cluster_spec: Optional[ClusterSpec] = None,
) -> MrMpiFaultMetrics:
    """One MPI-D job on a lossy network, restarts included.

    Unlike node crashes (deterministic rerun -> analytic replay),
    network faults interact with the traffic, so every attempt is a real
    DES run.  The baseline transport aborts on the first killed stream
    and the job is resubmitted from scratch (the paper's Section-V
    criticism made concrete); ``config.reliable_transport`` retransmits
    instead and usually completes in one attempt.

    Attempt 0 runs under ``plan`` exactly as Hadoop would see it —
    identical kill timeline for the head-to-head comparison.  Each
    resubmission re-derives the plan seed (a restarted job re-rolls the
    network's dice), so the restart sequence is still a pure function of
    (spec, plan, config).
    """
    cfg = config or MrMpiConfig()
    cspec = cluster_spec or ClusterSpec()
    clean = run_mpid_job(spec, config=cfg, cluster_spec=cspec).elapsed
    out = MrMpiFaultMetrics(job_name=spec.name, clean_elapsed=clean)
    wall = 0.0
    attempt = 0
    while True:
        # A resubmission starts ``wall`` seconds into the fault timeline:
        # one-shot outages it outlived never recur, and the re-rolled
        # seed keeps the loss streams independent across attempts.
        p = (
            plan
            if attempt == 0
            else replace(
                plan.shifted(wall),
                seed=derive_seed(plan.seed, "mpid-net-attempt", attempt),
            )
        )
        sim = MrMpiSimulation(
            spec=spec,
            config=cfg,
            cluster_spec=cspec,
            fault_plan=p,
            seed=p.seed,
        )
        try:
            m = sim.run()
        except MpiJobAborted as exc:
            out.restarts += 1
            out.lost_work_seconds += exc.at
            out.restart_overhead_seconds += cfg.restart_overhead
            out.flows_lost += exc.metrics.flows_lost
            out.retransmits += exc.metrics.retransmits
            wall += exc.at + cfg.restart_overhead
            if out.restarts > cfg.max_restarts:
                out.completed = False
                out.elapsed = float("inf")
                return out
            attempt += 1
            continue
        out.flows_lost += m.flows_lost
        out.retransmits += m.retransmits
        out.elapsed = wall + m.elapsed
        return out


def run_mpid_job_under_storage_faults(
    spec: JobSpec,
    plan: FaultPlan,
    config: Optional[MrMpiConfig] = None,
    cluster_spec: Optional[ClusterSpec] = None,
) -> MrMpiFaultMetrics:
    """One MPI-D job over failing input disks, restarts included.

    The crucial asymmetry with Hadoop (Section V): MPI-D has no NameNode
    re-replicating lost blocks, so storage damage is *permanent* — it is
    carried into every resubmission via ``prior_damage``.  With
    ``input_replication=1`` the first relevant disk death dooms the job;
    with extra replicas it survives by failing over (at remote-read cost)
    until the last copy of some block is gone, at which point restarting
    is pointless and the job is declared failed immediately.

    The replica placement is a pure function of ``plan.seed`` and is NOT
    re-rolled across attempts (the input layout does not change on
    resubmission); the fault streams are re-derived per attempt just as
    in the network-fault loop.
    """
    cfg = config or MrMpiConfig()
    cspec = cluster_spec or ClusterSpec()
    clean = run_mpid_job(spec, config=cfg, cluster_spec=cspec).elapsed
    out = MrMpiFaultMetrics(job_name=spec.name, clean_elapsed=clean)
    wall = 0.0
    attempt = 0
    damage: Optional[tuple] = None
    while True:
        p = (
            plan
            if attempt == 0
            else replace(
                plan.shifted(wall),
                seed=derive_seed(plan.seed, "mpid-storage-attempt", attempt),
            )
        )
        sim = MrMpiSimulation(
            spec=spec,
            config=cfg,
            cluster_spec=cspec,
            fault_plan=p,
            seed=plan.seed,  # placement is layout, not luck: never re-rolled
            prior_damage=damage,
        )
        try:
            m = sim.run()
        except MpiJobAborted as exc:
            out.restarts += 1
            out.lost_work_seconds += exc.at
            out.restart_overhead_seconds += cfg.restart_overhead
            out.flows_lost += exc.metrics.flows_lost
            out.retransmits += exc.metrics.retransmits
            if sim.storage is not None:
                out.read_failovers += sim.storage.read_failovers
                damage = sim.storage.damage()
                if sim.storage.any_block_lost():
                    # Every replica of some block is gone and nothing in
                    # the MPI world will bring it back: permanent DNF.
                    out.completed = False
                    out.data_lost = True
                    out.elapsed = float("inf")
                    return out
            wall += exc.at + cfg.restart_overhead
            if out.restarts > cfg.max_restarts:
                out.completed = False
                out.elapsed = float("inf")
                return out
            attempt += 1
            continue
        out.flows_lost += m.flows_lost
        out.retransmits += m.retransmits
        if sim.storage is not None:
            out.read_failovers += sim.storage.read_failovers
        out.elapsed = wall + m.elapsed
        return out
