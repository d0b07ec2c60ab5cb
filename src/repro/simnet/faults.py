"""Declarative, seed-deterministic fault injection for the simulators.

A :class:`FaultPlan` is a frozen description of everything that goes
wrong during a run — node crashes (one-shot at time *t*, or Poisson
churn at rate λ per node), disk and link degradation, whole-node
straggler slowdown.  The plan itself is pure data: the same plan and
seed always produce the same fault timeline, so a faulty run is exactly
as reproducible as a clean one.

Two consumers exist:

* :class:`FaultInjector` turns the plan into kernel processes on a
  :class:`~repro.simnet.cluster.Cluster`.  Crash specs call back into a
  *host* (``crash_node``/``restart_node``), which interrupts the victim
  processes via the kernel's :class:`~repro.simnet.kernel.Interrupt`
  machinery; degradation specs rescale the victim's disk and links in
  place.
* :meth:`FaultPlan.crash_times` materializes the same crash timeline as
  a plain sorted list of times — the analytic form the MPI-D restart
  model consumes, guaranteeing both systems in a comparison see the
  *identical* failure sequence.

Validation is eager (mirroring ``HadoopConfig.validate``): malformed
specs raise at construction, topology mismatches (crash of a
nonexistent node) raise from :meth:`FaultPlan.validate` before any
simulated time passes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Protocol, Union, get_args

from repro.simnet.cluster import Cluster, Node
from repro.simnet.kernel import Interrupt, Process, Simulator
from repro.util.rng import make_rng


# -- fault specifications ----------------------------------------------------
#
# Every check is written so that NaN fails it (``not 0 <= x < inf``
# rather than ``x < 0``): a NaN or infinite time, rate or factor would
# otherwise reach the kernel as an unschedulable delay.
_INF = float("inf")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _check_node(what: str, node: int) -> None:
    _check(0 <= node < _INF, f"{what} of invalid node id: {node}")


def _check_time(what: str, value: float) -> None:
    _check(0 <= value < _INF, f"{what} must be finite and non-negative: {value}")


def _check_positive(what: str, value: float) -> None:
    _check(0 < value < _INF, f"{what} must be positive and finite: {value}")


def _check_duration(value: Optional[float]) -> None:
    if value is not None:
        _check_positive("duration (or None for open-ended)", value)


def _check_node_set(what: str, nodes: Optional[tuple[int, ...]]) -> None:
    if nodes is not None:
        _check(bool(nodes), "empty node tuple (use None for the default set)")
        for node in nodes:
            _check(0 <= node < _INF, f"invalid node id in {what} set: {node}")


def _check_stream(what: str, spec) -> None:
    """The checks every seeded-rate spec with a time window shares."""
    _check_positive(f"{what} rate", spec.rate)
    _check_time("start time", spec.start)
    _check_duration(spec.duration)
    _check_node_set(what, spec.nodes)


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` fails at time ``at``; optionally restarts later.

    ``restart_after=None`` is a permanent loss; otherwise the node comes
    back ``restart_after`` seconds after the crash with empty local
    state (task processes are gone, disk contents survive — the Hadoop
    DataNode model).
    """

    node: int
    at: float
    restart_after: Optional[float] = None

    def __post_init__(self) -> None:
        _check_node("crash", self.node)
        _check_time("crash time", self.at)
        if self.restart_after is not None:
            _check_positive("restart_after", self.restart_after)


@dataclass(frozen=True)
class CrashRate:
    """Poisson crash/restart churn: each node fails at rate λ (per second).

    Inter-failure gaps are exponential with mean ``1/rate``, sampled per
    node from a stream derived from the plan seed — so two runs with the
    same plan see the same crash times, and adding node 5's stream never
    perturbs node 3's.  After each crash the node is down for
    ``restart_after`` seconds, then rejoins; the next failure gap starts
    after the restart.  ``nodes=None`` targets the host's default
    injectable set (the worker nodes, for the Hadoop simulation).
    """

    rate: float
    nodes: Optional[tuple[int, ...]] = None
    restart_after: float = 30.0
    start: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("crash rate", self.rate)
        _check_positive("restart_after", self.restart_after)
        _check_time("start time", self.start)
        _check_node_set("crash", self.nodes)


@dataclass(frozen=True)
class _Degradation:
    """Common shape of the slowdown specs."""

    node: int
    at: float
    factor: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_node("degradation", self.node)
        _check_time("degradation time", self.at)
        _check(
            1.0 <= self.factor < _INF,
            f"slowdown factor must be finite and >= 1 (got {self.factor}); "
            f"a fault never makes hardware faster",
        )
        _check_duration(self.duration)


class DiskDegradation(_Degradation):
    """Disk service rate divided by ``factor`` (a dying SATA drive)."""


class LinkDegradation(_Degradation):
    """Both NIC links' capacity divided by ``factor`` (a flaky port)."""


class Straggler(_Degradation):
    """Whole-node slowdown: disk *and* links divided by ``factor``."""


@dataclass(frozen=True)
class LinkFlap:
    """Node ``node``'s NIC goes dark at ``at`` for ``duration`` seconds.

    Both directions drop: in-flight flows over either link die with
    :class:`~repro.simnet.network.FlowFailed` and new flows fail at
    start until the link comes back.  ``flaps > 1`` repeats the outage
    every ``period`` seconds (a wedged switch port cycling), so
    ``period`` must exceed ``duration``.
    """

    node: int
    at: float
    duration: float
    flaps: int = 1
    period: Optional[float] = None

    def __post_init__(self) -> None:
        _check_node("link flap", self.node)
        _check_time("flap time", self.at)
        _check_positive("flap duration", self.duration)
        _check(1 <= self.flaps < _INF, f"flap count must be >= 1: {self.flaps}")
        if self.flaps > 1:
            _check(self.period is not None, "repeated flaps need a period")
            _check(
                self.duration < self.period < _INF,
                f"flap period ({self.period}) must be finite and exceed the "
                f"outage duration ({self.duration})",
            )


@dataclass(frozen=True)
class NetworkPartition:
    """The cluster splits in two at ``at`` for ``duration`` seconds.

    ``nodes`` is one side of the cut (the other side is everyone else);
    flows crossing the cut die and new cross-cut flows fail at start
    until the partition heals.  Traffic *within* either side is
    untouched — that asymmetry is the whole point of modeling a
    partition rather than N link flaps.
    """

    nodes: tuple[int, ...]
    at: float
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))
        _check(bool(self.nodes), "partition needs at least one node on the cut side")
        _check_node_set("partition", self.nodes)
        _check_time("partition time", self.at)
        _check_positive("partition duration", self.duration)


@dataclass(frozen=True)
class FlowLossRate:
    """Kill in-flight flows at a seeded Poisson rate (a lossy network).

    ``rate`` is expected kills per *link*-second on each of the targeted
    nodes' links (``nodes=None`` = every node); each kill picks a
    uniformly random victim among the flows crossing that link at that
    instant (idle links lose nothing).  Victims' waiters see
    :class:`~repro.simnet.network.FlowFailed` — this is the fault that
    exercises shuffle fetch retries and MPI retransmission.  The loss
    window is ``[start, start + duration)``; ``duration=None`` is
    open-ended.
    """

    rate: float
    nodes: Optional[tuple[int, ...]] = None
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_stream("loss", self)


@dataclass(frozen=True)
class DiskFailure:
    """A datanode's disk dies at a seeded Poisson rate (per second).

    Each failure destroys every HDFS replica the node currently holds
    (the drive is swapped for an empty one; the node itself keeps
    computing — this is a storage fault, not a crash).  Gaps are
    exponential with mean ``1/rate``, sampled per node from a stream
    derived from the plan seed, so adding node 5's stream never perturbs
    node 3's.  ``nodes=None`` targets the host's default storage set
    (the datanodes).  The failure window is ``[start, start + duration)``;
    ``duration=None`` is open-ended.
    """

    rate: float
    nodes: Optional[tuple[int, ...]] = None
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_stream("disk failure", self)


@dataclass(frozen=True)
class BlockCorruption:
    """Silent replica corruption at a seeded Poisson rate (per second).

    Each event picks one replica currently stored on the node (uniform,
    from the spec's own stream) and flips its bits; a node holding no
    blocks absorbs the event, like :class:`FlowLossRate` kills on an
    idle link.  Corruption is *latent*: nothing happens until a reader's
    checksum verification catches it, fails over, and reports the bad
    replica for re-replication — the HDFS client protocol.
    """

    rate: float
    nodes: Optional[tuple[int, ...]] = None
    start: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_stream("corruption", self)


@dataclass(frozen=True)
class Decommission:
    """Administrative datanode decommission at time ``at``.

    The node leaves the placement pool immediately (no new replicas land
    there) and its blocks are drained by the repair pipeline; existing
    replicas stay *readable* until each has been copied elsewhere —
    exactly HDFS's graceful decommission, and deliberately gentler than
    :class:`DiskFailure`.
    """

    node: int
    at: float = 0.0

    def __post_init__(self) -> None:
        _check_node("decommission", self.node)
        _check_time("decommission time", self.at)


FaultSpec = Union[
    NodeCrash,
    CrashRate,
    DiskDegradation,
    LinkDegradation,
    Straggler,
    LinkFlap,
    NetworkPartition,
    FlowLossRate,
    DiskFailure,
    BlockCorruption,
    Decommission,
]

#: Specs consumed by the network layer (vs. node/disk faults).  Plans
#: containing any of these switch the Hadoop shuffle into its
#: retry/backoff pipeline and make MPI sends fallible.
NETWORK_FAULT_SPECS = (LinkFlap, NetworkPartition, FlowLossRate)

#: Specs consumed by the storage layer.  Plans containing any of these
#: make the simulations build a live replica map (StorageManager) with
#: read-path failover and, for Hadoop, the re-replication pipeline.
STORAGE_FAULT_SPECS = (DiskFailure, BlockCorruption, Decommission)


# -- the plan ----------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault specs plus the injection seed."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 2011

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, get_args(FaultSpec)):
                raise TypeError(f"not a fault spec: {spec!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def has_network_faults(self) -> bool:
        """True when any spec can fail flows (the consumers' mode switch)."""
        return any(isinstance(spec, NETWORK_FAULT_SPECS) for spec in self.specs)

    def has_storage_faults(self) -> bool:
        """True when any spec touches stored replicas (storage mode switch)."""
        return any(isinstance(spec, STORAGE_FAULT_SPECS) for spec in self.specs)

    def _spec_targets(self, spec: FaultSpec) -> tuple[int, ...]:
        """The node ids a spec names explicitly (empty = default set)."""
        if isinstance(spec, (CrashRate, FlowLossRate, DiskFailure, BlockCorruption)):
            return spec.nodes or ()
        if isinstance(spec, NetworkPartition):
            return spec.nodes
        # NodeCrash, the degradations, LinkFlap, and Decommission name one node.
        return (spec.node,)

    def validate(self, num_nodes: int) -> None:
        """Check every spec against the target topology; raises ValueError.

        Uniformly eager: *every* spec type's node references are checked
        (value-range errors like negative factors already raised at spec
        construction), so a bad plan fails before any simulated time
        passes regardless of which fault kind carries the mistake.
        """
        if num_nodes < 1:
            raise ValueError(f"cluster must have at least one node: {num_nodes}")
        for spec in self.specs:
            name = type(spec).__name__
            for node in self._spec_targets(spec):
                if node >= num_nodes:
                    raise ValueError(
                        f"{name} targets node {node}, but the cluster "
                        f"has only nodes 0..{num_nodes - 1}"
                    )
            if isinstance(spec, NetworkPartition) and len(spec.nodes) >= num_nodes:
                raise ValueError(
                    f"{name} puts all {num_nodes} nodes on one side; a "
                    f"partition needs nodes on both sides of the cut"
                )

    def shifted(self, offset: float) -> "FaultPlan":
        """The plan as seen by a run starting ``offset`` seconds into the
        fault timeline.

        A resubmitted job does not reset the world: a partition scheduled
        at t=40 hits a job restarted at t=30 ten seconds in, and one that
        already healed never recurs.  One-shot specs move earlier (and
        are dropped once fully in the past), in-progress outages keep
        only their remainder, and rate specs keep running with their
        window clipped.
        """
        if offset < 0:
            raise ValueError(f"offset may not be negative: {offset}")
        if offset == 0:
            return self
        specs: list[FaultSpec] = []
        for spec in self.specs:
            if isinstance(spec, NodeCrash):
                at = spec.at - offset
                if at >= 0:  # a crash in the past does not recur
                    specs.append(replace(spec, at=at))
            elif isinstance(spec, CrashRate):
                specs.append(replace(spec, start=max(0.0, spec.start - offset)))
            elif isinstance(spec, (FlowLossRate, DiskFailure, BlockCorruption)):
                start = max(0.0, spec.start - offset)
                if spec.duration is None:
                    specs.append(replace(spec, start=start))
                else:
                    end = spec.start + spec.duration - offset
                    if end > start:
                        specs.append(
                            replace(spec, start=start, duration=end - start)
                        )
            elif isinstance(spec, Decommission):
                # A decommission in the past does not un-happen: the node
                # is still out of the pool when the job restarts.
                specs.append(replace(spec, at=max(0.0, spec.at - offset)))
            elif isinstance(spec, NetworkPartition):
                at = spec.at - offset
                if at >= 0:
                    specs.append(replace(spec, at=at))
                elif spec.duration + at > 0:  # mid-outage: the remainder
                    specs.append(replace(spec, at=0.0, duration=spec.duration + at))
            elif isinstance(spec, LinkFlap):
                at = spec.at - offset
                flaps = spec.flaps
                while flaps > 1 and at + spec.duration <= 0:
                    assert spec.period is not None
                    at += spec.period
                    flaps -= 1
                if at >= 0:
                    specs.append(replace(spec, at=at, flaps=flaps))
                elif spec.duration + at > 0:
                    # Mid-outage: the remainder now, later flaps unchanged.
                    specs.append(
                        LinkFlap(spec.node, 0.0, spec.duration + at)
                    )
                    if flaps > 1:
                        assert spec.period is not None
                        specs.append(
                            replace(
                                spec, at=at + spec.period, flaps=flaps - 1
                            )
                        )
            else:  # the degradations
                at = spec.at - offset
                if at >= 0:
                    specs.append(replace(spec, at=at))
                elif spec.duration is None:
                    specs.append(replace(spec, at=0.0))
                elif spec.duration + at > 0:
                    specs.append(
                        replace(spec, at=0.0, duration=spec.duration + at)
                    )
        return FaultPlan(specs=tuple(specs), seed=self.seed)

    # -- the analytic view ----------------------------------------------------
    def crash_times(
        self, nodes: Iterable[int], horizon: float
    ) -> list[float]:
        """All crash instants hitting ``nodes`` within ``[0, horizon]``.

        Deterministic in (plan, seed): the per-node Poisson streams here
        are byte-identical to the ones :class:`FaultInjector` plays out
        on the DES, and extending ``horizon`` only appends later times —
        prefixes never change.
        """
        if horizon < 0:
            raise ValueError(f"horizon may not be negative: {horizon}")
        targets = set(nodes)
        times: list[float] = []
        for spec in self.specs:
            if isinstance(spec, NodeCrash):
                if spec.node in targets and spec.at <= horizon:
                    times.append(spec.at)
            elif isinstance(spec, CrashRate):
                churn = spec.nodes if spec.nodes is not None else tuple(sorted(targets))
                for node in churn:
                    if node not in targets:
                        continue
                    rng = make_rng(self.seed, "faults", "crash-rate", node)
                    t = spec.start
                    while True:
                        t += float(rng.exponential(1.0 / spec.rate))
                        if t > horizon:
                            break
                        times.append(t)
                        t += spec.restart_after  # down while restarting
        return sorted(times)

    def disk_failure_times(
        self, nodes: Iterable[int], horizon: float
    ) -> list[tuple[float, int]]:
        """All ``(time, node)`` disk failures within ``[0, horizon]``.

        The analytic twin of the injector's :class:`DiskFailure`
        processes: identical per-node streams (seeded by the plan seed
        and the node id), and extending ``horizon`` only appends —
        prefixes never change.
        """
        if horizon < 0:
            raise ValueError(f"horizon may not be negative: {horizon}")
        targets = set(nodes)
        times: list[tuple[float, int]] = []
        for spec in self.specs:
            if not isinstance(spec, DiskFailure):
                continue
            hit = spec.nodes if spec.nodes is not None else tuple(sorted(targets))
            end = None if spec.duration is None else spec.start + spec.duration
            for node in hit:
                if node not in targets:
                    continue
                rng = make_rng(self.seed, "faults", "disk-failure", node)
                t = spec.start
                while True:
                    t += float(rng.exponential(1.0 / spec.rate))
                    if t > horizon or (end is not None and t > end):
                        break
                    times.append((t, node))
        return sorted(times)


class FaultHost(Protocol):
    """What the injector needs from the simulation driving it."""

    def crash_node(self, node_id: int, now: float) -> None: ...

    def restart_node(self, node_id: int, now: float) -> None: ...


class StorageFaultHost(Protocol):
    """What storage specs need: a live replica map to damage.

    Implemented by :class:`repro.hadoop.storage.StorageManager`; passed
    to the injector only when the plan has storage specs.
    """

    def disk_failed(self, node_id: int, now: float) -> None: ...

    def corrupt_replica(self, node_id: int, now: float, rng) -> bool: ...

    def decommission(self, node_id: int, now: float) -> None: ...


class FaultInjector:
    """Plays a :class:`FaultPlan` out as processes on one simulator.

    Crash specs call ``host.crash_node`` / ``host.restart_node`` (the
    host interrupts its victim processes); degradations rescale the
    node's disk rate and link capacities directly.  ``stop()`` tears the
    injector down once the observed job is over, so open-ended churn
    processes never keep the event heap alive.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        plan: FaultPlan,
        host: FaultHost,
        default_nodes: Optional[Iterable[int]] = None,
        storage: Optional[StorageFaultHost] = None,
        default_storage_nodes: Optional[Iterable[int]] = None,
    ):
        plan.validate(len(cluster))
        if plan.has_storage_faults() and storage is None:
            raise ValueError(
                "plan has storage fault specs but no storage host was given"
            )
        self.sim = sim
        self.cluster = cluster
        self.plan = plan
        self.host = host
        self.storage = storage
        self.default_nodes = (
            tuple(default_nodes)
            if default_nodes is not None
            else tuple(range(len(cluster)))
        )
        # Storage specs default to the datanode set, which may differ
        # from the crash/loss default (e.g. MPI-D injects flow loss on
        # every node but only workers hold HDFS blocks).
        self.default_storage_nodes = (
            tuple(default_storage_nodes)
            if default_storage_nodes is not None
            else self.default_nodes
        )
        self._procs: list[Process] = []
        self._started = False
        self.crashes_injected = 0
        self.restarts_injected = 0
        self.degradations_applied = 0
        self.flows_killed = 0
        self.link_flaps = 0
        self.partitions = 0
        self.disk_failures_injected = 0
        self.corruptions_injected = 0
        self.decommissions_injected = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Spawn one kernel process per fault spec (idempotent)."""
        if self._started:
            return
        self._started = True
        for i, spec in enumerate(self.plan.specs):
            if isinstance(spec, NodeCrash):
                self._spawn(self._crash_proc(spec), f"fault-crash-n{spec.node}")
            elif isinstance(spec, CrashRate):
                for node in spec.nodes or self.default_nodes:
                    self._spawn(self._churn_proc(spec, node), f"fault-churn-n{node}")
            elif isinstance(spec, LinkFlap):
                self._spawn(self._flap_proc(spec), f"fault-flap-n{spec.node}")
            elif isinstance(spec, NetworkPartition):
                self._spawn(self._partition_proc(spec), f"fault-partition{i}")
            elif isinstance(spec, FlowLossRate):
                for node in spec.nodes or self.default_nodes:
                    n = self.cluster.node(node)
                    for link in (n.uplink, n.downlink):
                        self._spawn(
                            self._flow_loss_proc(spec, node, link),
                            f"fault-loss-{link.name}",
                        )
            elif isinstance(spec, DiskFailure):
                for node in spec.nodes or self.default_storage_nodes:
                    self._spawn(
                        self._disk_failure_proc(spec, node), f"fault-disk-n{node}"
                    )
            elif isinstance(spec, BlockCorruption):
                for node in spec.nodes or self.default_storage_nodes:
                    self._spawn(
                        self._corruption_proc(spec, node), f"fault-corrupt-n{node}"
                    )
            elif isinstance(spec, Decommission):
                self._spawn(
                    self._decommission_proc(spec), f"fault-decom-n{spec.node}"
                )
            else:
                self._spawn(self._degrade_proc(spec), f"fault-degrade{i}-n{spec.node}")

    def stop(self) -> None:
        """Interrupt every live fault process (job over; churn must die)."""
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("fault injection stopped")

    def _spawn(self, gen, name: str) -> None:
        self._procs.append(self.sim.process(gen, name=name))

    # -- processes --------------------------------------------------------------
    def _record(self, kind: str, node: int) -> None:
        """Fault instants + counters on the simulator's observer."""
        obs = self.sim.obs
        if obs.enabled:
            obs.tracer.instant(
                "fault", f"{kind} node{node}", track=f"faults:n{node}", node=node
            )
            obs.metrics.counter(f"faults.{kind}").add()

    def _crash_proc(self, spec: NodeCrash):
        sim = self.sim
        try:
            yield sim.timeout(spec.at)
            self.crashes_injected += 1
            self._record("crash", spec.node)
            self.host.crash_node(spec.node, sim.now)
            if spec.restart_after is not None:
                yield sim.timeout(spec.restart_after)
                self.restarts_injected += 1
                self._record("restart", spec.node)
                self.host.restart_node(spec.node, sim.now)
        except Interrupt:
            return

    def _churn_proc(self, spec: CrashRate, node: int):
        sim = self.sim
        rng = make_rng(self.plan.seed, "faults", "crash-rate", node)
        try:
            yield sim.timeout(spec.start)
            while True:
                yield sim.timeout(float(rng.exponential(1.0 / spec.rate)))
                self.crashes_injected += 1
                self._record("crash", node)
                self.host.crash_node(node, sim.now)
                yield sim.timeout(spec.restart_after)
                self.restarts_injected += 1
                self._record("restart", node)
                self.host.restart_node(node, sim.now)
        except Interrupt:
            return

    def _degrade_proc(self, spec: _Degradation):
        sim = self.sim
        node = self.cluster.node(spec.node)
        kind = type(spec).__name__
        try:
            yield sim.timeout(spec.at)
            self._scale_node(node, spec, 1.0 / spec.factor)
            self.degradations_applied += 1
            sid = sim.obs.tracer.begin(
                "fault",
                f"{kind} node{spec.node} /{spec.factor:g}",
                track=f"faults:n{spec.node}",
                factor=spec.factor,
            )
            sim.obs.metrics.counter("faults.degradation").add()
            if spec.duration is None:
                sim.obs.tracer.end(sid, permanent=True)
                return
            yield sim.timeout(spec.duration)
            sim.obs.tracer.end(sid)
            self._scale_node(node, spec, spec.factor)
        except Interrupt:
            return

    def _record_net(self, kind: str, detail: str) -> None:
        """Network-fault instants live on one shared track."""
        obs = self.sim.obs
        if obs.enabled:
            obs.tracer.instant("fault", f"{kind} {detail}", track="faults:net")
            obs.metrics.counter(f"faults.{kind}").add()

    def _flap_proc(self, spec: LinkFlap):
        sim = self.sim
        net = self.cluster.network
        node = self.cluster.node(spec.node)
        try:
            yield sim.timeout(spec.at)
            for i in range(spec.flaps):
                if i:
                    yield sim.timeout(spec.period - spec.duration)
                self.link_flaps += 1
                self._record_net("link-down", f"node{spec.node}")
                net.set_link_down(node.uplink)
                net.set_link_down(node.downlink)
                yield sim.timeout(spec.duration)
                self._record_net("link-up", f"node{spec.node}")
                net.set_link_up(node.uplink)
                net.set_link_up(node.downlink)
        except Interrupt:
            # Stopped mid-outage: never strand the links down.
            net.set_link_up(node.uplink)
            net.set_link_up(node.downlink)
            return

    def _partition_proc(self, spec: NetworkPartition):
        sim = self.sim
        net = self.cluster.network
        cut = set(spec.nodes)
        groups: dict = {}
        for node in self.cluster.nodes:
            side = 1 if node.node_id in cut else 0
            groups[node.uplink] = side
            groups[node.downlink] = side
        try:
            yield sim.timeout(spec.at)
            self.partitions += 1
            self._record_net("partition", f"nodes{list(spec.nodes)}")
            net.set_partition(groups)
            yield sim.timeout(spec.duration)
            self._record_net("partition-heal", f"nodes{list(spec.nodes)}")
            net.clear_partition()
        except Interrupt:
            net.clear_partition()
            return

    def _flow_loss_proc(self, spec: FlowLossRate, node_id: int, link):
        """One Poisson kill stream per targeted link.

        The stream's gaps are fixed by (seed, link name) alone, so a kill
        landing on an idle link is simply absorbed — loss does not shift
        to a later, busier instant, and two runs draw identical
        timelines regardless of traffic.
        """
        sim = self.sim
        net = self.cluster.network
        rng = make_rng(self.plan.seed, "faults", "flow-loss", link.name)
        end = None if spec.duration is None else spec.start + spec.duration
        try:
            yield sim.timeout(spec.start)
            while True:
                gap = float(rng.exponential(1.0 / spec.rate))
                if end is not None and sim.now + gap > end:
                    return
                yield sim.timeout(gap)
                flows = net.flows_on(link)
                if not flows:
                    continue
                victim = flows[int(rng.integers(len(flows)))]
                self.flows_killed += 1
                self._record_net("flow-loss", link.name)
                net.fail_flow(victim, reason=f"loss:{link.name}")
        except Interrupt:
            return

    def _disk_failure_proc(self, spec: DiskFailure, node: int):
        """One Poisson disk-death stream per targeted datanode.

        Gaps are fixed by (seed, node) alone — the same discipline as
        flow loss, and byte-identical to the analytic
        :meth:`FaultPlan.disk_failure_times` stream.
        """
        sim = self.sim
        rng = make_rng(self.plan.seed, "faults", "disk-failure", node)
        end = None if spec.duration is None else spec.start + spec.duration
        try:
            yield sim.timeout(spec.start)
            while True:
                gap = float(rng.exponential(1.0 / spec.rate))
                if end is not None and sim.now + gap > end:
                    return
                yield sim.timeout(gap)
                self.disk_failures_injected += 1
                self._record("disk-failure", node)
                assert self.storage is not None
                self.storage.disk_failed(node, sim.now)
        except Interrupt:
            return

    def _corruption_proc(self, spec: BlockCorruption, node: int):
        """Poisson latent-corruption stream; empty disks absorb events."""
        sim = self.sim
        rng = make_rng(self.plan.seed, "faults", "block-corruption", node)
        end = None if spec.duration is None else spec.start + spec.duration
        try:
            yield sim.timeout(spec.start)
            while True:
                gap = float(rng.exponential(1.0 / spec.rate))
                if end is not None and sim.now + gap > end:
                    return
                yield sim.timeout(gap)
                assert self.storage is not None
                if self.storage.corrupt_replica(node, sim.now, rng):
                    self.corruptions_injected += 1
                    self._record("block-corruption", node)
        except Interrupt:
            return

    def _decommission_proc(self, spec: Decommission):
        sim = self.sim
        try:
            yield sim.timeout(spec.at)
            self.decommissions_injected += 1
            self._record("decommission", spec.node)
            assert self.storage is not None
            self.storage.decommission(spec.node, sim.now)
        except Interrupt:
            return

    def _scale_node(self, node: Node, spec: _Degradation, scale: float) -> None:
        if isinstance(spec, (DiskDegradation, Straggler)):
            node.disk.set_rate(node.disk.rate * scale)
        if isinstance(spec, (LinkDegradation, Straggler)):
            network = self.cluster.network
            network.set_link_capacity(node.uplink, node.uplink.capacity * scale)
            network.set_link_capacity(node.downlink, node.downlink.capacity * scale)
