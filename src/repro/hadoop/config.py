"""Hadoop 0.20.2 configuration, reduced to the knobs that shape the paper.

Defaults mirror the stock ``mapred-default.xml``/``hdfs-default.xml``
values of the version the paper runs (0.20.2 on JDK 1.6): 64 MB blocks,
3x replication, 3 s minimum heartbeat, one map assignment per heartbeat,
5 parallel shuffle copiers, 5% reduce slowstart.  ``map_slots`` /
``reduce_slots`` are the two knobs Table I varies (4/2 … 16/16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.units import MiB

_INF = float("inf")

#: Intervals, timeouts and caps: each must be finite and positive.
_POSITIVE_FIELDS = (
    "heartbeat_interval",
    "completion_poll_interval",
    "fetch_timeout",
    "fetch_backoff_base",
    "fetch_backoff_max",
    "repair_bandwidth_cap",
    "tasktracker_expiry_interval",
)
#: Fixed costs: each must be finite and not negative.
_NON_NEGATIVE_FIELDS = ("task_jvm_startup", "job_setup_time")


@dataclass(frozen=True)
class HadoopConfig:
    """Cluster-wide Hadoop configuration."""

    # -- HDFS ---------------------------------------------------------------
    block_size: int = 64 * MiB
    replication: int = 3

    # -- slots (Table I's column variable) -----------------------------------
    map_slots: int = 8
    reduce_slots: int = 8

    # -- JobTracker scheduling ------------------------------------------------
    heartbeat_interval: float = 3.0
    maps_per_heartbeat: int = 1
    reduces_per_heartbeat: int = 1
    reduce_slowstart: float = 0.05  # fraction of maps done before reduces start

    # -- task execution ---------------------------------------------------------
    task_jvm_startup: float = 1.0  # fork + JVM boot + localization
    io_sort_mb: int = 100 * MiB  # map-side sort buffer
    io_sort_factor: int = 10  # streams merged per pass

    # -- shuffle ------------------------------------------------------------------
    parallel_copies: int = 5
    shuffle_memory_bytes: int = 140 * MiB  # ~0.7 of a 200 MB reduce JVM
    completion_poll_interval: float = 1.0  # reducer's map-event poll period

    # -- shuffle robustness (lossy networks) ----------------------------------
    # These knobs only matter when the run's FaultPlan contains network
    # faults; with a reliable network the copy stage never consults them,
    # keeping clean runs bit-for-bit identical.
    #: ``mapred.shuffle.read.timeout``-style cap: a fetch whose bytes have
    #: not all arrived after this long is cancelled and retried.
    fetch_timeout: float = 30.0
    #: Attempts per fetch batch against one host before the copier gives
    #: up on that host for the round and reports it unreachable.
    fetch_retries: int = 4
    #: Exponential backoff between fetch retries: base * 2^(k-1) capped
    #: at the max, with ±50% jitter from the run's seeded RNG.  The same
    #: progression drives the per-host penalty box.
    fetch_backoff_base: float = 1.0
    fetch_backoff_max: float = 30.0
    #: Fetch-failure reports against one map output before the JobTracker
    #: re-executes the map (0.20's three-strikes rule).
    fetch_failure_threshold: int = 3

    # -- speculative execution ------------------------------------------------
    #: Re-run straggling maps on another node (0.20.2 ships with this on;
    #: our default keeps it off so the paper-calibration experiments are
    #: unaffected — the straggler experiment turns it on explicitly).
    speculative_execution: bool = False
    #: A running map is a straggler once its elapsed time exceeds this
    #: multiple of the average completed-map duration.
    speculative_slowness: float = 1.5

    # -- HDFS repair (storage faults only) ------------------------------------
    # These knobs only matter when the run's FaultPlan contains storage
    # specs; without them no StorageManager is built and clean runs stay
    # bit-for-bit identical.
    #: ``dfs.balance/replication`` bandwidth cap per repair stream, in
    #: bytes/s — re-replication competes with the shuffle on the same
    #: links but is throttled like real HDFS balancer traffic.
    repair_bandwidth_cap: float = 10 * MiB
    #: ``dfs.namenode.replication.max-streams``: concurrent repair copies.
    repair_max_streams: int = 2

    # -- fault tolerance -----------------------------------------------------
    #: ``mapred.tasktracker.expiry.interval``: a TaskTracker that has not
    #: heartbeated for this long is declared lost (0.20.2 default: 10 min).
    tasktracker_expiry_interval: float = 600.0
    #: ``mapred.map.max.attempts`` / ``mapred.reduce.max.attempts``: a task
    #: whose attempts all fail this many times fails the whole job.
    max_attempts: int = 4

    # -- misc --------------------------------------------------------------------
    job_setup_time: float = 5.0  # job client + setup/cleanup tasks
    rpc_status_bytes: int = 512  # serialized heartbeat payload

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not 0.0 < value < _INF:
                raise ValueError(f"{name} must be finite and positive: {value}")
        for name in _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value < _INF:
                raise ValueError(f"{name} must be finite and >= 0: {value}")
        if not 1.0 < self.speculative_slowness < _INF:
            raise ValueError(
                f"speculative_slowness must be finite and exceed 1.0: "
                f"{self.speculative_slowness}"
            )
        if self.block_size < 1 * MiB:
            raise ValueError(f"block size too small: {self.block_size}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.map_slots < 1 or self.reduce_slots < 1:
            raise ValueError(
                f"slots must be >= 1, got {self.map_slots}/{self.reduce_slots}"
            )
        if not 0.0 <= self.reduce_slowstart <= 1.0:
            raise ValueError(f"slowstart must be in [0,1]: {self.reduce_slowstart}")
        if self.parallel_copies < 1:
            raise ValueError(f"parallel copies must be >= 1: {self.parallel_copies}")
        if self.fetch_retries < 0:
            # 0 is legal: every failed fetch escalates straight to a
            # fetch-failure strike instead of re-trying the same host.
            raise ValueError(f"fetch retries must be >= 0: {self.fetch_retries}")
        if self.fetch_backoff_max < self.fetch_backoff_base:
            raise ValueError(
                f"fetch backoff cap ({self.fetch_backoff_max}) below the "
                f"base ({self.fetch_backoff_base})"
            )
        if self.fetch_failure_threshold < 1:
            raise ValueError(
                f"fetch failure threshold must be >= 1: {self.fetch_failure_threshold}"
            )
        if self.repair_max_streams < 1:
            raise ValueError(
                f"repair max streams must be >= 1: {self.repair_max_streams}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max attempts must be >= 1: {self.max_attempts}")

    def with_slots(self, map_slots: int, reduce_slots: int) -> "HadoopConfig":
        """The Table-I sweep helper: same config, different slot counts."""
        return replace(self, map_slots=map_slots, reduce_slots=reduce_slots)
