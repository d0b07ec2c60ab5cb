"""The two synthetic large-cluster cells pinned by the golden tests.

* :func:`scalability_single_job` — one Hadoop WordCount whose input
  scales with the worker count, so heartbeat traffic grows with the
  cluster;
* :func:`scalability_multi_tenant` — a two-tenant fair-share arrival
  stream whose arrival rates scale with the cluster, so the offered
  load per node is constant across cluster sizes.

Both return ``(export, events)``: the run's sorted-key JSON export and
the number of events the kernel dispatched.
"""

from __future__ import annotations

import json

from repro.cluster import MultiTenantEngine, QueueConfig, SchedulerConfig, TenantSpec
from repro.hadoop import WORDCOUNT_PROFILE, HadoopConfig, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.simnet.cluster import ClusterSpec
from repro.util.units import MiB


def scalability_single_job(nodes: int, seed: int, mib_per_worker: int) -> tuple[str, int]:
    """One Hadoop WordCount on an ``nodes``-node cluster, input scaled
    with the worker count."""
    workers = nodes - 1
    spec = JobSpec(
        name=f"scal-{nodes}n",
        input_bytes=workers * mib_per_worker * MiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=max(1, workers // 64),
    )
    hsim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(),
        cluster_spec=ClusterSpec(num_nodes=nodes),
        seed=seed,
    )
    metrics = hsim.run()
    return json.dumps(metrics.to_dict(), sort_keys=True), hsim.sim.events_dispatched


def scalability_multi_tenant(nodes: int, seed: int, horizon: float) -> tuple[str, int]:
    """A two-tenant arrival stream on an ``nodes``-node cluster."""
    scale = nodes / 100.0
    tenants = [
        TenantSpec(
            name="batch",
            rate=0.02 * scale,
            profile="poisson",
            workloads=("javaSort", "streamSort"),
            min_input_bytes=64 * 2**20,
            max_input_bytes=512 * 2**20,
        ),
        TenantSpec(
            name="interactive",
            rate=0.03 * scale,
            profile="diurnal",
            workloads=("webdataScan",),
            max_input_bytes=128 * 2**20,
        ),
    ]
    queues = [
        QueueConfig(name="batch", weight=1.0, capacity=0.55, max_queued=64),
        QueueConfig(name="interactive", weight=2.0, capacity=0.45, max_queued=16),
    ]
    engine = MultiTenantEngine(
        tenants,
        scheduler=SchedulerConfig(policy="fair"),
        queues=queues,
        cluster_spec=ClusterSpec(num_nodes=nodes),
        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
        seed=seed,
        horizon=horizon,
    )
    report = engine.run()
    return json.dumps(report, sort_keys=True), engine.sim.events_dispatched
