"""Parked trackers change nothing observable.

Every scenario runs twice: with the production TaskTracker, whose idle
beats the heartbeat calendar skips, and with
:class:`~tests.hadoop.reference_tracker.ReferenceTaskTracker`, which
beats every interval.  The exports, and the trace stores where the run
is observed, must be byte-identical.  Each scenario also asserts that it
exercises the path it is named for (crashes, expiry, speculation,
preemption, ...), so a quiet run cannot pass vacuously.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.cluster import MultiTenantEngine, QueueConfig, SchedulerConfig, TenantSpec
from repro.hadoop import (
    JAVASORT_PROFILE,
    WORDCOUNT_PROFILE,
    HadoopConfig,
    HadoopSimulation,
    JobSpec,
)
from repro.simnet.cluster import ClusterSpec
from repro.simnet.faults import CrashRate, DiskFailure, FaultPlan, NodeCrash
from repro.transports.hadoop_rpc import HadoopRpcTransport
from repro.util.units import GiB, MiB
from tests.experiments.scalability_cells import (
    scalability_multi_tenant,
    scalability_single_job,
)
from tests.hadoop.reference_tracker import use_reference_tracker


def _both(monkeypatch, scenario):
    """``scenario()`` under the production tracker, then the oracle."""
    fast = scenario()
    with monkeypatch.context() as m:
        use_reference_tracker(m)
        ref = scenario()
    return fast, ref


def _hadoop(tmp_path, tag, spec, **kwargs):
    """One observed Hadoop job streamed to a store: (export, store bytes)."""
    hsim = HadoopSimulation(spec=spec, observe=True, **kwargs)
    path = tmp_path / f"{tag}.jsonl"
    with hsim.obs.stream_to(path, system="hadoop"):
        try:
            metrics = hsim.run()
        except RuntimeError:  # a failed job still exports its partial metrics
            metrics = hsim.metrics
    counters = hsim.obs.metrics.to_dict()
    export = json.dumps(
        {"metrics": metrics.to_dict(), "counters": counters}, sort_keys=True
    )
    return export, path.read_bytes(), metrics


def _wordcount(gb: float, reducers: int = 1) -> JobSpec:
    return JobSpec(
        name=f"wordcount-{gb:g}g",
        input_bytes=int(gb * GiB),
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=reducers,
    )


def test_fig6_1gb(monkeypatch):
    from repro.experiments import fig6_wordcount as f6

    def scenario():
        res = f6.run(sizes_gb=(1.0,), seed=2011)
        return json.dumps(
            {"hadoop": res.hadoop_metrics, "mpid": res.mpid_metrics}, sort_keys=True
        )

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref


def test_fig6_1gb_observed_store(monkeypatch, tmp_path):
    def scenario():
        export, store, _ = _hadoop(
            tmp_path,
            "fig6",
            _wordcount(1.0),
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            seed=2011,
        )
        return export, store

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert b"transport.rpc.heartbeats" in fast[1]


def test_scalability_single_job_100(monkeypatch):
    fast, ref = _both(
        monkeypatch,
        lambda: scalability_single_job(100, seed=2011, mib_per_worker=16)[0],
    )
    assert fast == ref


def test_scalability_multi_tenant_100(monkeypatch):
    fast, ref = _both(
        monkeypatch,
        lambda: scalability_multi_tenant(100, seed=2011, horizon=120.0)[0],
    )
    assert fast == ref


#: Kernel events of the 100-node two-tenant cell with parked trackers
#: (10,982 when every tracker beat every interval).
EVENT_BUDGET_MULTI_TENANT_100 = 4790


def test_event_budget_multi_tenant_100():
    _, events = scalability_multi_tenant(100, seed=2011, horizon=120.0)
    assert events <= EVENT_BUDGET_MULTI_TENANT_100, (
        f"{events} kernel events: idle heartbeats are dispatched again"
    )


def test_network_faults_quick(monkeypatch):
    from repro.experiments import network_faults as nf

    def scenario():
        res = nf.run(
            input_gb=0.25,
            seeds=(2011,),
            rates_per_link_hour=(900.0,),
            partition_durations=(5.0,),
        )
        return json.dumps(asdict(res), sort_keys=True, default=str)

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref


def test_crash_restart_and_expiry(monkeypatch, tmp_path):
    """Node 2 dies for good (expiry unwinds it), node 4 restarts inside
    the expiry window (re-registration unwinds it), node 6 restarts
    after expiry."""
    plan = FaultPlan(
        specs=(
            NodeCrash(node=2, at=25.0),
            NodeCrash(node=4, at=40.0, restart_after=5.0),
            NodeCrash(node=6, at=55.0, restart_after=40.0),
        ),
        seed=2011,
    )
    outcome = {}

    def scenario():
        export, store, metrics = _hadoop(
            tmp_path,
            "crash",
            _wordcount(2.0),
            config=HadoopConfig(
                map_slots=4, reduce_slots=4, tasktracker_expiry_interval=20.0
            ),
            seed=2011,
            fault_plan=plan,
        )
        outcome["lost"] = metrics.lost_trackers
        return export, store

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert outcome["lost"] >= 2


def _beat_instants(config: HadoopConfig, worker: int, workers: int, start: float):
    """(call, response) instants of one tracker's beats, as the loop
    that never parks computes them."""
    lat = HadoopRpcTransport().latency(config.rpc_status_bytes)
    beat = start + (worker / workers) * config.heartbeat_interval
    while True:
        call = beat + lat
        response = call + lat
        yield call, response
        beat = response + config.heartbeat_interval


def test_crash_between_a_skipped_call_and_its_response(monkeypatch, tmp_path):
    """Node 2's tracker, parked through its eighth beat, dies after that
    beat's call but before its response: the call counts for expiry, the
    response never happens."""
    config = HadoopConfig(tasktracker_expiry_interval=20.0)
    instants = _beat_instants(config, worker=1, workers=7, start=config.job_setup_time)
    for _ in range(8):
        call, response = next(instants)
    plan = FaultPlan(specs=(NodeCrash(node=2, at=(call + response) / 2),), seed=1)

    def scenario():
        export, store, _ = _hadoop(
            tmp_path, "window", _wordcount(1.0), config=config, seed=2011, fault_plan=plan
        )
        return export, store

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref


def test_truncated_run_accounts_parked_beats(monkeypatch):
    def scenario():
        hsim = HadoopSimulation(spec=_wordcount(1.0), observe=True, seed=2011)
        hsim.start()
        hsim.sim.run(until=30.0)
        with pytest.raises(RuntimeError, match="did not finish"):
            hsim.complete()
        return json.dumps(hsim.obs.metrics.to_dict(), sort_keys=True)

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref


def test_fault_tolerance_sweep_cell(monkeypatch):
    """Poisson churn with restarts, detected by heartbeat expiry."""
    from repro.experiments import fault_tolerance as ft

    outcome = {}

    def scenario():
        res = ft.run(
            input_gb=1,
            seeds=(2011,),
            rates_per_hour=(60.0,),
            expiry_interval=20.0,
            keep_task_records=True,
        )
        outcome["lost"] = res.hadoop_faults[60.0]["lost_trackers"]
        return json.dumps(asdict(res), sort_keys=True, default=str)

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert outcome["lost"] > 0


def test_speculative_straggler(monkeypatch, tmp_path):
    spec = JobSpec(name="sort", input_bytes=1 * GiB, profile=JAVASORT_PROFILE)
    outcome = {}

    def scenario():
        export, store, metrics = _hadoop(
            tmp_path,
            "spec",
            spec,
            config=HadoopConfig(speculative_execution=True),
            seed=3,
            disk_slowdown={2: 8.0},
        )
        outcome["spec"] = metrics.speculative_attempts
        return export, store

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert outcome["spec"] > 0


def test_durability_cell(monkeypatch, tmp_path):
    workers = tuple(range(1, ClusterSpec().num_nodes))
    plan = FaultPlan(specs=(DiskFailure(rate=40 / 3600.0, nodes=workers),), seed=7)
    outcome = {}

    def scenario():
        export, store, metrics = _hadoop(
            tmp_path,
            "dur",
            _wordcount(1.0),
            config=HadoopConfig(replication=2),
            seed=7,
            fault_plan=plan,
        )
        outcome["disks"] = metrics.disk_failures
        return export, store

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert outcome["disks"] > 0


def _tenants() -> list[TenantSpec]:
    return [
        TenantSpec(
            name="batch",
            rate=0.04,
            workloads=("javaSort", "streamSort"),
            min_input_bytes=128 * MiB,
            max_input_bytes=512 * MiB,
        ),
        TenantSpec(
            name="interactive",
            rate=0.06,
            profile="diurnal",
            workloads=("webdataScan",),
            max_input_bytes=128 * MiB,
        ),
    ]


@pytest.mark.parametrize("policy", ["fair", "capacity"])
def test_multi_tenant_preemption_under_churn(monkeypatch, tmp_path, policy):
    plan = FaultPlan(specs=(CrashRate(rate=1 / 120.0, restart_after=20.0),), seed=5)
    outcome = {}

    def scenario():
        engine = MultiTenantEngine(
            _tenants(),
            scheduler=SchedulerConfig(policy=policy, preemption_interval=10.0),
            queues=[
                QueueConfig(name="batch", weight=1.0, capacity=0.4),
                QueueConfig(name="interactive", weight=2.0, capacity=0.6),
            ],
            cluster_spec=ClusterSpec(num_nodes=12),
            hadoop_config=HadoopConfig(
                map_slots=2, reduce_slots=2, tasktracker_expiry_interval=30.0
            ),
            fault_plan=plan,
            seed=2011,
            horizon=200.0,
            observe=True,
        )
        sim = engine.setup()
        path = tmp_path / f"tenants-{policy}.jsonl"
        with sim.obs.stream_to(path, system="tenants"):
            report = engine.run()
        outcome["preempted"] = sum(
            t["maps_preempted"] + t["reduces_preempted"]
            for t in report["tenants"].values()
        )
        outcome["lost"] = sum(
            r.metrics.lost_trackers
            for r in engine.records
            if r.metrics is not None
        )
        records = [r.metrics.to_dict() for r in engine.records if r.metrics is not None]
        export = json.dumps({"report": report, "records": records}, sort_keys=True)
        return export, path.read_bytes()

    fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
    assert outcome["preempted"] > 0
    assert outcome["lost"] > 0


@pytest.mark.slow
def test_tenants_500_cell():
    """The benchmark's own cell: the 500-node two-tenant stream."""
    pytest.importorskip("perfbench")
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS["tenants-500"]

    def scenario():
        engine = workload._engine(2011)
        return json.dumps(engine.run(), sort_keys=True)

    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, ref = _both(monkeypatch, scenario)
    assert fast == ref
