"""Multi-tenant sweep: offered load x scheduler policy x chaos.

The paper benchmarks one job at a time; production Hadoop clusters run
*queues* of them.  This sweep drives seeded open-loop arrival streams —
a batch tenant (Poisson Hadoop traffic), an interactive tenant (diurnal,
latency-sensitive), and a science tenant (bursty, part MPI-D gangs) —
through :class:`~repro.cluster.engine.MultiTenantEngine` on one shared
cluster, and asks how each scheduling policy holds up as offered load
climbs past capacity:

* **load** scales every tenant's arrival rate (2.0 = roughly twice what
  the cluster can absorb — the overload regime where admission control
  and fair-share matter);
* **policy** is ``fair`` / ``capacity`` / ``fifo`` (see
  ``docs/SCHEDULER.md``);
* **chaos** optionally overlays the PR-1/3 style fault plan (two node
  crashes plus a straggler) on top of the overload, so the per-tenant
  SLO numbers are measured while the cluster is *both* saturated and
  breaking.

Per (load, policy, chaos, seed) cell the engine reports per-tenant SLOs:
p50/p95/p99 job latency and queue wait, shed/failed/preempted counts,
and slot-second utilization.  ``--trace-out`` additionally records one
fully observed chaos-under-load run for the replay dashboard.
:func:`simulate` is the one builder of a cell's engine, shared by the
sweep, ``--trace-out`` and :func:`repro.experiments.capacity.produce_stores`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.cluster import (
    MultiTenantEngine,
    QueueConfig,
    SchedulerConfig,
    TenantSpec,
)
from repro.cluster.scheduler import POLICIES
from repro.experiments.reporting import (
    Table,
    banner,
    driver_parser,
    list_of,
    number_list,
    one_of,
    positive_number,
    write_csv,
    write_json,
)
from repro.hadoop.config import HadoopConfig
from repro.obs import Attach, ObservedRun, write_observed_run
from repro.simnet.faults import FaultPlan, NodeCrash, Straggler

DEFAULT_SEEDS = (2011, 2012, 2013)
DEFAULT_LOADS = (0.5, 1.0, 2.0)
DEFAULT_POLICIES = POLICIES
DEFAULT_HORIZON = 1800.0

#: Base (load = 1.0) arrival rates, jobs per second per tenant.  Tuned so
#: the default cluster sits near full utilization at 1.0: doubling them
#: is genuine overload — queues grow open-loop and shedding kicks in.
BASE_RATES = {"batch": 0.035, "interactive": 0.055, "science": 0.015}


def make_tenants(load: float) -> list[TenantSpec]:
    """The three-tenant traffic mix at an offered-load multiplier."""
    return [
        TenantSpec(
            name="batch",
            rate=BASE_RATES["batch"] * load,
            profile="poisson",
            workloads=("javaSort", "streamSort", "monsterQuery"),
            min_input_bytes=256 * 2**20,
            max_input_bytes=2 * 2**30,
        ),
        TenantSpec(
            name="interactive",
            rate=BASE_RATES["interactive"] * load,
            profile="diurnal",
            workloads=("webdataScan", "combiner"),
            max_input_bytes=256 * 2**20,
        ),
        TenantSpec(
            name="science",
            rate=BASE_RATES["science"] * load,
            profile="bursty",
            runtime="mixed",
            mpid_fraction=0.5,
            workloads=("javaSort", "webdataSort"),
            min_input_bytes=256 * 2**20,
            max_input_bytes=2**30,
        ),
    ]


def make_queues() -> list[QueueConfig]:
    """Capacity split matching the tenants' importance: interactive gets
    the biggest guaranteed share and the shortest queue (it would rather
    shed than wait), batch gets the deepest backlog."""
    return [
        QueueConfig(name="batch", weight=1.0, capacity=0.3, max_queued=64),
        QueueConfig(
            name="interactive", weight=2.0, capacity=0.45, max_queued=8
        ),
        QueueConfig(name="science", weight=1.0, capacity=0.25, max_queued=16),
    ]


def chaos_plan(seed: int) -> FaultPlan:
    """The PR-1/3 style chaos overlay: a transient crash early, a second
    crash mid-run, and a slow node through the middle of the horizon."""
    return FaultPlan(
        specs=(
            NodeCrash(node=3, at=200.0, restart_after=150.0),
            NodeCrash(node=5, at=600.0, restart_after=240.0),
            Straggler(node=2, at=300.0, factor=4.0, duration=400.0),
        ),
        seed=seed,
    )


def simulate(
    load: float,
    policy: str,
    seed: int,
    horizon: float = DEFAULT_HORIZON,
    chaos: bool = True,
    observe: bool = False,
    attach: Optional[Attach] = None,
) -> ObservedRun:
    """One cell: the three-tenant mix at ``load`` under ``policy``, with
    the :func:`chaos_plan` overlay when ``chaos``.  The system is named
    ``tenants-<policy>``; its metrics are the engine's SLO report."""
    engine = MultiTenantEngine(
        make_tenants(load),
        scheduler=SchedulerConfig(policy=policy),
        queues=make_queues(),
        hadoop_config=HadoopConfig(map_slots=4, reduce_slots=4),
        fault_plan=chaos_plan(seed) if chaos else None,
        seed=seed,
        horizon=horizon,
        observe=observe,
    )
    engine.setup()
    system = f"tenants-{policy}"
    if attach is not None:
        attach(system, engine.sim.obs)
    report = engine.run()
    return ObservedRun(
        observers=[(system, engine.sim.obs)],
        sim_elapsed={system: report["makespan"]},
        metrics={system: report},
    )


@dataclass
class MultiTenantResult:
    """The full sweep: one engine report per cell per seed."""

    loads: tuple[float, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    horizon: float
    #: cells[(load, policy, chaos)] -> {seed: engine report dict}
    cells: dict = field(default_factory=dict)

    def reports(self, load: float, policy: str, chaos: bool) -> dict:
        return self.cells[(load, policy, chaos)]


def run(
    loads=DEFAULT_LOADS,
    policies=DEFAULT_POLICIES,
    seeds=DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    chaos=(False, True),
) -> MultiTenantResult:
    """Execute the whole sweep (pure function of its arguments)."""
    result = MultiTenantResult(
        loads=tuple(loads),
        policies=tuple(policies),
        seeds=tuple(seeds),
        horizon=horizon,
    )
    for load in result.loads:
        for policy in result.policies:
            for with_chaos in chaos:
                result.cells[(load, policy, with_chaos)] = {
                    seed: simulate(load, policy, seed, horizon, with_chaos)
                    .metrics[f"tenants-{policy}"]
                    for seed in result.seeds
                }
    return result


def to_rows(result: MultiTenantResult) -> tuple[list[str], list[list]]:
    """One CSV row per (cell, seed, tenant) with the full SLO readout."""
    header = [
        "load",
        "policy",
        "chaos",
        "seed",
        "tenant",
        "queue",
        "submitted",
        "completed",
        "failed",
        "shed",
        "unfinished",
        "latency_p50_s",
        "latency_p95_s",
        "latency_p99_s",
        "queue_wait_p50_s",
        "queue_wait_p95_s",
        "queue_wait_p99_s",
        "maps_preempted",
        "reduces_preempted",
        "slot_seconds",
        "utilization",
        "makespan_s",
    ]
    rows: list[list] = []
    for (load, policy, chaos), per_seed in sorted(
        result.cells.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        for seed in result.seeds:
            report = per_seed[seed]
            for tenant, slo in sorted(report["tenants"].items()):
                rows.append(
                    [
                        load,
                        policy,
                        int(chaos),
                        seed,
                        tenant,
                        slo["queue"],
                        slo["submitted"],
                        slo["completed"],
                        slo["failed"],
                        slo["shed"],
                        slo["unfinished"],
                        slo["latency_p50"],
                        slo["latency_p95"],
                        slo["latency_p99"],
                        slo["queue_wait_p50"],
                        slo["queue_wait_p95"],
                        slo["queue_wait_p99"],
                        slo["maps_preempted"],
                        slo["reduces_preempted"],
                        slo["slot_seconds"],
                        slo["utilization"],
                        report["makespan"],
                    ]
                )
    return header, rows


def to_json(result: MultiTenantResult) -> dict:
    """The sweep with every per-cell engine report intact."""
    return {
        "experiment": "multi_tenant",
        "loads": list(result.loads),
        "policies": list(result.policies),
        "seeds": list(result.seeds),
        "horizon": result.horizon,
        "cells": {
            f"{load:g}x-{policy}-{'chaos' if chaos else 'clean'}": {
                str(seed): report for seed, report in per_seed.items()
            }
            for (load, policy, chaos), per_seed in sorted(
                result.cells.items(),
                key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]),
            )
        },
    }


def format_report(result: MultiTenantResult) -> str:
    """Terminal report: one table per (load, chaos) comparing policies."""
    sections = [banner("Multi-tenant scheduling under load (and chaos)")]
    for load in result.loads:
        for chaos in sorted({k[2] for k in result.cells}):
            title = (
                f"offered load {load:g}x"
                + (" + chaos (2 crashes, 1 straggler)" if chaos else "")
            )
            table = Table(
                headers=(
                    "policy",
                    "tenant",
                    "jobs",
                    "done",
                    "shed",
                    "p50 lat",
                    "p95 lat",
                    "p95 wait",
                    "preempt",
                    "util",
                ),
                title=title,
            )
            for policy in result.policies:
                if (load, policy, chaos) not in result.cells:
                    continue
                per_seed = result.cells[(load, policy, chaos)]
                report = per_seed[result.seeds[0]]
                for tenant, slo in sorted(report["tenants"].items()):
                    table.add_row(
                        policy,
                        tenant,
                        slo["submitted"],
                        slo["completed"],
                        slo["shed"],
                        slo["latency_p50"],
                        slo["latency_p95"],
                        slo["queue_wait_p95"],
                        slo["maps_preempted"] + slo["reduces_preempted"],
                        slo["utilization"],
                    )
            sections.append(table.render())
    sections.append(
        "Open-loop arrivals do not back off: past 1x the backlog grows "
        "until admission control sheds deterministically.  fair/capacity "
        "keep the interactive tenant's p95 flat by preempting batch maps; "
        "fifo lets one tenant's burst head-of-line block everyone."
    )
    return "\n\n".join(sections)


def export(result: MultiTenantResult, out_dir: Path) -> list[Path]:
    """Write the CSV + JSON artifacts into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "multi_tenant.csv"
    write_csv(csv_path, *to_rows(result))
    json_path = out_dir / "multi_tenant.json"
    write_json(json_path, to_json(result))
    return [csv_path, json_path]


def write_traced_run(
    trace_out,
    load: float = 2.0,
    policy: str = "fair",
    seed: int = 2011,
    horizon: float = 900.0,
) -> dict:
    """One fully observed chaos-under-load run; writes trace + manifest.

    The trace shows every tenant's queue/dispatch/preempt spans on their
    own tracks next to the per-job map/shuffle work — the whole cluster's
    story under overload and faults, in Perfetto or the dashboard.
    """
    traced = write_observed_run(
        trace_out,
        "multi_tenant",
        {"load": load, "policy": policy, "horizon": horizon, "chaos": True},
        seed,
        lambda attach: simulate(
            load, policy, seed, horizon, observe=True, attach=attach
        ),
    )
    return traced.metrics[f"tenants-{policy}"]


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(
        __doc__, seeds=DEFAULT_SEEDS, quick=False, out=None, trace_out=None
    )
    parser.add_argument(
        "--loads",
        type=number_list(),
        default=DEFAULT_LOADS,
        help="comma-separated offered-load multipliers (default 0.5,1,2)",
    )
    parser.add_argument(
        "--policies",
        type=list_of(one_of(POLICIES)),
        default=DEFAULT_POLICIES,
        help="comma-separated scheduler policies (default fair,capacity,fifo)",
    )
    parser.add_argument(
        "--horizon", type=positive_number, default=DEFAULT_HORIZON,
        help="arrival horizon, simulated seconds",
    )
    parser.add_argument(
        "--no-chaos", action="store_true",
        help="skip the fault-plan overlay cells",
    )
    args = parser.parse_args(argv)
    seeds, loads, policies = args.seeds, args.loads, args.policies
    horizon = args.horizon
    if args.quick:
        seeds, loads, policies = seeds[:1], (1.0, 2.0), ("fair",)
        horizon = min(horizon, 600.0)
    result = run(
        loads=loads, policies=policies, seeds=seeds, horizon=horizon,
        chaos=(False,) if args.no_chaos else (False, True),
    )
    print(format_report(result))
    if args.out is not None:
        for path in export(result, args.out):
            print(f"wrote {path}")
    if args.trace_out is not None:
        write_traced_run(args.trace_out)
        print(f"wrote {args.trace_out} (+ {args.trace_out}.manifest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
