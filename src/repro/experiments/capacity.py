"""Capacity planning: validated scheduler-knob what-ifs per tenant.

PR 5 validated Coz-style *stage* what-ifs ("make copy 25% faster") by
re-running the simulator with the knob actually turned.  This
experiment does the same for *scheduler* knobs on multi-tenant traces
(:mod:`repro.obs.tenant_analysis`): from one observed run it projects

* ``queue_capacity`` — raise a queue's ``max_running`` dispatch cap;
* ``drop_tenant``    — preempt one tenant's offered load entirely;
* ``add_nodes``      — give each job more map slots (fewer map waves);

and then *closes the loop*: each scenario is re-run with the knob
really turned and the projection is scored against the measured
makespan.  The scenarios are controlled ``add_job`` submissions (no
arrival randomness), so the FIFO replay model's assumptions are met by
construction and the projection error isolates model error — the
acceptance bar is <= 10% on the capacity and drop-tenant knobs.

``--store-out`` additionally produces seeded multi-tenant streamed
trace stores whose footers carry the engine's per-tenant SLO summary
and blame mix — the corpus :mod:`repro.obs.fleet` aggregates and the
CI fleet-smoke job byte-diffs across same-seed double runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.cluster import (
    MultiTenantEngine,
    QueueConfig,
    SchedulerConfig,
)
from repro.experiments.reporting import (
    Table,
    banner,
    driver_parser,
    number_list,
    positive_number,
    write_json,
)
from repro.hadoop import WORDCOUNT_PROFILE, HadoopConfig, JobSpec
from repro.obs.tenant_analysis import (
    CapacityProjection,
    jobs_from_tracer,
    project_add_nodes,
    project_drop_tenant,
    project_queue_capacity,
)

MiB = 1 << 20

#: Validation target for the replay-exact knobs (queue capacity, drop
#: tenant).  ``add_nodes`` rides a first-order wave model and is scored
#: but not gated.
ERROR_TARGET = 0.10


@dataclass(frozen=True)
class KnobValidation:
    """One projection scored against a real re-run with the knob turned."""

    knob: str
    detail: dict
    tenant: str
    metric: str
    baseline_observed: float
    baseline_replayed: float
    predicted: float
    actual: float
    gated: bool  #: counts toward the <=10% acceptance bar

    @property
    def error(self) -> float:
        if self.actual <= 0:
            return 0.0
        return abs(self.predicted - self.actual) / self.actual

    def to_dict(self) -> dict:
        return {
            "knob": self.knob,
            "detail": self.detail,
            "tenant": self.tenant,
            "metric": self.metric,
            "baseline_observed": self.baseline_observed,
            "baseline_replayed": self.baseline_replayed,
            "predicted": self.predicted,
            "actual": self.actual,
            "error": self.error,
            "gated": self.gated,
            "target": ERROR_TARGET,
        }


def _measured_makespan(records, tenant: str = "", queue: str = "") -> float:
    """First submit to last finish over completed records, like the
    analyzer's :func:`~repro.obs.tenant_analysis._tenant_makespan`."""
    done = [
        r
        for r in records
        if r.outcome == "done"
        and (not tenant or r.tenant == tenant)
        and (not queue or r.queue == queue)
    ]
    if not done:
        return 0.0
    return max(r.finished_at for r in done) - min(r.submitted_at for r in done)


def _engine(
    queues: list[QueueConfig],
    seed: int,
    observe: bool = False,
    hadoop_config: Optional[HadoopConfig] = None,
) -> MultiTenantEngine:
    """A bare engine: no arrival streams, FIFO policy, manual jobs only."""
    return MultiTenantEngine(
        [],
        scheduler=SchedulerConfig(policy="fifo"),
        queues=queues,
        hadoop_config=hadoop_config or HadoopConfig(map_slots=4, reduce_slots=4),
        seed=seed,
        horizon=600.0,
        observe=observe,
    )


def _submit_batch(
    engine: MultiTenantEngine,
    tenant: str,
    count: int,
    size: int,
    seed: int,
    prefix: str,
    spacing: float = 1.0,
) -> None:
    for i in range(count):
        spec = JobSpec(
            f"{prefix}-{i}", input_bytes=size, profile=WORDCOUNT_PROFILE
        )
        engine.add_job(spec, at=i * spacing, tenant=tenant, seed=seed + i)


# -- scenario 1: queue capacity ------------------------------------------------


def scenario_queue_capacity(
    seed: int = 2011, jobs: int = 5, size: int = 96 * MiB
) -> tuple[CapacityProjection, KnobValidation]:
    """K identical jobs through ``max_running`` 1, projected (and then
    really re-run) at 3.  Sequential baseline service times are exactly
    what the FIFO replay assumes, so this knob should validate tightly.
    """
    base_q = [QueueConfig(name="batch", capacity=1.0, max_running=1)]
    engine = _engine(base_q, seed, observe=True)
    _submit_batch(engine, "batch", jobs, size, seed, "cap")
    engine.run()

    traced = jobs_from_tracer(engine.sim.obs.tracer)
    projection = project_queue_capacity(
        traced, queue="batch", max_running=1, new_max_running=3
    )

    rerun = _engine(
        [QueueConfig(name="batch", capacity=1.0, max_running=3)], seed
    )
    _submit_batch(rerun, "batch", jobs, size, seed, "cap")
    rerun.run()
    actual = _measured_makespan(rerun.records, queue="batch")
    return projection, KnobValidation(
        knob=projection.knob,
        detail=projection.detail,
        tenant=projection.tenant,
        metric=projection.metric,
        baseline_observed=projection.baseline_observed,
        baseline_replayed=projection.baseline_replayed,
        predicted=projection.predicted,
        actual=actual,
        gated=True,
    )


# -- scenario 2: drop a tenant -------------------------------------------------


def scenario_drop_tenant(
    seed: int = 2011, jobs: int = 4, size: int = 96 * MiB
) -> tuple[CapacityProjection, KnobValidation]:
    """Two tenants interleaved in one FIFO queue; what does removing the
    noisy one buy the other?  Validated by re-running without the
    victim's submissions."""
    queues = [QueueConfig(name="default", capacity=1.0, max_running=1)]
    engine = _engine(queues, seed, observe=True)
    _submit_batch(engine, "alice", jobs, size, seed, "alice", spacing=2.0)
    _submit_batch(engine, "bob", jobs - 1, size, seed + 100, "bob", spacing=2.0)
    engine.run()

    traced = jobs_from_tracer(engine.sim.obs.tracer)
    projection = project_drop_tenant(
        traced, queue="default", victim="bob", beneficiary="alice",
        max_running=1,
    )

    rerun = _engine(queues, seed)
    _submit_batch(rerun, "alice", jobs, size, seed, "alice", spacing=2.0)
    rerun.run()
    actual = _measured_makespan(rerun.records, tenant="alice")
    return projection, KnobValidation(
        knob=projection.knob,
        detail=projection.detail,
        tenant=projection.tenant,
        metric=projection.metric,
        baseline_observed=projection.baseline_observed,
        baseline_replayed=projection.baseline_replayed,
        predicted=projection.predicted,
        actual=actual,
        gated=True,
    )


# -- scenario 3: add nodes (map slots) -----------------------------------------


def scenario_add_nodes(
    seed: int = 2011, size: int = 512 * MiB
) -> tuple[CapacityProjection, KnobValidation]:
    """One multi-wave job, projected (and re-run) with doubled map
    slots.  The wave model is first-order (map/shuffle overlap is not
    modeled), so this validation is reported but not gated."""
    workers = 7  # default ClusterSpec(num_nodes=8) minus the master
    base_slots, new_slots = 1, 4
    queues = [QueueConfig(name="batch", capacity=1.0, max_running=1)]
    engine = _engine(
        queues, seed,
        observe=True,
        hadoop_config=HadoopConfig(map_slots=base_slots, reduce_slots=4),
    )
    _submit_batch(engine, "batch", 1, size, seed, "waves")
    engine.run()

    tracer = engine.sim.obs.tracer
    traced = jobs_from_tracer(tracer)
    projection = project_add_nodes(
        tracer, traced, queue="batch", max_running=1,
        map_slots=base_slots * workers, new_map_slots=new_slots * workers,
    )

    rerun = _engine(
        queues, seed,
        hadoop_config=HadoopConfig(map_slots=new_slots, reduce_slots=4),
    )
    _submit_batch(rerun, "batch", 1, size, seed, "waves")
    rerun.run()
    actual = _measured_makespan(rerun.records, queue="batch")
    return projection, KnobValidation(
        knob=projection.knob,
        detail=projection.detail,
        tenant=projection.tenant,
        metric=projection.metric,
        baseline_observed=projection.baseline_observed,
        baseline_replayed=projection.baseline_replayed,
        predicted=projection.predicted,
        actual=actual,
        gated=False,
    )


# -- fleet store producer ------------------------------------------------------


def produce_stores(
    out_dir: Path,
    seeds: tuple[int, ...] = (2011, 2012),
    load: float = 1.0,
    policy: str = "fair",
    horizon: float = 240.0,
) -> list[Path]:
    """Seeded multi-tenant streamed trace stores, one per seed.

    Each store's footer carries the engine's per-tenant SLO report plus
    the blame mix in ``summary`` — everything :func:`repro.obs.fleet.
    fleet_summary` needs without reading the event stream.  Nothing in
    the stream or summary is wall-clock, so same-seed runs write
    byte-identical files (the CI fleet-smoke contract).
    """
    from repro.experiments.multi_tenant import simulate
    from repro.obs.store import TraceStoreWriter
    from repro.obs.tenant_analysis import tenant_blame

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for seed in sorted(seeds):
        path = out_dir / f"tenants-{policy}-seed{seed}.jsonl"
        with TraceStoreWriter(path, system=f"tenants-{policy}") as writer:
            cell = simulate(
                load, policy, seed, horizon, chaos=False, observe=True,
                attach=lambda _system, obs: writer.attach(obs),
            )
            ((system, obs),) = cell.observers
            report = cell.metrics[system]
            report["blame"] = {
                tenant: entry["blame_pct"]
                for tenant, entry in sorted(tenant_blame(obs.tracer).items())
            }
            writer.summary = report
        paths.append(path)
    return paths


# -- reporting -----------------------------------------------------------------


def run(seed: int = 2011, quick: bool = False) -> dict:
    """All scenarios; returns the JSON-ready report."""
    jobs = 4 if quick else 5
    size = (64 if quick else 96) * MiB
    scenarios = [
        scenario_queue_capacity(seed=seed, jobs=jobs, size=size),
        scenario_drop_tenant(seed=seed, jobs=jobs, size=size),
    ]
    if not quick:
        scenarios.append(scenario_add_nodes(seed=seed))
    validations = [v for _, v in scenarios]
    met = sum(1 for v in validations if v.gated and v.error <= ERROR_TARGET)
    return {
        "experiment": "capacity",
        "seed": seed,
        "error_target": ERROR_TARGET,
        "validations": [v.to_dict() for v in validations],
        "gated_within_target": met,
        "gated_total": sum(1 for v in validations if v.gated),
    }


def format_report(report: dict) -> str:
    table = Table(
        headers=(
            "knob",
            "tenant",
            "observed",
            "replayed",
            "predicted",
            "actual",
            "error",
            "gate",
        ),
        title="scheduler-knob what-ifs, validated by re-run",
    )
    for v in report["validations"]:
        gate = "-"
        if v["gated"]:
            gate = "PASS" if v["error"] <= report["error_target"] else "FAIL"
        table.add_row(
            v["knob"],
            v["tenant"] or "all",
            v["baseline_observed"],
            v["baseline_replayed"],
            v["predicted"],
            v["actual"],
            f"{v['error']:.1%}",
            gate,
        )
    tail = (
        f"{report['gated_within_target']}/{report['gated_total']} gated "
        f"projections within {report['error_target']:.0%} of the re-run.  "
        "The FIFO replay is exact when jobs hold their traced service "
        "times; the residual error is cluster contention the queue model "
        "does not see."
    )
    return "\n\n".join(
        [banner("Capacity planning: what-if projections vs reality"),
         table.render(), tail]
    )


def export(report: dict, out_dir: Path) -> Path:
    """Write capacity.json into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "capacity.json"
    write_json(path, report)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__, seed=2011, quick=False, out=None)
    parser.add_argument(
        "--store-out", type=Path, default=None,
        help="also produce seeded multi-tenant .jsonl stores for the "
        "fleet view in this directory",
    )
    parser.add_argument(
        "--store-seeds", type=number_list(int, positive=False), default="2011,2012",
        help="comma-separated seeds for --store-out (default 2011,2012)",
    )
    parser.add_argument(
        "--store-horizon", type=positive_number, default=240.0,
        help="arrival horizon for --store-out runs (default 240)",
    )
    args = parser.parse_args(argv)

    report = run(seed=args.seed, quick=args.quick)
    print(format_report(report))
    status = 0
    if report["gated_within_target"] < min(2, report["gated_total"]):
        print("\nFAIL: fewer than 2 gated projections met the error target")
        status = 1
    if args.out is not None:
        print(f"wrote {export(report, args.out)}")
    if args.store_out is not None:
        for path in produce_stores(
            args.store_out, seeds=args.store_seeds, horizon=args.store_horizon
        ):
            print(f"wrote {path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
