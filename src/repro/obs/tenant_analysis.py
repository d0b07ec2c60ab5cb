"""Per-tenant capacity-planning analysis of multi-tenant traces.

PR 5's critical-path analyzer explains one job; the multi-tenant engine
produces traces where the interesting question is per *tenant*: of the
time tenant A's jobs spent in the system, how much was queue wait, how
much was work thrown away by preemption, how much was shuffle (the
paper's copy stage), and how much was the rest of the runtime?  This
module answers that from the ``tenant.queue``/``tenant.job`` spans and
``tenant.preempt``/``tenant.shed`` instants the engine records, plus the
per-job ``hadoop.job``/``mpid.job`` DAGs for the shuffle split.

It also carries the Coz-style what-if machinery over to scheduler
knobs.  A projection replays the traced arrival/service history through
a deterministic greedy FIFO queue model with the knob turned:

* :func:`project_queue_capacity` — raise a queue's ``max_running``;
* :func:`project_drop_tenant` — remove one tenant's offered load
  ("what does preempting tenant B buy tenant A?");
* :func:`project_add_nodes` — scale each job's map waves to a larger
  cluster, shrinking the map critical-path seconds accordingly.

Replayed baselines are reported next to the observed ones so the
projection error decomposes into model error vs knob effect; the
validation loop (re-running the simulator with the knob actually
turned) lives in :mod:`repro.experiments.capacity`, mirroring how
:mod:`repro.experiments.critical_path` owns PR 5's knob mapping.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.obs.analysis import TraceDAG, critical_path
from repro.obs.tracer import SpanTracer

#: Blame buckets, in display order.  They tile each tenant's total
#: job-seconds (sum of per-job latencies) exactly.
TENANT_BUCKETS = ("queue_wait", "preemption", "shuffle", "runtime")


@dataclass
class TenantJob:
    """One submission reconstructed from its tenant spans."""

    job_id: int
    tenant: str
    queue: str
    name: str
    runtime: str  # "hadoop" | "mpid" | ""
    submitted: float
    dispatched: Optional[float] = None
    finished: Optional[float] = None
    outcome: str = "unfinished"
    #: Attempt-seconds preemption threw away (from instant ``lost_s``).
    preempt_lost: float = 0.0

    @property
    def queue_wait(self) -> float:
        if self.dispatched is None:
            return 0.0
        return self.dispatched - self.submitted

    @property
    def service(self) -> float:
        """Dispatch-to-finish seconds (the job span's duration)."""
        if self.dispatched is None or self.finished is None:
            return 0.0
        return self.finished - self.dispatched

    @property
    def latency(self) -> float:
        if self.finished is None:
            return 0.0
        return self.finished - self.submitted


def jobs_from_tracer(tracer: SpanTracer) -> list[TenantJob]:
    """Pair every ``tenant.queue``/``tenant.job`` span into job records.

    Pairing uses the ``job_id`` span arg when present (engine traces
    since the capacity-planning work write it) and falls back to
    in-order name matching per track for older stores.  Admission-shed
    submissions (a ``tenant.shed`` instant, no queue span) are included
    with ``outcome="shed"`` and no dispatch.
    """
    jobs: dict[tuple, TenantJob] = {}
    by_jid: dict[int, TenantJob] = {}
    #: (track, name) -> jobs whose run span has not been claimed yet.
    unclaimed: dict[tuple[str, str], list[TenantJob]] = {}
    synthetic = -1

    def tenant_of(track: str, args: dict) -> str:
        t = args.get("tenant")
        if t:
            return t
        return track.split(":", 1)[1] if ":" in track else track

    for span in tracer.spans:
        if span.category == "tenant.queue":
            tenant = tenant_of(span.track, span.args)
            jid = span.args.get("job_id")
            if jid is None:
                jid, synthetic = synthetic, synthetic - 1
            job = TenantJob(
                job_id=jid,
                tenant=tenant,
                queue=span.args.get("queue", tenant),
                name=span.name,
                runtime=span.args.get("runtime", ""),
                submitted=span.t0,
            )
            outcome = span.args.get("outcome")
            if outcome == "shed":
                job.outcome = "shed"
                job.finished = span.t1
            elif outcome == "dispatched":
                job.dispatched = span.t1
                unclaimed.setdefault((span.track, span.name), []).append(job)
            jobs[(span.track, span.t0, span.sid)] = job
            by_jid[jid] = job
        elif span.category == "tenant.job":
            jid = span.args.get("job_id")
            job = by_jid.get(jid) if jid is not None else None
            if job is None:
                stack = unclaimed.get((span.track, span.name), [])
                job = stack.pop(0) if stack else None
            else:
                stack = unclaimed.get((span.track, span.name), [])
                if job in stack:
                    stack.remove(job)
            if job is None:  # run span with no queue span: synthesize
                tenant = tenant_of(span.track, span.args)
                job = TenantJob(
                    job_id=span.args.get("job_id", synthetic),
                    tenant=tenant,
                    queue=span.args.get("queue", tenant),
                    name=span.name,
                    runtime=span.args.get("runtime", ""),
                    submitted=span.t0,
                )
                synthetic -= 1
                jobs[(span.track, span.t0, span.sid)] = job
            job.dispatched = span.t0
            if span.t1 is not None:
                job.finished = span.t1
                job.outcome = span.args.get("outcome", "done")
            if not job.runtime:
                job.runtime = span.args.get("runtime", "")

    # Admission sheds recorded only as instants (no queue span).
    for inst in tracer.instants:
        if inst.category != "tenant.shed":
            continue
        tenant = tenant_of(inst.track, inst.args)
        jid = inst.args.get("job_id")
        if jid is not None and jid in by_jid:
            continue
        job = TenantJob(
            job_id=jid if jid is not None else synthetic,
            tenant=tenant,
            queue=inst.args.get("queue", tenant),
            name=inst.name,
            runtime="",
            submitted=inst.time,
            finished=inst.time,
            outcome="shed",
        )
        synthetic -= 1
        jobs[(inst.track, inst.time, -job.job_id)] = job
        if jid is not None:
            by_jid[jid] = job

    out = sorted(jobs.values(), key=lambda j: (j.submitted, j.tenant, j.name))
    # Attribute preemption losses to the victim job by name + interval.
    for inst in tracer.instants:
        if inst.category != "tenant.preempt":
            continue
        lost = float(inst.args.get("lost_s", 0.0))
        victim = inst.name.split(" -", 1)[0]
        for job in out:
            if (
                job.name == victim
                and job.dispatched is not None
                and job.dispatched <= inst.time
                and (job.finished is None or inst.time <= job.finished)
            ):
                job.preempt_lost += lost
                break
    return out


# -- blame ----------------------------------------------------------------------


def _job_dag_roots(tracer: SpanTracer) -> dict[tuple[str, float], int]:
    """(job name, start time) -> runtime job-span sid, for shuffle blame."""
    roots: dict[tuple[str, float], int] = {}
    for span in tracer.spans:
        if span.category in ("hadoop.job", "mpid.job"):
            roots[(span.name, round(span.t0, 9))] = span.sid
    return roots


def tenant_blame(
    tracer: SpanTracer, dag: Optional[TraceDAG] = None
) -> dict[str, dict]:
    """Per-tenant blame buckets over completed jobs.

    For every tenant, tiles the total job-seconds (sum of completed
    jobs' submit-to-finish latencies) into queue-wait, preemption loss,
    shuffle (per-job critical-path copy seconds) and remaining runtime.
    """
    jobs = jobs_from_tracer(tracer)
    if dag is None:
        dag = TraceDAG.from_tracer(tracer, name="tenants")
    roots = _job_dag_roots(tracer)
    out: dict[str, dict] = {}
    for job in jobs:
        entry = out.setdefault(
            job.tenant,
            {
                "queue": job.queue,
                "jobs": 0,
                "completed": 0,
                "shed": 0,
                "failed": 0,
                "total_seconds": 0.0,
                "blame_seconds": {b: 0.0 for b in TENANT_BUCKETS},
            },
        )
        entry["jobs"] += 1
        if job.outcome == "shed":
            entry["shed"] += 1
            continue
        if job.outcome == "failed":
            entry["failed"] += 1
        if job.outcome != "done":
            continue
        entry["completed"] += 1
        service = job.service
        preempt = min(job.preempt_lost, service)
        copy_s = 0.0
        sid = roots.get((job.name, round(job.dispatched, 9)))
        if sid is not None:
            cp = critical_path(dag, root=sid)
            copy_s = cp.seconds_in(stage="copy")
        shuffle = min(copy_s, service - preempt)
        blame = entry["blame_seconds"]
        blame["queue_wait"] += job.queue_wait
        blame["preemption"] += preempt
        blame["shuffle"] += shuffle
        blame["runtime"] += service - preempt - shuffle
        entry["total_seconds"] += job.latency
    for entry in out.values():
        total = entry["total_seconds"]
        entry["blame_pct"] = {
            b: (100.0 * s / total if total > 0 else 0.0)
            for b, s in entry["blame_seconds"].items()
        }
    return out


# -- capacity projections --------------------------------------------------------


@dataclass(frozen=True)
class CapacityProjection:
    """One scheduler-knob what-if, Coz-style but for queue structure."""

    knob: str  #: "queue_capacity" | "drop_tenant" | "add_nodes"
    detail: dict
    tenant: str  #: tenant whose metric is projected ("" = whole queue)
    metric: str  #: what ``baseline``/``predicted`` measure
    baseline_observed: float  #: the metric as traced
    baseline_replayed: float  #: the metric under the replay model, knob off
    predicted: float  #: the metric under the replay model, knob on

    @property
    def predicted_delta(self) -> float:
        return self.baseline_observed - self.predicted

    def to_dict(self) -> dict:
        return {
            "knob": self.knob,
            "detail": self.detail,
            "tenant": self.tenant,
            "metric": self.metric,
            "baseline_observed": self.baseline_observed,
            "baseline_replayed": self.baseline_replayed,
            "predicted": self.predicted,
            "predicted_delta": self.predicted_delta,
        }


def replay_fifo(
    jobs: Iterable[TenantJob],
    servers: int,
    services: Optional[dict[int, float]] = None,
) -> dict[int, tuple[float, float]]:
    """Greedy FIFO replay of (submit, service) pairs through ``servers``
    dispatch slots; returns job_id -> (start, finish).

    This is the engine's dispatch discipline in miniature: jobs start in
    submit order as soon as a slot frees (``max_running`` slots per
    queue), each holding its slot for its traced service time.  It is
    exact when jobs do not contend for task slots *inside* the cluster,
    and a calibrated first-order model otherwise — which is why
    projections carry ``baseline_replayed`` alongside the observation.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    free = [0.0] * servers
    heapq.heapify(free)
    out: dict[int, tuple[float, float]] = {}
    ordered = sorted(jobs, key=lambda j: (j.submitted, j.job_id))
    for job in ordered:
        svc = (
            services.get(job.job_id, job.service)
            if services is not None
            else job.service
        )
        start = max(job.submitted, heapq.heappop(free))
        finish = start + svc
        heapq.heappush(free, finish)
        out[job.job_id] = (start, finish)
    return out


def _tenant_makespan(
    jobs: list[TenantJob],
    finishes: Optional[dict[int, tuple[float, float]]] = None,
    tenant: str = "",
) -> float:
    """First submit to last finish for ``tenant`` (all tenants when "")."""
    mine = [j for j in jobs if not tenant or j.tenant == tenant]
    if not mine:
        return 0.0
    t0 = min(j.submitted for j in mine)
    if finishes is None:
        t1 = max(j.finished or j.submitted for j in mine)
    else:
        t1 = max(finishes[j.job_id][1] for j in mine if j.job_id in finishes)
    return t1 - t0


def _completed(jobs: Iterable[TenantJob], queue: str) -> list[TenantJob]:
    return [j for j in jobs if j.queue == queue and j.outcome == "done"]


def project_queue_capacity(
    jobs: Iterable[TenantJob],
    queue: str,
    max_running: int,
    new_max_running: int,
    tenant: str = "",
) -> CapacityProjection:
    """What if ``queue`` could dispatch ``new_max_running`` jobs at once?"""
    qjobs = _completed(jobs, queue)
    base = replay_fifo(qjobs, max_running)
    new = replay_fifo(qjobs, new_max_running)
    return CapacityProjection(
        knob="queue_capacity",
        detail={"queue": queue, "max_running": max_running,
                "new_max_running": new_max_running},
        tenant=tenant,
        metric="makespan",
        baseline_observed=_tenant_makespan(qjobs, tenant=tenant),
        baseline_replayed=_tenant_makespan(qjobs, base, tenant=tenant),
        predicted=_tenant_makespan(qjobs, new, tenant=tenant),
    )


def project_drop_tenant(
    jobs: Iterable[TenantJob],
    queue: str,
    victim: str,
    beneficiary: str,
    max_running: int,
) -> CapacityProjection:
    """What does removing ``victim``'s load buy ``beneficiary``?"""
    qjobs = _completed(jobs, queue)
    base = replay_fifo(qjobs, max_running)
    kept = [j for j in qjobs if j.tenant != victim]
    new = replay_fifo(kept, max_running)
    return CapacityProjection(
        knob="drop_tenant",
        detail={"queue": queue, "victim": victim},
        tenant=beneficiary,
        metric="makespan",
        baseline_observed=_tenant_makespan(qjobs, tenant=beneficiary),
        baseline_replayed=_tenant_makespan(qjobs, base, tenant=beneficiary),
        predicted=_tenant_makespan(kept, new, tenant=beneficiary),
    )


def project_add_nodes(
    tracer: SpanTracer,
    jobs: Iterable[TenantJob],
    queue: str,
    max_running: int,
    map_slots: int,
    new_map_slots: int,
    tenant: str = "",
    dag: Optional[TraceDAG] = None,
) -> CapacityProjection:
    """What if the cluster had ``new_map_slots`` map slots per job?

    First-order map-wave model: a job with M maps runs them in
    ``ceil(M / slots)`` waves, so its *map* critical-path seconds scale
    by the wave ratio; copy/sort/reduce time is left alone.  Per-job map
    seconds and map counts come from the job's own DAG (the
    ``hadoop.job`` span's ``maps`` arg and critical-path map blame).
    """
    import math

    qjobs = _completed(jobs, queue)
    if dag is None:
        dag = TraceDAG.from_tracer(tracer, name="tenants")
    roots = _job_dag_roots(tracer)
    services: dict[int, float] = {}
    for job in qjobs:
        svc = job.service
        sid = roots.get((job.name, round(job.dispatched, 9)))
        if sid is not None:
            cp = critical_path(dag, root=sid)
            map_s = cp.seconds_in(stage="map")
            maps = int(dag.spans[sid].args.get("maps", 0))
            if maps > 0 and map_s > 0:
                waves = math.ceil(maps / max(1, map_slots))
                new_waves = math.ceil(maps / max(1, new_map_slots))
                svc = svc - map_s * (1.0 - new_waves / waves)
        services[job.job_id] = max(0.0, svc)
    base = replay_fifo(qjobs, max_running)
    new = replay_fifo(qjobs, max_running, services=services)
    return CapacityProjection(
        knob="add_nodes",
        detail={"queue": queue, "map_slots": map_slots,
                "new_map_slots": new_map_slots},
        tenant=tenant,
        metric="makespan",
        baseline_observed=_tenant_makespan(qjobs, tenant=tenant),
        baseline_replayed=_tenant_makespan(qjobs, base, tenant=tenant),
        predicted=_tenant_makespan(qjobs, new, tenant=tenant),
    )


# -- one-call analysis -----------------------------------------------------------


def analyze_tenants(
    tracer: SpanTracer,
    projections: Iterable[CapacityProjection] = (),
) -> dict:
    """Full per-tenant analysis of one multi-tenant trace, JSON-ready."""
    jobs = jobs_from_tracer(tracer)
    dag = TraceDAG.from_tracer(tracer, name="tenants")
    blame = tenant_blame(tracer, dag=dag)
    preempts = [i for i in tracer.instants if i.category == "tenant.preempt"]
    sheds = [i for i in tracer.instants if i.category == "tenant.shed"]
    return {
        "system": "tenants",
        "jobs": len(jobs),
        "completed": sum(1 for j in jobs if j.outcome == "done"),
        "failed": sum(1 for j in jobs if j.outcome == "failed"),
        "shed": sum(1 for j in jobs if j.outcome == "shed"),
        "preempt_events": len(preempts),
        "preempt_lost_seconds": sum(
            float(i.args.get("lost_s", 0.0)) for i in preempts
        ),
        "shed_events": len(sheds),
        "makespan": _tenant_makespan(jobs),
        "tenants": blame,
        "projections": [p.to_dict() for p in projections],
    }


def format_tenant_analysis(report: dict) -> str:
    """Human-readable rendering of one :func:`analyze_tenants` result."""
    lines = [
        f"== tenants: {report['jobs']} jobs "
        f"({report['completed']} done, {report['failed']} failed, "
        f"{report['shed']} shed) over {report['makespan']:.2f} s ==",
        "",
        "per-tenant blame (tiles each tenant's job-seconds):",
    ]
    for tenant in sorted(report["tenants"]):
        entry = report["tenants"][tenant]
        lines.append(
            f"  {tenant:<14} queue={entry['queue']:<10} "
            f"{entry['completed']}/{entry['jobs']} done  "
            f"{entry['total_seconds']:>10.2f} s total"
        )
        for bucket in TENANT_BUCKETS:
            secs = entry["blame_seconds"][bucket]
            pct = entry["blame_pct"][bucket]
            lines.append(f"    {bucket:<11} {secs:>10.2f} s  {pct:>6.2f} %")
    if report["preempt_events"]:
        lines.append("")
        lines.append(
            f"preemptions: {report['preempt_events']} events, "
            f"{report['preempt_lost_seconds']:.2f} s of work lost"
        )
    if report["projections"]:
        lines.append("")
        lines.append("capacity what-ifs (replay model; validate by re-run):")
        for p in report["projections"]:
            who = p["tenant"] or "all"
            lines.append(
                f"  {p['knob']:<15} {who:<12} {p['metric']}: "
                f"{p['baseline_observed']:>9.2f} s -> {p['predicted']:>9.2f} s "
                f"(replayed baseline {p['baseline_replayed']:.2f} s)"
            )
    return "\n".join(lines)
