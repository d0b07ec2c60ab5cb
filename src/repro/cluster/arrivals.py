"""Seeded open-loop job arrival streams for multi-tenant runs.

Each tenant gets an independent arrival process — Poisson, diurnal
(inhomogeneous Poisson via thinning), or bursty (compound Poisson
batches) — and a workload mix drawn from the GridMix suite.  The whole
stream is materialized *before* the simulation starts from
``make_rng(seed, "arrivals", tenant)``, so a run's offered load is a
pure function of (seed, tenant specs, horizon): replays and the
double-run determinism CI job see byte-identical traffic.

Open-loop means arrivals do not slow down when the cluster is saturated
— exactly the regime where admission control and fair-share matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.rng import make_rng
from repro.util.units import MiB
from repro.workloads.gridmix_suite import GRIDMIX_SUITE, suite_by_name

_PROFILES = ("poisson", "diurnal", "bursty")
_RUNTIMES = ("hadoop", "mpid", "mixed")
_INF = float("inf")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract."""

    name: str
    #: Mean arrival rate, jobs per simulated second.
    rate: float = 0.02
    #: Arrival process shape.
    profile: str = "poisson"
    #: Which queue the tenant submits to (defaults to its own name).
    queue: Optional[str] = None
    #: GridMix entries the tenant draws jobs from, uniformly.
    workloads: tuple[str, ...] = ("javaSort", "combiner", "webdataScan")
    #: Job input size range [lo, hi), sampled log-uniformly.
    min_input_bytes: int = 64 * MiB
    max_input_bytes: int = 512 * MiB
    #: Runtime: "hadoop", "mpid", or "mixed" (Bernoulli per job).
    runtime: str = "hadoop"
    mpid_fraction: float = 0.25
    # -- diurnal shape ------------------------------------------------------
    #: Peak-to-mean swing in [0, 1): rate(t) = rate * (1 + A sin(2πt/T)).
    diurnal_amplitude: float = 0.8
    diurnal_period: float = 3600.0
    # -- bursty shape -------------------------------------------------------
    #: Mean jobs per burst (geometric); burst events arrive Poisson at
    #: ``rate / burst_size`` so the long-run mean rate is preserved.
    burst_size: float = 5.0
    #: Gap between jobs inside one burst (seconds).
    burst_spacing: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN rate or period
        # otherwise yields an empty or endless arrival stream.
        if not 0 < self.rate < _INF:
            raise ValueError(f"arrival rate must be positive and finite: {self.rate}")
        if not 0 < self.diurnal_period < _INF:
            raise ValueError(
                f"diurnal_period must be positive and finite: {self.diurnal_period}"
            )
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown arrival profile: {self.profile!r}")
        if self.runtime not in _RUNTIMES:
            raise ValueError(f"unknown runtime: {self.runtime!r}")
        if not 0 < self.min_input_bytes <= self.max_input_bytes < _INF:
            raise ValueError("need 0 < min_input_bytes <= max_input_bytes < inf")
        known = suite_by_name()
        for w in self.workloads:
            if w not in known:
                raise ValueError(
                    f"unknown GridMix workload {w!r}; "
                    f"have {sorted(known)}"
                )
        if not 0.0 <= self.mpid_fraction <= 1.0:
            raise ValueError("mpid_fraction must be in [0, 1]")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not (1.0 <= self.burst_size < _INF and 0 <= self.burst_spacing < _INF):
            raise ValueError("need finite burst_size >= 1 and burst_spacing >= 0")

    @property
    def queue_name(self) -> str:
        return self.queue if self.queue is not None else self.name


@dataclass(frozen=True)
class Arrival:
    """One materialized job submission."""

    time: float
    tenant: str
    #: Unique within the tenant's stream; job names derive from it.
    index: int
    runtime: str  # "hadoop" | "mpid"
    workload: str  # GridMix entry name
    input_bytes: int

    @property
    def job_name(self) -> str:
        return f"{self.tenant}-{self.index}-{self.workload}"


def _arrival_times(tenant: TenantSpec, rng: np.random.Generator, horizon: float):
    """The tenant's raw arrival instants within [0, horizon)."""
    times: list[float] = []
    if tenant.profile == "poisson":
        t = float(rng.exponential(1.0 / tenant.rate))
        while t < horizon:
            times.append(t)
            t += float(rng.exponential(1.0 / tenant.rate))
    elif tenant.profile == "diurnal":
        # Thinning (Lewis–Shedler): draw at the peak rate, keep each
        # point with probability rate(t)/peak.
        amp = tenant.diurnal_amplitude
        peak = tenant.rate * (1.0 + amp)
        two_pi = 2.0 * np.pi
        t = float(rng.exponential(1.0 / peak))
        while t < horizon:
            lam = tenant.rate * (1.0 + amp * np.sin(two_pi * t / tenant.diurnal_period))
            if rng.random() < lam / peak:
                times.append(t)
            t += float(rng.exponential(1.0 / peak))
    else:  # bursty
        burst_rate = tenant.rate / tenant.burst_size
        t = float(rng.exponential(1.0 / burst_rate))
        while t < horizon:
            count = int(rng.geometric(1.0 / tenant.burst_size))
            for i in range(count):
                at = t + i * tenant.burst_spacing
                if at < horizon:
                    times.append(at)
            t += float(rng.exponential(1.0 / burst_rate))
    return times


def check_horizon(horizon: float) -> None:
    """An arrival horizon must be finite and positive: NaN would yield
    no arrivals at all, and inf would never end the arrival loops."""
    if not 0 < horizon < _INF:
        raise ValueError(f"horizon must be finite and positive: {horizon}")


def tenant_arrivals(
    tenant: TenantSpec, seed: int, horizon: float
) -> list[Arrival]:
    """Materialize one tenant's whole stream (sorted by time)."""
    check_horizon(horizon)
    rng = make_rng(seed, "arrivals", tenant.name)
    times = sorted(_arrival_times(tenant, rng, horizon))
    # Per-job attribute draws come from a second stream so reshaping the
    # arrival process does not reshuffle workload choices.
    attr_rng = make_rng(seed, "arrivals-attrs", tenant.name)
    out: list[Arrival] = []
    lo = np.log(tenant.min_input_bytes)
    hi = np.log(tenant.max_input_bytes)
    for i, t in enumerate(times):
        workload = tenant.workloads[int(attr_rng.integers(len(tenant.workloads)))]
        nbytes = int(np.exp(lo + (hi - lo) * attr_rng.random()))
        if tenant.runtime == "mixed":
            runtime = "mpid" if attr_rng.random() < tenant.mpid_fraction else "hadoop"
        else:
            runtime = tenant.runtime
        out.append(
            Arrival(
                time=float(t),
                tenant=tenant.name,
                index=i,
                runtime=runtime,
                workload=workload,
                input_bytes=max(1, nbytes),
            )
        )
    return out


def merge_streams(streams: list[list[Arrival]]) -> list[Arrival]:
    """All tenants' arrivals in deterministic submission order: by time,
    ties broken by tenant name then index."""
    merged = [a for s in streams for a in s]
    merged.sort(key=lambda a: (a.time, a.tenant, a.index))
    return merged


def build_arrivals(
    tenants: list[TenantSpec], seed: int, horizon: float
) -> list[Arrival]:
    """The full offered load for one multi-tenant run."""
    check_horizon(horizon)
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    return merge_streams([tenant_arrivals(t, seed, horizon) for t in tenants])


def offered_load_summary(arrivals: list[Arrival]) -> dict:
    """Quick headline numbers for reports and manifests."""
    by_tenant: dict[str, int] = {}
    total_bytes = 0
    for a in arrivals:
        by_tenant[a.tenant] = by_tenant.get(a.tenant, 0) + 1
        total_bytes += a.input_bytes
    return {
        "jobs": len(arrivals),
        "by_tenant": dict(sorted(by_tenant.items())),
        "total_input_bytes": total_bytes,
        "mpid_jobs": sum(1 for a in arrivals if a.runtime == "mpid"),
    }


__all__ = [
    "Arrival",
    "TenantSpec",
    "build_arrivals",
    "merge_streams",
    "offered_load_summary",
    "tenant_arrivals",
    "GRIDMIX_SUITE",
]
