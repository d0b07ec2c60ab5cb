"""One observed run, written one way.

Every traceable experiment has a single builder that constructs its
simulations, runs them and hands back an :class:`ObservedRun`.  The
experiment's sweep, its ``--trace-out`` run, ``python -m repro trace``,
``python -m repro replay`` and the fleet-store producer all call that
builder, so what runs is what gets observed.

:func:`write_observed_run` is the one tail every observed run shares:
time the builder, optionally stream each system's events to a trace
store while it runs, then write the Perfetto trace and its
``<trace-out>.manifest.json`` sidecar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.perfetto import write_trace

#: ``attach(system, observer)`` — called by a builder for each simulation
#: after construction and before ``run()``, the window in which a
#: streaming store can hook the sinks and still see every event.
Attach = Callable[[str, object], None]


@dataclass
class ObservedRun:
    """What one builder call produced, keyed by system name."""

    #: ``[(system, Observer), ...]`` in run order — the trace exporter's input.
    observers: list
    #: Simulated seconds per system.
    sim_elapsed: dict
    #: The system's own result object (``JobMetrics``, ``MrMpiMetrics``
    #: or a multi-tenant engine report) per system.
    metrics: dict = field(default_factory=dict)
    #: Set by :func:`write_observed_run`.
    manifest: Optional[RunManifest] = None
    stores: list = field(default_factory=list)


def write_observed_run(
    trace_out,
    experiment: str,
    config: dict,
    seed: int,
    build: Callable[[Attach], ObservedRun],
    store_path: Optional[Callable[[str], Path]] = None,
) -> ObservedRun:
    """Run ``build(attach)`` and write its trace plus manifest sidecar.

    With ``store_path``, each system's events also stream to the JSONL
    trace store at ``store_path(system)`` as they are recorded.
    """
    writers, stores = [], []

    def attach(system: str, obs) -> None:
        if store_path is not None:
            path = store_path(system)
            writers.append(obs.stream_to(path, system=system))
            stores.append(path)

    t0 = time.perf_counter()
    try:
        run = build(attach)
    finally:
        for writer in writers:
            writer.close()
    run.manifest = build_manifest(
        experiment=experiment,
        config=config,
        seed=seed,
        observers=run.observers,
        wall_seconds=time.perf_counter() - t0,
        sim_elapsed=run.sim_elapsed,
    )
    run.stores = stores
    write_trace(run.observers, trace_out, manifest=run.manifest)
    run.manifest.write(Path(f"{trace_out}.manifest.json"))
    return run
