"""``python -m repro trace <experiment>`` — run one observed experiment.

The fastest path from "what is the simulator doing?" to a timeline: one
command runs a small experiment with the observer attached and writes

* a Chrome/Perfetto ``trace_event`` JSON (open at https://ui.perfetto.dev
  or ``chrome://tracing``) with one process per simulated system and one
  thread per track (task attempt, flow, node),
* a ``<trace-out>.manifest.json`` sidecar (config hash, seed, git rev,
  wall-clock, event counts),
* optionally a metrics dump (``--metrics-out``, CSV or JSON by
  extension) and an ASCII Gantt of the phase spans (``--gantt``).

Experiments — each runs its driver's one builder, the same code the
driver's sweep and ``--trace-out`` run:

* ``fig6``  — :func:`repro.experiments.fig6_wordcount.simulate`:
  WordCount, Hadoop and MPI-D side by side (two pids).
* ``fig1``  — :func:`repro.experiments.fig1_shuffle.simulate`: JavaSort
  shuffle anatomy on Hadoop.
* ``fault`` — :func:`repro.experiments.fault_tolerance.simulate`: one
  Hadoop run under Poisson node churn (fault instants, aborted
  attempts, re-executions).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments import fault_tolerance, fig1_shuffle, fig6_wordcount
from repro.experiments.reporting import add_shared_flags, number, write_csv, write_json
from repro.obs.gantt import ascii_gantt
from repro.obs.observed import ObservedRun, write_observed_run
from repro.util.units import parse_size

#: Experiment name -> ``build(nbytes, seed, rate, attach)``: the driver's
#: one builder, run with observers on.
BUILDERS = {
    "fig6": lambda nbytes, seed, rate, attach: fig6_wordcount.simulate(
        nbytes, seed, observe=True, attach=attach
    ),
    "fig1": lambda nbytes, seed, rate, attach: fig1_shuffle.simulate(
        nbytes, seed, observe=True, attach=attach
    ),
    "fault": lambda nbytes, seed, rate, attach: fault_tolerance.simulate(
        nbytes, seed, rate, observe=True, attach=attach
    ),
}


def run_experiment(experiment: str, nbytes: int, seed: int,
                   rate_per_hour: float = 40.0, attach=None) -> ObservedRun:
    """Run one named experiment with observers on; shared with ``replay``.

    ``attach(name, obs)`` — when given — is called for each simulation
    after construction and *before* ``run()``, which is the window where
    a streaming store can hook the tracer/metrics sinks and still see
    every event.
    """
    if experiment not in BUILDERS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return BUILDERS[experiment](nbytes, seed, rate_per_hour, attach)


def _write_metrics(path: Path, observers) -> None:
    """Metrics dump: ``.json`` gets the full registry, else CSV rows."""
    if path.suffix == ".json":
        write_json(path, {name: obs.metrics.to_dict() for name, obs in observers})
        return
    header, rows = (), []
    for name, obs in observers:
        header, obs_rows = obs.metrics.rows()
        rows.extend([name, *row] for row in obs_rows)
    write_csv(path, ["system", *header], rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace", description=__doc__
    )
    parser.add_argument("experiment", choices=list(BUILDERS))
    add_shared_flags(
        parser, size="1GB", seed=2011, rate=40.0, trace_out=Path("trace.json")
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="also dump the metrics registry (CSV, or JSON by extension)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None,
        help="directory for every artifact (trace, manifest, metrics, "
        "stores, dashboard); relative output paths resolve under it",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="also stream the raw events to a <experiment>.<system>"
        ".store.jsonl trace store as they are recorded",
    )
    parser.add_argument(
        "--dashboard", action="store_true",
        help="also fold the run into frames and write dashboard.html",
    )
    parser.add_argument(
        "--gantt", action="store_true", help="print an ASCII Gantt timeline"
    )
    parser.add_argument(
        "--gantt-limit", type=number(int), default=None, metavar="N",
        help="cap the Gantt at N tracks (adds a '… N more tracks' footer)",
    )
    args = parser.parse_args(argv)

    out_dir = args.out_dir
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def _resolve(path: Path) -> Path:
        return out_dir / path if out_dir is not None and not path.is_absolute() else path

    def _store(system: str) -> Path:
        return _resolve(Path(f"{args.experiment}.{system}.store.jsonl"))

    nbytes = parse_size(args.size)
    trace_out = _resolve(args.trace_out)
    run = write_observed_run(
        trace_out,
        args.experiment,
        {"size": args.size, "seed": args.seed, "rate": args.rate},
        args.seed,
        lambda attach: run_experiment(
            args.experiment, nbytes, args.seed, args.rate, attach=attach
        ),
        store_path=_store if args.stream else None,
    )
    observers = run.observers
    print(f"wrote {trace_out} (+ {trace_out}.manifest.json)")
    for path in run.stores:
        print(f"wrote {path} (streamed trace store)")
    for name, obs in observers:
        counts = obs.event_counts()
        print(
            f"  {name}: {run.sim_elapsed[name]:.2f} simulated seconds, "
            f"{counts['spans']} spans, {counts['instants']} instants, "
            f"{counts['metrics']} metrics"
        )
    if args.metrics_out is not None:
        metrics_out = _resolve(args.metrics_out)
        _write_metrics(metrics_out, observers)
        print(f"wrote {metrics_out}")
    if args.dashboard:
        from repro.obs.dashboard import write_dashboard
        from repro.obs.replay import replay_observer

        replays = [
            (name, replay_observer(obs, system=name)) for name, obs in observers
        ]
        dash = _resolve(Path("dashboard.html"))
        write_dashboard(
            dash, replays,
            title=f"repro trace — {args.experiment} {args.size}",
            manifest=run.manifest,
        )
        print(f"wrote {dash} — open it in a browser to replay this run")
    if args.gantt:
        for name, obs in observers:
            print()
            print(
                ascii_gantt(
                    obs,
                    categories={
                        "hadoop.job", "hadoop.map", "hadoop.reduce",
                        "mpid.job", "mpid.map", "mpid.reduce", "fault",
                    },
                    title=name,
                    max_tracks=args.gantt_limit,
                )
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
