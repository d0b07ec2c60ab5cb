"""Figure 1: per-reducer copy/sort/reduce times, JavaSort on Hadoop.

The paper runs GridMix JavaSort over 150 GB on 7 workers with 8/8
slots and plots every reducer's copy, sort and reduce stage time.  The
default here is a 16 GB scale model (same wave structure, ~2 s of wall
time); ``--full`` runs the paper's 150 GB (about half a minute of wall
time, ~2400 reducers).

Run: ``python -m repro.experiments.fig1_shuffle [--full] [--gb N]
[--trace-out trace.json]``.  :func:`simulate` is the one builder of the
JavaSort run; ``python -m repro trace fig1`` and ``python -m repro
replay fig1`` run it too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper, driver_parser
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobMetrics, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.obs import Attach, ObservedRun, write_observed_run
from repro.util.units import GiB, gib_label


def simulate(
    input_bytes: int,
    seed: int = 2011,
    observe: bool = False,
    attach: Optional[Attach] = None,
) -> ObservedRun:
    """JavaSort on Hadoop at the paper's 8/8 slot configuration."""
    return HadoopSimulation(
        spec=JobSpec(
            name=f"javasort-{gib_label(input_bytes)}",
            input_bytes=input_bytes,
            profile=JAVASORT_PROFILE,
        ),
        config=HadoopConfig(map_slots=8, reduce_slots=8),
        seed=seed,
        observe=observe,
    ).observed_run("hadoop", attach)


def run(input_bytes: int = 16 * GiB, seed: int = 2011) -> JobMetrics:
    return simulate(input_bytes, seed=seed).metrics["hadoop"]


def write_traced_run(trace_out, input_bytes: int = 16 * GiB, seed: int = 2011) -> JobMetrics:
    """One observed JavaSort run; writes trace + manifest sidecar."""
    traced = write_observed_run(
        trace_out,
        "fig1_shuffle",
        {"input_bytes": input_bytes, "seed": seed},
        seed,
        lambda attach: simulate(input_bytes, seed=seed, observe=True, attach=attach),
    )
    return traced.metrics["hadoop"]


def format_report(metrics: JobMetrics, show_reducers: int = 12) -> str:
    copy = metrics.copy_times()
    sort = metrics.sort_times()
    red = metrics.reduce_times()

    per_reducer = Table(
        headers=("reducer", "copy (s)", "sort (s)", "reduce (s)"),
        title=f"First {show_reducers} of {len(copy)} reducers",
    )
    for i in range(min(show_reducers, len(copy))):
        per_reducer.add_row(i, copy[i], sort[i], red[i])

    lifecycle = copy.sum() / (copy.sum() + sort.sum() + red.sum())
    comparisons = [
        ("avg copy (s)", float(copy.mean()), paper.FIG1_AVG_COPY_S),
        ("avg sort (s)", float(sort.mean()), paper.FIG1_AVG_SORT_S),
        ("avg reduce (s)", float(red.mean()), paper.FIG1_AVG_REDUCE_S),
        (
            "copy share of reducer lifecycle",
            float(lifecycle),
            paper.FIG1_COPY_SHARE_OF_REDUCER_LIFECYCLE,
        ),
    ]
    note = (
        "Note: paper values are for 150 GB; scale the input with --full "
        "for the direct comparison."
        if len(copy) < 2000
        else ""
    )
    dist = Table(
        headers=("stat", "copy (s)", "sort (s)", "reduce (s)"),
        title="Distribution over reducers",
    )
    for stat, fn in (("min", np.min), ("median", np.median), ("max", np.max)):
        dist.add_row(stat, float(fn(copy)), float(fn(sort)), float(fn(red)))

    blocks = [
        banner("Figure 1: copy/sort/reduce per reducer (JavaSort)"),
        f"job elapsed: {metrics.elapsed:.1f}s  maps: {len(metrics.map_tasks)}  "
        f"reducers: {len(metrics.reduce_tasks)}  locality: "
        f"{metrics.data_locality() * 100:.0f}%",
        per_reducer.render(),
        dist.render(),
        compare_to_paper(comparisons),
    ]
    if note:
        blocks.append(note)
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> int:
    args = driver_parser(__doc__, full=False, gb=16, trace_out=None).parse_args(argv)
    input_bytes = (150 if args.full else args.gb) * GiB
    print(format_report(run(input_bytes=input_bytes)))
    if args.trace_out is not None:
        write_traced_run(args.trace_out, input_bytes=input_bytes)
        print(f"\nwrote {args.trace_out} (+ {args.trace_out}.manifest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
