"""Figure 6: WordCount — ordinary Hadoop vs the MPI-D simulation system.

The paper's configuration: 8 nodes (7 workers), 7/7 concurrent
map/reduce slots on Hadoop; on the MPI-D side 49 mapper processes, 1
reducer, 1 master.  Input from 1 GB to 100 GB.  The headline: MPI-D
reduces execution time to 8% / 48% / 56% of Hadoop at 1 / 10 / 100 GB.

Run: ``python -m repro.experiments.fig6_wordcount [--full]
[--trace-out trace.json]`` — the latter re-runs the smallest size with
the observer attached and writes a Perfetto-loadable trace plus a
``<trace-out>.manifest.json`` sidecar.  :func:`simulate` is the one
builder of the Hadoop/MPI-D pair; ``python -m repro trace fig6`` and
``python -m repro replay fig6`` run it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper, driver_parser
from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
from repro.hadoop.simulation import HadoopSimulation
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MrMpiSimulation
from repro.obs import Attach, ObservedRun, write_observed_run
from repro.util.units import GiB, gib_label

DEFAULT_SIZES_GB = (1, 4, 10)
FULL_SIZES_GB = (1, 10, 100)


@dataclass
class Fig6Result:
    """size (GiB) -> (hadoop seconds, mpid seconds)."""

    sizes_gb: tuple[int, ...]
    hadoop: dict[int, float] = field(default_factory=dict)
    mpid: dict[int, float] = field(default_factory=dict)
    #: Full per-task phase records (``JobMetrics.to_dict()`` /
    #: ``MrMpiMetrics.to_dict()``) per size — the JSON export's payload.
    hadoop_metrics: dict[int, dict] = field(default_factory=dict)
    mpid_metrics: dict[int, dict] = field(default_factory=dict)

    def ratio(self, gb: int) -> float:
        return self.mpid[gb] / self.hadoop[gb]


def wordcount_spec(input_bytes: int) -> JobSpec:
    """The Figure-6 WordCount job (one reducer) at ``input_bytes``."""
    return JobSpec(
        name=f"wordcount-{gib_label(input_bytes)}",
        input_bytes=input_bytes,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def simulate(
    input_bytes: int,
    seed: int = 2011,
    observe: bool = False,
    attach: Optional[Attach] = None,
) -> ObservedRun:
    """Hadoop (7/7 slots) then MPI-D (49 mappers, 1 reducer) on one input."""
    spec = wordcount_spec(input_bytes)
    pair = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        seed=seed,
        observe=observe,
    ).observed_run("hadoop", attach)
    msim = MrMpiSimulation(
        spec=spec,
        config=MrMpiConfig(num_mappers=49, num_reducers=1),
        observe=observe,
    )
    if attach is not None:
        attach("mpid", msim.obs)
    mm = msim.run()
    pair.observers.append(("mpid", msim.obs))
    pair.sim_elapsed["mpid"] = mm.elapsed
    pair.metrics["mpid"] = mm
    return pair


def run(sizes_gb: tuple[int, ...] = DEFAULT_SIZES_GB, seed: int = 2011) -> Fig6Result:
    result = Fig6Result(sizes_gb=tuple(sizes_gb))
    for gb in sizes_gb:
        pair = simulate(gb * GiB, seed=seed)
        hm, mm = pair.metrics["hadoop"], pair.metrics["mpid"]
        result.hadoop[gb] = hm.elapsed
        result.hadoop_metrics[gb] = hm.to_dict()
        result.mpid[gb] = mm.elapsed
        result.mpid_metrics[gb] = mm.to_dict()
    return result


def format_report(result: Fig6Result) -> str:
    table = Table(
        headers=("input", "Hadoop (s)", "MPI-D system (s)", "MPI-D/Hadoop"),
        title="WordCount execution time",
    )
    for gb in result.sizes_gb:
        table.add_row(
            f"{gb} GB",
            result.hadoop[gb],
            result.mpid[gb],
            f"{result.ratio(gb) * 100:.0f}%",
        )
    comparisons = []
    for gb in result.sizes_gb:
        published = paper.FIG6_RATIO.get(gb)
        comparisons.append(
            (f"MPI-D/Hadoop ratio @ {gb} GB", result.ratio(gb), published)
        )
        if gb in paper.FIG6_HADOOP_S:
            comparisons.append(
                (f"Hadoop time @ {gb} GB (s)", result.hadoop[gb], paper.FIG6_HADOOP_S[gb])
            )
        if gb in paper.FIG6_MPID_S:
            comparisons.append(
                (f"MPI-D time @ {gb} GB (s)", result.mpid[gb], paper.FIG6_MPID_S[gb])
            )
    biggest = max(result.sizes_gb)
    headline = (
        f"reduction at {biggest} GB: {(1 - result.ratio(biggest)) * 100:.0f}% "
        f"(paper: {paper.FIG6_HEADLINE_REDUCTION_AT_100GB * 100:.0f}% at 100 GB)"
    )
    return "\n\n".join(
        [
            banner("Figure 6: WordCount, Hadoop vs MPI-D simulation system"),
            table.render(),
            compare_to_paper(comparisons),
            headline,
        ]
    )


def write_traced_run(
    trace_out: Path, sizes_gb: tuple[int, ...], seed: int = 2011
) -> ObservedRun:
    """One observed run of the smallest size; writes trace + manifest."""
    gb = min(sizes_gb)
    return write_observed_run(
        trace_out,
        "fig6_wordcount",
        {"sizes_gb": [gb], "seed": seed},
        seed,
        lambda attach: simulate(gb * GiB, seed=seed, observe=True, attach=attach),
    )


def main(argv: list[str] | None = None) -> int:
    args = driver_parser(__doc__, full=False, trace_out=None).parse_args(argv)
    sizes = FULL_SIZES_GB if args.full else DEFAULT_SIZES_GB
    print(format_report(run(sizes_gb=sizes)))
    if args.trace_out is not None:
        write_traced_run(args.trace_out, sizes)
        print(f"\nwrote {args.trace_out} (+ {args.trace_out}.manifest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
