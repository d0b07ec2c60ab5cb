"""Stragglers and speculative execution: the story behind Figure 1's outliers.

The paper deletes 56 reducer points "as their time reaches 4000 s" —
an entire scheduling wave of stragglers.  This experiment injects a
slow-disk node into the simulated cluster (a failing drive, the classic
production straggler) and measures the job three ways:

* healthy cluster,
* one straggler node, speculation off (0.20.2 with
  ``mapred.map.tasks.speculative.execution=false``),
* one straggler node, speculation on — duplicate attempts of slow maps
  race on healthy nodes.

Run: ``python -m repro.experiments.stragglers [--gb N] [--slowdown X]
[--seeds a,b] [--out DIR] [--trace-out FILE]``.  :func:`simulate` is the
one builder of all three scenarios, shared by the sweep and
``--trace-out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.reporting import (
    Table,
    banner,
    driver_parser,
    positive_number,
    write_csv,
    write_json,
)
from repro.hadoop import HadoopConfig, JAVASORT_PROFILE, JobMetrics, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.obs import Attach, ObservedRun, write_observed_run
from repro.util.units import GiB, gib_label

DEFAULT_SEEDS = (2011, 2012, 2013)


@dataclass
class StragglerResult:
    healthy: JobMetrics
    degraded: JobMetrics
    speculative: JobMetrics

    @property
    def degradation(self) -> float:
        return self.degraded.elapsed / self.healthy.elapsed

    @property
    def recovered(self) -> float:
        """Fraction of the straggler-induced slowdown speculation removed."""
        lost = self.degraded.elapsed - self.healthy.elapsed
        if lost <= 0:
            return 0.0
        won_back = self.degraded.elapsed - self.speculative.elapsed
        return won_back / lost


def simulate(
    input_bytes: int,
    seed: int = 2011,
    slowdown: Optional[float] = 6.0,
    slow_node: int = 3,
    speculative: bool = True,
    observe: bool = False,
    attach: Optional[Attach] = None,
) -> ObservedRun:
    """One JavaSort run with ``slow_node``'s disk ``slowdown`` times slower
    (None: healthy cluster), speculative execution on or off."""
    return HadoopSimulation(
        spec=JobSpec(
            name=f"sort-{gib_label(input_bytes)}",
            input_bytes=input_bytes,
            profile=JAVASORT_PROFILE,
        ),
        config=HadoopConfig(speculative_execution=speculative),
        seed=seed,
        disk_slowdown=None if slowdown is None else {slow_node: slowdown},
        observe=observe,
    ).observed_run("hadoop", attach)


def run(
    input_gb: int = 4,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seed: int = 2011,
) -> StragglerResult:
    def job(slow: Optional[float], speculative: bool) -> JobMetrics:
        return simulate(
            input_gb * GiB, seed, slow, slow_node, speculative
        ).metrics["hadoop"]

    return StragglerResult(
        healthy=job(None, speculative=False),
        degraded=job(slowdown, speculative=False),
        speculative=job(slowdown, speculative=True),
    )


def sweep(
    input_gb: int = 4,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> dict[int, StragglerResult]:
    """The three-scenario comparison across placement seeds."""
    return {
        seed: run(
            input_gb=input_gb, slow_node=slow_node, slowdown=slowdown, seed=seed
        )
        for seed in seeds
    }


def to_rows(results: dict[int, StragglerResult]) -> tuple[list[str], list[list]]:
    """One CSV row per (seed, scenario) with the speculation counters."""
    header = [
        "seed",
        "scenario",
        "elapsed_s",
        "avg_copy_s",
        "spec_map_attempts",
        "spec_map_wins",
        "spec_reduce_attempts",
        "spec_reduce_wins",
        "degradation_x",
        "recovered_frac",
    ]
    rows: list[list] = []
    for seed in sorted(results):
        r = results[seed]
        for label, m in (
            ("healthy", r.healthy),
            ("degraded", r.degraded),
            ("speculative", r.speculative),
        ):
            rows.append(
                [
                    seed,
                    label,
                    m.elapsed,
                    float(m.copy_times().mean()),
                    m.speculative_attempts,
                    m.speculative_wins,
                    m.speculative_reduce_attempts,
                    m.speculative_reduce_wins,
                    r.degradation,
                    r.recovered,
                ]
            )
    return header, rows


def to_json(results: dict[int, StragglerResult]) -> dict:
    """Per-seed full job histories of all three scenarios."""
    return {
        "experiment": "stragglers",
        "seeds": sorted(results),
        "runs": {
            str(seed): {
                "healthy": r.healthy.to_dict(),
                "degraded": r.degraded.to_dict(),
                "speculative": r.speculative.to_dict(),
                "degradation_x": r.degradation,
                "recovered_frac": r.recovered,
            }
            for seed, r in results.items()
        },
    }


def export(results: dict[int, StragglerResult], out_dir: Path) -> list[Path]:
    """Write stragglers.csv / stragglers.json into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "stragglers.csv"
    write_csv(csv_path, *to_rows(results))
    json_path = out_dir / "stragglers.json"
    write_json(json_path, to_json(results))
    return [csv_path, json_path]


def write_traced_run(
    trace_out,
    input_gb: int = 1,
    slow_node: int = 3,
    slowdown: float = 6.0,
    seed: int = 2011,
) -> JobMetrics:
    """One observed straggler run with speculation on; trace + manifest.

    The trace shows the duplicate ``map<N>.spec`` attempts racing their
    originals on healthy nodes while the slow disk drags its own lane.
    """
    traced = write_observed_run(
        trace_out,
        "stragglers",
        {
            "input_gb": input_gb,
            "slow_node": slow_node,
            "slowdown": slowdown,
            "speculative_execution": True,
        },
        seed,
        lambda attach: simulate(
            input_gb * GiB, seed, slowdown, slow_node, observe=True, attach=attach
        ),
    )
    return traced.metrics["hadoop"]


def format_report(result: StragglerResult) -> str:
    table = Table(
        headers=("scenario", "job time (s)", "avg copy (s)", "spec attempts", "spec wins"),
    )
    for label, m in (
        ("healthy cluster", result.healthy),
        ("1 slow disk, no speculation", result.degraded),
        ("1 slow disk, speculation on", result.speculative),
    ):
        table.add_row(
            label,
            m.elapsed,
            float(m.copy_times().mean()),
            m.speculative_attempts,
            m.speculative_wins,
        )
    summary = (
        f"straggler cost: {result.degradation:.2f}x; speculation recovered "
        f"{result.recovered * 100:.0f}% of the lost time"
    )
    return "\n\n".join(
        [banner("Stragglers & speculative execution"), table.render(), summary]
    )


def format_sweep(results: dict[int, StragglerResult]) -> str:
    """The first seed's report, plus the recovered range across seeds."""
    seeds = list(results)
    text = format_report(results[seeds[0]])
    if len(seeds) > 1:
        recs = [results[s].recovered for s in seeds]
        text += (
            f"\n\nacross seeds {','.join(map(str, seeds))}: speculation "
            f"recovered {min(recs) * 100:.0f}%–{max(recs) * 100:.0f}% "
            f"of the lost time"
        )
    return text


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(
        __doc__, gb=4, seeds=DEFAULT_SEEDS, out=None, trace_out=None
    )
    parser.add_argument(
        "--slowdown", type=positive_number, default=6.0,
        help="the slow node's disk slowdown factor (default 6)",
    )
    args = parser.parse_args(argv)
    results = sweep(input_gb=args.gb, slowdown=args.slowdown, seeds=args.seeds)
    print(format_sweep(results))
    if args.out is not None:
        for path in export(results, args.out):
            print(f"wrote {path}")
    if args.trace_out is not None:
        write_traced_run(args.trace_out, slowdown=args.slowdown)
        print(f"wrote {args.trace_out} (+ {args.trace_out}.manifest.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
