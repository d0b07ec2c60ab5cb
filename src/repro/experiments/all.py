"""Run every experiment back to back and print all reports.

The one-stop regeneration of the paper's evaluation (scaled inputs)::

    python -m repro.experiments.all          # minutes
    python -m repro.experiments.all --full   # paper-size inputs (longer)
"""

from __future__ import annotations

import time

from repro.experiments import (
    ablation_combiner,
    ablation_compression,
    ablation_partition,
    ablation_scheduling,
    durability,
    fault_tolerance,
    fig1_shuffle,
    fig2_latency,
    fig3_bandwidth,
    fig6_wordcount,
    gridmix,
    interconnect_whatif,
    network_faults,
    scalability,
    stragglers,
    table1_copy_pct,
)
from repro.experiments.reporting import driver_parser
from repro.util.units import GiB


def reports(full: bool = False, extensions: bool = True) -> list[str]:
    """Every experiment's report, in order (paper figures/tables first)."""
    sections = [
        fig2_latency.format_report(fig2_latency.run()),
        fig3_bandwidth.format_report(fig3_bandwidth.run(include_nio=True)),
        fig1_shuffle.format_report(fig1_shuffle.run((150 if full else 16) * GiB)),
    ]
    t1_sizes = (
        table1_copy_pct.FULL_SIZES_GB if full else table1_copy_pct.DEFAULT_SIZES_GB
    )
    sections.append(table1_copy_pct.format_report(table1_copy_pct.run(t1_sizes)))
    f6_sizes = (
        fig6_wordcount.FULL_SIZES_GB if full else fig6_wordcount.DEFAULT_SIZES_GB
    )
    sections.append(fig6_wordcount.format_report(fig6_wordcount.run(f6_sizes)))
    if not extensions:
        return sections

    sections.append(ablation_combiner.format_report(ablation_combiner.run()))
    sections.append(ablation_partition.format_report(ablation_partition.run()))
    sections.append(ablation_compression.format_report(ablation_compression.run()))
    sections.append(ablation_scheduling.format_report(ablation_scheduling.run()))
    sections.append(stragglers.format_report(stragglers.run()))
    sections.append(
        fault_tolerance.format_report(
            fault_tolerance.run(input_gb=10 if full else 4, seeds=(2011, 2012))
        )
    )
    sections.append(
        network_faults.format_report(
            network_faults.run(input_gb=2.0 if full else 1.0)
        )
    )
    sections.append(
        durability.format_report(
            durability.run(input_gb=4.0 if full else 1.0, seeds=(2011, 2012))
        )
    )
    sections.append(scalability.format_report(scalability.run()))
    sections.append(gridmix.format_report(gridmix.run()))
    sections.append(interconnect_whatif.format_report(interconnect_whatif.run()))
    return sections


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__, full=False)
    parser.add_argument(
        "--skip-extensions", action="store_true", help="paper figures/tables only"
    )
    args = parser.parse_args(argv)
    t0 = time.time()
    sections = reports(full=args.full, extensions=not args.skip_extensions)
    print(("\n\n" + "#" * 72 + "\n\n").join(sections))
    print(f"\n[all experiments completed in {time.time() - t0:.1f}s wall time]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
