"""Figure 3: bandwidth moving 128 MB, packet size 1 B - 64 MB.

Three transports as in the paper (Hadoop RPC, HTTP over Jetty, MPICH2),
plus the Socket-over-NIO model the paper's future-work item (1) asks
for, as an optional fourth series (``--nio``).

Run: ``python -m repro.experiments.fig3_bandwidth``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper, driver_parser
from repro.transports import (
    BandwidthBench,
    HadoopRpcTransport,
    JettyHttpTransport,
    MpichTransport,
    NioSocketTransport,
)
from repro.util.units import fmt_bytes


@dataclass
class Fig3Result:
    """packet size -> transport name -> bytes/s."""

    packets: list[int]
    series: dict[str, dict[int, float]] = field(default_factory=dict)

    def peak(self, name: str) -> float:
        return max(self.series[name].values())


def default_packets() -> list[int]:
    return [2**i for i in range(0, 27)]


def run(
    total_bytes: int = paper.FIG3_TOTAL_BYTES,
    include_nio: bool = False,
    jitter: bool = True,
    seed: int = 20110913,
) -> Fig3Result:
    transports = [HadoopRpcTransport(), JettyHttpTransport(), MpichTransport()]
    if include_nio:
        transports.append(NioSocketTransport())
    packets = default_packets()
    result = Fig3Result(packets=packets)
    for transport in transports:
        bench = BandwidthBench(
            transport, total_bytes=total_bytes, jitter=jitter, seed=seed
        )
        result.series[transport.name] = {
            p: bench.measure(p).bandwidth for p in packets
        }
    return result


def format_report(result: Fig3Result) -> str:
    names = list(result.series)
    table = Table(
        headers=("packet", *[f"{n} (MB/s)" for n in names]),
        title="Bandwidth transferring 128 MB",
    )
    for p in result.packets:
        table.add_row(
            fmt_bytes(p), *[result.series[n][p] / 1e6 for n in names]
        )
    comparisons = [
        ("Hadoop RPC peak (MB/s)", result.peak("Hadoop RPC") / 1e6, paper.FIG3_RPC_PEAK / 1e6),
        ("Jetty peak (MB/s)", result.peak("HTTP/Jetty") / 1e6, paper.FIG3_JETTY_PEAK / 1e6),
        ("MPICH2 peak (MB/s)", result.peak("MPICH2") / 1e6, paper.FIG3_MPICH_PEAK / 1e6),
        (
            "Jetty @ 256 B (MB/s)",
            result.series["HTTP/Jetty"][256] / 1e6,
            paper.FIG3_JETTY_AT_256B / 1e6,
        ),
        (
            "MPICH2 @ 256 B (MB/s)",
            result.series["MPICH2"][256] / 1e6,
            paper.FIG3_MPICH_AT_256B / 1e6,
        ),
        (
            "MPICH2/RPC peak ratio",
            result.peak("MPICH2") / result.peak("Hadoop RPC"),
            paper.FIG3_MPICH_PEAK / paper.FIG3_RPC_PEAK,
        ),
        (
            "MPICH2/Jetty peak ratio",
            result.peak("MPICH2") / result.peak("HTTP/Jetty"),
            paper.FIG3_MPICH_PEAK / paper.FIG3_JETTY_PEAK,
        ),
    ]
    return "\n\n".join(
        [
            banner("Figure 3: bandwidth, Hadoop RPC vs Jetty vs MPICH2"),
            table.render(),
            compare_to_paper(comparisons),
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__, seed=20110913)
    parser.add_argument("--nio", action="store_true", help="add the Socket/NIO series")
    parser.add_argument("--no-jitter", action="store_true")
    args = parser.parse_args(argv)
    print(
        format_report(
            run(include_nio=args.nio, jitter=not args.no_jitter, seed=args.seed)
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
