"""Ablation: compressing realigned partition arrays (§IV-A improvement).

Both planes again: the real engine zlib-compresses each fixed-size
array before ``MPI_Send`` (identical answers, fewer wire bytes), and
the performance twin prices the codec CPU against the bandwidth saved
on a shuffle-heavy sort — compression pays exactly when the network,
not the CPU, is the constraint.

Run: ``python -m repro.experiments.ablation_compression``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MapReduceJob, MpiDConfig, run_job
from repro.experiments.reporting import Table, banner, driver_parser
from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.util.units import GiB


@dataclass
class CompressionAblation:
    answers_equal: bool
    plain_wire_bytes: int
    compressed_wire_bytes: int
    sim_plain_s: float
    sim_compressed_s: float

    @property
    def wire_reduction(self) -> float:
        return 1.0 - self.compressed_wire_bytes / self.plain_wire_bytes


def _functional_job(compress: bool) -> MapReduceJob:
    return MapReduceJob(
        mapper=lambda k, v, emit: [emit(w, 1) for w in v.split()],
        reducer=lambda k, vs, emit: emit(k, sum(vs)),
        num_mappers=3,
        num_reducers=2,
        config=MpiDConfig(compress=compress),
        name="ablate-compress",
    )


def run(sim_gb: int = 8, seed: int = 13) -> CompressionAblation:
    # Repetitive text: the compressible case shuffle data actually is.
    corpus = ["lorem ipsum dolor sit amet " * 6] * 60

    plain = run_job(_functional_job(False), inputs=corpus)
    packed = run_job(_functional_job(True), inputs=corpus)

    spec = JobSpec(
        "sort-compress",
        input_bytes=sim_gb * GiB,
        profile=JAVASORT_PROFILE,
        num_reduce_tasks=14,
    )
    base = MrMpiConfig(num_mappers=35, num_reducers=14)
    packed_cfg = MrMpiConfig(num_mappers=35, num_reducers=14, compress=True)
    return CompressionAblation(
        answers_equal=plain.as_dict() == packed.as_dict(),
        plain_wire_bytes=sum(s["bytes_sent"] for s in plain.mapper_stats),
        compressed_wire_bytes=sum(s["bytes_sent"] for s in packed.mapper_stats),
        sim_plain_s=run_mpid_job(spec, config=base).elapsed,
        sim_compressed_s=run_mpid_job(spec, config=packed_cfg).elapsed,
    )


def format_report(result: CompressionAblation) -> str:
    table = Table(
        headers=("metric", "uncompressed", "compressed"),
        title=f"answers identical: {result.answers_equal}",
    )
    table.add_row(
        "wire bytes (functional WordCount)",
        result.plain_wire_bytes,
        result.compressed_wire_bytes,
    )
    table.add_row(
        "sim sort time (s, 35 mappers/14 reducers)",
        result.sim_plain_s,
        result.sim_compressed_s,
    )
    summary = (
        f"compression removed {result.wire_reduction * 100:.0f}% of wire "
        f"bytes; simulated sort time moved "
        f"{(result.sim_compressed_s / result.sim_plain_s - 1) * 100:+.1f}% "
        f"(codec CPU vs bandwidth saved)"
    )
    return "\n\n".join(
        [banner("Ablation: realignment compression"), table.render(), summary]
    )


def main(argv: list[str] | None = None) -> int:
    driver_parser(__doc__).parse_args(argv)
    print(format_report(run()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
