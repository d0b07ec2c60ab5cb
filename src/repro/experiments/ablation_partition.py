"""Ablation: the fixed partition-array size of data realignment.

The paper fixes partitions as "a set of continuous arrays with fixed
size" but never says what size.  This ablation sweeps the array size on
both planes: tiny arrays mean many MPI messages (per-message overhead
dominates), huge arrays mean fewer, larger sends (rendezvous, less
overlap granularity).  The functional plane confirms correctness is
size-independent; the performance plane shows the throughput curve.

Run: ``python -m repro.experiments.ablation_partition``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import MapReduceJob, MpiDConfig, run_job
from repro.experiments.reporting import Table, banner, driver_parser
from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.mrmpi import MrMpiConfig, run_mpid_job
from repro.util.units import GiB, KiB, MiB, fmt_bytes
from repro.workloads import generate_corpus

DEFAULT_SIZES = (1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB, 4 * MiB)


@dataclass
class PartitionAblation:
    sizes: tuple[int, ...]
    messages: dict[int, int] = field(default_factory=dict)
    sim_seconds: dict[int, float] = field(default_factory=dict)
    all_answers_equal: bool = True


def run(sizes: tuple[int, ...] = DEFAULT_SIZES, sim_gb: int = 4, seed: int = 9) -> PartitionAblation:
    corpus = generate_corpus(40_000, vocab_size=300, seed=seed)
    result = PartitionAblation(sizes=tuple(sizes))
    reference = None
    for size in sizes:
        job = MapReduceJob(
            mapper=lambda k, v, emit: [emit(w, 1) for w in v.split()],
            reducer=lambda k, vs, emit: emit(k, sum(vs)),
            num_mappers=3,
            num_reducers=2,
            config=MpiDConfig(partition_bytes=size, spill_threshold=64 * KiB),
            name=f"ablate-part-{size}",
        )
        out = run_job(job, inputs=corpus)
        result.messages[size] = sum(s["messages_sent"] for s in out.mapper_stats)
        answer = out.as_dict()
        if reference is None:
            reference = answer
        elif answer != reference:
            result.all_answers_equal = False

        spec = JobSpec(
            f"sort-part-{size}",
            input_bytes=sim_gb * GiB,
            profile=JAVASORT_PROFILE,
            num_reduce_tasks=7,
        )
        cfg = MrMpiConfig(num_mappers=14, num_reducers=7, partition_bytes=size)
        result.sim_seconds[size] = run_mpid_job(spec, config=cfg).elapsed
    return result


def format_report(result: PartitionAblation) -> str:
    table = Table(
        headers=("array size", "MPI messages (functional)", "sim job time (s)"),
        title=f"answers identical across sizes: {result.all_answers_equal}",
    )
    for size in result.sizes:
        table.add_row(fmt_bytes(size), result.messages[size], result.sim_seconds[size])
    return "\n\n".join(
        [banner("Ablation: realignment partition-array size"), table.render()]
    )


def main(argv: list[str] | None = None) -> int:
    driver_parser(__doc__).parse_args(argv)
    print(format_report(run()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
