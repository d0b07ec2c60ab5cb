"""Ablation: what does MPI-D's local combining actually buy?

Section III lists "local combination of key-value pairs with the same
key to reduce message size" as one of the optimizations the MPI-D
library can do transparently.  This ablation quantifies it on both
planes:

* **functional** — run the same WordCount on the real engine with the
  grouping (no-op) combiner vs the summing combiner and compare bytes
  and messages on the wire (answers must be identical);
* **performance** — price the 10 GB WordCount of Figure 6 with the
  combiner's selectivity reduction disabled vs enabled.

Run: ``python -m repro.experiments.ablation_combiner``
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import MapReduceJob, SummingCombiner, run_job
from repro.experiments.reporting import Table, banner, driver_parser, number
from repro.hadoop.job import WORDCOUNT_PROFILE, JobSpec
from repro.mrmpi import run_mpid_job
from repro.util.units import GiB
from repro.workloads import generate_corpus


@dataclass
class CombinerAblation:
    plain_bytes: int
    combined_bytes: int
    plain_messages: int
    combined_messages: int
    answers_equal: bool
    sim_plain_s: float
    sim_combined_s: float

    @property
    def byte_reduction(self) -> float:
        return 1.0 - self.combined_bytes / self.plain_bytes


def _wordcount(combiner):
    return MapReduceJob(
        mapper=lambda k, v, emit: [emit(w, 1) for w in v.split()],
        reducer=lambda k, vs, emit: emit(k, sum(vs)),
        combiner=combiner,
        num_mappers=4,
        num_reducers=2,
        name="ablation-wc",
    )


def run(corpus_bytes: int = 60_000, sim_gb: int = 10, seed: int = 5) -> CombinerAblation:
    corpus = generate_corpus(corpus_bytes, vocab_size=400, seed=seed)
    plain = run_job(_wordcount(None), inputs=corpus)
    combined = run_job(_wordcount(SummingCombiner()), inputs=corpus)

    # Performance plane: same job priced with and without the combiner's
    # data reduction.
    spec = JobSpec(
        "wc-ablation",
        input_bytes=sim_gb * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    no_combine_profile = replace(WORDCOUNT_PROFILE, combiner_reduction=1.0)
    spec_plain = JobSpec(
        "wc-ablation-nocombine",
        input_bytes=sim_gb * GiB,
        profile=no_combine_profile,
        num_reduce_tasks=1,
    )
    sim_combined = run_mpid_job(spec).elapsed
    sim_plain = run_mpid_job(spec_plain).elapsed

    return CombinerAblation(
        plain_bytes=sum(s["bytes_sent"] for s in plain.mapper_stats),
        combined_bytes=sum(s["bytes_sent"] for s in combined.mapper_stats),
        plain_messages=sum(s["messages_sent"] for s in plain.mapper_stats),
        combined_messages=sum(s["messages_sent"] for s in combined.mapper_stats),
        answers_equal=plain.as_dict()
        == {k: v for k, v in combined.as_dict().items()},
        sim_plain_s=sim_plain,
        sim_combined_s=sim_combined,
    )


def format_report(result: CombinerAblation) -> str:
    func = Table(
        headers=("metric", "no combiner", "summing combiner"),
        title="Functional plane (real WordCount, identical answers: "
        f"{result.answers_equal})",
    )
    func.add_row("bytes on wire", result.plain_bytes, result.combined_bytes)
    func.add_row("MPI messages", result.plain_messages, result.combined_messages)
    perf = Table(
        headers=("metric", "no combiner", "with combiner"),
        title="Performance plane (10 GB WordCount on the MPI-D system)",
    )
    perf.add_row("job time (s)", result.sim_plain_s, result.sim_combined_s)
    summary = (
        f"combining removed {result.byte_reduction * 100:.1f}% of wire bytes "
        f"and {(1 - result.sim_combined_s / result.sim_plain_s) * 100:.1f}% "
        f"of simulated job time"
    )
    return "\n\n".join(
        [banner("Ablation: MPI-D local combining"), func.render(), perf.render(), summary]
    )


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__)
    parser.add_argument(
        "--corpus-bytes", type=number(int), default=60_000,
        help="functional-plane corpus size, bytes (default 60000)",
    )
    args = parser.parse_args(argv)
    print(format_report(run(corpus_bytes=args.corpus_bytes)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
