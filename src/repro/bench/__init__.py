"""Performance-bench harness for the simulation engine (``python -m repro bench``).

The engine's fast paths (incremental max-min, kernel tombstones, horizon
batching) live under the contract that **no simulated result may
change**.  This package measures them: solver micro-benchmarks re-check
fast-vs-reference solver equality on every run, and the macro-benchmarks
record absolute wall time, dispatched events and same-seed determinism
in ``BENCH_engine.json``, so the perf trajectory is a tracked artifact
rather than folklore.

* :mod:`repro.bench.engine` — the individual micro- and macro-benchmarks;
* :mod:`repro.bench.cli` — the ``python -m repro bench`` entry point.
"""

from repro.bench.engine import (
    BenchReport,
    bench_fig6,
    bench_kernel_cancel,
    bench_maxmin_churn,
    bench_maxmin_solver,
    bench_network_faults,
    run_bench,
)
from repro.bench.cli import main

__all__ = [
    "BenchReport",
    "bench_maxmin_solver",
    "bench_maxmin_churn",
    "bench_kernel_cancel",
    "bench_fig6",
    "bench_network_faults",
    "run_bench",
    "main",
]
