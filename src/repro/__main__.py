"""Command index: ``python -m repro`` lists every runnable experiment.

``python -m repro trace <experiment>`` runs one observed experiment and
writes a Perfetto trace (see :mod:`repro.obs.cli`).  ``fig6``, ``fig1``
and ``fault`` run the ``simulate`` builder of ``fig6_wordcount``,
``fig1_shuffle`` and ``fault_tolerance`` — the same code each driver's
sweep and ``--trace-out`` run.

``python -m repro replay <trace-or-experiment>`` folds a run into
playback frames and writes a self-contained HTML dashboard (see
:mod:`repro.obs.replay_cli`).
"""

from __future__ import annotations

import sys

COMMANDS = [
    ("repro.experiments.fig1_shuffle", "Figure 1: per-reducer copy/sort/reduce"),
    ("repro.experiments.table1_copy_pct", "Table I: copy-stage share grid"),
    ("repro.experiments.fig2_latency", "Figure 2: RPC vs MPICH2 latency"),
    ("repro.experiments.fig3_bandwidth", "Figure 3: RPC/Jetty/MPICH2 bandwidth"),
    ("repro.experiments.fig6_wordcount", "Figure 6: Hadoop vs MPI-D WordCount"),
    ("repro.experiments.ablation_combiner", "ablation: local combining"),
    ("repro.experiments.ablation_partition", "ablation: partition-array size"),
    ("repro.experiments.ablation_compression", "ablation: realignment compression"),
    ("repro.experiments.ablation_scheduling", "ablation: heartbeat scheduling"),
    ("repro.experiments.gridmix", "GridMix suite: Hadoop vs MPI-D"),
    ("repro.experiments.skew", "partition skew / hot-reducer pathology"),
    ("repro.experiments.stragglers", "stragglers & speculative execution"),
    ("repro.experiments.scalability", "scalability sweep (future work 3)"),
    ("repro.experiments.interconnect_whatif", "IB/SSD what-if (future work 4)"),
    ("repro.experiments.robustness", "seed-robustness of the headline results"),
    ("repro.experiments.fault_tolerance", "node churn: Hadoop recovery vs MPI-D rerun"),
    ("repro.experiments.network_faults", "lossy links: shuffle retries vs abort-and-rerun"),
    ("repro.experiments.durability", "dying disks: HDFS re-replication vs static input"),
    ("repro.experiments.critical_path", "critical-path blame + causal what-if validation"),
    ("repro.experiments.multi_tenant", "multi-tenant load x scheduler policy x chaos"),
    ("repro.experiments.capacity", "capacity planning: validated scheduler what-ifs"),
    ("repro.experiments.export", "write per-figure CSVs/JSONs (--out results/)"),
    ("repro.experiments.all", "everything above, back to back"),
]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.obs.analyze_cli import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "replay":
        from repro.obs.replay_cli import main as replay_main

        return replay_main(argv[1:])
    if argv and argv[0] == "tenants":
        from repro.experiments.multi_tenant import main as tenants_main

        return tenants_main(argv[1:])
    if argv and argv[0] == "capacity":
        from repro.experiments.capacity import main as capacity_main

        return capacity_main(argv[1:])
    from repro import __version__

    print(f"repro {__version__} — Can MPI Benefit Hadoop and MapReduce Applications? (ICPP 2011)\n")
    print("experiments (run with `python -m <module> [--full]`):\n")
    width = max(len(mod) for mod, _ in COMMANDS)
    for mod, desc in COMMANDS:
        print(f"  {mod:<{width}}  {desc}")
    print("\ntracing: python -m repro trace {fig6,fig1,fault} --size 1GB --trace-out trace.json")
    print("         (runs the simulate() builder of fig6_wordcount / fig1_shuffle / fault_tolerance)")
    print("multi-tenant: python -m repro tenants [--quick] [--out results/] [--trace-out trace.json]")
    print("capacity: python -m repro capacity [--quick] [--out results/] [--store-out stores/]")
    print("analysis: python -m repro analyze {trace.json,store.jsonl} [--tenants] [--validate] [--json report.json]")
    print("replay:  python -m repro replay {fig6,fig1,fault,sweep,fleet <dir>,<store.jsonl>,<trace.json>} [--out dashboard.html]")
    print("examples: see examples/*.py; tests: pytest tests/;")
    print("benchmarks: pytest benchmarks/ --benchmark-only")
    print("perf ledger: python3 perfbench/run.py --workload {fig6-paper,tenants-500,fig6-observed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
