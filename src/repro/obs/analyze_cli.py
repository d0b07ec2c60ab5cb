"""``python -m repro analyze <trace>`` — critical-path analysis of a trace.

Takes a Perfetto trace written by ``python -m repro trace`` (or any
:func:`repro.obs.perfetto.write_trace` output), **or a streamed
``.jsonl`` trace store** (reconstructed exactly via
:func:`repro.obs.store.load_tracer`), rebuilds the span DAG per
simulated system, and reports:

* causal critical-path blame per stage (map/copy/sort/reduce/idle),
  guaranteed to sum to 100% of the makespan;
* the Table-I-style counter breakdown measured from the same spans;
* the top bottleneck spans (critical-path seconds + slack);
* a Coz-style what-if table: predicted makespan if one stage were
  10/25/50% faster.

``--validate`` closes the loop on the top what-if: it re-runs the
simulator with the matching knob actually turned (the run parameters
come from the trace's ``.manifest.json`` sidecar) and prints predicted
vs measured.  Only the ``fig6`` Hadoop run is re-runnable this way.

``--tenants`` switches to the multi-tenant capacity analysis: the
trace must be a ``.jsonl`` store from a
:class:`~repro.cluster.engine.MultiTenantEngine` run, and the report
becomes per-tenant blame (queue-wait / preemption / shuffle / runtime)
over every tenant's jobs (see :mod:`repro.obs.tenant_analysis`).
Capacity what-if projections with validated re-runs live in
``python -m repro capacity``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.reporting import number, number_list, write_json
from repro.obs.analysis import analyze_dag, dags_from_trace, format_analysis
from repro.util.units import parse_size


def _load_manifest(trace_path: Path) -> dict:
    sidecar = Path(f"{trace_path}.manifest.json")
    if not sidecar.exists():
        raise FileNotFoundError(
            f"--validate needs the run manifest, but {sidecar} does not exist "
            "(re-run `python -m repro trace` to produce both files)"
        )
    with sidecar.open() as fh:
        return json.load(fh)


def _validate(trace_path: Path, dags: dict, pct: float) -> int:
    """Re-run the simulator with the top what-if knob turned."""
    from repro.experiments.critical_path import validate_top_what_if
    from repro.obs.analysis import critical_path

    manifest = _load_manifest(trace_path)
    config = manifest.get("config", {})
    experiment = manifest.get("experiment")
    if experiment != "fig6" or "hadoop" not in dags:
        print(
            f"--validate: only fig6 Hadoop traces are re-runnable "
            f"(this is {experiment!r}); skipping"
        )
        return 0
    nbytes = parse_size(str(config.get("size", "1GB")))
    seed = int(config.get("seed", 2011))
    cp = critical_path(dags["hadoop"])
    v = validate_top_what_if(cp, nbytes, seed, pct=pct)
    print()
    print(
        f"what-if validation (hadoop, {v.stage} -{v.pct:.0%}): "
        f"predicted {v.predicted:.2f} s, re-ran with the knob turned: "
        f"{v.actual:.2f} s  (error {v.error:.1%})"
    )
    return 0


def report_unreadable(path, exc: Exception) -> int:
    """Report a missing, torn or corrupt trace in one line; exit status 1."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze", description=__doc__
    )
    parser.add_argument(
        "trace", type=Path,
        help="Perfetto trace_event JSON or streamed .jsonl trace store",
    )
    parser.add_argument(
        "--top", type=number(int), default=10, help="bottleneck spans to list"
    )
    parser.add_argument(
        "--pcts",
        type=number_list(below=100.0),
        default="10,25,50",
        help="what-if virtual speedups, percent below 100 (default 10,25,50)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write the full report as JSON"
    )
    parser.add_argument(
        "--system",
        type=str,
        default=None,
        help="analyze only this process (default: every process in the trace)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="re-run the simulator with the top what-if knob turned (fig6 only)",
    )
    parser.add_argument(
        "--validate-pct",
        type=number(below=1.0),
        default=0.25,
        help="virtual speedup to validate, a fraction below 1 (default 0.25)",
    )
    parser.add_argument(
        "--tenants",
        action="store_true",
        help="per-tenant capacity analysis (.jsonl multi-tenant store)",
    )
    args = parser.parse_args(argv)

    is_store = args.trace.suffix == ".jsonl"

    if args.tenants:
        if not is_store:
            parser.error(
                "--tenants needs a .jsonl trace store (multi-tenant runs "
                "stream their traces; Perfetto exports lose the span args)"
            )
        from repro.obs.store import load_tracer
        from repro.obs.tenant_analysis import (
            analyze_tenants,
            format_tenant_analysis,
        )

        try:
            tracer = load_tracer(args.trace)
        except (OSError, ValueError) as exc:
            return report_unreadable(args.trace, exc)
        report = analyze_tenants(tracer)
        print(format_tenant_analysis(report))
        if args.json is not None:
            write_json(args.json, report)
            print(f"wrote {args.json}")
        return 0

    pcts = tuple(pct / 100.0 for pct in args.pcts)
    try:
        if is_store:
            from repro.obs.analysis import TraceDAG
            from repro.obs.store import load_tracer, read_footer

            footer = read_footer(args.trace)
            system = (footer or {}).get("system", "sim")
            dags = {system: TraceDAG.from_tracer(load_tracer(args.trace), system)}
        else:
            dags = dags_from_trace(args.trace)
    except (OSError, ValueError) as exc:
        return report_unreadable(args.trace, exc)
    if args.system is not None:
        if args.system not in dags:
            parser.error(
                f"no process {args.system!r} in trace "
                f"(have: {', '.join(sorted(dags))})"
            )
        dags = {args.system: dags[args.system]}
    if not dags:
        parser.error(f"{args.trace} contains no spans")

    reports = {}
    for name in sorted(dags):
        report = analyze_dag(dags[name], top=args.top, pcts=pcts)
        reports[name] = report
        print(format_analysis(report))
        print()

    if args.json is not None:
        write_json(args.json, reports)
        print(f"wrote {args.json}")

    if args.validate:
        return _validate(args.trace, dags, args.validate_pct)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
