"""``python -m repro bench`` — run the engine bench harness.

Writes ``BENCH_engine.json``: a :class:`repro.bench.engine.BenchReport`
with a :mod:`repro.obs` run manifest attached (config hash, git rev,
wall-clock), and exits non-zero if a fast-vs-reference solver
comparison diverged or a same-seed macro rerun exported different
bytes — the same contract the CI ``bench-smoke`` job enforces.

``--compare`` additionally diffs the run against the history file
(``BENCH_history.jsonl``; see :mod:`repro.bench.history`), appends the
fresh entry, and exits non-zero when a gated metric (a fast-vs-
reference solver speedup ratio) regressed beyond ``--threshold``.

When the scalability macro carries simulator self-profiles (see
:mod:`repro.simnet.profiler`), the per-leg wall-clock attributions are
also written to ``--self-profile-out`` (default
``BENCH_selfprofile.json`` next to ``--out``) together with their
``deterministic_view`` — the event counts with wall-clock stripped,
diffable across same-seed runs in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench import history as history_mod
from repro.bench.engine import run_bench
from repro.obs.manifest import build_manifest


def _parse_sizes(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _collect_self_profiles(report) -> dict:
    """Pull ``self_profile`` snapshots out of the scalability macro,
    keyed ``"<kind>@<nodes>"``.  Empty when profiling was off."""
    legs: dict = {}
    per_nodes = report.macro.get("scalability", {}).get("per_nodes", {})
    for nodes, entry in sorted(per_nodes.items(), key=lambda kv: int(kv[0])):
        for kind, leg in sorted(entry.items()):
            prof = leg.get("self_profile") if isinstance(leg, dict) else None
            if prof is not None:
                legs[f"{kind}@{nodes}"] = prof
    return legs


def _fmt_entry(entry: dict) -> str:
    ok = entry.get("identical", True) and entry.get("deterministic", True)
    mark = "ok " if ok else "DIVERGED"
    if "speedup" in entry:
        return f"{entry['speedup']:6.2f}x  {mark}"
    for key in ("total_wall_s", "wall_s", "run_s"):
        if key in entry:
            return f"{entry[key]:6.2f}s  {mark}"
    return f"{'-':>7}  {mark}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench", description=__doc__
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale for CI smoke (small fig6 size, fewer flows/timers)",
    )
    parser.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated Figure-6 sizes in GB (default 1,10,100; quick: 1)",
    )
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--out",
        type=str,
        default="BENCH_engine.json",
        help="output path (default BENCH_engine.json)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="diff against the history file and gate on speedup regressions",
    )
    parser.add_argument(
        "--history",
        type=str,
        default="BENCH_history.jsonl",
        help="bench history JSONL (default BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=f"gated-metric noise threshold (default {history_mod.DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="with --compare: don't record this run in the history file",
    )
    parser.add_argument(
        "--compare-json",
        type=str,
        default=None,
        help="with --compare: also write the per-metric deltas as JSON",
    )
    parser.add_argument(
        "--self-profile-out",
        type=str,
        default=None,
        help="simulator self-profile output path "
        "(default BENCH_selfprofile.json next to --out)",
    )
    args = parser.parse_args(argv)

    sizes = _parse_sizes(args.sizes) if args.sizes else None
    t0 = time.perf_counter()
    report = run_bench(
        quick=args.quick,
        seed=args.seed,
        sizes_gb=sizes,
        progress=lambda msg: print(f"[bench] {msg}", flush=True),
    )
    wall = time.perf_counter() - t0
    report.manifest = build_manifest(
        experiment="bench_engine",
        config={
            "quick": args.quick,
            "seed": args.seed,
            "sizes_gb": list(sizes) if sizes else None,
        },
        seed=args.seed,
        wall_seconds=wall,
    ).to_dict()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    profiles = _collect_self_profiles(report)
    if profiles:
        from repro.simnet.profiler import deterministic_view

        prof_out = Path(
            args.self_profile_out
            if args.self_profile_out
            else out.parent / "BENCH_selfprofile.json"
        )
        prof_out.parent.mkdir(parents=True, exist_ok=True)
        with prof_out.open("w") as fh:
            json.dump(
                {
                    "legs": profiles,
                    "deterministic_view": deterministic_view(
                        {"legs": profiles}
                    ),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {prof_out} ({len(profiles)} profiled legs)")

    print(f"\nengine bench ({wall:.1f}s wall) -> {out}")
    for section in ("micro", "macro"):
        for name, entry in getattr(report, section).items():
            print(f"  {section}/{name:<16} {_fmt_entry(entry)}")
    status = 0
    if report.divergence:
        print(
            "\nFAIL: a solver comparison diverged or a same-seed rerun "
            "was not deterministic",
            file=sys.stderr,
        )
        status = 1

    if args.compare:
        threshold = (
            args.threshold
            if args.threshold is not None
            else history_mod.DEFAULT_THRESHOLD
        )
        entry = history_mod.make_entry(report.to_dict())
        past = history_mod.load_history(args.history)
        deltas, prev = history_mod.compare(entry, past, threshold=threshold)
        print()
        print(history_mod.render_comparison(deltas, prev, threshold))
        if args.compare_json:
            cmp_out = Path(args.compare_json)
            with cmp_out.open("w") as fh:
                json.dump(
                    {
                        "threshold": threshold,
                        "previous_rev": (prev or {}).get("git_rev"),
                        "deltas": [d.to_dict() for d in deltas],
                    },
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"wrote {cmp_out}")
        if not args.no_append:
            history_mod.append_history(args.history, entry)
            print(f"appended to {args.history}")
        if any(d.regressed for d in deltas):
            print(
                f"\nFAIL: gated bench metric regressed beyond -{threshold:.0%}",
                file=sys.stderr,
            )
            status = status or 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
