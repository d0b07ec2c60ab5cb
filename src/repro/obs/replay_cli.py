"""``python -m repro replay <trace-or-experiment>`` — the run dashboard.

One command from a run (or an existing trace artifact) to a single
self-contained HTML file you can open from disk: cluster heatmap,
animated shuffle flows, stage timeline and counter sparklines over a
playback scrubber (see :mod:`repro.obs.dashboard`).

The target decides where the events come from:

* ``fig6`` / ``fig1`` / ``fault`` — run that experiment's driver
  builder now (the same one ``repro trace`` and the driver run) and
  replay the live observers;
* ``*.jsonl`` — a streamed trace store written by ``repro trace
  --stream`` (read chunked; memory stays O(chunk), not O(trace));
* ``*.json``  — an existing Perfetto ``trace_event`` export;
* ``sweep``   — no replay at all: build the cross-run sweep browser
  from the ``results/*.csv`` exports;
* ``fleet <dir>`` — aggregate every closed ``.jsonl`` store under the
  directory (footer scans only — O(footer) per store, never
  O(events)) into the cross-run/cross-tenant fleet page, plus a
  canonical JSON rollup for diffing in CI.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments.reporting import add_shared_flags, number
from repro.obs.cli import BUILDERS, run_experiment
from repro.util.units import parse_size


def _dump_json(path: Path, replays) -> None:
    payload = {name: r.to_dict() for name, r in replays}
    with path.open("w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        help="fig6|fig1|fault (run now), a .jsonl trace store, "
        "a Perfetto trace.json, 'sweep', or 'fleet'",
    )
    parser.add_argument(
        "store_dir", nargs="?", type=Path, default=None,
        help="fleet: directory of .jsonl trace stores",
    )
    add_shared_flags(parser, size="1GB", seed=2011, rate=40.0)
    parser.add_argument(
        "--buckets", type=number(int), default=120,
        help="playback frames to fold the run into (default 120)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="HTML output path (default dashboard.html / sweep.html)",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="also dump the folded frames as JSON (headless use)",
    )
    parser.add_argument(
        "--results-dir", type=Path, default=Path("results"),
        help="sweep: directory of experiments CSV/JSON exports",
    )
    parser.add_argument(
        "--root-label", type=str, default=None,
        help="fleet: override the recorded root name (CI byte-stability)",
    )
    args = parser.parse_args(argv)

    from repro.obs.dashboard import write_dashboard, write_sweep_browser

    if args.target == "fleet":
        from repro.obs.dashboard import write_fleet_page
        from repro.obs.fleet import fleet_summary

        if args.store_dir is None or not args.store_dir.is_dir():
            parser.error("fleet needs a directory of .jsonl trace stores")
        summary = fleet_summary(args.store_dir, root_label=args.root_label)
        if not summary.stores:
            parser.error(f"{args.store_dir}: no closed .jsonl stores found")
        out = args.out or Path("fleet.html")
        write_fleet_page(out, summary)
        json_out = args.json_out or out.with_suffix(".json")
        json_out.parent.mkdir(parents=True, exist_ok=True)
        json_out.write_text(summary.to_json() + "\n")
        t = summary.totals
        print(
            f"  fleet: {t['stores']} stores, {t['events']} events, "
            f"{t['jobs']} jobs ({t['completed']} completed), "
            f"{len(summary.tenants)} tenants, "
            f"{len(summary.regressions)} regressions"
        )
        print(f"wrote {out} — open it in a browser")
        print(f"wrote {json_out}")
        return 0

    if args.target == "sweep":
        out = args.out or Path("sweep.html")
        results = args.results_dir if args.results_dir.is_dir() else None
        if results is None:
            print(f"note: {args.results_dir}/ not found — run "
                  "`python -m repro.experiments.export` first for charts")
        write_sweep_browser(out, results_dir=results)
        print(f"wrote {out} — open it in a browser")
        return 0

    from repro.obs.replay import (
        replay_observer,
        replay_store,
        replays_from_perfetto,
    )

    target = args.target
    manifest = None
    if target in BUILDERS:
        run = run_experiment(target, parse_size(args.size), args.seed, args.rate)
        replays = [
            (name, replay_observer(obs, system=name, buckets=args.buckets))
            for name, obs in run.observers
        ]
        title = f"repro replay — {target} {args.size}"
    elif target.endswith((".jsonl", ".json")):
        try:
            if target.endswith(".jsonl"):
                r = replay_store(target, buckets=args.buckets)
                replays = [(r.system, r)]
            else:
                replays = sorted(
                    replays_from_perfetto(target, buckets=args.buckets).items()
                )
        except (OSError, ValueError) as exc:
            from repro.obs.analyze_cli import report_unreadable

            return report_unreadable(target, exc)
        if not replays:
            parser.error(f"{target}: no replayable processes found")
        title = f"repro replay — {Path(target).name}"
    else:
        parser.error(
            f"unknown target {target!r}: expected fig6|fig1|fault|sweep, "
            "a .jsonl store, or a .json trace"
        )

    for name, r in replays:
        print(
            f"  {name}: {r.t_end:.2f}s simulated -> {len(r.frames)} frames, "
            f"{len(r.nodes)} nodes, {r.spans_seen} spans, "
            f"{r.total_markers} markers"
        )
    out = args.out or Path("dashboard.html")
    write_dashboard(out, replays, title=title, manifest=manifest)
    print(f"wrote {out} — open it in a browser")
    if args.json_out is not None:
        _dump_json(args.json_out, replays)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
