"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload fig6-paper --seed 2011 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with every profiler off.
``--trace 1`` makes a separate run that alternates untraced iterations
with iterations under the kernel's ``SelfProfiler`` and under
``cProfile``, and prints the per-layer metrics.  Every iteration's
export is digested and checked; a failed check makes the run exit 1
with ``"correct": false``.  The process exits 2, printing no result,
when the tree holds no ``src/repro`` to benchmark.
perfbench/README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name -> unit; the ``--trace 0`` metrics.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_err_pts": "pts",
}
#: The SelfProfiler bins reported (``timer-wheel`` only runs with a
#: wheel-configured kernel, which no workload builds).
PROFILE_BINS = ("heartbeat", "flow", "scheduler", "task", "kernel")
#: Events of the pure-Python calibration loop (about 0.1 s).
CALIB_EVENTS = 120_000
#: The calibration time of the reference host.  ``wall_s`` and ``setup_s``
#: are host seconds scaled by ``CALIB_REF_S / calib_s``, with ``calib_s``
#: the mean of the loop timed just before and just after the iteration: a
#: shared host's speed can drift by a quarter over minutes, and the
#: scaling takes most of the drift out.
CALIB_REF_S = 0.1


def per_layer_units() -> dict:
    """name -> unit; the ``--trace 1`` metrics."""
    from perfbench.layers import LAYERS

    units = {
        "kernel.events": "count",
        "kernel.cancelled": "count",
        "kernel.ns_per_event": "ns",
        "network.rate_recomputes": "count",
        "network.rate_recompute_flows": "count",
        "network.rate_skips": "count",
        "hadoop.run_s": "s",
        "mpid.run_s": "s",
        "export_s": "s",
    }
    for name in PROFILE_BINS:
        units[f"profile.{name}.events"] = "count"
        units[f"profile.{name}.wall_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units.update(
        {
            "obs.spans": "count",
            "obs.instants": "count",
            "obs.store_bytes": "bytes",
            "obs.close_s": "s",
            "obs.overhead_x": "x",
            "trace.overhead_x": "x",
        }
    )
    return units


@dataclass
class Run:
    """One attempted workload iteration and whether it passed its checks."""

    workload: str
    seed: int
    iteration: Optional[object]  # perfbench.workloads.Iteration
    error: str = ""
    failed: bool = False
    #: Runs of one group and seed must export identical bytes.
    group: str = ""
    #: Mean of the calibration times just before and after the iteration
    #: (0 when it was not calibrated).
    calib_s: float = 0.0


def attempt(workload, seed: int, scratch: Path, profile=None, profiler=None, group="") -> Run:
    """One iteration; an exception counts as a failed run, not a crash."""
    group = group or workload.name
    gc.collect()
    if profile is not None:
        profile.enable()
    try:
        it = workload.run_once(seed, profiler=profiler, scratch=scratch)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, run continues
        return Run(workload.name, seed, None, f"{type(exc).__name__}: {exc}", True, group)
    finally:
        if profile is not None:
            profile.disable()
    return Run(workload.name, seed, it, "; ".join(it.problems), bool(it.problems), group)


def check_digests(runs: list) -> None:
    """Fail every run whose export differs from the most common export of
    the same group and seed in this invocation."""
    groups: dict = {}
    for run in runs:
        if run.iteration is not None:
            groups.setdefault((run.group, run.seed), []).append(run)
    for group in groups.values():
        reference, _ = Counter(r.iteration.digest for r in group).most_common(1)[0]
        for run in group:
            if run.iteration.digest != reference:
                run.failed = True
                run.error = (run.error + "; " if run.error else "") + (
                    f"export digest {run.iteration.digest[:12]} != {reference[:12]}"
                )


def _ticker(delay: float):
    count = 0
    yield delay
    while True:
        count += 1
        yield delay * (1 + count % 3)


def calibrate(events: int = CALIB_EVENTS) -> float:
    """Host seconds for a fixed pure-Python event loop: generator resumes,
    heap pushes and pops, as in a discrete-event kernel.  It shares no
    code with the program, so a change to the program cannot move it.
    Garbage is collected first and the collector is off while it runs,
    so it times the host alone."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        procs = [_ticker(1.0 + i / 64) for i in range(64)]
        heap = [(next(p), i) for i, p in enumerate(procs)]
        heapq.heapify(heap)
        for _ in range(events):
            now, i = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(procs[i]), i))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def manifest(workload: str, seed: int, trace: int) -> dict:
    import numpy

    from repro.obs import git_revision

    # git must not report the revision of a repository that encloses the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host.calib_s": statistics.median(calibrate() for _ in range(3)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision() or "unknown",
    }


def _ok(runs: list) -> list:
    return [r.iteration for r in runs if r.iteration is not None]


def measure_end_to_end(workload, seed: int, seconds: float, scratch: Path):
    """Untraced iterations for ``seconds``: at least every input once, plus
    a repeat of the first for the digest check.  The calibration loop
    runs before the first iteration and after every one."""
    from perfbench.workloads import WORKLOADS, Fig6Workload

    inputs = workload.seeds(seed)
    timed, calibs = [], [calibrate()]
    start = time.perf_counter()
    while len(timed) <= len(inputs) or time.perf_counter() - start < seconds:
        timed.append(attempt(workload, inputs[len(timed) % len(inputs)], scratch))
        calibs.append(calibrate())
    for i, run in enumerate(timed):
        run.calib_s = (calibs[i] + calibs[i + 1]) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Untimed, after the memory reading: the output checks and the fidelity reading.
    extra = []
    fig6, fig6_runs = workload, timed
    if not isinstance(workload, Fig6Workload):
        # No Figure-6 leg: read the fidelity of the code under test at the
        # paper's 100 GB point.
        fig6 = WORKLOADS["fig6-paper"]
        fig6_runs = extra = [attempt(fig6, seed, scratch)]
    elif workload.observe:
        # Observation must not change results: the unobserved twin's
        # export has to equal the observed runs' export.
        extra.append(attempt(workload.unobserved(), seed, scratch, group=workload.name))
    runs = timed + extra
    check_digests(runs)

    main = [r for r in timed if r.iteration is not None]
    if not main:
        return runs, {}

    def scaled(seconds: float, run: Run) -> float:
        return seconds * CALIB_REF_S / run.calib_s

    walls = [
        statistics.median(scaled(r.iteration.wall_s, r) for r in main if r.seed == s)
        for s in inputs
        if any(r.seed == s for r in main)
    ]
    ratios = [it.ratio for it in _ok(fig6_runs) if it.ratio is not None]
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(scaled(r.iteration.setup_s, r) for r in main),
        "peak_rss_mb": peak_rss_mb,
    }
    if ratios:
        metrics["paper_err_pts"] = fig6.paper_err_pts(ratios[0])
    return runs, metrics


def measure_per_layer(workload, seed: int, seconds: float, scratch: Path):
    """Rounds of an untraced, a self-profiled and a cProfiled iteration
    for ``seconds`` (at least one round); observed workloads add an
    unobserved twin per round.  The two profilers run in separate
    iterations so neither one's overhead lands in the other's bins."""
    from perfbench.layers import LAYERS, LayerMap, layer_seconds
    from perfbench.workloads import Fig6Workload
    from repro.simnet.profiler import SelfProfiler

    observed = isinstance(workload, Fig6Workload) and workload.observe
    twin = workload.unobserved() if observed else None
    profile = cProfile.Profile()
    profiler = SelfProfiler(leg=workload.name)
    untraced_runs, twin_runs, profiled_runs, traced_runs = [], [], [], []
    start = time.perf_counter()
    while not traced_runs or time.perf_counter() - start < seconds:
        untraced_runs.append(attempt(workload, seed, scratch))
        if twin is not None:
            twin_runs.append(attempt(twin, seed, scratch, group=workload.name))
        profiled_runs.append(attempt(workload, seed, scratch, profiler=profiler))
        traced_runs.append(attempt(workload, seed, scratch, profile=profile))
    runs = untraced_runs + twin_runs + profiled_runs + traced_runs
    check_digests(runs)

    untraced, plain = _ok(untraced_runs), _ok(twin_runs)
    profiled, traced_ok = _ok(profiled_runs), _ok(traced_runs)
    if not (untraced and profiled and traced_ok) or (twin is not None and not plain):
        return runs, {}
    wall = statistics.median(it.wall_s for it in untraced)
    counters = untraced[0].counters
    metrics = dict(counters)
    metrics["kernel.ns_per_event"] = wall / max(1, counters["kernel.events"]) * 1e9
    for name in untraced[0].calls:
        metrics[name] = statistics.median(it.calls[name] for it in untraced)
    for name in PROFILE_BINS:
        events, secs = profiler.bins[name]
        metrics[f"profile.{name}.events"] = events / len(profiled)
        metrics[f"profile.{name}.wall_s"] = secs / len(profiled)
    stats = pstats.Stats(profile)
    by_layer = layer_seconds(stats, LayerMap(str(SRC / "repro")))
    total = stats.total_tt or 1.0
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * by_layer[layer] / total
    if twin is not None:
        metrics["obs.overhead_x"] = wall / statistics.median(it.wall_s for it in plain)
    else:
        metrics["obs.overhead_x"] = 1.0
    metrics["trace.overhead_x"] = statistics.median(it.wall_s for it in traced_ok) / wall
    return runs, metrics


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print("manifest " + json.dumps(manifest(args.workload, args.seed, args.trace), sort_keys=True))
    gc.collect()
    gc.freeze()  # long-lived module objects stay out of every timed collection
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        runs, metrics = measure(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for n, run in enumerate(runs):
        it = run.iteration
        timing = ""
        if it is not None:
            calib = f" calib_s={run.calib_s:.4f}" if run.calib_s else ""
            timing = f"setup_s={it.setup_s:.4f} wall_s={it.wall_s:.4f}{calib} digest={it.digest[:12]}"
        status = f"FAILED {run.error}" if run.failed else "ok"
        print(f"run {n} {run.workload} seed={run.seed} {timing} {status}")

    units = per_layer_units() if args.trace else END_TO_END
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and set(metrics) == set(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
