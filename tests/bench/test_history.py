"""Tests for the bench history + regression gate."""

import json

import pytest

from repro.bench import history
from repro.bench.engine import BenchReport


def _report(fig6_speedup: float = 2.0, quick: bool = True) -> dict:
    return {
        "divergence": False,
        "micro": {
            "maxmin_solver": {"speedup": 5.0, "identical": True},
            "kernel_cancel": {"run_s": 0.03, "identical": True},
        },
        "macro": {
            "fig6": {
                "speedup": fig6_speedup,
                "total_wall_s": 0.02,
                "identical": True,
            },
        },
        "manifest": {
            "created_at": "2026-01-01T00:00:00+0000",
            "git_rev": "abc123",
            "config_hash": "deadbeef",
            "config": {"quick": quick, "seed": 2011, "sizes_gb": None},
        },
    }


class TestFlatten:
    def test_speedups_and_wall_seconds(self):
        m = history.flatten_metrics(_report())
        assert m["macro.fig6.speedup"] == 2.0
        assert m["macro.fig6.total_wall_s"] == 0.02
        assert m["micro.maxmin_solver.speedup"] == 5.0
        assert m["micro.kernel_cancel.run_s"] == 0.03

    def test_only_speedups_gate(self):
        assert history.is_gated("macro.fig6.speedup")
        assert not history.is_gated("macro.fig6.total_wall_s")
        assert not history.is_gated("micro.kernel_cancel.run_s")


class TestCompatibility:
    def test_same_config_is_compatible(self):
        a = history.make_entry(_report())
        b = history.make_entry(_report(fig6_speedup=3.0))
        assert history.compatible(a, b)

    def test_quick_vs_full_is_not(self):
        a = history.make_entry(_report(quick=True))
        b = history.make_entry(_report(quick=False))
        assert not history.compatible(a, b)


class TestCompare:
    def test_cold_start_never_regresses(self):
        entry = history.make_entry(_report())
        deltas, prev = history.compare(entry, [])
        assert prev is None
        assert not any(d.regressed for d in deltas)

    def test_within_threshold_passes(self):
        old = history.make_entry(_report(fig6_speedup=2.0))
        new = history.make_entry(_report(fig6_speedup=1.9))  # -5%
        deltas, prev = history.compare(new, [old], threshold=0.25)
        assert prev is old
        assert not any(d.regressed for d in deltas)

    def test_beyond_threshold_regresses(self):
        old = history.make_entry(_report(fig6_speedup=4.0))
        new = history.make_entry(_report(fig6_speedup=2.0))  # -50%
        deltas, _ = history.compare(new, [old], threshold=0.25)
        bad = [d for d in deltas if d.regressed]
        assert [d.metric for d in bad] == ["macro.fig6.speedup"]

    def test_wall_seconds_never_gate(self):
        old = history.make_entry(_report())
        new = history.make_entry(_report())
        new["metrics"]["macro.fig6.total_wall_s"] = 100.0  # 5000x slower
        deltas, _ = history.compare(new, [old], threshold=0.25)
        assert not any(d.regressed for d in deltas)

    def test_incompatible_history_is_ignored(self):
        full = history.make_entry(_report(fig6_speedup=100.0, quick=False))
        new = history.make_entry(_report(fig6_speedup=2.0, quick=True))
        deltas, prev = history.compare(new, [full], threshold=0.25)
        assert prev is None
        assert not any(d.regressed for d in deltas)

    def test_metric_missing_from_baseline_never_gates(self):
        # The previous entry predates a metric (say, the scalability
        # macro landed after the baseline was recorded): the new metric
        # reports with no previous/delta and must not gate.
        old = history.make_entry(_report())
        del old["metrics"]["macro.fig6.speedup"]
        new = history.make_entry(_report(fig6_speedup=0.01))
        deltas, prev = history.compare(new, [old], threshold=0.25)
        assert prev is old
        fig6 = next(d for d in deltas if d.metric == "macro.fig6.speedup")
        assert fig6.gated
        assert fig6.previous is None
        assert fig6.delta is None
        assert not fig6.regressed

    def test_new_macro_does_not_gate_against_old_baseline(self):
        old = history.make_entry(_report())
        raw = _report()
        raw["macro"]["scalability"] = {
            "speedup": 1.1,
            "total_wall_s": 4.0,
            "identical": True,
            "deterministic": True,
        }
        new = history.make_entry(raw)
        deltas, prev = history.compare(new, [old], threshold=0.25)
        assert prev is old
        scal = next(
            d for d in deltas if d.metric == "macro.scalability.speedup"
        )
        assert scal.gated  # it WILL gate once a baseline records it...
        assert scal.previous is None  # ...but not on its first appearance
        assert not scal.regressed
        assert not any(d.regressed for d in deltas)

    def test_best_tracks_the_extreme(self):
        entries = [
            history.make_entry(_report(fig6_speedup=s)) for s in (2.0, 3.5, 3.0)
        ]
        new = history.make_entry(_report(fig6_speedup=3.4))
        deltas, _ = history.compare(new, entries, threshold=0.25)
        fig6 = next(d for d in deltas if d.metric == "macro.fig6.speedup")
        assert fig6.best == 3.5
        assert fig6.previous == 3.0
        assert not fig6.regressed


class TestHistoryFile:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        e1 = history.make_entry(_report(fig6_speedup=2.0))
        e2 = history.make_entry(_report(fig6_speedup=2.5))
        history.append_history(path, e1)
        history.append_history(path, e2)
        loaded = history.load_history(path)
        assert loaded == [e1, e2]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert history.load_history(tmp_path / "nope.jsonl") == []


class TestCliGate:
    """``bench --compare`` exit codes, with the bench itself stubbed."""

    def _run(self, monkeypatch, tmp_path, argv, speedup: float) -> int:
        from repro.bench import cli

        def fake_bench(**_kwargs):
            raw = _report(fig6_speedup=speedup)
            return BenchReport(micro=raw["micro"], macro=raw["macro"])

        monkeypatch.setattr(cli, "run_bench", fake_bench)
        out = tmp_path / "B.json"
        return cli.main(["--quick", "--out", str(out), *argv])

    def test_first_run_has_no_baseline_and_exits_zero(self, monkeypatch, tmp_path):
        # Cold start: no history file at all.  Nothing gates, the run
        # is recorded, and the exit code is clean.
        hist = tmp_path / "fresh.jsonl"
        assert not hist.exists()
        rc = self._run(
            monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0
        )
        assert rc == 0
        assert len(history.load_history(hist)) == 1

    def test_injected_divergence_exits_nonzero(self, monkeypatch, tmp_path):
        # A macro whose fast-path exports diverged must fail the run
        # even when every speedup improved.
        from repro.bench import cli

        def fake_bench(**_kwargs):
            raw = _report(fig6_speedup=100.0)
            report = BenchReport()
            for name, entry in raw["micro"].items():
                report.record("micro", name, entry)
            for name, entry in raw["macro"].items():
                report.record("macro", name, entry)
            report.record(
                "macro",
                "scalability",
                {"speedup": 5.0, "total_wall_s": 1.0, "identical": False},
            )
            return report

        monkeypatch.setattr(cli, "run_bench", fake_bench)
        out = tmp_path / "B.json"
        rc = cli.main(["--quick", "--out", str(out)])
        assert rc != 0
        assert json.loads(out.read_text())["divergence"] is True

    def test_injected_nondeterminism_exits_nonzero(self, monkeypatch, tmp_path):
        from repro.bench import cli

        def fake_bench(**_kwargs):
            report = BenchReport()
            report.record(
                "macro",
                "scalability",
                {
                    "speedup": 5.0,
                    "total_wall_s": 1.0,
                    "identical": True,
                    "deterministic": False,
                },
            )
            return report

        monkeypatch.setattr(cli, "run_bench", fake_bench)
        out = tmp_path / "B.json"
        assert cli.main(["--quick", "--out", str(out)]) != 0

    def test_clean_rerun_exits_zero(self, monkeypatch, tmp_path):
        hist = tmp_path / "H.jsonl"
        assert self._run(monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0) == 0
        assert self._run(monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0) == 0
        assert len(history.load_history(hist)) == 2

    def test_injected_regression_exits_nonzero(self, monkeypatch, tmp_path):
        hist = tmp_path / "H.jsonl"
        assert self._run(monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 4.0) == 0
        code = self._run(
            monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0
        )
        assert code != 0

    def test_no_append_leaves_history_alone(self, monkeypatch, tmp_path):
        hist = tmp_path / "H.jsonl"
        assert self._run(monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0) == 0
        self._run(
            monkeypatch,
            tmp_path,
            ["--compare", "--history", str(hist), "--no-append"],
            2.0,
        )
        assert len(history.load_history(hist)) == 1

    def test_compare_json_report(self, monkeypatch, tmp_path):
        hist = tmp_path / "H.jsonl"
        cmp_path = tmp_path / "cmp.json"
        self._run(monkeypatch, tmp_path, ["--compare", "--history", str(hist)], 2.0)
        self._run(
            monkeypatch,
            tmp_path,
            ["--compare", "--history", str(hist), "--compare-json", str(cmp_path)],
            2.0,
        )
        data = json.loads(cmp_path.read_text())
        assert data["previous_rev"]
        metrics = {d["metric"] for d in data["deltas"]}
        assert "macro.fig6.speedup" in metrics
        assert not any(d["regressed"] for d in data["deltas"])
