"""Fleet page and sweep-browser bench discovery (dashboard satellites).

The fleet page is pure server-rendered HTML around one JSON island —
no JS — so the tests assert on the island payload and the rendered
tables.  The sweep-browser tests pin the ``BENCH_scalability.json``
discovery path: the per-node wall times chart like a CSV sweep and gate
failures / history regressions surface in the alerts panel.
"""

import json

from repro.obs.dashboard import (
    build_sweep_data,
    extract_data_island,
    render_fleet_page,
    write_fleet_page,
    write_sweep_browser,
)
from repro.obs.fleet import fleet_summary


def _stores(makespans=(100.0, 150.0), tenants=None):
    from pathlib import Path

    out = []
    for i, makespan in enumerate(makespans):
        out.append((Path(f"run-{i:03d}.jsonl"), {
            "system": "tenants-fair",
            "events": 10,
            "final_time": makespan,
            "counts": {},
            "metrics": {},
            "summary": {
                "policy": "fair", "seed": 2011, "makespan": makespan,
                "jobs": 4, "completed": 4, "failed": 0, "shed": 0,
                "tenants": tenants or {},
            },
        }))
    return out


class TestFleetPage:
    def test_island_round_trips_the_summary(self):
        summary = fleet_summary(_stores(), root_label="fleet")
        html = render_fleet_page(summary)
        data = extract_data_island(html, "fleet-data")
        assert data == json.loads(summary.to_json())

    def test_regressed_store_rows_are_highlighted(self):
        summary = fleet_summary(_stores((100.0, 150.0)), root_label="fleet")
        assert summary.regressions
        html = render_fleet_page(summary)
        assert "var(--alert)" in html
        assert "run-002" not in html  # only the two synthetic stores

    def test_quiet_fleet_renders_without_alerts(self):
        summary = fleet_summary(_stores((100.0, 100.0)), root_label="fleet")
        html = render_fleet_page(summary)
        assert "none detected" in html

    def test_slo_missing_tenant_is_highlighted(self):
        tenants = {"bursty": {
            "queue": "batch", "submitted": 10, "completed": 6, "failed": 0,
            "shed": 4, "unfinished": 0, "slot_seconds": 5.0,
            "latency_p50": 1.0, "latency_p95": 2.0, "latency_p99": 3.0,
            "queue_wait_p95": 1.0, "utilization": 0.5,
        }}
        summary = fleet_summary(
            _stores((100.0, 100.0), tenants=tenants), root_label="fleet"
        )
        html = render_fleet_page(summary)
        assert "bursty" in html and "var(--alert)" in html

    def test_write_fleet_page_accepts_a_directory(self, tmp_path):
        from repro.experiments.capacity import produce_stores

        stores = tmp_path / "stores"
        produce_stores(stores, seeds=(2011,), horizon=60.0)
        out = tmp_path / "pages" / "fleet.html"
        write_fleet_page(out, stores)
        data = extract_data_island(out.read_text(), "fleet-data")
        assert data["totals"]["stores"] == 1

    def test_page_is_self_contained(self):
        html = render_fleet_page(fleet_summary(_stores(), root_label="x"))
        assert "http://" not in html and "https://" not in html


class TestSweepBenchDiscovery:
    def _payload(self, deterministic=True):
        leg = {
            "wall_s": 1.0, "events": 10, "deterministic": deterministic,
            "sim_elapsed_s": 5.0,
        }
        return {
            "seed": 2011, "node_counts": [200, 500],
            "per_nodes": {"200": {"single_job": dict(leg)},
                          "500": {"single_job": dict(leg)}},
            "deterministic": deterministic,
        }

    def test_scalability_json_flattens_into_a_chartable_table(self, tmp_path):
        (tmp_path / "BENCH_scalability.json").write_text(
            json.dumps(self._payload())
        )
        data = build_sweep_data(results_dir=tmp_path)
        table = data["csv"]["BENCH_scalability.json"]
        assert table["header"] == ["nodes", "single_job.wall_s"]
        assert [r[0] for r in table["rows"]] == ["200", "500"]
        assert data["alerts"] == []

    def test_gate_failures_surface_as_alerts(self, tmp_path):
        (tmp_path / "BENCH_scalability.json").write_text(
            json.dumps(self._payload(deterministic=False))
        )
        data = build_sweep_data(results_dir=tmp_path)
        assert any("not deterministic" in a for a in data["alerts"])

    def test_history_speedup_regression_surfaces_as_alert(self, tmp_path):
        hist = tmp_path / "BENCH_history.jsonl"
        lines = [
            {"created_at": "t0", "git_rev": "aaaa",
             "metrics": {"macro.fig6.speedup": 4.0}},
            {"created_at": "t1", "git_rev": "bbbb",
             "metrics": {"macro.fig6.speedup": 2.0}},
        ]
        hist.write_text("\n".join(json.dumps(e) for e in lines) + "\n")
        data = build_sweep_data(bench_histories=[hist])
        assert any("regressed" in a for a in data["alerts"])

    def test_alert_panel_renders_into_the_page(self, tmp_path):
        (tmp_path / "BENCH_scalability.json").write_text(
            json.dumps(self._payload(deterministic=False))
        )
        out = tmp_path / "sweep.html"
        write_sweep_browser(out, results_dir=tmp_path)
        html = out.read_text()
        data = extract_data_island(html, "sweep-data")
        assert data["alerts"]
        assert "not deterministic" in html
