"""End-to-end tests for ``python -m repro analyze``."""

import json

import pytest

from repro.obs.analyze_cli import main as analyze_main
from repro.obs.cli import main as trace_main


@pytest.fixture(scope="module")
def fig6_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "fig6.json"
    assert trace_main(["fig6", "--size", "64MB", "--trace-out", str(out)]) == 0
    return out


class TestAnalyzeCli:
    def test_reports_both_systems(self, fig6_trace, capsys):
        assert analyze_main([str(fig6_trace)]) == 0
        out = capsys.readouterr().out
        assert "== hadoop:" in out
        assert "== mpid:" in out
        assert "critical-path blame" in out
        assert "what-if" in out

    def test_blame_pcts_sum_to_100(self, fig6_trace, tmp_path):
        report_path = tmp_path / "report.json"
        assert analyze_main([str(fig6_trace), "--json", str(report_path)]) == 0
        reports = json.loads(report_path.read_text())
        assert set(reports) == {"hadoop", "mpid"}
        for name, report in reports.items():
            pcts = report["critical_path"]["blame_pct"]
            assert sum(pcts.values()) == pytest.approx(100.0), name
            assert report["makespan"] > 0
            assert report["phase_breakdown"]["system"] == name

    def test_system_filter(self, fig6_trace, capsys):
        assert analyze_main([str(fig6_trace), "--system", "mpid"]) == 0
        out = capsys.readouterr().out
        assert "== mpid:" in out
        assert "== hadoop:" not in out

    def test_unknown_system_errors(self, fig6_trace):
        with pytest.raises(SystemExit):
            analyze_main([str(fig6_trace), "--system", "nope"])

    def test_validate_without_manifest_fails_loudly(self, fig6_trace, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(fig6_trace.read_text())
        with pytest.raises(FileNotFoundError, match="manifest"):
            analyze_main([str(bare), "--validate"])


@pytest.fixture(scope="module")
def tenant_store(tmp_path_factory):
    from repro.experiments.capacity import produce_stores

    out = tmp_path_factory.mktemp("stores")
    (path,) = produce_stores(out, seeds=(2011,), horizon=60.0)
    return path


class TestAnalyzeStore:
    def test_jsonl_store_analyzes_via_load_tracer(self, tenant_store, capsys):
        assert analyze_main([str(tenant_store)]) == 0
        out = capsys.readouterr().out
        assert "critical-path blame" in out

    def test_tenants_mode_prints_the_blame_report(self, tenant_store, capsys):
        assert analyze_main([str(tenant_store), "--tenants"]) == 0
        out = capsys.readouterr().out
        assert "tenant" in out.lower()

    def test_tenants_mode_json_report(self, tenant_store, tmp_path):
        report_path = tmp_path / "tenants.json"
        assert analyze_main(
            [str(tenant_store), "--tenants", "--json", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["system"] == "tenants"
        assert report["jobs"] >= report["completed"]
        assert "tenants" in report

    def test_tenants_mode_rejects_perfetto_traces(self, fig6_trace):
        with pytest.raises(SystemExit):
            analyze_main([str(fig6_trace), "--tenants"])


@pytest.fixture(scope="module")
def torn_traces(tenant_store, fig6_trace, tmp_path_factory):
    """The store and the Perfetto trace cut in half, mid-line."""
    out = tmp_path_factory.mktemp("torn")
    torn = {}
    for name, src in (("store.jsonl", tenant_store), ("trace.json", fig6_trace)):
        data = src.read_bytes()
        torn[name] = out / name
        torn[name].write_bytes(data[: len(data) // 2])
    return torn


class TestTornTraces:
    """A torn artifact is one ``error:`` line and a non-zero exit."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["analyze"], "store.jsonl"),
            (["analyze", "--tenants"], "store.jsonl"),
            (["replay"], "store.jsonl"),
            (["analyze"], "trace.json"),
            (["replay"], "trace.json"),
        ],
        ids=["analyze-store", "tenants-store", "replay-store", "analyze-trace", "replay-trace"],
    )
    def test_one_line_error(self, torn_traces, tmp_path, monkeypatch, capsys, argv, name):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)  # a replay that wrongly succeeds writes here
        path = torn_traces[name]
        assert main(argv + [str(path)]) != 0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
