"""Tests of the benchmark's own code, on small inputs.

Run: ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.layers import LAYERS, LayerMap, layer_seconds

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "fig6-paper": workloads.Fig6Workload("fig6-paper", gb=1),
    "tenants-500": workloads.TenantsWorkload("tenants-500", nodes=20, horizon=60.0, panel=(7,)),
    "fig6-observed": workloads.Fig6Workload("fig6-observed", gb=1, observe=True),
}


@pytest.fixture
def small(monkeypatch):
    for name, workload in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


def _result(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize(
    "workload,trace,kind",
    [
        ("fig6-paper", "0", "end_to_end"),
        ("tenants-500", "0", "end_to_end"),
        ("fig6-observed", "0", "end_to_end"),
        ("fig6-observed", "1", "per_layer"),
        ("tenants-500", "1", "per_layer"),
    ],
)
def test_printed_metrics_match_benchmark_json(small, capsys, workload, trace, kind):
    code, result = _result(
        capsys, "--workload", workload, "--seed", "2011", "--seconds", "0", "--trace", trace
    )
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())


def test_layer_bins_tile_the_traced_total():
    profile = cProfile.Profile()
    profile.enable()
    SMALL["fig6-paper"].run_once(2011)
    profile.disable()
    stats = pstats.Stats(profile)
    layers = LayerMap(str(ROOT / "src" / "repro"))
    bins = layer_seconds(stats, layers)
    assert set(bins) == set(LAYERS)
    assert sum(bins.values()) == pytest.approx(stats.total_tt, rel=0.01)
    # Stdlib and C frames are charged to their repro callers, not dumped in other.
    foreign = sum(v[2] for f, v in stats.stats.items() if layers.layer_of(f) is None)
    assert bins["other"] < foreign


def test_injected_digest_mismatch_fails_the_run(small, capsys, monkeypatch):
    real = workloads.export_digest
    calls = []

    def flaky(export):
        calls.append(export)
        return "0" * 64 if len(calls) == 2 else real(export)

    monkeypatch.setattr(workloads, "export_digest", flaky)
    code, result = _result(
        capsys, "--workload", "fig6-paper", "--seed", "2011", "--seconds", "0", "--trace", "0"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] >= 2


def test_seed_2012_reaches_tenants_500_and_checks_pass():
    tenants = workloads.WORKLOADS["tenants-500"]
    first, second = tenants.run_once(2011), tenants.run_once(2012)
    assert first.problems == [] and second.problems == []
    assert first.digest != second.digest
    assert tenants.seeds(2011)[0] == 2011 and tenants.seeds(2012)[0] == 2012


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
