"""Golden determinism: experiment exports are solver- and engine-independent.

The production max-min solver and the horizon-batched flow engine are
only admissible because they change *nothing* observable: every
experiment export must serialise byte-identically under the production
and reference solvers, under the production and reference flow engines
(both oracles live in ``tests/simnet/reference_engine.py``), and
identically across two same-seed runs.  These are the end-to-end twins
of the per-step differential tests in ``tests/simnet``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from tests.experiments.scalability_cells import (
    scalability_multi_tenant,
    scalability_single_job,
)
from tests.simnet.reference_engine import use_reference_engine, use_reference_solver


def _fig6_export(size_gb=1.0, seed=2011):
    from repro.experiments import fig6_wordcount as f6

    res = f6.run(sizes_gb=(size_gb,), seed=seed)
    return json.dumps(
        {"hadoop": res.hadoop_metrics, "mpid": res.mpid_metrics},
        sort_keys=True,
    )


def _network_faults_export(seed=2011):
    from repro.experiments import network_faults as nf

    res = nf.run(
        input_gb=0.25,
        seeds=(seed,),
        rates_per_link_hour=(900.0,),
        partition_durations=(5.0,),
    )
    return json.dumps(asdict(res), sort_keys=True, default=str)


class TestFig6Golden:
    def test_fast_matches_reference_bit_for_bit(self, monkeypatch):
        fast = _fig6_export()
        use_reference_solver(monkeypatch)
        assert _fig6_export() == fast

    def test_matches_reference_engine_bit_for_bit(self, monkeypatch):
        fast = _fig6_export()
        use_reference_engine(monkeypatch)
        assert _fig6_export() == fast

    def test_same_seed_rerun_is_identical(self):
        assert _fig6_export() == _fig6_export()

    def test_seeds_actually_differ(self):
        # Guards the golden checks against a trivially-constant export.
        assert _fig6_export(seed=2011) != _fig6_export(seed=2012)


class TestNetworkFaultsGolden:
    def test_fast_matches_reference_bit_for_bit(self, monkeypatch):
        fast = _network_faults_export()
        use_reference_solver(monkeypatch)
        assert _network_faults_export() == fast

    def test_matches_reference_engine_bit_for_bit(self, monkeypatch):
        fast = _network_faults_export()
        use_reference_engine(monkeypatch)
        assert _network_faults_export() == fast

    def test_same_seed_rerun_is_identical(self):
        assert _network_faults_export() == _network_faults_export()


@pytest.mark.slow
def test_fig6_10gb_fast_matches_reference(monkeypatch):
    fast = _fig6_export(size_gb=10.0)
    use_reference_solver(monkeypatch)
    assert _fig6_export(size_gb=10.0) == fast


@pytest.mark.slow
class TestScalabilityGolden:
    """The two 100-node scalability cells export bit-for-bit identical
    results under the production flow engine and the reference engine."""

    NODES = 100

    def test_single_job_exports_bit_for_bit(self, monkeypatch):
        export, events = scalability_single_job(self.NODES, seed=2011, mib_per_worker=16)
        use_reference_engine(monkeypatch)
        ref_export, ref_events = scalability_single_job(
            self.NODES, seed=2011, mib_per_worker=16
        )
        assert export == ref_export
        assert ref_events > 0 and events > 0

    def test_multi_tenant_exports_bit_for_bit(self, monkeypatch):
        export, _ = scalability_multi_tenant(self.NODES, seed=2011, horizon=120.0)
        use_reference_engine(monkeypatch)
        ref_export, _ = scalability_multi_tenant(self.NODES, seed=2011, horizon=120.0)
        assert export == ref_export
