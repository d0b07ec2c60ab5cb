"""Golden determinism: experiment exports are solver- and engine-independent.

The fast max-min solver and the horizon-batched flow engine are only
admissible because they change *nothing* observable: every experiment
export must serialise byte-identically under the fast and reference
solvers, under the production and reference flow engines
(``tests/simnet/reference_engine.py``), and identically across two
same-seed runs.  These are the end-to-end twins of the per-step
differential tests in ``tests/simnet``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.simnet.network import use_solver
from tests.simnet.reference_engine import use_reference_engine


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
    def test_fast_matches_reference_bit_for_bit(self):
        fast = _fig6_export()
        with use_solver("reference"):
            ref = _fig6_export()
        assert fast == ref

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
    def test_fast_matches_reference_bit_for_bit(self):
        fast = _network_faults_export()
        with use_solver("reference"):
            ref = _network_faults_export()
        assert fast == ref

    def test_same_seed_rerun_is_identical(self):
        assert _network_faults_export() == _network_faults_export()


@pytest.mark.slow
def test_fig6_10gb_fast_matches_reference():
    fast = _fig6_export(size_gb=10.0)
    with use_solver("reference"):
        ref = _fig6_export(size_gb=10.0)
    assert fast == ref
