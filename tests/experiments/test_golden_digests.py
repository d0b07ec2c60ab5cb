"""Pinned sha256 digests of whole-experiment exports.

Every export below is serialised as sorted-key JSON (trace stores are
JSONL already) and digested.  A change to the simulator's timeline,
arithmetic or event order changes a digest, so any refactor of the
kernel, flow engine or resources must leave all of them untouched.  On
a mismatch the assertion message carries the new digest; re-pin only
for an intended model change, never for a refactor.

The simulators draw their randomness from numpy ``Generator`` streams,
which numpy does not promise to keep the same across releases.  The
digests were computed under ``NUMPY_AT_PIN``; a mismatch under another
numpy version may come from numpy rather than from the simulator, so
the message names both versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.engine import _scalability_multi_tenant, _scalability_single_job

NUMPY_AT_PIN = "2.4.6"

GOLDEN = {
    "fig6_1gb": "e6d637b43698ef74dd7efaf08e045c54f7617e9eba5932009cb03102fadbe0f1",
    "network_faults_quick": "2f47a6400dfed45dd96b90f775afaa36e1e57978849bf0f1fff6c66c74b676ec",
    "scalability_single_job_100": "c1019a2af24d18e96cfb3935c333687ef7569efddb265a048e17d3b983bae40c",
    "scalability_multi_tenant_100": "aebce395ea78aa253ce26b422e3dfabfc47390ce746ca59c33cda1fc77804fd1",
    "fig6_1gb_store_hadoop": "dc3227e5e97e24e55253bdabf2034f3d457ad0ff5609ae88491d055989666ac9",
    "fig6_1gb_store_mpid": "20f44631afb32edec6f6a9a9d521cc9ef9f40f5dd92c058315cf635828fde25c",
}


def _check(name: str, export) -> None:
    if isinstance(export, str):
        export = export.encode()
    digest = hashlib.sha256(export).hexdigest()
    assert digest == GOLDEN[name], (
        f"{name} export changed: new digest {digest} "
        f"(pinned under numpy {NUMPY_AT_PIN}, running numpy {np.__version__})"
    )


def test_fig6_1gb():
    from repro.experiments import fig6_wordcount as f6

    res = f6.run(sizes_gb=(1.0,), seed=2011)
    _check(
        "fig6_1gb",
        json.dumps({"hadoop": res.hadoop_metrics, "mpid": res.mpid_metrics}, sort_keys=True),
    )


def test_network_faults_quick():
    from repro.experiments import network_faults as nf

    res = nf.run(
        input_gb=0.25,
        seeds=(2011,),
        rates_per_link_hour=(900.0,),
        partition_durations=(5.0,),
    )
    _check("network_faults_quick", json.dumps(asdict(res), sort_keys=True, default=str))


def test_scalability_single_job_100():
    _, export, _, _ = _scalability_single_job(100, seed=2011, mib_per_worker=16)
    _check("scalability_single_job_100", export)


def test_scalability_multi_tenant_100():
    _, export, _, _ = _scalability_multi_tenant(100, seed=2011, horizon=120.0)
    _check("scalability_multi_tenant_100", export)


@pytest.fixture(scope="module")
def fig6_1gb_stores(tmp_path_factory):
    """The Figure-6 1 GB pair run observed, each leg streamed to a store."""
    from repro.hadoop import WORDCOUNT_PROFILE, HadoopConfig, HadoopSimulation, JobSpec
    from repro.mrmpi import MrMpiConfig
    from repro.mrmpi.simulator import MrMpiSimulation
    from repro.util.units import GiB

    out = tmp_path_factory.mktemp("stores")
    spec = JobSpec(
        name="wordcount-1g",
        input_bytes=1 * GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )
    hsim = HadoopSimulation(
        spec=spec, config=HadoopConfig(map_slots=7, reduce_slots=7), seed=2011, observe=True
    )
    msim = MrMpiSimulation(
        spec=spec,
        config=MrMpiConfig(num_mappers=49, num_reducers=1),
        seed=2011,
        observe=True,
    )
    with hsim.obs.stream_to(out / "hadoop.jsonl", system="hadoop"):
        hsim.run()
    with msim.obs.stream_to(out / "mpid.jsonl", system="mpid"):
        msim.run()
    return {
        "hadoop": (out / "hadoop.jsonl").read_bytes(),
        "mpid": (out / "mpid.jsonl").read_bytes(),
    }


@pytest.mark.parametrize("system", ["hadoop", "mpid"])
def test_fig6_1gb_store(fig6_1gb_stores, system):
    _check(f"fig6_1gb_store_{system}", fig6_1gb_stores[system])
