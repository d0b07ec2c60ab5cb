"""Arrival-stream determinism and shape tests."""

import math

import pytest

from repro.cluster import MultiTenantEngine, TenantSpec, build_arrivals, tenant_arrivals
from repro.cluster.arrivals import merge_streams, offered_load_summary
from repro.util.units import MiB


def spec(**kw):
    defaults = dict(name="t", rate=0.05)
    defaults.update(kw)
    return TenantSpec(**defaults)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = tenant_arrivals(spec(), seed=7, horizon=3600)
        b = tenant_arrivals(spec(), seed=7, horizon=3600)
        assert a == b

    def test_different_seed_different_stream(self):
        a = tenant_arrivals(spec(), seed=7, horizon=3600)
        b = tenant_arrivals(spec(), seed=8, horizon=3600)
        assert a != b

    def test_tenant_streams_independent(self):
        """Adding tenant B never perturbs tenant A's stream."""
        a = tenant_arrivals(spec(name="a"), seed=7, horizon=3600)
        both = build_arrivals(
            [spec(name="a"), spec(name="b")], seed=7, horizon=3600
        )
        assert [x for x in both if x.tenant == "a"] == a

    def test_attrs_survive_profile_change(self):
        """Workload draws come from their own stream: reshaping the
        arrival process must not reshuffle the first job's attributes."""
        a = tenant_arrivals(spec(profile="poisson"), seed=7, horizon=3600)
        b = tenant_arrivals(spec(profile="bursty"), seed=7, horizon=3600)
        assert a[0].workload == b[0].workload
        assert a[0].input_bytes == b[0].input_bytes


class TestShapes:
    @pytest.mark.parametrize("profile", ["poisson", "diurnal", "bursty"])
    def test_times_sorted_within_horizon(self, profile):
        arrivals = tenant_arrivals(
            spec(profile=profile, rate=0.1), seed=11, horizon=1800
        )
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 1800 for t in times)

    def test_rate_roughly_respected(self):
        arrivals = tenant_arrivals(
            spec(rate=0.1), seed=11, horizon=20000
        )
        assert 0.05 * 20000 < len(arrivals) < 0.2 * 20000

    def test_mixed_runtime_produces_both(self):
        arrivals = tenant_arrivals(
            spec(rate=0.1, runtime="mixed", mpid_fraction=0.5),
            seed=11,
            horizon=5000,
        )
        runtimes = {a.runtime for a in arrivals}
        assert runtimes == {"hadoop", "mpid"}

    def test_input_bytes_within_bounds(self):
        arrivals = tenant_arrivals(
            spec(rate=0.1, min_input_bytes=64 * MiB, max_input_bytes=128 * MiB),
            seed=11,
            horizon=5000,
        )
        assert arrivals
        for a in arrivals:
            assert 64 * MiB <= a.input_bytes <= 128 * MiB

    def test_job_names_unique(self):
        arrivals = build_arrivals(
            [spec(name="a", rate=0.1), spec(name="b", rate=0.1)],
            seed=11,
            horizon=2000,
        )
        names = [a.job_name for a in arrivals]
        assert len(set(names)) == len(names)


class TestMergeAndSummary:
    def test_merge_order_is_total(self):
        a = tenant_arrivals(spec(name="a", rate=0.05), seed=5, horizon=2000)
        b = tenant_arrivals(spec(name="b", rate=0.05), seed=5, horizon=2000)
        merged = merge_streams([a, b])
        keys = [(x.time, x.tenant, x.index) for x in merged]
        assert keys == sorted(keys)

    def test_summary_counts(self):
        arrivals = build_arrivals(
            [spec(name="a", rate=0.05), spec(name="b", rate=0.05, runtime="mpid")],
            seed=5,
            horizon=2000,
        )
        s = offered_load_summary(arrivals)
        assert s["jobs"] == len(arrivals)
        assert s["by_tenant"]["a"] + s["by_tenant"]["b"] == s["jobs"]
        assert s["mpid_jobs"] == s["by_tenant"]["b"]


class TestValidation:
    def test_bad_profile(self):
        with pytest.raises(ValueError, match="profile"):
            spec(profile="weekly")

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            spec(rate=0.0)

    def test_bad_workload(self):
        with pytest.raises(ValueError, match="GridMix"):
            spec(workloads=("terasort",))

    def test_bad_runtime(self):
        with pytest.raises(ValueError, match="runtime"):
            spec(runtime="spark")

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_horizon_rejected_at_construction(self, horizon):
        # NaN used to yield zero arrivals (a silent 0-job run) and inf an
        # arrival loop that never ends.  The engine check comes first,
        # and build_arrivals gets no tenants, so code without the checks
        # fails here instead of hanging.
        with pytest.raises(ValueError, match="horizon"):
            MultiTenantEngine([spec()], horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            build_arrivals([], seed=7, horizon=horizon)

    def test_duplicate_tenants(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_arrivals([spec(name="a"), spec(name="a")], seed=1, horizon=10)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            tenant_arrivals(spec(), seed=1, horizon=0)
