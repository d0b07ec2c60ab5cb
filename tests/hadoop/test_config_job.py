"""Config and job-spec tests."""

import pytest

from repro.hadoop.config import HadoopConfig
from repro.hadoop.job import (
    JAVASORT_PROFILE,
    WORDCOUNT_PROFILE,
    JobSpec,
    WorkloadProfile,
)
from repro.util.units import GB, MiB

NAN = float("nan")
INF = float("inf")


class TestHadoopConfig:
    def test_paper_defaults(self):
        cfg = HadoopConfig()
        assert cfg.block_size == 64 * MiB
        assert cfg.replication == 3
        assert cfg.heartbeat_interval == 3.0
        assert cfg.parallel_copies == 5

    def test_with_slots(self):
        cfg = HadoopConfig().with_slots(4, 2)
        assert (cfg.map_slots, cfg.reduce_slots) == (4, 2)
        assert cfg.block_size == HadoopConfig().block_size

    @pytest.mark.parametrize(
        "kw",
        [
            {"block_size": 100},
            {"replication": 0},
            {"map_slots": 0},
            {"reduce_slots": 0},
            {"reduce_slowstart": 1.5},
            {"heartbeat_interval": 0},
            {"parallel_copies": 0},
            {"completion_poll_interval": -1},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            HadoopConfig(**kw)

    @pytest.mark.parametrize("value", [NAN, INF, -1.0], ids=["nan", "inf", "neg"])
    @pytest.mark.parametrize(
        "field",
        [
            "heartbeat_interval",
            "completion_poll_interval",
            "job_setup_time",
            "tasktracker_expiry_interval",
            "speculative_slowness",
            "fetch_timeout",
            "fetch_backoff_base",
            "fetch_backoff_max",
            "task_jvm_startup",
            "repair_bandwidth_cap",
        ],
    )
    def test_non_finite_and_negative_times_rejected(self, field, value):
        # NaN slips past ``x <= 0``; inf turns a poll or a beat into a
        # timer the kernel refuses, or a reducer that never gives up.
        with pytest.raises(ValueError, match=field):
            HadoopConfig(**{field: value})

    @pytest.mark.parametrize("field", ["job_setup_time", "task_jvm_startup"])
    def test_zero_fixed_costs_allowed(self, field):
        assert getattr(HadoopConfig(**{field: 0.0}), field) == 0.0


class TestWorkloadProfile:
    def test_builtin_profiles(self):
        assert JAVASORT_PROFILE.map_selectivity == 1.0
        assert JAVASORT_PROFILE.combiner_reduction == 1.0
        assert WORDCOUNT_PROFILE.combiner_reduction < 0.1

    def test_map_output_bytes(self):
        assert JAVASORT_PROFILE.map_output_bytes(100) == 100
        wc = WORDCOUNT_PROFILE.map_output_bytes(1000)
        assert 0 < wc < 1000

    def test_reduce_output_bytes(self):
        assert JAVASORT_PROFILE.reduce_output_bytes(64) == 64

    @pytest.mark.parametrize(
        "kw",
        [
            {"map_cpu_per_byte": -1},
            {"map_selectivity": -0.1},
            {"combiner_reduction": 0.0},
            {"combiner_reduction": 1.5},
        ],
    )
    def test_validation(self, kw):
        base = dict(
            name="x",
            map_cpu_per_byte=1e-8,
            map_selectivity=1.0,
            reduce_cpu_per_byte=1e-8,
            reduce_selectivity=1.0,
        )
        base.update(kw)
        with pytest.raises(ValueError):
            WorkloadProfile(**base)


class TestJobSpec:
    def test_map_task_count_from_blocks(self):
        spec = JobSpec("s", input_bytes=1 * GB, profile=JAVASORT_PROFILE)
        assert spec.num_map_tasks(64 * MiB) == 16

    def test_partial_block_rounds_up(self):
        spec = JobSpec("s", input_bytes=65 * MiB, profile=JAVASORT_PROFILE)
        assert spec.num_map_tasks(64 * MiB) == 2

    def test_default_reducers_one_per_block(self):
        spec = JobSpec("s", input_bytes=1 * GB, profile=JAVASORT_PROFILE)
        assert spec.reduce_tasks(64 * MiB) == 16

    def test_explicit_reducers(self):
        spec = JobSpec(
            "s", input_bytes=1 * GB, profile=WORDCOUNT_PROFILE, num_reduce_tasks=1
        )
        assert spec.reduce_tasks(64 * MiB) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec("s", input_bytes=0, profile=JAVASORT_PROFILE)
        with pytest.raises(ValueError):
            JobSpec(
                "s", input_bytes=1, profile=JAVASORT_PROFILE, num_reduce_tasks=0
            )
