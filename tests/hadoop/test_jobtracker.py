"""JobTracker unit tests: assignment policy, announcement, slowstart."""

import pytest

from repro.hadoop.config import HadoopConfig
from repro.hadoop.hdfs import HdfsNamespace
from repro.hadoop.job import JAVASORT_PROFILE, JobSpec
from repro.hadoop.jobtracker import JobTracker
from repro.util.units import MiB


def make_jt(input_mb=640, reducers=None, config=None, nodes=4):
    config = config or HadoopConfig()
    hdfs = HdfsNamespace(
        list(range(1, nodes + 1)),
        block_size=config.block_size,
        replication=min(config.replication, nodes),
        seed=7,
    )
    f = hdfs.create_file("in", input_mb * MiB)
    spec = JobSpec(
        "t", input_bytes=input_mb * MiB, profile=JAVASORT_PROFILE,
        num_reduce_tasks=reducers,
    )
    return JobTracker(spec, config, f, num_workers=nodes)


class TestAssignment:
    def test_one_map_per_heartbeat(self):
        jt = make_jt()
        maps, reduces = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert len(maps) == 1
        assert reduces == []  # slowstart not met

    def test_no_free_slots_no_assignment(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(1, 0, 0, [], now=0.0)
        assert maps == []

    def test_locality_preferred(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(2, 8, 8, [], now=0.0)
        assert maps[0].metrics.data_local

    def test_all_maps_eventually_assigned(self):
        jt = make_jt(input_mb=640)  # 10 maps
        assigned = []
        t = 0.0
        while len(assigned) < 10:
            for node in (1, 2, 3, 4):
                maps, _ = jt.heartbeat(node, 8, 8, [], now=t)
                assigned.extend(maps)
            t += 3.0
        assert sorted(m.task_id for m in assigned) == list(range(10))
        # Nothing more to hand out.
        maps, _ = jt.heartbeat(1, 8, 8, [], now=t)
        assert maps == []

    def test_maps_per_heartbeat_config(self):
        jt = make_jt(config=HadoopConfig(maps_per_heartbeat=4))
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert len(maps) == 4


class TestSlowstartAndReduces:
    def _complete_map(self, jt, node, now):
        maps, _ = jt.heartbeat(node, 8, 8, [], now=now)
        for m in maps:
            jt.map_finished(m, output_bytes=1000.0, now=now)
        return [m.task_id for m in maps]

    def test_reduces_wait_for_slowstart(self):
        jt = make_jt(input_mb=64 * 20)  # 20 maps, slowstart 5% -> 1 map
        assert not jt.reduces_may_start()
        done = self._complete_map(jt, 1, 0.0)
        # Completion not announced yet -> still gated.
        assert not jt.reduces_may_start()
        jt.heartbeat(1, 0, 0, done, now=3.0)
        assert jt.reduces_may_start()
        _, reduces = jt.heartbeat(2, 0, 8, [], now=3.5)
        assert len(reduces) == 1

    def test_zero_slowstart_starts_immediately(self):
        jt = make_jt(config=HadoopConfig(reduce_slowstart=0.0))
        _, reduces = jt.heartbeat(1, 0, 8, [], now=0.0)
        assert len(reduces) == 1

    def test_announcement_cursor_pages(self):
        jt = make_jt()
        done = self._complete_map(jt, 1, 0.0)
        jt.heartbeat(1, 0, 0, done, now=3.0)
        refs, cursor = jt.poll_map_outputs(0)
        assert len(refs) == 1
        assert refs[0].partition_bytes == pytest.approx(1000.0 / jt.num_reduces)
        refs2, cursor2 = jt.poll_map_outputs(cursor)
        assert refs2 == [] and cursor2 == cursor

    def test_visible_map_outputs_compat(self):
        jt = make_jt()
        done = self._complete_map(jt, 1, 0.0)
        jt.heartbeat(1, 0, 0, done, now=3.0)
        assert len(jt.visible_map_outputs(0)) == 1


class TestCompletionBookkeeping:
    def test_job_done_after_all_reduces(self):
        jt = make_jt(input_mb=64, reducers=2, config=HadoopConfig(reduce_slowstart=0.0))
        maps, _ = jt.heartbeat(1, 8, 0, [], now=0.0)
        jt.map_finished(maps[0], 10.0, now=1.0)
        _, r1 = jt.heartbeat(1, 0, 8, [maps[0].task_id], now=3.0)
        _, r2 = jt.heartbeat(2, 0, 8, [], now=3.1)
        all_reduces = list(r1) + list(r2)
        assert len(all_reduces) == 2
        assert not jt.job_done
        for r in all_reduces:
            jt.reduce_finished(r)
        assert jt.job_done

    def test_second_finish_is_a_losing_attempt(self):
        jt = make_jt()
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        assert jt.map_finished(maps[0], 10.0, now=1.0) is True
        # A racing duplicate attempt loses silently (speculation semantics).
        assert jt.map_finished(maps[0], 10.0, now=2.0) is False
        assert jt.maps_completed == 1

    def test_map_phase_done_flag(self):
        jt = make_jt(input_mb=64)
        assert not jt.map_phase_done
        maps, _ = jt.heartbeat(1, 8, 8, [], now=0.0)
        jt.map_finished(maps[0], 10.0, now=1.0)
        assert jt.map_phase_done

    def test_empty_input_rejected(self):
        config = HadoopConfig()
        hdfs = HdfsNamespace([1], block_size=config.block_size, replication=1)
        f = hdfs.create_file("in", 0)
        spec = JobSpec("t", input_bytes=1, profile=JAVASORT_PROFILE)
        with pytest.raises(ValueError, match="no blocks"):
            JobTracker(spec, config, f, num_workers=1)


class _RecordingCalendar:
    def __init__(self):
        self.calls = []

    def sync(self, now):
        self.calls.append(("sync", now))

    def work_appeared(self):
        self.calls.append("work")

    def job_over(self):
        self.calls.append("over")


class TestAssignableWork:
    """``has_assignable_work`` False must mean no heartbeat assigns
    anything, and every way work reappears must tell the calendar."""

    def _idle_everywhere(self, jt, now):
        return all(
            jt.heartbeat(node, 8, 8, [], now=now) == ([], []) for node in (1, 2, 3, 4)
        )

    def test_follows_the_job_lifecycle(self):
        jt = make_jt(input_mb=64 * 4, reducers=1)  # 4 maps, slowstart -> 1 map
        assert jt.has_assignable_work()
        maps = []
        t = 0.0
        while jt.has_assignable_work():
            for node in (1, 2, 3, 4):
                maps.extend(jt.heartbeat(node, 8, 8, [], now=t)[0])
            t += 3.0
        assert len(maps) == 4
        assert self._idle_everywhere(jt, t)  # slowstart not yet announced
        jt.map_finished(maps[0], 10.0, now=t)
        assert not jt.has_assignable_work()  # finished, not yet announced
        jt.heartbeat(maps[0].node, 0, 0, [maps[0].task_id], now=t + 1)
        assert jt.has_assignable_work()  # the one reduce may start
        _, reduces = jt.heartbeat(2, 0, 8, [], now=t + 2)
        assert len(reduces) == 1
        assert not jt.has_assignable_work()
        assert self._idle_everywhere(jt, t + 3)

    def test_budget_blocked_work_still_counts(self):
        jt = make_jt()
        assert jt.heartbeat(1, 0, 0, [], now=0.0) == ([], [])
        assert jt.has_assignable_work()

    def test_calendar_hears_of_requeues_failures_and_the_end(self):
        jt = make_jt(input_mb=64, reducers=1, config=HadoopConfig(reduce_slowstart=0.0))
        cal = jt.calendar = _RecordingCalendar()
        jt.tracker_registered(1, 0.0)
        assert cal.calls == [("sync", 0.0)]
        jt.heartbeat(1, 8, 0, [], now=1.0)
        cal.calls.clear()
        jt.find_expired(700.0, 600.0)
        jt.lost_tasktracker(1, 700.0)  # the running map requeues
        assert cal.calls == [("sync", 700.0), ("sync", 700.0), "work"]
        assert jt._pending_maps
        cal.calls.clear()
        jt.tracker_registered(2, 701.0)
        maps, reduces = jt.heartbeat(2, 8, 8, [], now=702.0)
        jt.map_finished(maps[0], 10.0, now=703.0)
        jt.reduce_finished(reduces[0])
        assert cal.calls[-1] == "over" and jt.job_done
        cal.calls.clear()
        jt.fail_job("late failure", at=800.0)
        assert cal.calls == ["over"]
