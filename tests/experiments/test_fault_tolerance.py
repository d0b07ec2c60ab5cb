"""The fault-tolerance experiment: sweep structure, report, CSV export."""

import math

import pytest

from repro.experiments import fault_tolerance
from repro.experiments.export import fault_tolerance_csv, render_csv
from repro.hadoop import HadoopConfig, run_hadoop_job
from repro.mrmpi import run_mpid_job
from repro.util.units import GiB


@pytest.fixture(scope="module")
def small_result():
    return fault_tolerance.run(
        input_gb=1, seeds=(2011,), rates_per_hour=(10.0, 40.0, 160.0)
    )


class TestRun:
    def test_structure(self, small_result):
        r = small_result
        assert r.rates_per_hour == (10.0, 40.0, 160.0)
        assert set(r.hadoop) == set(r.mpid) == {10.0, 40.0, 160.0}
        assert r.hadoop_clean > r.mpid_clean > 0  # the Fig-6 ordering

    def test_clean_baselines_match_direct_runs(self, small_result):
        spec = fault_tolerance.wordcount_spec(1 * GiB)
        cfg = HadoopConfig(
            map_slots=7, reduce_slots=7, tasktracker_expiry_interval=60.0
        )
        assert small_result.hadoop_clean == pytest.approx(
            run_hadoop_job(spec, config=cfg, seed=2011).elapsed
        )
        assert small_result.mpid_clean == pytest.approx(
            run_mpid_job(spec, config=fault_tolerance.MrMpiConfig(
                num_mappers=49, num_reducers=1)).elapsed
        )

    def test_faults_never_speed_things_up(self, small_result):
        r = small_result
        for rate in r.rates_per_hour:
            assert r.hadoop[rate] >= r.hadoop_clean or math.isinf(r.hadoop[rate])
            assert r.mpid[rate] >= r.mpid_clean or math.isinf(r.mpid[rate])

    def test_deterministic(self, small_result):
        again = fault_tolerance.run(
            input_gb=1, seeds=(2011,), rates_per_hour=(10.0, 40.0, 160.0)
        )
        assert again.hadoop == small_result.hadoop
        assert again.mpid == small_result.mpid
        assert again.hadoop_faults == small_result.hadoop_faults

    def test_default_sweep_reports_a_crossover(self):
        """The acceptance headline: the default configuration must find
        the rate where Hadoop's recovery beats MPI-D's rerun."""
        r = fault_tolerance.run(seeds=(2011,))
        cross = r.crossover_rate()
        assert cross is not None
        assert r.rates_per_hour[0] <= cross <= r.rates_per_hour[-1]


class TestCrossover:
    def _mk(self, rates, hadoop, mpid):
        r = fault_tolerance.FaultToleranceResult(
            input_gb=1, rates_per_hour=tuple(rates), seeds=(1,),
            expiry_interval=60.0, restart_after=30.0, checkpoint_interval=None,
        )
        r.hadoop = dict(zip(rates, hadoop))
        r.mpid = dict(zip(rates, mpid))
        return r

    def test_interpolates_between_brackets(self):
        r = self._mk([10.0, 20.0], [100.0, 100.0], [90.0, 130.0])
        # diff goes -10 -> +30: crossing a quarter of the way in.
        assert r.crossover_rate() == pytest.approx(12.5)

    def test_mpid_dnf_counts_as_crossover(self):
        r = self._mk([10.0, 20.0], [100.0, 120.0], [90.0, float("inf")])
        assert r.crossover_rate() == 20.0

    def test_no_crossover_returns_none(self):
        r = self._mk([10.0, 20.0], [100.0, 110.0], [50.0, 60.0])
        assert r.crossover_rate() is None

    def test_hadoop_dnf_is_not_a_win(self):
        r = self._mk([10.0, 20.0], [float("inf"), float("inf")], [50.0, 60.0])
        assert r.crossover_rate() is None


class TestReport:
    def test_report_renders(self, small_result):
        text = fault_tolerance.format_report(small_result)
        assert "Fault tolerance" in text
        assert "crashes/node-hr" in text
        assert "0 (clean)" in text
        assert ("crossover" in text) or ("no crossover" in text)
        assert "expiry lowered" in text

    def test_dnf_rendered_not_inf(self):
        assert fault_tolerance._fmt_time(float("inf"), 2, 3) == "DNF (2/3)"
        assert fault_tolerance._fmt_time(10.0, 1, 3) == "10.0*"
        assert fault_tolerance._fmt_time(10.0, 0, 3) == "10.0"


class TestCsvExport:
    def test_shape_and_rendering(self, small_result):
        header, rows = fault_tolerance_csv(small_result)
        assert header[0] == "crashes_per_node_hour"
        assert len(rows) == 1 + len(small_result.rates_per_hour)
        assert rows[0][0] == 0.0  # the clean baseline row
        for row in rows:
            assert len(row) == len(header)
            for cell in row:  # inf must never leak into the CSV
                if isinstance(cell, str):
                    continue  # DNF blanks and the failure-why text
                assert not math.isinf(cell)
        text = render_csv(header, rows)
        assert text.splitlines()[0].startswith("crashes_per_node_hour,")
        assert "inf" not in text
