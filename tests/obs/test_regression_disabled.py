"""Observability must be free: traced and untraced runs agree bit-for-bit.

The observer never schedules simulator events and never consumes
randomness, so ``observe=True`` may not move a single simulated
timestamp.  These tests pin that: the headline Figure-6 numbers are
*exactly* equal (``==`` on floats, no tolerance) with tracing on and
off, and the untraced numbers match the values the seed produced before
the observability subsystem existed.
"""

import pytest

from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
from repro.hadoop.simulation import HadoopSimulation
from repro.mrmpi import MrMpiConfig
from repro.mrmpi.simulator import MpiJobAborted, MrMpiSimulation
from repro.simnet.cluster import ClusterSpec
from repro.simnet.faults import DiskFailure, FaultPlan, FlowLossRate
from repro.simnet.kernel import Simulator
from repro.util.units import GiB

# Figure-6 1 GB WordCount makespans of the pre-observability seed.
HADOOP_1GB = 45.882213377859564
MPID_1GB = 7.795975713962058


def _spec() -> JobSpec:
    return JobSpec(
        name="wordcount-1g",
        input_bytes=GiB,
        profile=WORDCOUNT_PROFILE,
        num_reduce_tasks=1,
    )


def _hadoop(observe: bool) -> float:
    sim = HadoopSimulation(
        spec=_spec(),
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        seed=2011,
        observe=observe,
    )
    return sim.run().elapsed


def _mpid(observe: bool) -> float:
    sim = MrMpiSimulation(
        spec=_spec(),
        config=MrMpiConfig(num_mappers=49, num_reducers=1),
        observe=observe,
    )
    return sim.run().elapsed


class TestZeroCostWhenDisabled:
    def test_simulator_defaults_to_null_observer(self):
        sim = Simulator()
        assert sim.obs.enabled is False
        assert sim.obs.tracer.begin("c", "s") == 0

    def test_hadoop_bit_for_bit(self):
        off, on = _hadoop(observe=False), _hadoop(observe=True)
        assert off == on  # exact float equality, not approx
        assert off == HADOOP_1GB

    def test_mpid_bit_for_bit(self):
        off, on = _mpid(observe=False), _mpid(observe=True)
        assert off == on
        assert off == MPID_1GB

    def test_untraced_run_records_nothing(self):
        sim = HadoopSimulation(
            spec=_spec(),
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            seed=2011,
        )
        sim.run()
        assert len(sim.sim.obs.tracer) == 0
        assert len(sim.sim.obs.metrics) == 0

    def test_traced_run_records_every_layer(self):
        sim = HadoopSimulation(
            spec=_spec(),
            config=HadoopConfig(map_slots=7, reduce_slots=7),
            seed=2011,
            observe=True,
        )
        sim.run()
        obs = sim.obs
        assert {"kernel", "net", "hadoop.job", "hadoop.map", "hadoop.reduce",
                "transport.jetty"} <= obs.tracer.categories()
        assert obs.tracer.open_spans() == []  # everything closed at job end
        assert obs.metrics.counter("hadoop.maps_finished").value == pytest.approx(16)


# -- full MPI-D exports, untraced vs traced, on the fault and contention paths


def _mpid_export(observe: bool, **kw):
    """``(to_dict() export, simulation)`` of one 1 GB MPI-D WordCount run.

    An aborted job still exports: its partial metrics ride on the
    exception.
    """
    kw.setdefault("config", MrMpiConfig(num_mappers=49, num_reducers=1))
    sim = MrMpiSimulation(spec=_spec(), observe=observe, **kw)
    try:
        metrics = sim.run()
    except MpiJobAborted as exc:
        metrics = exc.metrics
    return metrics.to_dict(), sim


def _identical_exports(**kw):
    """The untraced export (asserted equal to the traced one) and both runs."""
    off, untraced = _mpid_export(False, **kw)
    on, traced = _mpid_export(True, **kw)
    assert off == on
    return off, untraced, traced


class TestTracedExportsOnFaultPaths:
    """Faults and contended cores put the mapper on the general path,
    traced or not; its exports must not depend on the observer."""

    _LOSS = FaultPlan(specs=(FlowLossRate(rate=10.0),), seed=2011)

    def test_flow_loss_aborts_identically(self):
        export, _, _ = _identical_exports(fault_plan=self._LOSS)
        assert export["faults"]["flows_lost"] == 7
        assert export["faults"]["aborted"]

    def test_reliable_transport_retransmits_identically(self):
        export, _, _ = _identical_exports(
            fault_plan=self._LOSS,
            config=MrMpiConfig(
                num_mappers=49, num_reducers=1, reliable_transport=True
            ),
        )
        assert export["faults"]["retransmits"] == 7
        assert not export["faults"]["aborted"]

    def test_disk_failover_reads_identically(self):
        plan = FaultPlan(
            specs=(DiskFailure(rate=2000 / 3600, nodes=tuple(range(1, 8))),),
            seed=2012,
        )
        _, untraced, traced = _identical_exports(
            fault_plan=plan,
            config=MrMpiConfig(
                num_mappers=49, num_reducers=1, input_replication=2
            ),
        )
        assert untraced.storage.read_failovers == 8
        assert traced.storage.read_failovers == 8

    def test_contended_cores_run_identically(self):
        export, _, traced = _identical_exports(
            config=MrMpiConfig(num_mappers=64, num_reducers=4),
            cluster_spec=ClusterSpec(num_nodes=8, cores_per_node=2),
        )
        assert export["summary"]["mappers"] == 64
        queued = [
            traced.obs.metrics.histogram(f"slots.node{n}.cpus.queued").vmax
            for n in range(1, 8)
        ]
        assert max(queued) > 0  # mappers really waited for a core
