"""Tests for the cluster builder and the paper testbed defaults."""

import pytest

from repro.simnet.cluster import Cluster, ClusterSpec, paper_cluster
from repro.simnet.kernel import Simulator
from repro.util.units import GiB, MiB


class TestSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 8
        assert spec.cores_per_node == 8
        assert spec.memory_bytes == 16 * GiB

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            ClusterSpec(link_bandwidth=0)
        with pytest.raises(ValueError):
            ClusterSpec(link_latency=-1)


class TestCluster:
    def test_paper_cluster_shape(self):
        sim = Simulator()
        cluster = paper_cluster(sim)
        assert len(cluster) == 8
        assert cluster.node(3).name == "node3"
        assert cluster.node(0).cpus.capacity == 8

    def test_remote_send_uses_both_links(self):
        sim = Simulator()
        cluster = Cluster(
            sim, ClusterSpec(num_nodes=2, link_bandwidth=100.0, link_latency=0.0)
        )

        def proc(sim):
            yield cluster.send(0, 1, 500.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(5.0)

    def test_local_send_is_latency_only(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=2, link_bandwidth=100.0))

        def proc(sim):
            yield cluster.send(1, 1, 10 * GiB, extra_latency=0.125)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(0.125)

    def test_link_latency_charged_on_remote(self):
        sim = Simulator()
        spec = ClusterSpec(num_nodes=2, link_bandwidth=100.0, link_latency=0.5)
        cluster = Cluster(sim, spec)

        def proc(sim):
            yield cluster.send(0, 1, 100.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(1.5)

    def test_full_duplex_no_interference(self):
        """A->B and B->A simultaneously each get full bandwidth."""
        sim = Simulator()
        cluster = Cluster(
            sim, ClusterSpec(num_nodes=2, link_bandwidth=100.0, link_latency=0.0)
        )
        done = []

        def proc(sim, src, dst):
            yield cluster.send(src, dst, 100.0)
            done.append(sim.now)

        sim.process(proc(sim, 0, 1))
        sim.process(proc(sim, 1, 0))
        sim.run()
        assert done == pytest.approx([1.0, 1.0])

    def test_disk_io(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_nodes=1, disk_bandwidth=100.0))
        node = cluster.node(0)

        def proc(sim):
            yield node.disk_read(200.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(2.0)

    def test_random_io_pays_seek(self):
        sim = Simulator()
        spec = ClusterSpec(num_nodes=1, disk_bandwidth=100.0, disk_seek=0.5)
        cluster = Cluster(sim, spec)

        def proc(sim):
            yield cluster.node(0).disk_write(100.0, sequential=False)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(1.5)

