"""MPI-over-InfiniBand cost model (paper future work (4)).

"(4) to utilize high performance interconnects such as the Infiniband
and datacenter networks" — and the paper's Related Work leans on Sur et
al.'s result that IB already helps HDFS.  This transport models MVAPICH-
class MPI on 2010-era DDR InfiniBand: ~2 µs small-message latency
(user-level communication, no kernel TCP stack — the "order of
magnitude" win of [11]), ~1.5 GB/s saturated bandwidth, RDMA rendezvous
for large messages.

Used by :mod:`repro.experiments.interconnect_whatif` to answer: how much
more would MPI-D gain if the cluster had IB instead of GigE?
"""

from __future__ import annotations

from repro.transports.base import Transport, WireCosts
from repro.util.units import KiB

#: DDR IB 4x, 2010: 16 Gbit/s signal, ~1.5 GB/s MPI payload bandwidth.
IB_BANDWIDTH = 1.5e9
IB_LATENCY_0 = 2e-6
IB_EAGER_LIMIT = 12 * KiB  # MVAPICH default
IB_RNDV_HANDSHAKE = 4e-6
IB_STREAM_PER_MSG = 0.6e-6


class InfinibandTransport(Transport):
    """``MPI_Send``/``MPI_Recv`` over RDMA-capable DDR InfiniBand."""

    name = "MPI/InfiniBand"
    jitter_sigma = 0.01

    def __init__(
        self,
        latency_0: float = IB_LATENCY_0,
        peak_bandwidth: float = IB_BANDWIDTH,
        eager_limit: int = IB_EAGER_LIMIT,
        rndv_handshake: float = IB_RNDV_HANDSHAKE,
        stream_per_msg: float = IB_STREAM_PER_MSG,
    ):
        if latency_0 <= 0 or peak_bandwidth <= 0:
            raise ValueError("IB model constants must be positive")
        self.latency_0 = latency_0
        self.peak_bandwidth = peak_bandwidth
        self.eager_limit = int(eager_limit)
        self.rndv_handshake = rndv_handshake
        self.stream_per_msg = stream_per_msg

    def latency(self, nbytes: int) -> float:
        self._check_size(nbytes)
        if nbytes <= self.eager_limit:
            return self.latency_0 + nbytes / self.peak_bandwidth
        return self.latency_0 + self.rndv_handshake + nbytes / self.peak_bandwidth

    def packet_stream_cost(self, packet_bytes: int) -> float:
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {packet_bytes}")
        return max(self.stream_per_msg, packet_bytes / self.peak_bandwidth)

    def wire_costs(self, nbytes: int) -> WireCosts:
        self._check_size(nbytes)
        setup = self.latency_0 + (
            self.rndv_handshake if nbytes > self.eager_limit else 0.0
        )
        return WireCosts(
            setup_time=setup, wire_bytes=float(nbytes), rate_cap=self.peak_bandwidth
        )
