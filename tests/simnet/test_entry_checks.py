"""NaN and infinity are rejected where they enter the simulator.

``x < 0`` and ``x <= 0`` are both False for NaN, so a sign check alone
lets NaN through: ``timeout(nan)`` used to fire silently out of order.
Every entry check below is written so that NaN fails it; ±inf is
rejected too, except ``rate_cap=inf``, which means uncapped.
"""

from __future__ import annotations

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.network import Link, Network
from repro.simnet.resources import RateDevice

NAN = float("nan")
INF = float("inf")


def _net(sim):
    net = Network(sim)
    return net, net.add_link("l", 100.0)


def _set_link_capacity(sim, x):
    net, link = _net(sim)
    net.set_link_capacity(link, x)


def _transfer_nbytes(sim, x):
    net, link = _net(sim)
    net.transfer((link,), x)


def _transfer_latency(sim, x):
    net, link = _net(sim)
    net.transfer((link,), 1.0, latency=x)


CASES = {
    "timeout": lambda sim, x: sim.timeout(x),
    "tick": lambda sim, x: sim.tick(x),
    "tick_at": lambda sim, x: sim.tick_at(x),
    "link_capacity": lambda sim, x: Link("l", x),
    "set_link_capacity": _set_link_capacity,
    "transfer_nbytes": _transfer_nbytes,
    "transfer_latency": _transfer_latency,
    "device_rate": lambda sim, x: RateDevice(sim, x),
    "device_set_rate": lambda sim, x: RateDevice(sim, 1.0).set_rate(x),
    "device_transfer": lambda sim, x: RateDevice(sim, 1.0).transfer(x),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(CASES))
def test_non_finite_input_is_rejected(entry, value):
    with pytest.raises(ValueError):
        CASES[entry](Simulator(), value)


@pytest.mark.parametrize("value", [NAN, -INF, 0.0, -1.0], ids=["nan", "-inf", "zero", "neg"])
def test_rate_cap_must_be_positive(value):
    net, link = _net(Simulator())
    with pytest.raises(ValueError):
        net.transfer((link,), 1.0, rate_cap=value)

