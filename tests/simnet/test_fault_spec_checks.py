"""Fault specs and tenant specs reject NaN, infinity and negatives at
construction.

``x <= 0`` is False for NaN, so a sign check alone let
``CrashRate(rate=nan)`` or ``Straggler(at=inf, factor=nan)`` build and
fail later inside the kernel.  Every field below gets NaN, +inf and -1
in turn, with every other field valid.
"""

from __future__ import annotations

import pytest

from repro.cluster import TenantSpec
from repro.simnet.faults import (
    BlockCorruption,
    CrashRate,
    Decommission,
    DiskDegradation,
    DiskFailure,
    FlowLossRate,
    LinkDegradation,
    LinkFlap,
    NetworkPartition,
    NodeCrash,
    Straggler,
)

BAD = {"nan": float("nan"), "inf": float("inf"), "neg": -1}

_STREAM = {"rate": 0.01, "nodes": (1, 2), "start": 0.0, "duration": 10.0}
_SLOWDOWN = {"node": 1, "at": 1.0, "factor": 2.0, "duration": 10.0}

#: spec class -> (valid keyword arguments, fields to corrupt)
SPECS = {
    NodeCrash: ({"node": 1, "at": 5.0, "restart_after": 30.0}, ("node", "at", "restart_after")),
    CrashRate: (
        {"rate": 0.01, "nodes": (1, 2), "restart_after": 30.0, "start": 0.0},
        ("rate", "nodes", "restart_after", "start"),
    ),
    DiskDegradation: (_SLOWDOWN, ("node", "at", "factor", "duration")),
    LinkDegradation: (_SLOWDOWN, ("node", "at", "factor", "duration")),
    Straggler: (_SLOWDOWN, ("node", "at", "factor", "duration")),
    LinkFlap: (
        {"node": 1, "at": 1.0, "duration": 2.0, "flaps": 2, "period": 5.0},
        ("node", "at", "duration", "flaps", "period"),
    ),
    NetworkPartition: ({"nodes": (1, 2), "at": 1.0, "duration": 5.0}, ("nodes", "at", "duration")),
    FlowLossRate: (_STREAM, ("rate", "nodes", "start", "duration")),
    DiskFailure: (_STREAM, ("rate", "nodes", "start", "duration")),
    BlockCorruption: (_STREAM, ("rate", "nodes", "start", "duration")),
    Decommission: ({"node": 1, "at": 0.0}, ("node", "at")),
    TenantSpec: (
        {"name": "a", "rate": 0.1},
        (
            "rate",
            "diurnal_period",
            "burst_size",
            "burst_spacing",
            "min_input_bytes",
            "max_input_bytes",
        ),
    ),
}

CASES = [
    (cls, field, label)
    for cls, (_, fields) in SPECS.items()
    for field in fields
    for label in BAD
]


@pytest.mark.parametrize("cls", SPECS, ids=lambda cls: cls.__name__)
def test_valid_arguments_construct(cls):
    kwargs, _ = SPECS[cls]
    cls(**kwargs)  # the baseline every corrupted case departs from


@pytest.mark.parametrize(
    "cls, field, label",
    CASES,
    ids=[f"{cls.__name__}.{field}={label}" for cls, field, label in CASES],
)
def test_bad_field_is_rejected(cls, field, label):
    kwargs, _ = SPECS[cls]
    value = BAD[label]
    bad = (value,) if field == "nodes" else value
    with pytest.raises(ValueError):
        cls(**{**kwargs, field: bad})


def test_nan_constructions_that_used_to_build_are_rejected():
    with pytest.raises(ValueError):
        CrashRate(rate=float("nan"))
    with pytest.raises(ValueError):
        Straggler(node=1, at=float("inf"), factor=float("nan"))
    with pytest.raises(ValueError):
        TenantSpec(name="a", rate=float("nan"))
