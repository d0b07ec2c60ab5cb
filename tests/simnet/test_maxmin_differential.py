"""Differential + property tests pinning the fast solver AND the
horizon-batched flow engine.

Two independent fast paths must reproduce the reference **bit-for-bit**
— same divisions, same epsilon-tie choices, same floats — under
arbitrary interleavings of flow arrivals, departures, kills, link
flaps, capacity changes and partitions:

* the whole-set max-min solver (`Network._maxmin_rates`) against the
  from-scratch reference solver (`maxmin_rates_reference` in
  ``reference_engine.py``), checked synchronously at every op;
* the production horizon-batching engine (dense slot lists, deferred
  same-instant solve flush, pooled completion ticks) against the
  test-only scalar oracle ``ReferenceNetwork``, checked by replaying
  identical op sequences under both and comparing every checkpoint's
  rates and the final delivered-byte counters exactly.

Max-min structural invariants (capacity respected, caps respected,
every uncapped-below-cap flow has a saturated bottleneck where it gets
a maximal share) are asserted on the same checkpoints.  A final
property pins the kernel's shared-tick coalescing: a traced Hadoop run
streams a byte-identical trace store whether heartbeat timers coalesce
or not.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from tests.simnet.reference_engine import (
    ReferenceNetwork,
    ReferenceSolverNetwork,
    maxmin_rates_reference,
)

NODES = 5
REL_TOL = 1e-6

#: Engine sweep: the scalar oracle engine, the production engine, and
#: the production engine with the from-scratch reference solver.
ENGINES = {
    "reference": ReferenceNetwork,
    "production": Network,
    "reference-solver": ReferenceSolverNetwork,
}
ENGINE_CASES = [
    pytest.param("reference", id="ref-engine"),
    pytest.param("production", id="vec-engine"),
]


def _build(engine: str = "production", nodes: int = NODES, uniform: bool = False):
    sim = Simulator()
    net = ENGINES[engine](sim)
    ups, dns = [], []
    for n in range(nodes):
        # Deliberately non-uniform capacities: uniform ones hide
        # tie-breaking bugs because every order gives the same shares.
        # ``uniform`` gives every link one capacity, to force epsilon ties.
        up = 100e6 if uniform else 100e6 * (1 + 0.11 * n)
        dn = 100e6 if uniform else 95e6 * (1 + 0.07 * n)
        ups.append(net.add_link(f"n{n}.up", up))
        dns.append(net.add_link(f"n{n}.dn", dn))
    return sim, net, ups, dns


def _check_against_reference(net: Network) -> None:
    """Standing rates == a from-scratch reference solve."""
    fast_rates = {f.seq: f.rate for f in net._flows}
    maxmin_rates_reference(net)
    ref_rates = {f.seq: f.rate for f in net._flows}
    assert fast_rates == ref_rates, (
        "fast solver diverged from reference: "
        f"{ {s: (fast_rates[s], ref_rates[s]) for s in fast_rates if fast_rates[s] != ref_rates[s]} }"
    )


def _check_maxmin_invariants(net: Network) -> None:
    links = {l for f in net._flows for l in f.path}
    loads = {l: sum(f.rate for f in l._flows) for l in links}
    for link, load in loads.items():
        assert load <= link.capacity * (1 + REL_TOL), (
            f"{link.name} over capacity: {load} > {link.capacity}"
        )
    for f in net._flows:
        assert f.rate <= f.rate_cap * (1 + REL_TOL), (
            f"flow #{f.seq} above its cap: {f.rate} > {f.rate_cap}"
        )
        if f.rate >= f.rate_cap * (1 - REL_TOL):
            continue  # cap-frozen: its bottleneck is the protocol, not a link
        # Below its cap: some path link must be saturated with this flow
        # taking a maximal share there (the max-min bottleneck property).
        has_bottleneck = False
        for link in f.path:
            saturated = loads[link] >= link.capacity * (1 - REL_TOL)
            maximal = all(
                f.rate >= other.rate * (1 - REL_TOL) for other in link._flows
            )
            if saturated and maximal:
                has_bottleneck = True
                break
        assert has_bottleneck, (
            f"flow #{f.seq} at {f.rate} (cap {f.rate_cap}) has no "
            f"saturated bottleneck on its path"
        )


def _apply_ops(ops, engine: str = "production"):
    """Drive one op sequence under ``engine``.

    Returns ``(checkpoints, rate_log, bytes_delivered)`` where
    ``rate_log`` records ``(sim.now, {flow_seq: rate})`` at every
    checkpoint — the exact-comparison payload for cross-engine sweeps.
    """
    sim, net, ups, dns = _build(engine)
    flows: list = []
    checks = 0
    rate_log: list = []

    def check():
        nonlocal checks
        # The production engine batches same-instant membership churn
        # into one deferred solve; force it now so standing rates are
        # inspectable synchronously (a timeline no-op — see the hook).
        net._settle_pending()
        rate_log.append((sim.now, {f.seq: f.rate for f in net._flows}))
        _check_against_reference(net)
        _check_maxmin_invariants(net)
        checks += 1

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "start":
                _, s, d, size, cap = op
                if s == d:
                    d = (d + 1) % NODES
                f = net.transfer_flow(
                    (ups[s], dns[d]),
                    size,
                    rate_cap=float("inf") if cap is None else cap,
                )
                f.done.defuse()  # kills are intentional here
                flows.append(f)
            elif kind == "kill":
                if flows:
                    net.fail_flow(flows[op[1] % len(flows)], reason="prop-kill")
            elif kind == "down":
                net.set_link_down(ups[op[1]])
            elif kind == "up":
                net.set_link_up(ups[op[1]])
            elif kind == "capacity":
                _, n, scale = op
                net.set_link_capacity(dns[n], 95e6 * scale)
            elif kind == "partition":
                cut = op[1]
                groups = {}
                for i in range(NODES):
                    groups[ups[i]] = 0 if i < cut else 1
                    groups[dns[i]] = 0 if i < cut else 1
                net.set_partition(groups)
            elif kind == "heal":
                net.clear_partition()
            elif kind == "wait":
                yield sim.timeout(op[1])
            check()
        # Let everything drain, checking at a few more quiesce points.
        while net._flows:
            yield sim.timeout(0.05)
            check()

    sim.process(driver(), name="diff-driver")
    sim.run()
    check()
    return checks, rate_log, net.bytes_delivered


_node = st.integers(0, NODES - 1)
_op = st.one_of(
    st.tuples(
        st.just("start"),
        _node,
        _node,
        st.floats(1e3, 5e8),
        st.sampled_from([None, None, 8e5, 2.5e7, 6e7]),
    ),
    st.tuples(st.just("kill"), st.integers(0, 999)),
    st.tuples(st.just("down"), _node),
    st.tuples(st.just("up"), _node),
    st.tuples(st.just("capacity"), _node, st.floats(0.2, 2.5)),
    st.tuples(st.just("partition"), st.integers(1, NODES - 1)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("wait"), st.floats(0.0, 0.4)),
)


@given(st.lists(_op, max_size=30))
@settings(max_examples=40)
def test_differential_random_ops(ops):
    """Hypothesis churn, swept across engines AND solvers.

    The scalar oracle run is the reference: every production-engine run
    — production or reference solver — must reproduce its checkpoint
    rates and delivered bytes *exactly* (no tolerance: same IEEE
    operations, same results).
    """
    _, ref_log, ref_bytes = _apply_ops(ops, engine="reference")
    for engine in ("production", "reference-solver"):
        _, log, nbytes = _apply_ops(ops, engine=engine)
        assert log == ref_log, f"{engine} diverged from the reference engine"
        assert nbytes == ref_bytes


def _seeded_ops(seed: int, count: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            ops.append(
                (
                    "start",
                    rng.randrange(NODES),
                    rng.randrange(NODES),
                    10 ** rng.uniform(3, 8.6),
                    rng.choice([None, None, None, 8e5, 2.5e7, 6e7]),
                )
            )
        elif roll < 0.6:
            ops.append(("kill", rng.randrange(1000)))
        elif roll < 0.68:
            ops.append(("down", rng.randrange(NODES)))
        elif roll < 0.76:
            ops.append(("up", rng.randrange(NODES)))
        elif roll < 0.84:
            ops.append(("capacity", rng.randrange(NODES), rng.uniform(0.2, 2.5)))
        elif roll < 0.88:
            ops.append(("partition", rng.randrange(1, NODES)))
        elif roll < 0.92:
            ops.append(("heal",))
        else:
            ops.append(("wait", rng.uniform(0.0, 0.4)))
    return ops


@pytest.mark.parametrize("engine", ENGINE_CASES)
@pytest.mark.parametrize("seed", [2011, 2012, 2013])
def test_differential_seeded_churn(seed, engine):
    checks, _, _ = _apply_ops(_seeded_ops(seed, 60), engine=engine)
    assert checks >= 60


@pytest.mark.parametrize("seed", [2011, 2013])
def test_cross_engine_rates_and_bytes_exact(seed):
    """Seeded churn: production checkpoints == oracle checkpoints, exactly,
    under both the production and the reference solver."""
    ops = _seeded_ops(seed, 80)
    _, ref_log, ref_bytes = _apply_ops(ops, engine="reference")
    for engine in ("production", "reference-solver"):
        _, log, nbytes = _apply_ops(ops, engine=engine)
        assert log == ref_log, f"{engine} diverged from the reference engine"
        assert nbytes == ref_bytes


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINE_CASES)
@pytest.mark.parametrize("seed", [7, 40, 1337])
def test_differential_seeded_churn_long(seed, engine):
    """Long churn: populations grow and drain many times over."""
    checks, _, _ = _apply_ops(_seeded_ops(seed, 400), engine=engine)
    assert checks >= 400


# -- large populations ------------------------------------------------------

STAR = 8
LOW, HIGH = 50, 120
_INF = float("inf")


def _large_churn(seed: int, uniform: bool, groups, ops: int = 400) -> list[int]:
    """Seeded churn holding 50–120 flows in flight; every flow stays
    inside one node group.  After each op the standing rates must equal
    a from-scratch reference solve exactly.  Returns the flow count at
    each check."""
    sim, net, ups, dns = _build(nodes=STAR, uniform=uniform)
    rng = random.Random(seed)
    live: list = []
    seen: list[int] = []

    def join():
        group = rng.choice(groups)
        src, dst = rng.sample(group, 2)
        cap = rng.choice([8e5, 2.5e6, 6e6, 2.5e7]) if rng.random() < 0.2 else _INF
        size = 10 ** rng.uniform(6, 8.5)
        live.append(net.transfer_flow((ups[src], dns[dst]), size, rate_cap=cap))

    def driver():
        for _ in range(ops):
            live[:] = [f for f in live if not f.done.triggered]
            n = len(live)
            roll = rng.random()
            if n < LOW or (n < HIGH and roll < 0.45):
                join()
            elif n >= HIGH or roll < 0.55:
                net.cancel_flow(live[rng.randrange(n)], reason="leave")
            elif roll < 0.65:
                net.fail_flow(live[rng.randrange(n)], reason="kill")
            elif roll < 0.85:
                links = rng.choice([ups, dns])
                scale = rng.choice([0.5, 1.0]) if uniform else rng.uniform(0.2, 2.5)
                net.set_link_capacity(links[rng.randrange(STAR)], 100e6 * scale)
            else:
                yield sim.timeout(rng.uniform(0.0, 0.01))
            net._settle_pending()
            seen.append(len(net._flows))
            _check_against_reference(net)

    sim.process(driver(), name="large-churn")
    sim.run()
    return seen


_ALL = (tuple(range(STAR)),)
_SPLIT = (tuple(range(STAR // 2)), tuple(range(STAR // 2, STAR)))


@pytest.mark.parametrize(
    "uniform, groups",
    [
        pytest.param(False, _ALL, id="nonuniform"),
        pytest.param(True, _ALL, id="uniform-ties"),
        pytest.param(False, _SPLIT, id="two-groups"),
    ],
)
@pytest.mark.parametrize("seed", [2011, 2012])
def test_large_population_matches_reference(seed, uniform, groups):
    """50–120 concurrent flows, caps on about one flow in five: the
    populations the whole-set solve serves, pinned to the oracle."""
    seen = _large_churn(seed, uniform, groups)
    assert len(seen) == 400
    assert 100 <= max(seen) <= HIGH
    # After the ramp every check solves more than 48 flows.
    assert min(seen[LOW:]) > 48


def test_skip_counter_counts_clean_solves():
    # Pinned to the oracle: its solves are synchronous, so the
    # counters are inspectable right after the call.
    sim, net, ups, dns = _build(engine="reference")
    f = net.transfer_flow((ups[0], dns[1]), 1e6)
    assert net.rate_recomputes == 1
    net._dirty.clear()
    net._maxmin_rates()
    assert net.rate_skips == 1
    assert f.rate > 0


def test_vectorized_defers_solve_to_one_per_instant():
    """Same-instant churn under the production engine costs ONE solve."""
    sim, net, ups, dns = _build(engine="production")
    for i in range(6):
        net.transfer_flow((ups[i % NODES], dns[(i + 1) % NODES]), 1e6)
    # All six arrivals landed at t=0; the solve is still queued.
    assert net.rate_recomputes == 0
    net._settle_pending()
    assert net.rate_recomputes == 1
    # Settling consumed the pending flush; settling again is a no-op.
    net._settle_pending()
    assert net.rate_recomputes == 1


# -- shared-tick coalescing vs streamed trace stores -------------------------


def _streamed_hadoop_store(tmp_path, name: str, coalesce: bool) -> bytes:
    from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
    from repro.hadoop.simulation import HadoopSimulation
    from repro.util.units import MiB

    saved = Simulator.tick
    if not coalesce:

        def unshared_tick(self, delay, cb=None, *, shared=False):
            return saved(self, delay, cb, shared=False)

        Simulator.tick = unshared_tick
    try:
        spec = JobSpec(
            name="coalesce",
            input_bytes=96 * MiB,
            profile=WORDCOUNT_PROFILE,
            num_reduce_tasks=1,
        )
        hsim = HadoopSimulation(spec=spec, config=HadoopConfig(), observe=True)
        path = tmp_path / name
        with hsim.obs.stream_to(path, system="hadoop"):
            hsim.run()
        return path.read_bytes()
    finally:
        Simulator.tick = saved


def test_heartbeat_coalescing_keeps_trace_store_byte_identical(tmp_path):
    """Shared-tick merging is a pure allocation optimization.

    Heartbeat/periodic timers that coalesce into one shared tick must
    dispatch in exactly the order separate ticks would have (append
    order == seq order), so a fully traced run streams a byte-identical
    store with coalescing forced off.
    """
    merged = _streamed_hadoop_store(tmp_path, "merged.jsonl", coalesce=True)
    split = _streamed_hadoop_store(tmp_path, "split.jsonl", coalesce=False)
    assert merged == split
