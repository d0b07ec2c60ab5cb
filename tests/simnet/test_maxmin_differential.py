"""Differential + property tests pinning the fast solver AND the
horizon-batched flow engine.

Two independent fast paths must reproduce the reference **bit-for-bit**
— same divisions, same epsilon-tie choices, same floats — under
arbitrary interleavings of flow arrivals, departures, kills, link
flaps, capacity changes and partitions:

* the fast max-min solver (`Network._maxmin_rates_fast`) against the
  from-scratch reference solver, checked synchronously at every op;
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
from repro.simnet.network import DEFAULT_SOLVER, Network, use_solver
from tests.simnet.reference_engine import ReferenceNetwork

NODES = 5
REL_TOL = 1e-6

#: Engine sweep: the production engine and the scalar oracle.
ENGINES = {"reference": ReferenceNetwork, "production": Network}
ENGINE_CASES = [
    pytest.param("reference", id="ref-engine"),
    pytest.param("production", id="vec-engine"),
]


def _build(engine: str = "production"):
    sim = Simulator()
    net = ENGINES[engine](sim, solver="fast")
    ups, dns = [], []
    for n in range(NODES):
        # Deliberately non-uniform capacities: uniform ones hide
        # tie-breaking bugs because every order gives the same shares.
        ups.append(net.add_link(f"n{n}.up", 100e6 * (1 + 0.11 * n)))
        dns.append(net.add_link(f"n{n}.dn", 95e6 * (1 + 0.07 * n)))
    return sim, net, ups, dns


def _check_against_reference(net: Network) -> None:
    """Fast solver's standing rates == a from-scratch reference solve."""
    fast_rates = {f.seq: f.rate for f in net._flows}
    net._maxmin_rates_reference()
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
    — fast or reference solver — must reproduce its checkpoint rates
    and delivered bytes *exactly* (no tolerance: same IEEE operations,
    same results).
    """
    _, ref_log, ref_bytes = _apply_ops(ops, engine="reference")
    for solver in ("fast", "reference"):
        with use_solver(solver):
            _, log, nbytes = _apply_ops(ops, engine="production")
        assert log == ref_log, (
            f"solver={solver} diverged from the reference engine"
        )
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
    """Seeded churn: production checkpoints == oracle checkpoints, exactly."""
    ops = _seeded_ops(seed, 80)
    _, ref_log, ref_bytes = _apply_ops(ops, engine="reference")
    _, vec_log, vec_bytes = _apply_ops(ops, engine="production")
    assert vec_log == ref_log
    assert vec_bytes == ref_bytes


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINE_CASES)
@pytest.mark.parametrize("seed", [7, 40, 1337])
def test_differential_seeded_churn_long(seed, engine):
    """Long churn crosses the BFS population threshold both ways."""
    checks, _, _ = _apply_ops(_seeded_ops(seed, 400), engine=engine)
    assert checks >= 400


def test_solver_flag_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, solver="bogus")
    with pytest.raises(ValueError):
        with use_solver("bogus"):
            pass
    assert Network(sim, solver="reference").solver == "reference"
    assert DEFAULT_SOLVER in ("fast", "reference")


def test_use_solver_restores_default():
    sim = Simulator()
    before = Network(sim).solver
    with use_solver("reference"):
        assert Network(sim).solver == "reference"
    assert Network(sim).solver == before


def test_skip_counter_counts_clean_solves():
    # Pinned to the oracle: its solves are synchronous, so the
    # counters are inspectable right after the call.
    sim, net, ups, dns = _build(engine="reference")
    f = net.transfer_flow((ups[0], dns[1]), 1e6)
    assert net.rate_recomputes == 1
    net._dirty.clear()
    net._maxmin_rates_fast()
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
