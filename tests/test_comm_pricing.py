"""One price per transfer: where it is computed, and that nothing recomputes it.

A message's price has one home — ``build_plan`` prices the plan it
returns, on link facts the spec object tabulates once — and everything
downstream (issue, the ``comm_log`` entry, ``predict_time``, ``auto``)
reads that price.  These tests pin the price against a reference
written here from ``topology``/``routing`` alone, and count the work.
"""

from collections import Counter

import pytest

from repro import comm
from repro.analysis import plancheck as plancheck_mod
from repro.analysis.plancheck import certify_plan, clear_verdicts
from repro.comm import plans
from repro.comm.plans import build_plan
from repro.faults import FaultInjector, LinkDegrade, LinkFlap
from repro.machine import routing, spec as spec_mod, topology as topo
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import multinode_p100, routed_multinode_p100
from repro.machine.spec import preset, spec_fingerprint
from repro.serve import Wisdom

PAYLOAD = float(1 << 20)


def _degraded():
    base = multinode_p100(2, gpus_per_node=4)
    inj = FaultInjector(base, scheduled=(
        LinkFlap(0, 1, start=1e-3, end=3e-3),
        LinkDegrade(4, 5, start=1e-3, end=3e-3, bandwidth_scale=0.25,
                    latency_scale=2.0),
    ))
    return inj.degraded_spec(2e-3)


TESTBEDS = {
    "8xP100": lambda: preset("8xP100"),
    "flat2x4": lambda: multinode_p100(2, gpus_per_node=4),
    "r2x8": lambda: routed_multinode_p100(2, gpus_per_node=8, radix=36,
                                          oversubscription=2.0),
    "r4x4": lambda: routed_multinode_p100(4, gpus_per_node=4, radix=8,
                                          oversubscription=2.0),
    "degraded": _degraded,
}


# -- the in-test reference: topology/routing called directly ---------------

def ref_segments(graph, a, b):
    """(contention key, capacity) of each wire segment a -> b crosses."""
    if graph.has_edge(a, b):
        return [(("edge", a, b), graph.edges[a, b]["link"].bandwidth)]
    node_of = graph.graph.get("node_of")
    if node_of is not None and node_of[a] != node_of[b]:
        return [(h.key, h.bandwidth) for h in routing.route_hops(graph, a, b)]
    fb = topo.fallback_link(graph).bandwidth
    return [(("fb-tx", a), fb), (("fb-rx", b), fb)]


def ref_message_times(graph, msgs):
    """Per message: pair latency + bytes / (segment capacity / load)."""
    segs = [ref_segments(graph, m.src, m.dst) for m in msgs]
    load = Counter(key for s in segs for key, _ in s)
    return [
        topo.pair_latency(graph, m.src, m.dst)
        + m.nbytes / min(cap / load[key] for key, cap in s)
        for m, s in zip(msgs, segs)
    ]


def ref_plan_time(graph, plan):
    return sum(max(ref_message_times(graph, r)) for r in plan.rounds)


def _algorithms(spec):
    multinode = bool(spec.graph.graph.get("node_of"))
    return ("direct", "ring", "bruck") + (("hier", "hier2") if multinode else ())


# -- (a) the price is right, and issue and log carry it --------------------

@pytest.mark.parametrize("kind", ["alltoall", "allgather"])
@pytest.mark.parametrize("bed", TESTBEDS)
def test_plan_price_matches_reference_and_is_what_gets_issued(bed, kind):
    spec = TESTBEDS[bed]()
    for algo in _algorithms(spec):
        for chunks in (1, 4) if kind == "alltoall" else (1,):
            part = PAYLOAD / chunks
            plan = build_plan(spec, kind, part, algo)
            assert plan.time == ref_plan_time(spec.graph, plan)
            stored = [spec.p2p_time(m.src, m.dst, m.nbytes, bw, lat)
                      for rnd, prices in zip(plan.rounds, plan.prices)
                      for m, (bw, lat) in zip(rnd, prices)]
            assert stored == [t for r in plan.rounds
                              for t in ref_message_times(spec.graph, r)]

            cl = VirtualCluster(spec, execute=False)
            if kind == "alltoall":
                comm.alltoall(cl, PAYLOAD, "t", reads=["x"], writes=["y"],
                              algorithm=algo, chunks=chunks)
            else:
                comm.allgather(cl, PAYLOAD, "t", reads=["x"], writes=["y"],
                               algorithm=algo)
            # chunks are equal pieces issued back to back, plan order
            assert [r.duration for r in cl.ledger] == stored * chunks
            assert [(r.device, r.peer, r.comm_bytes) for r in cl.ledger] == [
                (m.src, m.dst, m.nbytes) for r in plan.rounds for m in r
            ] * chunks
            (entry,) = cl.comm_log
            assert entry["predicted"] == chunks * plan.time
            assert entry["predicted"] == comm.predict_time(
                spec, kind, PAYLOAD, algo, chunks=chunks)


def test_bulk_and_p2p_predictions_are_the_charged_durations():
    spec = preset("8xP100")
    cl = VirtualCluster(spec, execute=False)
    comm.alltoall(cl, PAYLOAD, "a2a", writes=["y"], chunks=4)
    comm.allgather(cl, PAYLOAD, "ag", writes=["g"])
    comm.sendrecv(cl, 0, 5, PAYLOAD, "p")
    comm.halo_exchange(cl, PAYLOAD, "h", "s", "hb")
    by_name = {}
    for r in cl.ledger:
        by_name.setdefault(r.name, []).append(r.duration)
    log = {e["name"]: e["predicted"] for e in cl.comm_log}
    assert log["a2a"] == 4 * by_name["a2a"][0] == comm.predict_time(
        spec, "alltoall", PAYLOAD, "bulk", chunks=4)
    assert log["ag"] == by_name["ag"][0] == comm.predict_time(
        spec, "allgather", PAYLOAD, "bulk")
    assert [log["p"]] == by_name["p"]
    # a halo keeps its own pricing: worst-path latency, lone pair bandwidth
    assert by_name["h"] == [
        spec.comm_latency() + PAYLOAD / topo.pair_bandwidth(spec.graph, g, d)
        for step in (1, -1) for g in range(8) for d in [(g + step) % 8]]


# -- (b) counting: priced once, tabulated once ------------------------------

@pytest.fixture
def counters(monkeypatch):
    """Call counts of the route walk and the round-pricing function, and
    every plan ``price_plan`` hands back."""
    seen = {"route_hops": 0, "price_round": 0, "plans": []}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            seen[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(routing, "route_hops", "route_hops")
    counting(plans, "price_round", "price_round")
    real_price_plan = plans.price_plan

    def recording(*args):
        plan = real_price_plan(*args)
        seen["plans"].append(plan)
        return plan
    monkeypatch.setattr(plans, "price_plan", recording)
    return seen


def test_second_collective_on_a_spec_walks_no_routes(counters):
    spec = TESTBEDS["r2x8"]()
    for expect_walks in (True, False):
        before = counters["route_hops"]
        cl = VirtualCluster(spec, execute=False)  # a fresh cluster each time
        comm.alltoall(cl, PAYLOAD, "t", writes=["y"], algorithm="auto",
                      chunks=4)
        comm.allgather(cl, PAYLOAD, "g", writes=["z"], algorithm="hier2")
        assert (counters["route_hops"] > before) is expect_walks
    # the table is per ordered inter-node pair, however many messages used it
    inter = 2 * 8 * 8
    assert 0 < counters["route_hops"] <= 3 * inter


def test_auto_prices_each_plan_it_builds_exactly_once(counters):
    spec = TESTBEDS["r2x8"]()
    calls = []
    for _ in range(2):  # a fresh cluster on the same spec object each time
        counters["plans"].clear()
        counters["price_round"] = 0
        cl = VirtualCluster(spec, execute=False)
        comm.alltoall(cl, PAYLOAD, "t", writes=["y"], algorithm="auto",
                      chunks=4)
        built = list(counters["plans"])
        assert counters["price_round"] == sum(len(p.rounds) for p in built)
        calls.append(built)
    first, second = calls
    # first call: one plan per candidate to choose, one per chunk to issue
    # (a certification twin is the stored candidate) -- issuing 4 x
    # (messages) records and logging priced nothing more; second call:
    # the spec object kept the choice and every plan
    ncand = len(comm.candidate_algorithms(spec, "alltoall"))
    assert len(first) == ncand + 4 and second == []
    assert len(cl.ledger) == 4 * first[-1].num_messages


# -- (b') the store: one plan per spec object and argument tuple ------------

def test_stored_plan_is_recertified_after_clear_verdicts(monkeypatch):
    spec = preset("8xP100")
    checks = []
    real = plancheck_mod.check_plan
    monkeypatch.setattr(plancheck_mod, "check_plan",
                        lambda *a: checks.append(1) or real(*a))
    first = build_plan(spec, "alltoall", PAYLOAD, "ring")
    clear_verdicts()
    assert build_plan(spec, "alltoall", PAYLOAD, "ring") is first
    assert len(checks) == 1  # the stored plan went through the full check
    assert build_plan(spec, "alltoall", PAYLOAD, "ring") is first
    assert len(checks) == 1  # then a warm verdict lookup


def test_stored_plan_still_passes_the_gate_on_every_certified_call(monkeypatch):
    spec = preset("8xP100")
    plan = build_plan(spec, "allgather", PAYLOAD, "bruck")
    admitted = []
    real = plancheck_mod.certify_plan
    monkeypatch.setattr(plancheck_mod, "certify_plan",
                        lambda *a: admitted.append(a[1]) or real(*a))
    for _ in range(3):
        assert build_plan(spec, "allgather", PAYLOAD, "bruck") is plan
    assert build_plan(spec, "allgather", PAYLOAD, "bruck", certify=False) is plan
    assert admitted == [plan] * 3


@pytest.mark.parametrize("arg,value,name", [
    ("reads", ("x",), "x"), ("writes", ("z",), "z#s"), ("part", "#t1", "#t1")])
def test_different_buffers_get_a_different_plan(arg, value, name):
    spec = preset("8xP100")
    base = build_plan(spec, "alltoall", PAYLOAD, "direct")
    other = build_plan(spec, "alltoall", PAYLOAD, "direct", **{arg: value})
    assert other is not base and other.time == base.time
    assert build_plan(spec, "alltoall", PAYLOAD, "direct", **{arg: value}) is other
    names = {n for r in other.rounds for m in r for n in m.reads + m.writes}
    assert any(name in n for n in names)


def test_auto_choice_is_kept_per_spec_object(monkeypatch):
    spec = preset("8xP100")
    first = comm.choose_algorithm(spec, "alltoall", PAYLOAD)
    monkeypatch.setattr(comm.tuning, "predict_time",
                        lambda *a, **k: pytest.fail("re-priced a kept choice"))
    assert comm.choose_algorithm(spec, "alltoall", PAYLOAD) == first
    assert spec.plans[("auto", "alltoall", PAYLOAD)] == first


# -- (c) a degraded spec is a new machine -----------------------------------

def test_degraded_spec_prices_its_own_links():
    spec = multinode_p100(2, gpus_per_node=4)
    cl = VirtualCluster(spec, execute=False)
    comm.alltoall(cl, PAYLOAD, "t", writes=["y"], algorithm="direct")
    healthy = spec.pair(4, 5)  # tabulated (and used) on the parent
    inj = FaultInjector(spec, scheduled=(
        LinkDegrade(4, 5, start=0.0, end=1.0, bandwidth_scale=0.25),))
    degraded = inj.degraded_spec(0.5)
    assert degraded.pair(4, 5).bandwidth == 0.25 * healthy.bandwidth
    assert spec.pair(4, 5) is healthy  # the parent's table is untouched
    assert spec.plans and degraded.plans == {}  # the parent's stay with it
    slow = build_plan(degraded, "alltoall", PAYLOAD, "direct")
    fast = build_plan(spec, "alltoall", PAYLOAD, "direct")
    assert slow.time == ref_plan_time(degraded.graph, slow) > fast.time
    assert degraded.plans[("alltoall", PAYLOAD, "direct", (), ("comm",), "")] is slow
    assert fast is not slow and fast is build_plan(spec, "alltoall", PAYLOAD, "direct")
    k = next(i for i, m in enumerate(slow.rounds[0]) if (m.src, m.dst) == (4, 5))
    assert slow.prices[0][k][0] == 0.25 * fast.prices[0][k][0]


# -- (d) one fingerprint per spec object ------------------------------------

def test_fingerprint_ignores_name_and_is_computed_once(monkeypatch):
    from dataclasses import replace

    spec = preset("8xP100")
    assert spec_fingerprint(replace(spec, name="renamed")) == (
        spec_fingerprint(spec))

    hashed = []
    real = spec_mod.hashlib.sha256
    monkeypatch.setattr(spec_mod.hashlib, "sha256",
                        lambda blob: hashed.append(1) or real(blob))
    fresh = preset("8xP100")
    clear_verdicts()
    plan = build_plan(fresh, "alltoall", PAYLOAD, "ring")  # certifies
    certify_plan(fresh, plan, PAYLOAD)
    wisdom = Wisdom()
    wisdom.put(fresh, 1 << 12, "complex128",
               {"P": 1, "ML": 1, "B": 1, "Q": 1}, "ring")
    assert wisdom.get(fresh, 1 << 12, "complex128") is not None
    assert spec_fingerprint(fresh) == spec_fingerprint(spec)
    assert len(hashed) == 1
