"""The static plan verifier: healthy matrix, seeded mutations, caching.

The checker is only trustworthy if it (a) certifies every plan the
builders produce on every topology class with zero findings, and
(b) provably catches planted defects with the right category.  Both
halves live here.
"""

from dataclasses import replace

import pytest

from repro.analysis.plancheck import (
    DEFAULT_G_LIST,
    PlanCertificate,
    PlanCheckError,
    _cross_check_model,
    _VERDICTS,
    certify_plan,
    check_bulk,
    check_plan,
    clear_verdicts,
    verify_matrix,
)
from repro.comm.plans import CommPlan, build_plan
from repro.faults.injector import FaultInjector, LinkDegrade, LinkFlap
from repro.machine import topology as topo
from repro.machine.multinode import multinode_p100, routed_multinode_p100
from repro.machine.spec import (
    NVLINK_P100_LINK,
    P100,
    ClusterSpec,
    dgx1_p100,
    spec_fingerprint,
)
from repro.util.validation import ParameterError

PAYLOAD = float(1 << 20)


def flat(G):
    return ClusterSpec(device=P100, num_devices=G,
                       graph=topo.fully_connected(G, NVLINK_P100_LINK),
                       name=f"{G}xP100 flat")


def plan_for(spec, kind, algorithm, payload=PAYLOAD):
    return build_plan(spec, kind, payload, algorithm,
                      reads=("x",), certify=False)


def mutate(plan, rounds):
    return CommPlan(algorithm=plan.algorithm, kind=plan.kind,
                    rounds=tuple(rounds), chained=plan.chained)


def rules_of(cert):
    return sorted({f.rule for f in cert.findings})


def categories_of(cert):
    return sorted({f.category for f in cert.findings})


# ---------------------------------------------------------------------------
# healthy plans certify with zero findings
# ---------------------------------------------------------------------------

FLAT_SPECS = [flat(G) for G in (2, 3, 4, 5, 8, 16)]
MULTI_SPECS = [multinode_p100(2, gpus_per_node=2),
               multinode_p100(2, gpus_per_node=4),
               multinode_p100(3, gpus_per_node=2),
               dgx1_p100()]
#: routed fat-tree machines: radix 4 -> 2 nodes/leaf, so the 5-node row
#: crosses the spine; uneven gpus_per_node is covered by MULTI_SPECS[2]
ROUTED_SPECS = [routed_multinode_p100(2, gpus_per_node=4, radix=4),
                routed_multinode_p100(5, gpus_per_node=2, radix=4,
                                      oversubscription=2.0)]
#: the fabrics of the Sec. 7 row ``multinode_crossover``: 16-256 devices,
#: 4 per node, on a radix-36 fat tree with 2x oversubscribed uplinks
FAT_TREE_SWEEP = [routed_multinode_p100(G // 4, gpus_per_node=4, radix=36,
                                        oversubscription=2.0)
                  for G in (16, 32, 64, 128, 256)]


@pytest.mark.parametrize("kind", ["alltoall", "allgather"])
@pytest.mark.parametrize("algorithm", ["direct", "ring", "bruck"])
@pytest.mark.parametrize("spec", FLAT_SPECS + MULTI_SPECS,
                         ids=lambda s: s.name)
def test_healthy_plans_certify(spec, kind, algorithm):
    cert = check_plan(spec, plan_for(spec, kind, algorithm), PAYLOAD)
    assert cert.ok, cert.render()


@pytest.mark.parametrize("kind", ["alltoall", "allgather"])
@pytest.mark.parametrize("spec", MULTI_SPECS[:3], ids=lambda s: s.name)
def test_healthy_hier_plans_certify(spec, kind):
    cert = check_plan(spec, plan_for(spec, kind, "hier"), PAYLOAD)
    assert cert.ok, cert.render()


@pytest.mark.parametrize("kind", ["alltoall", "allgather"])
@pytest.mark.parametrize("spec", MULTI_SPECS[:3] + ROUTED_SPECS + FAT_TREE_SWEEP,
                         ids=lambda s: s.name)
def test_healthy_hier2_plans_certify(spec, kind):
    cert = check_plan(spec, plan_for(spec, kind, "hier2"), PAYLOAD)
    assert cert.ok, cert.render()


@pytest.mark.parametrize("kind", ["alltoall", "allgather"])
@pytest.mark.parametrize("algorithm", ["direct", "ring", "bruck"])
@pytest.mark.parametrize("spec", ROUTED_SPECS, ids=lambda s: s.name)
def test_healthy_plans_certify_on_routed_fabrics(spec, kind, algorithm):
    cert = check_plan(spec, plan_for(spec, kind, algorithm), PAYLOAD)
    assert cert.ok, cert.render()


def test_degraded_topology_plans_certify():
    base = multinode_p100(2, gpus_per_node=4)
    inj = FaultInjector(base, scheduled=(
        LinkFlap(0, 1, start=1e-3, end=3e-3),
        LinkDegrade(4, 5, start=1e-3, end=3e-3, bandwidth_scale=0.25),
    ))
    spec = inj.degraded_spec(2e-3)
    assert spec_fingerprint(spec) != spec_fingerprint(base)
    for kind in ("alltoall", "allgather"):
        for algorithm in ("direct", "ring", "bruck", "hier"):
            cert = check_plan(spec, plan_for(spec, kind, algorithm), PAYLOAD)
            assert cert.ok, cert.render()


def test_bulk_certificate_trivially_ok():
    cert = check_bulk(flat(4), "alltoall", PAYLOAD)
    assert cert.ok
    assert cert.algorithm == "bulk"
    assert cert.num_messages == 0


def test_prealloc_contract():
    spec = flat(4)
    a2a = check_plan(spec, plan_for(spec, "alltoall", "ring"), PAYLOAD)
    # every device ends holding exactly its received payload
    assert a2a.prealloc["per_device_final_bytes"] == [PAYLOAD] * 4
    assert a2a.prealloc["peak_live_bytes"] >= PAYLOAD
    ag = check_plan(spec, plan_for(spec, "allgather", "bruck"), PAYLOAD)
    assert ag.prealloc["per_device_final_bytes"] == [4 * PAYLOAD] * 4
    assert ag.prealloc["peak_live_bytes"] == 4 * PAYLOAD
    # hier staging on the leader exceeds the flat footprint
    mspec = multinode_p100(2, gpus_per_node=4)
    hier = check_plan(mspec, plan_for(mspec, "alltoall", "hier"), PAYLOAD)
    assert hier.prealloc["peak_live_bytes"] > PAYLOAD


# ---------------------------------------------------------------------------
# seeded mutations: each planted defect found, correctly categorized
# ---------------------------------------------------------------------------

class TestSeededMutations:
    spec = flat(8)

    def check(self, plan):
        return check_plan(self.spec, plan, PAYLOAD)

    def test_dropped_message_is_conservation(self):
        plan = plan_for(self.spec, "alltoall", "ring")
        rounds = list(plan.rounds)
        rounds[2] = rounds[2][1:]  # drop one forward
        cert = self.check(mutate(plan, rounds))
        assert not cert.ok
        assert "conservation-missing" in rules_of(cert)

    def test_dropped_allgather_message_is_conservation(self):
        plan = plan_for(self.spec, "allgather", "ring")
        rounds = list(plan.rounds)
        rounds[3] = rounds[3][2:]
        cert = self.check(mutate(plan, rounds))
        assert "conservation-missing" in rules_of(cert)

    def test_duplicated_block_is_conservation(self):
        plan = plan_for(self.spec, "alltoall", "direct")
        rounds = list(plan.rounds)
        rounds[1] = rounds[1] + (rounds[1][0],)  # same block sent twice
        cert = self.check(mutate(plan, rounds))
        assert "conservation-duplicate" in rules_of(cert)
        # the twin sends also compete for one receive slot
        assert "deadlock-unmatched" in rules_of(cert)

    def test_reversed_round_dependency_is_deadlock(self):
        plan = plan_for(self.spec, "alltoall", "ring")
        rounds = list(plan.rounds)
        rounds[1], rounds[2] = rounds[2], rounds[1]  # forward before receive
        cert = self.check(mutate(plan, rounds))
        assert "deadlock-cycle" in rules_of(cert)
        assert "deadlock" in categories_of(cert)

    def test_orphaned_subresource_read_is_liveness(self):
        plan = plan_for(self.spec, "alltoall", "bruck")
        rounds = list(plan.rounds)
        m = rounds[1][0]  # point one staging read at a part nobody writes
        rounds[1] = (replace(m, reads=m.reads[:-1] + ("x#via0@9",)),) \
            + rounds[1][1:]
        cert = self.check(mutate(plan, rounds))
        assert rules_of(cert) == ["liveness-undefined-read"]

    def test_corrupted_bytes_is_conservation(self):
        plan = plan_for(self.spec, "alltoall", "ring")
        rounds = list(plan.rounds)
        m = rounds[0][0]
        rounds[0] = (replace(m, nbytes=m.nbytes * 2),) + rounds[0][1:]
        cert = self.check(mutate(plan, rounds))
        assert rules_of(cert) == ["conservation-bytes"]

    def test_unconsumed_staging_store_is_dead_store(self):
        plan = plan_for(self.spec, "alltoall", "ring")
        rounds = list(plan.rounds)
        m = rounds[0][0]  # rename the staging write so nothing reads it
        rounds[0] = (replace(m, writes=tuple(
            w + "~dead" if "#via" in w else w for w in m.writes)),) \
            + rounds[0][1:]
        cert = self.check(mutate(plan, rounds))
        assert "liveness-dead-store" in rules_of(cert)

    def test_bad_routing_distance_is_deadlock(self):
        plan = plan_for(self.spec, "alltoall", "bruck")
        rounds = list(plan.rounds)
        m = rounds[0][0]  # distance 3 is not a power of two
        rounds[0] = (replace(m, dst=(m.src + 3) % 8),) + rounds[0][1:]
        cert = self.check(mutate(plan, rounds))
        assert "deadlock-routing" in rules_of(cert)

    def test_self_send_and_bad_endpoint_are_malformed(self):
        plan = plan_for(self.spec, "alltoall", "direct")
        rounds = list(plan.rounds)
        m = rounds[0][0]
        rounds[0] = (replace(m, dst=m.src), replace(m, dst=99)) \
            + rounds[0][2:]
        cert = self.check(mutate(plan, rounds))
        assert "deadlock-malformed" in rules_of(cert)

    def test_lost_device_blocks_rendezvous(self):
        plan = plan_for(self.spec, "alltoall", "ring")
        cert = check_plan(self.spec, plan, PAYLOAD, lost={3})
        assert "deadlock-lost-device" in rules_of(cert)

    def test_empty_plan_is_malformed(self):
        plan = plan_for(self.spec, "alltoall", "direct")
        cert = self.check(mutate(plan, ()))
        assert rules_of(cert) == ["deadlock-malformed"]

    def test_dropped_internode_round_is_conservation(self):
        # hier2 with a whole node-pair exchange round removed: every
        # block crossing that pair is stranded in relay staging
        mspec = multinode_p100(3, gpus_per_node=2)
        plan = plan_for(mspec, "alltoall", "hier2")
        # drop the first inter-node exchange round (writes into #x parts)
        exchange = [k for k, r in enumerate(plan.rounds)
                    if any("#x" in w for m in r for w in m.writes)]
        assert exchange, "hier2 plan must have inter-node exchange rounds"
        rounds = list(plan.rounds)
        del rounds[exchange[0]]
        cert = check_plan(mspec, mutate(plan, rounds), PAYLOAD)
        assert not cert.ok
        assert "conservation-missing" in rules_of(cert)

    def test_lost_whole_node_is_deadlock(self):
        mspec = multinode_p100(3, gpus_per_node=2)
        plan = plan_for(mspec, "alltoall", "hier2")
        cert = check_plan(mspec, plan, PAYLOAD, lost={2, 3})  # node 1
        assert not cert.ok
        assert "deadlock-lost-device" in rules_of(cert)

    def test_missized_gather_block_is_conservation(self):
        mspec = multinode_p100(2, gpus_per_node=4)
        plan = plan_for(mspec, "alltoall", "hier2")
        rounds = list(plan.rounds)
        found = False
        for k, rnd in enumerate(rounds):
            for i, m in enumerate(rnd):
                if any("#g" in w for w in m.writes):  # a phase-1 gather
                    rounds[k] = rnd[:i] + (replace(m, nbytes=m.nbytes / 2),) \
                        + rnd[i + 1:]
                    found = True
                    break
            if found:
                break
        assert found, "hier2 plan must have gather messages"
        cert = check_plan(mspec, mutate(plan, rounds), PAYLOAD)
        assert not cert.ok
        assert "conservation-bytes" in rules_of(cert)

    def test_hier2_non_relay_exchange_is_routing_violation(self):
        mspec = multinode_p100(2, gpus_per_node=4)
        plan = plan_for(mspec, "alltoall", "hier2")
        rounds = list(plan.rounds)
        found = False
        for k, rnd in enumerate(rounds):
            for i, m in enumerate(rnd):
                if any("#x" in w for w in m.writes):  # an exchange message
                    # reroute it through a device that is not the relay
                    rounds[k] = rnd[:i] + (replace(m, dst=(m.dst + 1) % 8),) \
                        + rnd[i + 1:]
                    found = True
                    break
            if found:
                break
        assert found
        cert = check_plan(mspec, mutate(plan, rounds), PAYLOAD)
        assert "deadlock-routing" in rules_of(cert)

    def test_cross_node_routing_violation(self):
        mspec = multinode_p100(2, gpus_per_node=4)
        plan = plan_for(mspec, "alltoall", "hier")
        rounds = list(plan.rounds)
        # retarget a non-leader's funnel send across nodes: illegal
        found = False
        for k, rnd in enumerate(rounds):
            for i, m in enumerate(rnd):
                if m.src == 1 and m.dst == 0:  # non-leader -> its leader
                    rounds[k] = rnd[:i] + (replace(m, dst=5),) + rnd[i + 1:]
                    found = True
                    break
            if found:
                break
        assert found
        cert = check_plan(mspec, mutate(plan, rounds), PAYLOAD)
        assert "deadlock-routing" in rules_of(cert)


# ---------------------------------------------------------------------------
# the build_plan admission gate and its verdict cache
# ---------------------------------------------------------------------------

class TestCertifyPlan:
    def test_build_plan_certifies_by_default(self):
        clear_verdicts()
        spec = flat(4)
        build_plan(spec, "alltoall", PAYLOAD, "ring", reads=("x",))
        key = (spec_fingerprint(spec), "alltoall", "ring")
        assert key in _VERDICTS
        assert _VERDICTS[key].ok

    def test_verdict_cached_per_structure(self):
        clear_verdicts()
        spec = flat(4)
        plan = plan_for(spec, "alltoall", "bruck")
        c1 = certify_plan(spec, plan, PAYLOAD)
        c2 = certify_plan(spec, plan, PAYLOAD / 2)  # payload-linear: hit
        assert c1 is c2
        assert len(_VERDICTS) == 1

    def test_mutated_plan_raises_plancheck_error(self):
        clear_verdicts()
        spec = flat(4)
        plan = plan_for(spec, "alltoall", "ring")
        bad = mutate(plan, plan.rounds[1:])
        with pytest.raises(PlanCheckError, match="conservation"):
            certify_plan(spec, bad, PAYLOAD)
        clear_verdicts()

    def test_plancheck_error_is_parameter_error(self):
        assert issubclass(PlanCheckError, ParameterError)

    def test_model_cross_check_flags_wire_drift(self):
        # hand the cross-check a certificate claiming health, with a plan
        # whose wire bytes disagree with a freshly built twin
        spec = flat(4)
        plan = plan_for(spec, "alltoall", "ring")
        short = mutate(plan, plan.rounds[:-1])
        cert = PlanCertificate(
            algorithm="ring", kind="alltoall", num_devices=4,
            payload=PAYLOAD, wire_bytes=short.wire_bytes(),
            num_messages=short.num_messages, num_rounds=len(short.rounds),
            findings=(), prealloc={}, fingerprint=spec_fingerprint(spec))
        checked = _cross_check_model(spec, short, PAYLOAD, cert)
        assert any(f.rule == "conservation-model-drift"
                   for f in checked.findings)
        healthy = _cross_check_model(
            spec, plan, PAYLOAD, replace(cert, wire_bytes=plan.wire_bytes()))
        assert healthy.ok


# ---------------------------------------------------------------------------
# the repro-verify sweep
# ---------------------------------------------------------------------------

def test_verify_matrix_small_is_clean():
    rows, findings = verify_matrix(g_list=(2, 4), payload=PAYLOAD)
    assert findings == []
    assert all(r["ok"] for r in rows)
    algos = {r["algorithm"] for r in rows}
    assert algos == {"bulk", "direct", "ring", "bruck", "hier", "hier2"}
    specs = {r["spec"] for r in rows}
    assert {"flat2", "flat4", "nodes2x2", "nodes2x4-degraded",
            "dgx1-degraded", "routed4x4-nodeloss"} <= specs
    # certificates double as the preallocation contract
    for r in rows:
        assert r["prealloc"]["peak_live_bytes"] >= 0


def test_default_g_list_matches_acceptance_matrix():
    assert DEFAULT_G_LIST == (2, 4, 8, 16, 64, 256)


def test_certificate_render_and_json():
    spec = flat(4)
    cert = check_plan(spec, plan_for(spec, "alltoall", "ring"), PAYLOAD)
    assert "certified" in cert.render()
    doc = cert.to_json()
    assert doc["ok"] is True
    assert doc["G"] == 4
    assert doc["fingerprint"] == spec_fingerprint(spec)
