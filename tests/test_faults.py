"""Fault injection: validation, determinism, scales, degraded topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    DeviceLoss,
    FaultEvent,
    FaultInjector,
    LinkDegrade,
    LinkFlap,
    Straggler,
    seeded_chaos,
)
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node, preset
from repro.util.validation import ParameterError


def spec4():
    return p100_nvlink_node(4)


class TestValidation:
    def test_bad_windows(self):
        with pytest.raises(ParameterError):
            LinkFlap(0, 1, 2.0, 1.0)
        with pytest.raises(ParameterError):
            Straggler(0, -1.0, 1.0)

    def test_bad_scales(self):
        with pytest.raises(ParameterError):
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=0.0)
        with pytest.raises(ParameterError):
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=1.5)
        with pytest.raises(ParameterError):
            Straggler(0, 0.0, 1.0, slowdown=0.5)

    def test_bad_device_reference(self):
        with pytest.raises(ParameterError):
            FaultInjector(spec4(), scheduled=(Straggler(9, 0.0, 1.0),))
        with pytest.raises(ParameterError):
            FaultInjector(spec4(), scheduled=(LinkFlap(0, 0, 0.0, 1.0),))

    def test_bad_transient_rate(self):
        with pytest.raises(ParameterError):
            FaultInjector(spec4(), transient_rate=1.0)
        with pytest.raises(ParameterError):
            FaultInjector(spec4(), transient_rate=-0.1)

    def test_unknown_scheduled_fault(self):
        with pytest.raises(ParameterError):
            FaultInjector(spec4(), scheduled=("oops",))

    def test_fault_event_validates_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind="gremlin")


class TestScheduledScales:
    def test_straggler_scales_compute_inside_window(self):
        inj = FaultInjector(spec4(), scheduled=(
            Straggler(1, 1.0, 2.0, slowdown=3.0),))
        assert inj.compute_scale(1, 1.5) == pytest.approx(3.0)
        assert inj.compute_scale(1, 2.0) == 1.0     # window is [start, end)
        assert inj.compute_scale(0, 1.5) == 1.0

    def test_straggler_scales_comm_at_either_endpoint(self):
        inj = FaultInjector(spec4(), scheduled=(
            Straggler(1, 0.0, 1.0, slowdown=2.0),))
        assert inj.comm_scale(1, 2, 0.5) == pytest.approx(2.0)
        assert inj.comm_scale(3, 1, 0.5) == pytest.approx(2.0)
        assert inj.comm_scale(2, 3, 0.5) == 1.0

    def test_degrade_scales_only_its_link(self):
        inj = FaultInjector(spec4(), scheduled=(
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=0.25),))
        assert inj.comm_scale(0, 1, 0.5) == pytest.approx(4.0)
        assert inj.comm_scale(1, 0, 0.5) == pytest.approx(4.0)
        assert inj.comm_scale(0, 2, 0.5) == 1.0

    def test_collective_scale_takes_worst(self):
        inj = FaultInjector(spec4(), scheduled=(
            Straggler(0, 0.0, 1.0, slowdown=2.0),
            LinkDegrade(1, 2, 0.0, 1.0, bandwidth_scale=0.2),
        ))
        assert inj.collective_scale(0.5) == pytest.approx(5.0)
        assert inj.collective_scale(2.0) == 1.0

    def test_scheduled_faults_stamped_up_front(self):
        inj = FaultInjector(spec4(), scheduled=(
            Straggler(1, 1.0, 2.0), LinkFlap(0, 1, 0.5, 0.6)))
        assert [e.kind for e in inj.events] == ["link_flap", "straggler"]
        assert all(isinstance(e, FaultEvent) for e in inj.events)


class TestOutcomes:
    def test_flap_fails_messages_on_its_link(self):
        inj = FaultInjector(spec4(), scheduled=(LinkFlap(0, 1, 1.0, 2.0),))
        assert inj.message_outcome(0, 1, "m", 1.5) == "transient"
        assert inj.message_outcome(1, 0, "m", 1.5) == "transient"
        assert inj.message_outcome(0, 2, "m", 1.5) == "ok"
        assert inj.message_outcome(0, 1, "m", 2.5) == "ok"

    def test_flap_fails_collectives(self):
        inj = FaultInjector(spec4(), scheduled=(LinkFlap(0, 1, 1.0, 2.0),))
        assert inj.collective_outcome("a2a", 1.5) == "transient"
        assert inj.collective_outcome("a2a", 0.5) == "ok"

    def test_device_loss_is_permanent(self):
        inj = FaultInjector(spec4(), scheduled=(DeviceLoss(2, 1.0),))
        assert inj.message_outcome(2, 3, "m", 0.5) == "ok"
        assert inj.message_outcome(2, 3, "m", 1.5) == "lost"
        assert inj.message_outcome(3, 2, "m", 99.0) == "lost"
        assert inj.message_outcome(0, 1, "m", 99.0) == "ok"
        assert inj.collective_outcome("a2a", 1.5) == "lost"

    def test_transients_stamp_fault_events(self):
        inj = FaultInjector(spec4(), seed=0, transient_rate=0.5)
        for i in range(64):
            inj.message_outcome(0, 1, "m", float(i))
        assert inj.transient_count > 0
        transients = [e for e in inj.events if e.kind == "transient"]
        assert len(transients) == inj.transient_count

    def test_zero_rate_never_draws(self):
        inj = FaultInjector(spec4())
        for i in range(32):
            assert inj.message_outcome(0, 1, "m", float(i)) == "ok"
        assert inj.transient_count == 0 and inj.events == []


class TestDeterminism:
    def _outcomes(self, inj, n=128):
        return [inj.message_outcome(0, 1, "m", float(i)) for i in range(n)]

    def test_same_seed_same_draws(self):
        a = FaultInjector(spec4(), seed=3, transient_rate=0.3)
        b = FaultInjector(spec4(), seed=3, transient_rate=0.3)
        assert self._outcomes(a) == self._outcomes(b)

    def test_different_seed_different_draws(self):
        a = FaultInjector(spec4(), seed=3, transient_rate=0.3)
        b = FaultInjector(spec4(), seed=4, transient_rate=0.3)
        assert self._outcomes(a) != self._outcomes(b)

    def test_reset_rewinds_rng_and_events(self):
        inj = FaultInjector(spec4(), seed=3, transient_rate=0.3,
                            scheduled=(Straggler(0, 0.0, 1.0),))
        first = self._outcomes(inj)
        inj.reset()
        assert [e.kind for e in inj.events] == ["straggler"]
        assert inj.transient_count == 0
        assert self._outcomes(inj) == first


class TestDegradedSpec:
    def test_flap_removes_edge(self):
        inj = FaultInjector(spec4(), scheduled=(LinkFlap(0, 1, 1.0, 2.0),))
        assert not inj.degraded_spec(1.5).graph.has_edge(0, 1)
        assert inj.degraded_spec(2.5).graph.has_edge(0, 1)
        # the healthy spec is never mutated
        assert inj.spec.graph.has_edge(0, 1)

    def test_degrade_rescales_link(self):
        s = spec4()
        inj = FaultInjector(s, scheduled=(
            LinkDegrade(0, 1, 1.0, 2.0, bandwidth_scale=0.25),))
        healthy = s.graph.edges[0, 1]["link"].bandwidth
        degraded = inj.degraded_spec(1.5).graph.edges[0, 1]["link"].bandwidth
        assert degraded == pytest.approx(0.25 * healthy)
        # the degraded copy owns its edge data: the healthy link is intact
        assert s.graph.edges[0, 1]["link"].bandwidth == healthy

    def test_loss_isolates_device(self):
        inj = FaultInjector(spec4(), scheduled=(DeviceLoss(2, 1.0),))
        g = inj.degraded_spec(1.5).graph
        assert list(g.neighbors(2)) == []

    def test_one_spec_per_fault_state(self):
        inj = FaultInjector(spec4(), scheduled=(
            LinkFlap(0, 1, 1.0, 2.0), DeviceLoss(2, 1.6)))
        flapped = inj.degraded_spec(1.2)
        assert inj.degraded_spec(1.5) is flapped
        lost = inj.degraded_spec(1.7)  # a new loss: a new spec
        assert lost is not flapped
        assert list(lost.graph.neighbors(2)) == []
        assert inj.degraded_spec(1.9) is lost
        # the flap is over, the loss is not: a third state
        assert inj.degraded_spec(2.5) is not lost
        assert inj.degraded_spec(2.5).graph.has_edge(0, 1)

    def test_active_tracks_windows(self):
        inj = FaultInjector(spec4(), scheduled=(Straggler(0, 1.0, 2.0),))
        assert not inj.active(0.5)
        assert inj.active(1.5)
        assert not inj.active(2.5)


class TestSeededChaos:
    def test_pure_function_of_arguments(self):
        s = preset("8xP100")
        a = seeded_chaos(s, seed=5, flaps=2, stragglers=2, degrades=1)
        b = seeded_chaos(s, seed=5, flaps=2, stragglers=2, degrades=1)
        assert a.events == b.events
        assert seeded_chaos(s, seed=6, flaps=2, stragglers=2).events != a.events

    def test_counts_respected(self):
        inj = seeded_chaos(preset("8xP100"), flaps=2, stragglers=3, degrades=1)
        assert len(inj.flaps) == 2
        assert len(inj.stragglers) == 3
        assert len(inj.degrades) == 1

    def test_bad_horizon(self):
        with pytest.raises(ParameterError):
            seeded_chaos(spec4(), horizon=0.0)


class TestMachineHooks:
    def test_straggler_stretches_kernel(self):
        spec = spec4()
        base = VirtualCluster(spec, execute=False)
        e0 = base.launch(0, "k", "gemm", 1e9, 1e6, np.float64)
        inj = FaultInjector(spec, scheduled=(
            Straggler(0, 0.0, 1.0, slowdown=3.0),))
        cl = VirtualCluster(spec, execute=False, faults=inj)
        e1 = cl.launch(0, "k", "gemm", 1e9, 1e6, np.float64)
        assert e1.time == pytest.approx(3.0 * e0.time)

    def test_zero_fault_injector_is_bit_invisible(self):
        spec = spec4()

        def run(cl):
            evs = [cl.launch(g, "k", "gemm", 1e8, 1e6, np.float64,
                             reads=["x"], writes=["y"]) for g in range(4)]
            cl.alltoall(4096, "a2a", after=evs, reads=["y"], writes=["z"])
            cl.sendrecv(0, 1, 1024, "p2p", reads=["z"], writes=["w"])

        plain = VirtualCluster(spec, execute=False)
        run(plain)
        faulty = VirtualCluster(spec, execute=False,
                                faults=FaultInjector(spec))
        run(faulty)
        assert plain.ledger.fingerprint() == faulty.ledger.fingerprint()

    def test_reset_time_rewinds_injector(self):
        spec = spec4()
        inj = FaultInjector(spec, seed=1, transient_rate=0.4)
        cl = VirtualCluster(spec, execute=False, faults=inj)
        for i in range(16):
            inj.message_outcome(0, 1, "m", float(i))
        assert inj.transient_count > 0
        cl.reset_time()
        assert inj.transient_count == 0

    def test_cluster_rejects_mismatched_injector(self):
        with pytest.raises(ParameterError):
            VirtualCluster(spec4(), execute=False,
                           faults=FaultInjector(p100_nvlink_node(2)))

    def test_cluster_rejects_retry_without_faults(self):
        from repro.comm import RetryPolicy

        with pytest.raises(ParameterError):
            VirtualCluster(spec4(), execute=False, faults=None,
                           retry=RetryPolicy())

    def test_default_retry_attached_with_faults(self):
        from repro.comm import DEFAULT_RETRY

        cl = VirtualCluster(spec4(), execute=False,
                            faults=FaultInjector(spec4()))
        assert cl.retry is DEFAULT_RETRY
