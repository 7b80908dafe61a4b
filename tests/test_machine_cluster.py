import numpy as np
import pytest

from repro.comm import CommFailure, RetryPolicy
from repro.faults import FaultInjector, LinkFlap
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.machine.stream import Event
from repro.util.validation import ParameterError


class TestStreamsAndEvents:
    def test_none_events_rejected(self, cluster2):
        # None used to be silently skipped, which let absent dependencies
        # masquerade as satisfied ones; call sites must filter instead.
        with pytest.raises(ValueError, match="None event"):
            cluster2.launch(0, "k", "gemm", 0.0, 0.0, np.float64,
                            after=[None, Event(1.0)])

    def test_event_zero(self):
        assert Event.zero().time == 0.0


class TestLaunch:
    def test_duration_includes_latency(self, cluster2):
        ev = cluster2.launch(0, "k", "gemm", 0.0, 0.0, np.float64)
        assert ev.time == pytest.approx(cluster2.spec.device.launch_latency)

    def test_stream_serializes(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(0, "b", "gemm", 1e9, 1e6, np.float64)
        assert e2.time > e1.time

    def test_devices_independent(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(1, "a", "gemm", 1e9, 1e6, np.float64)
        assert e1.time == pytest.approx(e2.time)

    def test_after_dependency(self, cluster2):
        e1 = cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        e2 = cluster2.launch(1, "b", "gemm", 1e9, 1e6, np.float64, after=[e1])
        assert e2.time >= e1.time + 1e-9

    def test_fn_runs_in_execute_mode(self, cluster2):
        hit = []
        cluster2.launch(0, "a", "gemm", 1.0, 1.0, np.float64, fn=lambda c: hit.append(1))
        assert hit == [1]

    def test_fn_skipped_in_timing_mode(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        hit = []
        cl.launch(0, "a", "gemm", 1.0, 1.0, np.float64, fn=lambda c: hit.append(1))
        assert hit == []

    def test_ledger_records(self, cluster2):
        cluster2.launch(0, "a", "gemm", 5.0, 7.0, np.float64)
        recs = cluster2.ledger.records(name="a")
        assert len(recs) == 1
        assert recs[0].flops == 5.0
        assert recs[0].mops == 7.0


class TestSendRecv:
    def test_time_matches_link(self, cluster2):
        nbytes = 36e9  # one second at link speed
        ev = cluster2.sendrecv(0, 1, nbytes, "msg")
        assert ev.time == pytest.approx(1.0 + cluster2.spec.comm_latency())

    def test_occupies_both_endpoints(self, cluster2):
        cluster2.sendrecv(0, 1, 36e9, "msg")
        assert cluster2.dev(0).stream("comm.tx").clock > 0.9
        assert cluster2.dev(1).stream("comm.rx").clock > 0.9

    def test_full_duplex_ring_shift_parallel(self, cluster4):
        # right-shift ring: all transfers concurrent
        evs = [cluster4.sendrecv(g, (g + 1) % 4, 36e9, "ring") for g in range(4)]
        times = {e.time for e in evs}
        assert len(times) == 1  # all finish together

    def test_self_send_free(self, cluster2):
        ev = cluster2.sendrecv(0, 0, 1e9, "self")
        assert ev.time == pytest.approx(0.0)

    def test_g1_free_but_fn_runs(self):
        cl = VirtualCluster(p100_nvlink_node(1))
        hit = []
        cl.sendrecv(0, 0, 1e9, "x", fn=lambda c: hit.append(1))
        assert hit == [1]
        assert cl.wall_time() == 0.0


class TestCollectives:
    def test_alltoall_time(self, cluster2):
        bw = cluster2.spec.alltoall_bandwidth()
        evs = cluster2.alltoall(bw, "a2a")  # one second of data
        expected = 1.0 + cluster2.spec.comm_latency() + cluster2.spec.collective_overhead
        assert evs[0].time == pytest.approx(expected)

    def test_alltoall_synchronizes(self, cluster2):
        cluster2.launch(0, "work", "gemm", 1e10, 1e6, np.float64)
        e0 = cluster2.dev(0).stream("compute").clock
        evs = cluster2.alltoall(1e3, "a2a", after=[Event(e0)])
        assert all(e.time == evs[0].time for e in evs)
        assert evs[0].time > e0

    def test_allgather_receive_dominated(self, cluster4):
        evs2 = VirtualCluster(p100_nvlink_node(2)).allgather(1e9, "ag")
        evs4 = cluster4.allgather(1e9, "ag")
        assert evs4[0].time != evs2[0].time  # (G-1) scaling differs

    def test_g1_collective_free(self):
        cl = VirtualCluster(p100_nvlink_node(1))
        evs = cl.alltoall(1e9, "x")
        assert evs[0].time == 0.0


class TestMemoryAndBarrier:
    def test_scatter_gather_roundtrip(self, cluster2, rng):
        x = rng.standard_normal(64)
        cluster2.scatter_blocks("x", x)
        np.testing.assert_array_equal(cluster2.gather_blocks("x"), x)

    def test_scatter_rejects_indivisible(self, cluster2):
        with pytest.raises(ParameterError):
            cluster2.scatter_blocks("x", np.zeros(63))

    def test_device_memory_dict(self, cluster2):
        cluster2.dev(0)["buf"] = np.ones(4)
        assert "buf" in cluster2.dev(0)
        assert cluster2.dev(0).nbytes("buf") == 32

    def test_timing_mode_memory_raises(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        cl.dev(0).alloc("buf", (4,), np.float64)
        assert cl.dev(0).nbytes("buf") == 32
        with pytest.raises(RuntimeError):
            cl.dev(0)["buf"]

    def test_barrier_aligns_clocks(self, cluster2):
        cluster2.launch(0, "a", "gemm", 1e10, 1e6, np.float64)
        cluster2.barrier()
        t = cluster2.wall_time()
        for d in cluster2.devices:
            for s in d.streams.values():
                assert s.clock == pytest.approx(t)

    def test_reset_time(self, cluster2):
        cluster2.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        cluster2.dev(0)["keepme"] = np.ones(2)
        cluster2.reset_time()
        assert cluster2.wall_time() == 0.0
        assert len(cluster2.ledger) == 0
        assert "keepme" in cluster2.dev(0)

    def test_host_op_free(self, cluster2):
        ev = cluster2.host_op(0, "setup")
        assert ev.time == pytest.approx(0.0)


INF, NAN = float("inf"), float("nan")


@pytest.fixture
def cluster8():
    return VirtualCluster(p100_nvlink_node(8))


class TestPricingRejectsGarbage:
    """Every primitive validates in its pricing half: device ids in
    0..G-1, work and byte counts finite and >= 0 — with a ParameterError
    naming the value, and nothing appended to the ledger."""

    def rejected(self, cl, match, call):
        with pytest.raises(ParameterError, match=match):
            call()
        assert len(cl.ledger) == 0
        assert cl.wall_time() == 0.0

    @pytest.mark.parametrize("g", [-1, 8, 100])
    def test_launch_device(self, cluster8, g):
        self.rejected(cluster8, rf"device id {g} out of range 0\.\.7",
                      lambda: cluster8.launch(g, "k", "gemm", 1.0, 1.0,
                                              np.float64))

    @pytest.mark.parametrize("flops,mops,what", [
        (-1.0, 1.0, "flops"), (NAN, 1.0, "flops"), (INF, 1.0, "flops"),
        (1.0, -8.0, "mops"), (1.0, NAN, "mops"), (1.0, INF, "mops"),
    ])
    def test_launch_amounts(self, cluster8, flops, mops, what):
        self.rejected(cluster8, f"'k': {what} must be finite and >= 0",
                      lambda: cluster8.launch(0, "k", "gemm", flops, mops,
                                              np.float64))

    def test_launch_name(self, cluster8):
        self.rejected(cluster8, "non-empty stage name",
                      lambda: cluster8.launch(0, "", "gemm", 1.0, 1.0,
                                              np.float64))

    @pytest.mark.parametrize("g", [-1, 8])
    def test_host_op_device(self, cluster8, g):
        self.rejected(cluster8, f"device id {g} out of range",
                      lambda: cluster8.host_op(g, "setup"))

    @pytest.mark.parametrize("src,dst,what", [
        (-1, 2, "source device id -1"), (8, 2, "source device id 8"),
        (0, -2, "destination device id -2"), (0, 8, "destination device id 8"),
    ])
    def test_sendrecv_devices(self, cluster8, src, dst, what):
        self.rejected(cluster8, what + " out of range",
                      lambda: cluster8.sendrecv(src, dst, 8.0, "msg"))

    @pytest.mark.parametrize("nbytes", [-8.0, NAN, INF])
    def test_sendrecv_nbytes(self, cluster8, nbytes):
        self.rejected(cluster8, "'msg': nbytes must be finite and >= 0",
                      lambda: cluster8.sendrecv(0, 2, nbytes, "msg"))
        self.rejected(cluster8, "'msg': nbytes must be finite and >= 0",
                      lambda: cluster8.sendrecv(3, 3, nbytes, "msg"))

    def test_sendrecv_override_pricing(self, cluster8):
        self.rejected(cluster8, "price a transfer of",
                      lambda: cluster8.sendrecv(0, 1, 8.0, "msg",
                                                latency=-1.0))

    @pytest.mark.parametrize("method", ["alltoall", "allgather"])
    @pytest.mark.parametrize("nbytes", [-5.0, NAN, INF])
    def test_collective_bytes(self, cluster8, method, nbytes):
        self.rejected(cluster8, "bytes_per_device must be finite and >= 0",
                      lambda: getattr(cluster8, method)(nbytes, "coll"))

    def test_g1_collective_bytes(self):
        cl = VirtualCluster(p100_nvlink_node(1))
        self.rejected(cl, "bytes_per_device must be finite",
                      lambda: cl.alltoall(-5.0, "coll"))

    def test_valid_edge_values_still_accepted(self, cluster8):
        cluster8.launch(7, "k", "gemm", 0.0, 0.0, np.float64)
        cluster8.sendrecv(0, 7, 0.0, "empty")
        cluster8.alltoall(0.0, "empty")
        assert len(cluster8.ledger) == 2 + 8


class TestEngineQueries:
    def test_attempt_outcomes_are_drawn_at_the_issued_start(self):
        # the link is down on [1 ms, 1.2 ms): only a transfer the engine
        # starts inside that window may time out, wherever it was issued
        spec = p100_nvlink_node(4)

        def cluster():
            inj = FaultInjector(spec, scheduled=(LinkFlap(2, 1, 1e-3, 1.2e-3),))
            return VirtualCluster(spec, execute=False, faults=inj)

        cl = cluster()
        cl.sendrecv(2, 1, 8.0, "early")            # starts at 0: link is up
        assert [r.name for r in cl.ledger] == ["early"]
        cl = cluster()
        dep = cl.launch(2, "k", "gemm", 1e9, 1e6, np.float64)
        gate = Event(1.1e-3)
        ev = cl.sendrecv(2, 1, 8.0, "probe", after=[dep, gate])
        k, fail, real = list(cl.ledger)
        assert (fail.name, fail.start, fail.comm_bytes) == ("probe!fail",
                                                            1.1e-3, 0.0)
        assert fail.duration == cl.retry.timeout and fail.waits == (k.uid,)
        assert real.start == fail.end + cl.retry.delay("probe", 0)
        assert (real.waits, ev.op, ev.time) == ((k.uid,), real.uid, real.end)
        # a bulk collective draws at the start it synchronizes everyone to
        cl = cluster()
        cl.alltoall(8.0, "coll", after=[gate])
        recs = list(cl.ledger)
        assert [r.name for r in recs] == ["coll!fail"] * 4 + ["coll"] * 4
        assert {r.start for r in recs[:4]} == {1.1e-3}

    def test_retry_budget_spans_one_comm_call(self):
        from repro import comm

        spec = p100_nvlink_node(2)
        inj = FaultInjector(spec, scheduled=(LinkFlap(0, 1, 0.0, 1.0),))
        cl = VirtualCluster(spec, execute=False, faults=inj,
                            retry=RetryPolicy(budget=2))
        with pytest.raises(CommFailure, match=r"budget \(2\) exhausted") as e:
            comm.sendrecv(cl, 0, 1, 8.0, "msg")
        assert not e.value.permanent
        assert [r.name for r in cl.ledger] == ["msg!fail"] * 3
        assert [r.writes for r in cl.ledger] == [()] * 3
        # the failure closed the call: the next one has a full budget
        with pytest.raises(CommFailure):
            comm.sendrecv(cl, 1, 0, 8.0, "again", writes=["w"])
        assert [r.writes for r in list(cl.ledger)[3:]] == [
            ((0, "w.fail0"),), ((0, "w.fail1"),), ((0, "w.fail2"),)]

    def test_latest_is_the_last_completion_first_on_a_tie(self, cluster4):
        a = cluster4.launch(0, "a", "gemm", 1e9, 1e6, np.float64)
        b = cluster4.launch(1, "b", "gemm", 1e9, 1e6, np.float64)
        c = cluster4.launch(2, "c", "gemm", 2e9, 1e6, np.float64)
        assert a.time == b.time < c.time
        assert cluster4.latest(a, b) is a and cluster4.latest(b, a) is b
        assert cluster4.latest(a, c, b) is c
        with cluster4.taping():
            d = cluster4.launch(3, "d", "gemm", 1e9, 1e6, np.float64)
            e = cluster4.launch(0, "e", "gemm", 1e9, 1e6, np.float64)
            both = cluster4.latest(d, e)
            # under a tape the result names every candidate, nested ones
            # included, and still reads as the latest of them
            assert (both.time, both.op, both.src) == (e.time, e.op, (d, e))
            f = cluster4.launch(1, "f", "gemm", 4e9, 1e6, np.float64)
            assert cluster4.latest(f, both).src == (f, d, e)

    def test_stream_event_reads_the_clock(self, cluster2):
        ev = cluster2.sendrecv(0, 1, 36e6, "m")
        syn = cluster2.stream_event(1, "comm.rx", "done")
        assert syn.time == ev.time and syn.op == -1 and syn.label == "done"
