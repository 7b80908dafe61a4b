"""The hazard sanitizer: unit semantics + certification of every
shipped pipeline + detection of a seeded missing-dependency race."""

import numpy as np
import pytest

from repro.analysis.hazards import (
    HazardError,
    buffers_conflict,
    find_hazards,
    happens_before,
)
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.dfft.fft2d import Distributed2DFFT
from repro.dfft.realfft import DistributedRealFFT
from repro.fmm import distributed as fmm_distributed
from repro.fmm.distributed import DistributedFMM
from repro.fmm.driver import drive_fmm
from repro.machine import topology as topo
from repro.machine.cluster import VirtualCluster
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.multinode import multinode_p100
from repro.machine.spec import P100, ClusterSpec, LinkSpec, p100_nvlink_node
from repro.machine.stream import Event


def op(uid, *, device=0, stream="s0", start=0.0, dur=1.0,
       reads=(), writes=(), waits=(), name=None, kind="gemm"):
    """Hand-built record: reads/writes are buffer names on ``device``."""
    return OpRecord(
        device=device, stream=stream, kind=kind, name=name or f"op{uid}",
        start=start, duration=dur, uid=uid,
        reads=tuple((device, b) for b in reads),
        writes=tuple((device, b) for b in writes),
        waits=tuple(waits),
    )


def ledger_of(*recs):
    led = Ledger()
    for r in recs:
        led.append(r)
    return led


class TestBufferConflicts:
    def test_identical(self):
        assert buffers_conflict("x", "x")

    def test_whole_vs_part(self):
        assert buffers_conflict("x", "x#r0")
        assert buffers_conflict("x#r0", "x")

    def test_distinct_parts_disjoint(self):
        assert not buffers_conflict("x#r0", "x#r1")

    def test_distinct_buffers(self):
        assert not buffers_conflict("x", "y")
        # 'x2' is a different buffer, not a part of 'x'
        assert not buffers_conflict("x", "x2")


class TestDataHazards:
    def test_raw_detected(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, reads=["x"]),
        )
        rep = find_hazards(led, include_audit=False)
        assert len(rep.hazards) == 1
        h = rep.hazards[0]
        assert h.kind == "RAW"
        assert h.first.uid == 0 and h.second.uid == 1
        assert "no ordering edge" in h.describe()

    def test_war_and_waw(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, reads=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, writes=["x"]),
        )
        assert find_hazards(led, include_audit=False).hazards[0].kind == "WAR"
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, writes=["x"]),
        )
        assert find_hazards(led, include_audit=False).hazards[0].kind == "WAW"

    def test_read_read_never_hazards(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, reads=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, reads=["x"]),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_different_devices_never_conflict(self):
        led = ledger_of(
            op(0, device=0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, device=1, stream="s0", start=1.0, dur=2.0, reads=["x"]),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_disjoint_intervals_no_hazard(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=1.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=1.0, reads=["x"]),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_zero_duration_never_hazards(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=0.0, reads=["x"], kind="host"),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_program_order_suppresses(self):
        # same (device, stream) queue: ordered even with no wait edge
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s0", start=1.0, dur=2.0, reads=["x"]),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_wait_edge_suppresses(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, reads=["x"], waits=(0,)),
        )
        rep = find_hazards(led, include_audit=False)
        assert not rep.hazards
        # ... though waiting on an event that completes later is a defect
        assert any("future" in d for d in rep.defects)

    def test_transitive_ordering_suppresses(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=1.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=1.0, waits=(0,)),
            op(2, stream="s2", start=2.0, dur=1.0, reads=["x"], waits=(1,)),
        )
        assert not find_hazards(led, include_audit=False).hazards

    def test_part_vs_whole_hazard(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x#r0"]),
            op(1, stream="s1", start=1.0, dur=2.0, reads=["x"]),
        )
        assert len(find_hazards(led, include_audit=False).hazards) == 1

    def test_disjoint_parts_overlap_freely(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x#r0"]),
            op(1, stream="s1", start=1.0, dur=2.0, writes=["x#r1"]),
        )
        assert not find_hazards(led, include_audit=False).hazards


class TestStructuralDefects:
    def test_dangling_wait(self):
        led = ledger_of(op(0, waits=(99,)))
        rep = find_hazards(led, include_audit=False)
        assert any("unknown op" in d for d in rep.defects)
        assert not rep.ok

    def test_audit_folded_in(self):
        # two ops double-booking one stream: a physical impossibility the
        # schedule auditor catches, surfaced as a sanitizer defect
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0),
            op(1, stream="s0", start=1.0, dur=2.0),
        )
        assert not find_hazards(led).ok
        assert find_hazards(led, include_audit=False).ok

    def test_empty_ledger_certifies(self):
        rep = find_hazards(Ledger())
        assert rep.ok
        assert "race-free" in rep.render()


class TestReport:
    def test_render_and_raise(self):
        led = ledger_of(
            op(0, stream="s0", start=0.0, dur=2.0, writes=["x"]),
            op(1, stream="s1", start=1.0, dur=2.0, reads=["x"]),
        )
        rep = find_hazards(led, include_audit=False)
        assert "RAW" in rep.render()
        with pytest.raises(HazardError, match="RAW"):
            rep.raise_if_any()

    def test_happens_before_edge_count(self):
        led = ledger_of(
            op(0, stream="s0"),
            op(1, stream="s0", start=1.0, waits=(0,)),
        )
        edges = happens_before(led)
        # one program-order edge + one (redundant) wait edge
        assert (0, 1) in edges and len(edges) == 2


def _run_fmmfft(G, N, P, ML, B, Q, execute, **kw):
    cl = VirtualCluster(p100_nvlink_node(G), execute=execute)
    plan = FmmFftPlan.create(N=N, P=P, ML=ML, B=B, Q=Q, G=G,
                             build_operators=execute)
    out = FmmFftDistributed(plan, cl, **kw).run(
        np.random.default_rng(0).standard_normal(N) if execute else None
    )
    return cl, out


class TestPipelinesCertified:
    """Every shipped pipeline must come out of the sanitizer clean."""

    def test_fmmfft_g2_execute(self):
        cl, out = _run_fmmfft(2, 4096, 8, 16, 3, 16, execute=True)
        assert find_hazards(cl.ledger).ok
        cl.sanitize()  # strict mode: must not raise
        assert out is not None

    def test_fmmfft_g8_timing(self):
        cl, _ = _run_fmmfft(8, 1 << 18, 32, 16, 3, 16, execute=False)
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    def test_fmmfft_unfused_post(self):
        cl, _ = _run_fmmfft(2, 1 << 16, 16, 16, 3, 12, execute=False,
                            fuse_post=False)
        assert find_hazards(cl.ledger).ok

    def test_fmm_fused_m2l_l2l(self):
        cl = VirtualCluster(p100_nvlink_node(4), execute=False)
        geo = FmmFftPlan.create(N=1 << 18, P=32, ML=16, B=3, Q=16, G=4,
                                build_operators=False).geometry
        DistributedFMM(geo, cl, fuse_m2l_l2l=True).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("N", [1 << 12, 1 << 20])
    def test_fft1d(self, N):
        # 2^20 crosses the chunking threshold, exercising the pipelined
        # transpose/FFT overlap; 2^12 is the unchunked path
        cl = VirtualCluster(p100_nvlink_node(4), execute=False)
        Distributed1DFFT(N, cl).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    def test_fft2d(self):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        Distributed2DFFT(1 << 10, 1 << 10, cl).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("N", [1 << 12, 1 << 24])
    def test_rfft(self, N):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        DistributedRealFFT(N, cl).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    def test_multinode(self):
        cl = VirtualCluster(multinode_p100(2, 2), execute=False)
        plan = FmmFftPlan.create(N=1 << 18, P=32, ML=16, B=3, Q=16, G=4,
                                 build_operators=False)
        FmmFftDistributed(plan, cl).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()

    def test_trace_hazards_accessor(self):
        cl, _ = _run_fmmfft(2, 1 << 14, 16, 16, 3, 12, execute=False)
        assert cl.trace().hazards().ok


def slow_link_node(G=2):
    """Comm slow enough that a halo exchange strictly overlaps compute."""
    link = LinkSpec(bandwidth=1e6, latency=1e-3)
    return ClusterSpec(
        device=P100, num_devices=G,
        graph=topo.fully_connected(G, link), name=f"{G}x-slowlink",
    )


class TestSeededHazard:
    """Deleting the COMM-S -> S2T dependency must produce exactly the
    RAW hazard on the S halo buffer — the bug class the sanitizer is
    for: orchestration still runs in a valid order, only the declared
    event edge is gone, so nothing but the sanitizer would notice."""

    def _run_with_dropped_s_halo(self, monkeypatch):
        """At the driver's issue/token seam: S2T is issued with a token
        that no longer names the COMM-S events."""
        def dropping(tree, issue):
            def dropped(stage, ell, *tokens):
                if stage == "S2T":
                    tokens = ([Event(0.0, "dropped")] * len(tokens[0]),)
                return issue(stage, ell, *tokens)
            return drive_fmm(tree, dropped)

        monkeypatch.setattr(fmm_distributed, "drive_fmm", dropping)
        cl = VirtualCluster(slow_link_node(2), execute=False)
        geo = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, G=2,
                                build_operators=False).geometry
        DistributedFMM(geo, cl).run()
        return cl

    def test_detects_exactly_the_seeded_race(self, monkeypatch):
        cl = self._run_with_dropped_s_halo(monkeypatch)
        rep = find_hazards(cl.ledger)
        assert rep.hazards, "seeded race was not detected"
        for h in rep.hazards:
            assert h.kind == "RAW"
            assert h.buffer.startswith("fmm.halo.S")
            assert {h.first.name, h.second.name} == {"COMM-S", "S2T"}

    def test_sanitize_raises(self, monkeypatch):
        cl = self._run_with_dropped_s_halo(monkeypatch)
        with pytest.raises(HazardError, match="fmm.halo.S"):
            cl.sanitize()

    def test_unseeded_control_is_clean(self):
        cl = VirtualCluster(slow_link_node(2), execute=False)
        geo = FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, G=2,
                                build_operators=False).geometry
        DistributedFMM(geo, cl).run()
        rep = find_hazards(cl.ledger)
        assert rep.ok, rep.render()
