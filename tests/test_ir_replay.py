"""Replay executor: certified graphs replay bit-identically and safely.

Covers the scratch-replay fingerprint contract, certification (a
hazard-free scratch replay, and its refusal of a seeded hazard), the
executor's refusal conditions, and the uid-continuity of the ledger
fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.hazards import HazardError
from repro.faults import FaultInjector, LinkFlap
from repro.ir import (
    ReplayError,
    ReplayExecutor,
    capture_built,
    capture_pipeline,
    scratch_replay,
)
from repro.ir.graph import OP_P2P
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_k40c_pcie, p100_nvlink_node
from repro.pipelines import NAMES as PIPELINE_NAMES
from repro.pipelines import build, machine_for

N = 1 << 12
SPEC = p100_nvlink_node(2)


def _cluster(name, execute=False):
    return VirtualCluster(machine_for(name, SPEC), execute=execute)


class TestScratchReplay:
    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_fingerprint_identical_to_capture_run(self, name):
        cl = _cluster(name)
        graph, _ = capture_pipeline(name, cl, N)
        scratch = scratch_replay(graph, cl.spec)
        assert scratch.ledger.fingerprint() == cl.ledger.fingerprint()

    def test_replay_is_idempotent_on_fresh_clusters(self):
        cl = _cluster("fmmfft")
        graph, _ = capture_pipeline("fmmfft", cl, N)
        a = scratch_replay(graph, cl.spec).ledger.fingerprint()
        b = scratch_replay(graph, cl.spec).ledger.fingerprint()
        assert a == b

    def test_fault_cluster_replays_with_its_faults(self):
        from repro.dfft.fft1d import Distributed1DFFT

        graph, _ = capture_pipeline("fft1d", _cluster("fft1d"), N)

        def flapping():
            inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 0.0, 40e-6),))
            return VirtualCluster(SPEC, execute=False, faults=inj)

        replayed, eager = flapping(), flapping()
        ReplayExecutor(graph, replayed).run()
        Distributed1DFFT(N, eager).run()
        assert any(r.name.endswith("!fail") for r in replayed.ledger)
        assert replayed.ledger.fingerprint() == eager.ledger.fingerprint()
        assert replayed.comm_log == eager.comm_log


class TestCertify:
    def test_certify_is_cached(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        assert graph.certify(cl.spec) is graph.certify(cl.spec)

    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_certify_succeeds_on_every_pipeline(self, name):
        cl = _cluster(name)
        graph, _ = capture_pipeline(name, cl, N)
        assert graph.certify(cl.spec) == {"hazards": 0,
                                          "records": graph.num_records}

    def test_certify_succeeds_on_the_fft3d_pencil(self):
        """The pencil's concurrent subgroup all-to-alls replay race-free."""
        cl = VirtualCluster(p100_nvlink_node(8), execute=False)
        graph, _ = capture_built(
            build("fft3d", cl, N, params={"decomposition": "pencil"}))
        assert graph.certify(cl.spec)["hazards"] == 0

    def test_certify_refuses_a_dropped_dependency(self):
        """The gate is live: a message stripped of its ordering edges
        races the buffer it reads, and certify refuses the graph."""
        cl = VirtualCluster(p100_nvlink_node(8), execute=False)
        graph, _ = capture_pipeline("fft1d", cl, N, comm_algorithm="direct")
        msg = next(n for n in graph.nodes if n.op == OP_P2P and n.deps)
        msg.deps = ()
        with pytest.raises(HazardError, match="WAR"):
            graph.certify(cl.spec)


class TestRefusals:
    def test_wrong_G_refused(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        with pytest.raises(ReplayError, match="G="):
            ReplayExecutor(graph, VirtualCluster(p100_nvlink_node(1),
                                                 execute=False))

    def test_wrong_spec_refused(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        with pytest.raises(ReplayError, match="different machine spec"):
            ReplayExecutor(graph, VirtualCluster(dual_k40c_pcie(),
                                                 execute=False))


class TestLedgerFastPath:
    def test_uids_continue_across_interpret_and_replay(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        n0 = len(cl.ledger)
        ReplayExecutor(graph, cl).run()
        uids = [r.uid for r in cl.ledger]
        assert uids == list(range(len(cl.ledger)))
        assert len(cl.ledger) == n0 + graph.num_records

    def test_region_prefix_and_strip(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        cl2 = VirtualCluster(SPEC, execute=False)
        ReplayExecutor(graph, cl2, region_strip=1).run(
            region_prefix="replayed/")
        regions = {r.region for r in cl2.ledger if r.region}
        assert regions
        assert all(r.startswith("replayed/") for r in regions)

    def test_buffer_rename(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        cl2 = VirtualCluster(SPEC, execute=False)
        ReplayExecutor(graph, cl2, rename=("dfft1", "slot0")).run()
        names = {b for r in cl2.ledger for _, b in (*r.reads, *r.writes)}
        assert any(b.startswith("slot0") for b in names)
        assert not any(b.startswith("dfft1") for b in names)


class TestExecuteReplayOnCaptureCluster:
    def test_fft1d_replay_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cl = VirtualCluster(SPEC, execute=True)
        graph, ref = capture_built(build("fft1d", cl, N), x)
        x2 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        graph.stage_in(x2)
        ReplayExecutor(graph, cl).run()
        out = graph.finalize()
        np.testing.assert_allclose(out, np.fft.fft(x2), rtol=1e-9)
        # and replaying the original input reproduces the original bytes
        graph.stage_in(x)
        ReplayExecutor(graph, cl).run()
        assert np.asarray(graph.finalize()).tobytes() == np.asarray(
            ref).tobytes()
