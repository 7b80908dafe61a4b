"""Hypothesis property tests over the distributed stack's configuration
space: random admissible (M, P, G, chunks) must always give the exact
spectrum and a valid schedule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.dfft.fft2d import Distributed2DFFT
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.machine.validate import assert_valid_schedule
from repro.util.prng import random_signal


class TestDfft1dProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(3, 6),                    # log2 M
        st.integers(3, 6),                    # log2 P
        st.sampled_from([1, 2, 4]),           # G
        st.integers(1, 4),                    # chunks
        st.integers(0, 2**31 - 1),
    )
    def test_random_configs(self, qm, qp, G, chunks, seed):
        M, P = 1 << qm, 1 << qp
        if M % G or P % G:
            return
        N = M * P
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cl = VirtualCluster(p100_nvlink_node(G))
        out = Distributed1DFFT(N, cl, M=M, P=P, chunks=chunks).run(x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-11
        assert_valid_schedule(cl.ledger)


class TestDfft2dProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(3, 6),
        st.integers(3, 6),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 2**31 - 1),
    )
    def test_random_configs(self, qm, qp, G, seed):
        M, P = 1 << qm, 1 << qp
        if M % G or P % G:
            return
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((M, P)) + 1j * rng.standard_normal((M, P))
        cl = VirtualCluster(p100_nvlink_node(G))
        out = Distributed2DFFT(M, P, cl).run(a)
        np.testing.assert_allclose(out.T, np.fft.fft2(a), atol=1e-8)
        assert_valid_schedule(cl.ledger)


class TestFmmFftProperty:
    @settings(deadline=None, max_examples=10)
    @given(
        st.sampled_from([(32, 16, 3), (32, 16, 2), (16, 16, 2), (64, 8, 3)]),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 2**31 - 1),
    )
    def test_random_plans(self, cfg, G, seed):
        P, ML, B = cfg
        N = 1 << 13
        if P % G or (1 << B) % G:
            return
        plan = FmmFftPlan.create(N=N, P=P, ML=ML, B=B, Q=16, G=G)
        x = random_signal(N, seed=seed % (2**31))
        cl = VirtualCluster(p100_nvlink_node(G))
        out = FmmFftDistributed(plan, cl).run(x)
        ref = np.fft.fft(x)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-12
        assert_valid_schedule(cl.ledger)

    @settings(deadline=None, max_examples=10)
    @given(st.sampled_from([(32, 16, 3), (64, 16, 4)]), st.integers(0, 2**31 - 1))
    def test_timing_deterministic(self, cfg, seed):
        """Same plan -> identical simulated schedule, regardless of data."""
        P, ML, B = cfg
        plan = FmmFftPlan.create(N=1 << 14, P=P, ML=ML, B=B, Q=16, G=2,
                                 build_operators=False)
        times = []
        for _ in range(2):
            cl = VirtualCluster(p100_nvlink_node(2), execute=False)
            FmmFftDistributed(plan, cl).run()
            times.append(cl.wall_time())
        assert times[0] == times[1]
