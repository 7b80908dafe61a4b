"""Cross-configuration integration matrix: dtype x G x fusion.

Every combination must produce the numpy-exact spectrum (to its
precision) and a physically valid schedule.
"""

import numpy as np
import pytest

from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import multinode_p100
from repro.machine.spec import p100_nvlink_node
from repro.machine.validate import assert_valid_schedule
from repro.util.prng import random_signal


TOL = {"complex64": 4e-7, "complex128": 5e-14}


@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
@pytest.mark.parametrize("G", [1, 2, 4])
def test_dtype_by_devices(dtype, G):
    N = 1 << 13
    Q = 8 if dtype == "complex64" else 16
    plan = FmmFftPlan.create(N=N, P=32, ML=16, B=3, Q=Q, G=G, dtype=dtype)
    cl = VirtualCluster(p100_nvlink_node(G))
    x = random_signal(N, dtype, seed=G)
    out = FmmFftDistributed(plan, cl).run(x)
    ref = np.fft.fft(x.astype(np.complex128))
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < TOL[dtype]
    assert_valid_schedule(cl.ledger)


@pytest.mark.parametrize("fuse_post", [True, False])
@pytest.mark.parametrize("chunks", [1, 2, 8])
def test_fusion_by_chunking(fuse_post, chunks):
    N = 1 << 12
    plan = FmmFftPlan.create(N=N, P=32, ML=16, B=2, Q=16, G=2)
    cl = VirtualCluster(p100_nvlink_node(2))
    x = random_signal(N, seed=7)
    out = FmmFftDistributed(
        plan, cl, chunks=chunks, fuse_post=fuse_post
    ).run(x)
    ref = np.fft.fft(x)
    assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-14
    assert_valid_schedule(cl.ledger)


def test_multinode_execute_with_fmm_fusion():
    """Everything at once: 2 nodes x 4 GPUs, real numerics, fused FMM."""
    from repro.fmm.distributed import DistributedFMM
    from repro.fmm.plan import FmmOperators

    N, P, M = 1 << 13, 32, (1 << 13) // 32
    spec = multinode_p100(2, 4)
    ops = FmmOperators.create(M=M, P=P, ML=16, B=3, Q=16, G=8)
    cl = VirtualCluster(spec)
    x = random_signal(N, seed=9)
    S = np.ascontiguousarray(x.reshape(M, P).T)
    d = DistributedFMM(ops, cl, fuse_m2l_l2l=True)
    d.run(S)
    from repro.fmm.batched import BatchedFMM

    ref_ops = FmmOperators.create(M=M, P=P, ML=16, B=3, Q=16)
    Tref, _ = BatchedFMM(ref_ops).apply(S)
    T = d.finalize()
    assert np.linalg.norm(T - Tref) / np.linalg.norm(Tref) < 1e-12
    assert_valid_schedule(cl.ledger)


@pytest.mark.parametrize("seed", range(5))
def test_many_seeds_double_claim(seed):
    """The Section 6.1 double-complex claim holds across inputs."""
    N = 1 << 12
    plan = FmmFftPlan.create(N=N, P=16, ML=16, B=3, Q=16)
    from repro.core.single import fmmfft_relative_error

    x = random_signal(N, seed=seed * 101)
    assert fmmfft_relative_error(x, plan) < 5e-14
