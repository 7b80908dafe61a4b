"""The bit-identity matrix: replayed runs equal interpreted runs, byte for byte.

Three layers of identity, swept across every pipeline:

- **schedule**: a replay's ledger fingerprint, telemetry snapshot and
  ``comm_log`` equal a plain (tape-closed) eager run's, for every comm
  algorithm;
- **numerics**: execute-mode replay with re-staged inputs returns the
  same output bytes the interpreted run produced;
- **host twin**: the G = 1 FMM-FFT graph agrees with the plan cache's
  ``host_plan_for`` single-transform path to the oracle's accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import default_params
from repro.core.plan import FmmFftPlan
from repro.ir import (
    PIPELINE_NAMES,
    ReplayExecutor,
    capture_fft1d,
    capture_fft2d,
    capture_fmm,
    capture_fmmfft,
    capture_nufft,
    capture_pipeline,
    capture_rfft,
    scratch_replay,
)
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.obs.telemetry import MetricsRegistry

N = 1 << 12
NUFFT_N, NUFFT_M = 128, 64
ALGOS = ("bulk", "ring", "auto")
SPEC = p100_nvlink_node(2)


def _plain_run(name, cl, algo):
    """The tape-closed eager run capture must be invisible against."""
    if name == "fft1d":
        from repro.dfft.fft1d import Distributed1DFFT

        Distributed1DFFT(N, cl, comm_algorithm=algo).run()
    elif name == "fft2d":
        from repro.dfft.fft2d import Distributed2DFFT

        q = max(N.bit_length() - 1, 2)
        M = 1 << ((q + 1) // 2)
        Distributed2DFFT(M, N // M, cl, comm_algorithm=algo).run()
    elif name == "rfft":
        from repro.dfft.realfft import DistributedRealFFT

        DistributedRealFFT(N, cl, comm_algorithm=algo).run()
    elif name in ("fmm", "fmmfft"):
        plan = FmmFftPlan.create(N=N, G=cl.G, build_operators=False,
                                 **default_params(N, cl.G))
        if name == "fmmfft":
            from repro.core.distributed import FmmFftDistributed

            FmmFftDistributed(plan, cl, comm_algorithm=algo).run()
        else:
            from repro.fmm.distributed import DistributedFMM

            DistributedFMM(plan.geometry, cl, comm_algorithm=algo).run()
            cl.barrier()
    else:  # nufft
        from repro.nufft.transforms import ClusterNufft2

        ClusterNufft2(NUFFT_N, NUFFT_M, cl).run()


def _capture_args(name):
    if name == "nufft":
        return dict(N=NUFFT_N)
    return dict(N=N)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_schedule_bit_identity(name, algo):
    spec = p100_nvlink_node(1) if name == "nufft" else SPEC

    def cluster():
        return VirtualCluster(spec, execute=False,
                              telemetry=MetricsRegistry())

    plain = cluster()
    _plain_run(name, plain, algo)

    captured = cluster()
    graph, _ = capture_pipeline(name, captured, _capture_args(name)["N"],
                                comm_algorithm=algo)
    replayed = cluster()
    ReplayExecutor(graph, replayed).run()
    fp = plain.ledger.fingerprint()
    telemetry = plain.telemetry.snapshot()
    if spec.num_devices > 1:
        assert telemetry["series"] and plain.comm_log
    for cl in (captured, replayed):
        assert cl.ledger.fingerprint() == fp
        assert cl.telemetry.snapshot() == telemetry
        assert cl.comm_log == plain.comm_log
    # a graph taped without a registry replays the same series
    bare = VirtualCluster(spec, execute=False)
    graph, _ = capture_pipeline(name, bare, _capture_args(name)["N"],
                                comm_algorithm=algo)
    replayed = cluster()
    ReplayExecutor(graph, replayed).run()
    assert replayed.telemetry.snapshot() == telemetry
    assert scratch_replay(graph, spec).ledger.fingerprint() == fp


def _capture_with_inputs(name, cl, rng):
    """Execute-mode capture with explicit inputs; returns (graph, ref, inputs)."""

    def cvec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    if name == "fft1d":
        x = cvec(N)
        graph, ref = capture_fft1d(cl, N, x=x)
        return graph, ref, (x,)
    if name == "fft2d":
        q = max(N.bit_length() - 1, 2)
        M = 1 << ((q + 1) // 2)
        a = cvec(N).reshape(M, N // M)
        graph, ref = capture_fft2d(cl, M, N // M, a=a)
        return graph, ref, (a,)
    if name == "rfft":
        x = rng.standard_normal(N)
        graph, ref = capture_rfft(cl, N, x=x)
        return graph, ref, (x,)
    if name in ("fmm", "fmmfft"):
        plan = FmmFftPlan.create(N=N, G=cl.G, build_operators=True,
                                 **default_params(N, cl.G))
        if name == "fmmfft":
            x = cvec(N)
            graph, ref = capture_fmmfft(cl, plan, x=x)
            return graph, ref, (x,)
        S = cvec(N).reshape(plan.M, plan.P).T.copy()
        graph, _ = capture_fmm(cl, plan.operators, S=S)
        return graph, np.asarray(graph.finalize()).copy(), (S,)
    c, x = cvec(NUFFT_N), rng.random(NUFFT_M)
    graph, ref = capture_nufft(cl, NUFFT_N, NUFFT_M, c=c, x=x)
    return graph, ref, (c, x)


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_execute_replay_byte_identity(name):
    spec = p100_nvlink_node(1) if name == "nufft" else SPEC
    cl = VirtualCluster(spec, execute=True)
    rng = np.random.default_rng(23)
    graph, ref, inputs = _capture_with_inputs(name, cl, rng)
    graph.stage_in(*inputs)
    ReplayExecutor(graph, cl).run()
    out = graph.finalize()
    assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()


def test_g1_graph_matches_host_plan_twin():
    """The G=1 graph and the serve cache's host path agree on numerics."""
    from repro.serve import PlanCache

    spec1 = p100_nvlink_node(1)
    rng = np.random.default_rng(29)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)

    cl = VirtualCluster(spec1, execute=True)
    plan = FmmFftPlan.create(N=N, G=1, build_operators=True,
                             **default_params(N, 1))
    graph, _ = capture_fmmfft(cl, plan, x=x)
    graph.stage_in(x)
    ReplayExecutor(graph, cl).run()
    replayed = np.asarray(graph.finalize())

    cache = PlanCache(spec1, autotune=False, build_operators=True)
    host = cache.host_plan_for(N, "complex128")
    from repro.core.single import fmmfft_single

    np.testing.assert_allclose(replayed, fmmfft_single(x, host), rtol=1e-9)
    np.testing.assert_allclose(replayed, np.fft.fft(x), rtol=1e-8)
