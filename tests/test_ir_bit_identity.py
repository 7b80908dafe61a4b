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

from repro import pipelines
from repro.core.api import default_params
from repro.core.plan import FmmFftPlan
from repro.ir import ReplayExecutor, capture_built, scratch_replay
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.obs.telemetry import MetricsRegistry

N = 1 << 12
NUFFT_N, NUFFT_M = 128, 64
ALGOS = ("bulk", "ring", "auto")
SPEC = p100_nvlink_node(2)
PENCIL = {"decomposition": "pencil"}

#: every table row at its defaults, plus the 3D FFT's other decomposition
VARIANTS = [pytest.param(name, {}, id=name) for name in pipelines.NAMES] + [
    pytest.param("fft3d", PENCIL, id="fft3d-pencil")]


def _plain_run(name, params, cl, algo):
    """The tape-closed eager run, constructed by hand: what the table's
    build and the capture must both be invisible against."""
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
    elif name == "fft3d":
        from repro.dfft.decomp import Distributed3DFFT

        Distributed3DFFT(16, 16, 16, cl, comm_algorithm=algo, **params).run()
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


def _table_args(name, params, algo="bulk"):
    """The table's spelling of what ``_plain_run`` constructs by hand."""
    if name == "nufft":
        return NUFFT_N, dict(comm_algorithm=algo, params={"m": NUFFT_M})
    return N, dict(comm_algorithm=algo, params=params)


def _build(name, params, cl, algo="bulk"):
    n, kw = _table_args(name, params, algo)
    return pipelines.build(name, cl, n, **kw)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name,params", VARIANTS)
def test_schedule_bit_identity(name, params, algo):
    spec = pipelines.machine_for(name, SPEC)

    def cluster():
        return VirtualCluster(spec, execute=False,
                              telemetry=MetricsRegistry())

    plain = cluster()
    _plain_run(name, params, plain, algo)

    captured = cluster()
    graph, _ = capture_built(_build(name, params, captured, algo))
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
    graph, _ = capture_built(_build(name, params, bare, algo))
    replayed = cluster()
    ReplayExecutor(graph, replayed).run()
    assert replayed.telemetry.snapshot() == telemetry
    assert scratch_replay(graph, spec).ledger.fingerprint() == fp
    n, kw = _table_args(name, params, algo)
    assert pipelines.simulate(name, n, SPEC, **kw).ledger.fingerprint() == fp


@pytest.mark.parametrize("name,params", VARIANTS)
def test_execute_replay_byte_identity(name, params):
    cl = VirtualCluster(pipelines.machine_for(name, SPEC), execute=True)
    pipe = _build(name, params, cl)
    graph, ref = capture_built(pipe, *pipelines.inputs(pipe, seed=23))
    if name == "fmm":  # run returns (events, r); the output tensor is T
        ref = np.asarray(graph.finalize()).copy()
    graph.stage_in(*pipelines.inputs(pipe, seed=23))
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
    graph, _ = capture_built(pipelines.build("fmmfft", cl, N), x)
    graph.stage_in(x)
    ReplayExecutor(graph, cl).run()
    replayed = np.asarray(graph.finalize())

    cache = PlanCache(spec1, autotune=False, build_operators=True)
    host = cache.host_plan_for(N, "complex128")
    from repro.core.single import fmmfft_single

    np.testing.assert_allclose(replayed, fmmfft_single(x, host), rtol=1e-9)
    np.testing.assert_allclose(replayed, np.fft.fft(x), rtol=1e-8)
