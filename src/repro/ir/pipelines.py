"""One IR capture entry point per pipeline.

Each ``capture_*`` helper constructs its pipeline object on the cluster,
runs it once with the engine's capture tape open — the ordinary eager
run, every primitive it issues taped — and returns ``(graph, result)``.
On the way out it attaches the two host-side data hooks the replay loop
needs in execute mode:

- ``graph.stage_in(*inputs)`` — place fresh input data into the
  capture cluster's device buffers (the same host-side scatter the
  pipeline's ``run`` performs before issuing ops);
- ``graph.finalize()`` — gather the output from device buffers (the
  same host-side gather ``run`` performs at the end).

Both hooks are bound to the **capture cluster**: the captured NumPy
closures read and write that cluster's device buffers (and, for the
FMM, per-instance host state), so an execute-mode replay must target
the machine the graph was captured on.  Timing-only replays
(:func:`~repro.ir.executor.scratch_replay`, the serve scheduler) never
run closures and may target any fresh cluster with the same spec.

:func:`capture_pipeline` is the uniform dispatch the CLI and CI smoke
jobs use: name + cluster + N, with inputs generated from a seeded RNG
on execute-mode clusters.
"""

from __future__ import annotations

import numpy as np

from repro.ir.capture import capture
from repro.util.validation import ParameterError

#: pipeline names :func:`capture_pipeline` accepts
PIPELINE_NAMES = ("fft1d", "fft2d", "rfft", "fmm", "fmmfft", "nufft")


def _attach(graph, stage_in, finalize):
    graph.stage_in = stage_in
    graph.finalize = finalize
    return graph


def capture_fft1d(cluster, N, *, dtype="complex128", chunks=4,
                  comm_algorithm="bulk", key="dfft1", x=None):
    """Capture one six-step 1D FFT run; returns ``(graph, result)``."""
    from repro.dfft.fft1d import Distributed1DFFT

    plan = Distributed1DFFT(N, cluster, dtype=dtype, chunks=chunks,
                            comm_algorithm=comm_algorithm)
    graph, result = capture(
        lambda cl: plan.run(x, key=key), cluster, pipeline="fft1d",
        buffer_prefix=key,
        key=("fft1d", N, np.dtype(dtype).name, chunks, comm_algorithm,
             cluster.G))
    return _attach(graph,
                   lambda xv: plan.stage_in(xv, key),
                   lambda: plan.gather(key)), result


def capture_fft2d(cluster, M, P, *, dtype="complex128", chunks=4,
                  comm_algorithm="bulk", key="dfft2", a=None):
    """Capture one single-transpose 2D FFT run; returns ``(graph, result)``."""
    from repro.dfft.fft2d import Distributed2DFFT

    plan = Distributed2DFFT(M, P, cluster, dtype=dtype, chunks=chunks,
                            comm_algorithm=comm_algorithm)
    graph, result = capture(
        lambda cl: plan.run(a, key=key), cluster, pipeline="fft2d",
        buffer_prefix=key,
        key=("fft2d", M, P, np.dtype(dtype).name, chunks, comm_algorithm,
             cluster.G))
    return _attach(graph,
                   lambda av: plan.stage_in(av, key),
                   lambda: plan.gather(key)), result


def capture_rfft(cluster, N, *, dtype="float64", chunks=4,
                 comm_algorithm="bulk", key="drfft", x=None):
    """Capture one real-input FFT run; returns ``(graph, result)``."""
    from repro.dfft.realfft import DistributedRealFFT

    plan = DistributedRealFFT(N, cluster, dtype=dtype, chunks=chunks,
                              comm_algorithm=comm_algorithm)
    graph, result = capture(
        lambda cl: plan.run(x, key=key), cluster, pipeline="rfft",
        buffer_prefix=key,
        key=("rfft", N, np.dtype(dtype).name, chunks, comm_algorithm,
             cluster.G))
    return _attach(graph,
                   lambda xv: plan.stage_in(xv, key),
                   lambda: plan.finalize(key)), result


def capture_fmm(cluster, operators, *, dtype="complex128",
                comm_algorithm="bulk", ns="fmm", S=None):
    """Capture the distributed FMM (plus a settling barrier).

    ``operators`` is an :class:`~repro.fmm.plan.FmmOperators` (execute)
    or bare geometry (timing-only).  Returns ``(graph, (events, r))``.
    """
    from repro.fmm.distributed import DistributedFMM

    fmm = DistributedFMM(operators, cluster, dtype=dtype,
                         comm_algorithm=comm_algorithm, ns=ns)

    def _run(cl):
        out = fmm.run(S)
        cl.barrier()
        return out

    graph, result = capture(
        _run, cluster, pipeline="fmm", buffer_prefix=ns,
        key=("fmm", operators.tree.G, operators.P, operators.Q,
             operators.ML, operators.B, np.dtype(dtype).name,
             comm_algorithm))
    return _attach(graph,
                   lambda Sv: fmm.scatter(Sv),
                   lambda: fmm.gather()), result


def capture_fmmfft(cluster, plan, *, chunks=4, fuse_post=True,
                   comm_algorithm="bulk", ns=None, x=None):
    """Capture the full FMM-FFT pipeline; returns ``(graph, result)``."""
    from repro.core.distributed import FmmFftDistributed

    ff = FmmFftDistributed(plan, cluster, chunks=chunks, fuse_post=fuse_post,
                           comm_algorithm=comm_algorithm, ns=ns)
    graph, result = capture(
        lambda cl: ff.run(x), cluster, pipeline="fmmfft", buffer_prefix=ff.ns,
        key=plan.plan_key() + (comm_algorithm, chunks, fuse_post))
    key_s, key_t = f"{ff.ns}.S", f"{ff.ns}.T"
    return _attach(
        graph,
        lambda xv: ff._scatter_input(xv, key_s),
        lambda: ff.fft2d.gather(key_t).reshape(plan.N)), result


def capture_nufft(cluster, n, m, *, sigma=2.0, Q=16, B=3, key="nufft",
                  c=None, x=None):
    """Capture the G=1 type-2 NUFFT pipeline; returns ``(graph, result)``."""
    from repro.nufft.transforms import ClusterNufft2

    plan = ClusterNufft2(n, m, cluster, sigma=sigma, Q=Q, B=B)
    graph, result = capture(
        lambda cl: plan.run(c, x, key=key), cluster, pipeline="nufft",
        buffer_prefix=key, key=("nufft", n, m, sigma, Q, B))
    return _attach(graph,
                   lambda cv, xv: plan.stage_in(cv, xv, key),
                   lambda: plan.finalize(key)), result


def capture_pipeline(name: str, cluster, N: int, *, dtype="complex128",
                     comm_algorithm="bulk", seed: int = 0):
    """Uniform dispatch: capture pipeline ``name`` at size ``N``.

    On execute-mode clusters, inputs are drawn from a seeded RNG so
    captures are reproducible; timing-only clusters pass None through.
    Returns ``(graph, result)``.
    """
    if name not in PIPELINE_NAMES:
        raise ParameterError(
            f"unknown pipeline {name!r}; expected one of {PIPELINE_NAMES}")
    rng = np.random.default_rng(seed)
    ex = cluster.execute

    def _cvec(size):
        return (rng.standard_normal(size)
                + 1j * rng.standard_normal(size)).astype(np.complex128)

    if name == "fft1d":
        x = _cvec(N).astype(dtype) if ex else None
        return capture_fft1d(cluster, N, dtype=dtype,
                             comm_algorithm=comm_algorithm, x=x)
    if name == "fft2d":
        q = max(N.bit_length() - 1, 2)
        M = 1 << ((q + 1) // 2)
        P = N // M
        a = _cvec(N).astype(dtype).reshape(M, P) if ex else None
        return capture_fft2d(cluster, M, P, dtype=dtype,
                             comm_algorithm=comm_algorithm, a=a)
    if name == "rfft":
        x = rng.standard_normal(N) if ex else None
        return capture_rfft(cluster, N, comm_algorithm=comm_algorithm, x=x)
    if name in ("fmm", "fmmfft"):
        from repro.core.api import default_params
        from repro.core.plan import FmmFftPlan

        plan = FmmFftPlan.create(N=N, G=cluster.G, dtype=dtype,
                                 build_operators=ex,
                                 **default_params(N, cluster.G))
        if name == "fmmfft":
            x = _cvec(N).astype(dtype) if ex else None
            return capture_fmmfft(cluster, plan,
                                  comm_algorithm=comm_algorithm, x=x)
        ops = plan.operators if ex else plan.geometry
        S = (_cvec(N).astype(dtype).reshape(plan.M, plan.P).T.copy()
             if ex else None)
        return capture_fmm(cluster, ops, dtype=dtype,
                           comm_algorithm=comm_algorithm, S=S)
    # nufft
    m = max(16, N // 2)
    c = _cvec(N) if ex else None
    x = rng.random(m) if ex else None
    return capture_nufft(cluster, N, m, c=c, x=x)
