"""The pipeline table: every distributed pipeline, named once.

Seven pipelines are assembled from the same two stage kinds (batched
local FFTs and global redistributions) plus the FMM.  Each row maps a
name to a builder ``(cluster, N, dtype, comm_algorithm, params) ->
pipeline`` and a seeded input generator; everything that turns a name
into a pipeline — IR capture, the parameter search, the CLI, examples
and benchmarks — goes through :func:`build` or :func:`simulate`.

Every pipeline object meets one contract:

- ``stage_in(*inputs)`` — host data into device buffers;
- ``run(*inputs)`` — issue the schedule (``run()`` on a timing-only
  cluster); returns the result in execute mode;
- ``finalize()`` — the result, gathered from device buffers;
- ``graph_key()`` — hashable configuration key leading with the row's
  name: equal keys, equal schedules;
- ``ns`` — the prefix its device buffer names live under.

Pipeline classes are imported lazily, and this module depends on
neither :mod:`repro.ir` nor :mod:`repro.model`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro import comm
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import ClusterSpec, p100_nvlink_node
from repro.util.bitmath import ilog2
from repro.util.validation import ParameterError, check_in, check_pow2, real_dtype_for

_PLAN_KEYS = ("P", "ML", "B", "Q")


def _complex(rng, dtype, *shape: int) -> np.ndarray:
    n = int(np.prod(shape))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z.astype(dtype).reshape(shape)


def _fft1d(cl, N, dtype, comm_algorithm, p):
    from repro.dfft.fft1d import Distributed1DFFT

    return Distributed1DFFT(N, cl, dtype=dtype, comm_algorithm=comm_algorithm, **p)


def _fft2d(cl, N, dtype, comm_algorithm, p):
    """``P`` columns (default: the near-square split), ``M = N / P`` rows."""
    from repro.dfft.fft2d import Distributed2DFFT

    check_pow2("N", N)
    P = p.pop("P", None) or N >> ((max(ilog2(N), 2) + 1) // 2)
    return Distributed2DFFT(N // P, P, cl, dtype=dtype,
                            comm_algorithm=comm_algorithm, **p)


def _rfft(cl, N, dtype, comm_algorithm, p):
    from repro.dfft.realfft import DistributedRealFFT

    return DistributedRealFFT(N, cl, dtype=real_dtype_for(dtype),
                              comm_algorithm=comm_algorithm, **p)


def _fft3d(cl, N, dtype, comm_algorithm, p):
    """``dims`` (default: the near-cubic split of N, largest axis first)."""
    from repro.dfft.decomp import Distributed3DFFT

    check_pow2("N", N)
    qz = ilog2(N) // 3
    qy = (ilog2(N) - qz) // 2
    dims = p.pop("dims", (N >> (qy + qz), 1 << qy, 1 << qz))
    return Distributed3DFFT(*dims, cl, dtype=dtype,
                            comm_algorithm=comm_algorithm, **p)


def _fmmfft_plan(cl, N, dtype, p):
    """The FMM-FFT plan for ``(P, ML, B, Q)`` in ``p`` (missing ones from
    :func:`~repro.core.api.default_params`); operators only where they run."""
    from repro.core.api import default_params
    from repro.core.plan import FmmFftPlan

    given = {k: p.pop(k) for k in _PLAN_KEYS if k in p}
    if len(given) < len(_PLAN_KEYS):
        given = {**default_params(N, cl.G), **given}
    return FmmFftPlan.create(N=N, G=cl.G, dtype=dtype,
                             build_operators=cl.execute, **given)


def _fmm(cl, N, dtype, comm_algorithm, p):
    from repro.fmm.distributed import DistributedFMM

    class StandaloneFMM(DistributedFMM):
        """Algorithm 1 as a pipeline of its own ends settled, like the
        other six (inside the FMM-FFT the 2D FFT chains off its events)."""

        def run(self, S=None):
            out = super().run(S)
            self.cl.barrier()
            return out

    plan = _fmmfft_plan(cl, N, dtype, p)
    return StandaloneFMM(plan.operators if cl.execute else plan.geometry, cl,
                         dtype=dtype, comm_algorithm=comm_algorithm, **p)


def _fmmfft(cl, N, dtype, comm_algorithm, p):
    from repro.core.distributed import FmmFftDistributed

    return FmmFftDistributed(_fmmfft_plan(cl, N, dtype, p), cl,
                             comm_algorithm=comm_algorithm, **p)


def _nufft(cl, N, dtype, comm_algorithm, p):
    """``N`` coefficients at ``m`` points (default ``max(16, N / 2)``);
    always complex128, and no collective to pick an algorithm for."""
    from repro.nufft.transforms import ClusterNufft2

    return ClusterNufft2(N, p.pop("m", max(16, N // 2)), cl, **p)


class Pipeline(NamedTuple):
    """One row: how to build the pipeline and how to draw its inputs."""

    build: Callable       # (cluster, N, dtype, comm_algorithm, params) -> pipeline
    inputs: Callable      # (pipeline, rng) -> the arguments of stage_in / run
    params: tuple         # the keys ``params`` may carry


PIPELINES: dict[str, Pipeline] = {
    "fft1d": Pipeline(
        _fft1d, lambda p, rng: (_complex(rng, p.dtype, p.N),),
        ("chunks", "M", "P")),
    "fft2d": Pipeline(
        _fft2d, lambda p, rng: (_complex(rng, p.dtype, p.M, p.P),),
        ("chunks", "P", "fuse_load")),
    "rfft": Pipeline(
        _rfft, lambda p, rng: (rng.standard_normal(p.N).astype(p.rdtype),),
        ("chunks",)),
    "fft3d": Pipeline(
        _fft3d, lambda p, rng: (_complex(rng, p.dtype, p.nx, p.ny, p.nz),),
        ("dims", "decomposition", "grid")),
    "fmm": Pipeline(
        _fmm, lambda p, rng: (
            _complex(rng, p.dtype, p.ops.M, p.ops.P).T.copy(),),
        _PLAN_KEYS + ("fuse_m2l_l2l",)),
    "fmmfft": Pipeline(
        _fmmfft, lambda p, rng: (_complex(rng, p.plan.dtype, p.plan.N),),
        _PLAN_KEYS + ("chunks", "fuse_post")),
    "nufft": Pipeline(
        _nufft, lambda p, rng: (_complex(rng, np.complex128, p.n),
                                rng.random(p.m)),
        ("m", "sigma", "Q", "B")),
}

#: the seven pipeline names, in table order
NAMES = tuple(PIPELINES)


def build(name: str, cluster: VirtualCluster, N: int, *, dtype="complex128",
          comm_algorithm: str = "bulk", params: dict | None = None):
    """Construct pipeline ``name`` at size ``N`` on ``cluster``.

    ``params`` carries the row's own knobs (see ``PIPELINES[name].params``;
    e.g. ``P``/``ML``/``B``/``Q``, ``chunks``, ``decomposition``).
    """
    check_in("pipeline", name, NAMES)
    check_in("comm_algorithm", comm_algorithm, comm.ALGORITHMS)
    row, params = PIPELINES[name], dict(params or {})
    unknown = sorted(set(params) - set(row.params))
    if unknown:
        raise ParameterError(
            f"pipeline {name!r} takes params {row.params}, got {unknown}")
    return row.build(cluster, N, dtype, comm_algorithm, params)


def inputs(pipeline, seed: int = 0) -> tuple:
    """Seeded random inputs for one ``stage_in`` / ``run`` of ``pipeline``
    (its row is the one its ``graph_key()`` leads with)."""
    row = PIPELINES[pipeline.graph_key()[0]]
    return row.inputs(pipeline, np.random.default_rng(seed))


def machine_for(name: str, spec: ClusterSpec) -> ClusterSpec:
    """The machine ``name`` runs on: ``spec``, except that the NUFFT is
    single-device by construction."""
    return p100_nvlink_node(1) if name == "nufft" and spec.num_devices != 1 else spec


def simulate(name: str, N: int, spec: ClusterSpec, **build_args) -> VirtualCluster:
    """Run pipeline ``name`` timing-only on a fresh cluster of ``spec``
    (see :func:`machine_for`); returns the cluster, whose ledger,
    ``comm_log`` and ``wall_time()`` are the run's."""
    cl = VirtualCluster(machine_for(name, spec), execute=False)
    build(name, cl, N, **build_args).run()
    return cl
