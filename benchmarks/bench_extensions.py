"""The paper's Section 7 "further optimizations", implemented and measured.

1. **M2L+L2L kernel fusion** — "the M2L and L2L stages could be fused to
   prevent 1 read and 1 write ... of the L data" (Section 5.3).
2. **Reduced-order transforms** — "FFTs that produce less accurate
   results are then potentially faster by 1.5x" (Section 6.3.4): the
   error model picks Q for a tolerance and we measure the FMM-stage
   speedup (simulated) and the delivered accuracy (real numerics).
"""

import numpy as np
import pytest

from repro.bench.figures import emit
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_relative_error
from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink
from repro.model.error import choose_q, predicted_error
from repro.util.prng import random_signal
from repro.util.table import Table


def test_ext_m2l_l2l_fusion(benchmark):
    geom = FmmGeometry.create(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2)
    spec = dual_p100_nvlink()

    def run():
        cl_s = VirtualCluster(spec, execute=False)
        DistributedFMM(geom, cl_s).run(staged=True)
        cl_f = VirtualCluster(spec, execute=False)
        DistributedFMM(geom, cl_f, fuse_m2l_l2l=True).run(staged=True)
        return (cl_s.wall_time(), cl_s.ledger.total("mops"),
                cl_f.wall_time(), cl_f.ledger.total("mops"))

    t_s, m_s, t_f, m_f = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ext_fusion",
        f"FMM stage N=2^27 cfg: split {t_s*1e3:.2f} ms / {m_s/2**30:.2f} GiB moved; "
        f"fused M2L+L2L {t_f*1e3:.2f} ms / {m_f/2**30:.2f} GiB moved "
        f"({100*(m_s-m_f)/m_s:.1f}% fewer memory ops)",
    )
    assert t_f <= t_s
    assert m_f < m_s


def test_ext_reduced_q(benchmark):
    spec = dual_p100_nvlink()
    N, P, ML, B, G = 1 << 24, 1 << 9, 64, 3, 2

    def run():
        rows = {}
        for tol in (1e-14, 1e-10, 1e-6, 1e-3):
            Q = choose_q(tol)
            geom = FmmGeometry.create(M=N // P, P=P, ML=ML, B=B, Q=Q, G=G)
            cl = VirtualCluster(spec, execute=False)
            DistributedFMM(geom, cl).run(staged=True)
            plan = FmmFftPlan.create(N=1 << 12, P=16, ML=16, B=2, Q=Q)
            err = fmmfft_relative_error(random_signal(1 << 12, seed=1), plan)
            rows[tol] = dict(Q=Q, fmm_ms=cl.wall_time() * 1e3, err=err,
                             pred=predicted_error(Q))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["tolerance", "chosen Q", "FMM stage [ms]", "measured err", "predicted err"],
              title="Reduced-order transforms (Section 6.3.4)")
    for tol, r in rows.items():
        t.add_row([f"{tol:g}", r["Q"], r["fmm_ms"], f"{r['err']:.2e}", f"{r['pred']:.2e}"])
    emit("ext_reduced_q", t.render())

    for tol, r in rows.items():
        assert r["err"] < tol
    # the paper's "potentially faster by 1.5x" claim for loose tolerances
    speedup = rows[1e-14]["fmm_ms"] / rows[1e-3]["fmm_ms"]
    assert 1.15 < speedup < 2.5
