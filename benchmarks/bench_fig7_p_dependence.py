"""Figure 7: P dependence of the FMM stage and the 2D FFT.

N = 2^27, M_L = 64, B = 3, G = 2, double-complex, P swept 2^2..2^18.
The paper's observations: FMM flops/time are nearly flat in P (doubling
P doubles per-contraction work but removes one tree level); the 2D FFT
degrades ~3x at extreme aspect ratios (and cuFFTXT rejects dimensions
< 32); so moderate/large P is favored in practice.
"""

import pytest

from repro.bench.figures import emit
from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink
from repro.model.flops import fmm_total_flops
from repro.model.roofline import fmm_model_time
from repro.pipelines import simulate
from repro.util.table import Table

N, ML, B, Q, G = 1 << 27, 64, 3, 16, 2
PS = [1 << k for k in range(2, 19, 2)]


def _sweep():
    spec = dual_p100_nvlink()
    rows = {}
    for P in PS:
        M = N // P
        if M // ML < (1 << B):      # tree must reach the base level
            continue
        geom = FmmGeometry.create(M=M, P=P, ML=ML, B=B, Q=Q, G=G)
        cl = VirtualCluster(spec, execute=False)
        DistributedFMM(geom, cl).run(staged=True)
        rows[P] = dict(
            gflops=fmm_total_flops(geom, "complex128") / 1e9,
            model_ms=fmm_model_time(geom, spec, "complex128") * 1e3,
            measured_ms=cl.wall_time() * 1e3,
            fft2d_ms=simulate("fft2d", N, spec,
                              params={"P": P}).wall_time() * 1e3,
        )
    return rows


def test_fig7_p_dependence(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    t = Table(
        ["P", "FMM Ops [GFlops]", "FMM Model [msec]", "FMM Measured [msec]", "2DFFT [msec]"],
        title=f"Figure 7: P dependence (N=2^27, ML={ML}, B={B}, G={G}, cdouble)",
    )
    for P, r in rows.items():
        t.add_row([P, r["gflops"], r["model_ms"], r["measured_ms"], r["fft2d_ms"]])
    emit("fig7_p_dependence", t.render())

    ps = sorted(rows)
    mid = [p for p in ps if 64 <= p <= 1 << 14]
    # FMM time is stable across the mid range (paper: "performance is
    # stable as P increases")
    mids = [rows[p]["measured_ms"] for p in mid]
    assert max(mids) / min(mids) < 1.5
    # 2D FFT degrades at the extreme-aspect ends (paper: ~3x)
    best2d = min(rows[p]["fft2d_ms"] for p in ps)
    assert rows[ps[0]]["fft2d_ms"] > 2.0 * best2d
    # FMM flop count varies weakly with P
    gf = [rows[p]["gflops"] for p in mid]
    assert max(gf) / min(gf) < 1.3
