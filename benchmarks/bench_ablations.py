"""Ablations of the paper's design choices (DESIGN.md section 4).

1. **B > 2 vs B = 2** — the paper's generalization trades tree-top
   latency/communication for a dense base-level M2L (Sections 4.7, 6.3.3).
2. **Fused POST + 2D FFT callback vs unfused** — Algorithm 1 lines
   15-16's memory-round-trip saving.
3. **Chunk-pipelined vs blocking transposes** — cuFFTXT-style overlap
   in the six-step baseline.
4. **P > G generalization** — large P keeps level-3-BLAS shapes without
   hurting the FMM (Section 6.3.2).
5. **On-the-fly operators vs streamed operators** — the Section 5.3
   memory trade-off for S2T/M2L.
"""

import pytest

from repro.bench.figures import emit
from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dgx1_p100, dual_p100_nvlink
from repro.model.mops import fmm_stage_mops
from repro.pipelines import simulate
from repro.util.table import Table
from repro.util.validation import real_dtype_for, c_factor


def _fmm_time(spec, **geom_kw) -> float:
    geom = FmmGeometry.create(**geom_kw)
    cl = VirtualCluster(spec, execute=False)
    DistributedFMM(geom, cl).run(staged=True)
    return cl.wall_time()


def test_ablation_base_level(benchmark):
    """B sweep at small N on 8 GPUs: a deeper base avoids the
    latency-dominated top of the tree."""
    spec = dgx1_p100()
    N, P = 1 << 16, 32

    def run():
        out = {}
        for B in (3, 4, 5):
            out[B] = _fmm_time(spec, M=N // P, P=P, ML=16, B=B, Q=16, G=8)
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["B", "FMM time [us]"], title="Ablation: base level at small N (8xP100)")
    for B, v in times.items():
        t.add_row([B, v * 1e6])
    emit("ablation_base_level", t.render())
    # deeper base (fewer hierarchical levels + latencies) wins at small N
    assert times[5] < times[3]


def test_ablation_fused_post(benchmark):
    spec = dual_p100_nvlink()
    params = dict(P=1 << 9, ML=64, B=3, Q=16)

    def run():
        return tuple(
            simulate("fmmfft", 1 << 26, spec,
                     params={**params, "fuse_post": fuse}).wall_time()
            for fuse in (True, False))

    t_f, t_u = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_fused_post",
        f"fused POST+2DFFT: {t_f*1e3:.2f} ms; unfused: {t_u*1e3:.2f} ms; "
        f"saving {100*(t_u-t_f)/t_u:.1f}% (one round trip of T)",
    )
    assert t_f < t_u


def test_ablation_transpose_pipelining(benchmark):
    spec = dual_p100_nvlink()
    N = 1 << 26

    def run():
        return tuple(
            simulate("fft1d", N, spec, params={"chunks": chunks}).wall_time()
            for chunks in (8, 1))

    t_p, t_b = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_pipelining",
        f"pipelined transposes: {t_p*1e3:.2f} ms; blocking: {t_b*1e3:.2f} ms",
    )
    assert t_p < t_b


def test_ablation_p_greater_than_g(benchmark):
    """P >> G leaves FMM time nearly unchanged — the generalization that
    enables level-3 BLAS shapes."""
    spec = dual_p100_nvlink()
    N = 1 << 24

    def run():
        return {
            P: _fmm_time(spec, M=N // P, P=P, ML=64, B=3, Q=16, G=2)
            for P in (4, 64, 1024, 16384)
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["P", "FMM time [ms]"], title="Ablation: P > G generalization (N=2^24)")
    for P, v in times.items():
        t.add_row([P, v * 1e3])
    emit("ablation_p_gt_g", t.render())
    vals = list(times.values())
    assert max(vals) / min(vals) < 1.6


def test_ablation_onthefly_operators(benchmark):
    """Streaming the S2T/M2L operator entries from memory instead of
    generating them on the fly adds the paper's P*ML and P*Q^2 traffic
    terms (Section 5.3) — quantified via the mop model."""
    geom = FmmGeometry.create(M=1 << 19, P=256, ML=64, B=3, Q=16, G=2)
    dtype = "complex128"

    def run():
        onfly = fmm_stage_mops(geom, dtype)
        rsize = real_dtype_for(dtype).itemsize
        t = geom.tree
        streamed = dict(onfly)
        # S2T operator: (P-1) x ML x 3ML reals read once per application
        streamed["S2T"] += (geom.P - 1) * geom.ML * 3 * geom.ML * rsize
        for ell in t.levels_m2l():
            streamed[f"M2L-{ell}"] += (geom.P - 1) * 6 * geom.Q**2 * rsize
        streamed["M2L-B"] += (geom.P - 1) * ((1 << t.B) - 3) * geom.Q**2 * rsize
        return sum(onfly.values()), sum(streamed.values())

    m_fly, m_str = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_onthefly",
        f"FMM memory traffic per device: on-the-fly {m_fly/2**20:.1f} MiB, "
        f"streamed operators {m_str/2**20:.1f} MiB "
        f"(+{100*(m_str-m_fly)/m_fly:.1f}%)",
    )
    assert m_str > m_fly
