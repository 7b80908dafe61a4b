"""Figure 2: execution profiles of the 1D FFT vs the FMM-FFT.

N = 2^27, double-complex, 2xP100/NVLink, FMM-FFT parameters
P = 256, M_L = 64, B = 3, Q = 16.  The paper's nvprof timelines show the
1D FFT "severely communication bound" (three yellow all-to-all phases
with overlapped compute) while the FMM-FFT front-loads a large compute
block (the FMMs, 255 of size 524k, ~32 ms, 35 kernel launches) followed
by the single-transpose 2D FFT.

We regenerate both timelines from the simulator's ledger and assert the
quantitative claims: the launch inventory is exactly 35, the FMM-stage
time lands in the paper's band, and the baseline is comm-dominated.
"""

import pytest

from repro.bench.data import PAPER_FIG2
from repro.bench.figures import emit
from repro.machine.spec import dual_p100_nvlink
from repro.pipelines import simulate


def _run_profiles():
    cfg = PAPER_FIG2
    # baseline
    cl_b = simulate("fft1d", cfg["N"], dual_p100_nvlink(), dtype=cfg["dtype"])
    # FMM-FFT
    params = {k: cfg[k] for k in ("P", "ML", "B", "Q")}
    cl_f = simulate("fmmfft", cfg["N"], dual_p100_nvlink(),
                    dtype=cfg["dtype"], params=params)
    return cl_b, cl_f


def test_fig2_profiles(benchmark):
    cl_b, cl_f = benchmark.pedantic(_run_profiles, rounds=1, iterations=1)
    fmm_count, fmm_size = PAPER_FIG2["P"] - 1, PAPER_FIG2["N"] // PAPER_FIG2["P"]

    text = []
    text.append("-- 1D cuFFTXT-style baseline (top panel) --")
    text.append(cl_b.trace().render_profile(width=96, devices=[0]))
    text.append("")
    text.append("-- FMM-FFT (bottom panel) --")
    text.append(cl_f.trace().render_profile(width=96, devices=[0]))
    text.append("")
    text.append(cl_f.trace().stage_summary().render())

    # quantitative claims
    fmm_names = [
        n for n in cl_f.ledger.time_by_name()
        if not n.startswith(("fft2d", "COMM", "relayout"))
    ]
    launches = sum(
        1 for r in cl_f.ledger.records(device=0)
        if r.name in fmm_names and r.kind not in ("comm", "host")
    )
    fmm_time = max(
        max(r.end for r in cl_f.ledger.records(device=g) if r.name in fmm_names)
        for g in range(2)
    )
    text.append("")
    text.append(
        f"claims: FMMs={fmm_count} of size {fmm_size}x{fmm_size} "
        f"(paper: {PAPER_FIG2['fmm_count']} of {PAPER_FIG2['fmm_size']}); "
        f"FMM stage {fmm_time * 1e3:.1f} ms (paper ~{PAPER_FIG2['fmm_time_ms']} ms); "
        f"{launches} kernel launches (paper {PAPER_FIG2['kernel_launches']})"
    )
    emit("fig2_profile", "\n".join(text))

    assert fmm_count == PAPER_FIG2["fmm_count"]
    assert fmm_size == PAPER_FIG2["fmm_size"]
    assert launches == PAPER_FIG2["kernel_launches"]
    assert 15e-3 < fmm_time < 60e-3
    # baseline is communication bound; the FMM-FFT is not
    tr_b, tr_f = cl_b.trace(), cl_f.trace()
    assert tr_b.comm_time(0) > tr_b.compute_time(0)
    assert tr_f.compute_time(0) > tr_f.comm_time(0)
    # and the FMM-FFT is faster end to end
    assert cl_f.wall_time() < cl_b.wall_time()
