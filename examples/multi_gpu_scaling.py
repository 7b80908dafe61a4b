"""Multi-GPU scaling study: FMM-FFT vs the six-step 1D FFT, G = 1..8.

Reproduces the paper's core systems argument on simulated P100 nodes:
the FMM stage scales almost perfectly with devices (it only exchanges
halos), while the transpose-bound baseline depends entirely on the
interconnect.  The FMM-FFT's advantage is therefore largest where the
network is weakest — the 8-GPU DGX-1 hybrid cube-mesh, where 3 of every
7 peers fall back to PCIe — and smallest (even negative) where it is
strongest: a single device (nothing to communicate) or the
fully-connected 4-GPU quad.

Per-G parameters come from the same search the paper uses for Figure 3.
Timing-only mode makes the N = 2^26 sweep instant; numerics for these
exact pipelines are validated in the test suite.
"""

from repro.machine.spec import p100_nvlink_node
from repro.model.search import find_fastest
from repro.pipelines import simulate
from repro.util.table import Table


def fmm_stage_time(N: int, params: dict, G: int) -> float:
    """Simulated time of the FMM stage alone (no 2D FFT)."""
    return simulate("fmm", N, p100_nvlink_node(G), params=params).wall_time()


def main() -> None:
    N = 1 << 26
    t = Table(
        ["G", "system", "FMM-FFT [ms]", "1D FFT [ms]", "speedup",
         "FMM stage [ms]", "FMM scaling eff."],
        title="Scaling study, N = 2^26 double-complex on simulated P100 nodes",
    )
    fmm1 = None
    for G in (1, 2, 4, 8):
        spec = p100_nvlink_node(G)
        r = find_fastest(N, spec)
        t_fmm_stage = fmm_stage_time(N, r.params, G)
        if G == 1:
            fmm1 = t_fmm_stage
        t.add_row([
            G, spec.name, r.fmmfft_time * 1e3, r.baseline_time * 1e3,
            r.speedup, t_fmm_stage * 1e3, fmm1 / (G * t_fmm_stage),
        ])
    print(t.render())
    print()
    print("Notes:")
    print(" * The FMM *stage* scales near-perfectly (last column) — it only")
    print("   exchanges halos and one small base-level gather (Section 5.2).")
    print(" * End-to-end speedup vs the 1D FFT tracks interconnect weakness:")
    print("   biggest on the 8-GPU hybrid cube-mesh (PCIe fallbacks), smaller")
    print("   on the fully-connected quad, and < 1 on a single device where")
    print("   there is no communication to avoid.")


if __name__ == "__main__":
    main()
