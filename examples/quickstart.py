"""Quickstart: compute an FFT with the FMM-FFT and verify it.

Run:  python examples/quickstart.py

Covers the three levels of the API:
1. one-call `fmmfft` (auto parameters, single device);
2. an explicit `FmmFftPlan` (the paper's parameters, full control);
3. a distributed run on a simulated 2xP100 node, with the simulated
   timeline profile printed — the Figure 2 view.
"""

import numpy as np

from repro import FmmFftPlan, VirtualCluster, fmmfft, preset
from repro.pipelines import build
from repro.util.prng import random_signal


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One call.
    # ------------------------------------------------------------------
    N = 1 << 14
    x = random_signal(N, "complex128", seed=0)
    X = fmmfft(x)
    err = np.linalg.norm(X - np.fft.fft(x)) / np.linalg.norm(np.fft.fft(x))
    print(f"[1] fmmfft(x) for N=2^14: relative l2 error vs numpy = {err:.2e}")

    # ------------------------------------------------------------------
    # 2. Explicit plan: the paper's Figure 2 parameter style.
    # ------------------------------------------------------------------
    plan = FmmFftPlan.create(N=N, P=64, ML=16, B=3, Q=16)
    print(f"[2] plan: {plan.describe()}")
    from repro.core.single import fmmfft_single

    X2 = fmmfft_single(x, plan)
    print(f"    error with explicit plan = "
          f"{np.linalg.norm(X2 - np.fft.fft(x)) / np.linalg.norm(X2):.2e}")

    # ------------------------------------------------------------------
    # 3. Distributed on a simulated 2xP100 node, vs the 1D baseline.
    # ------------------------------------------------------------------
    # Every distributed pipeline is built by name from one table.
    cl = VirtualCluster(preset("2xP100"))
    X3 = build("fmmfft", cl, N, params=dict(P=64, ML=16, B=3, Q=16)).run(x)
    t_fmm = cl.wall_time()
    assert np.allclose(X3, X, atol=1e-8)

    cl_b = VirtualCluster(preset("2xP100"))
    assert np.allclose(build("fft1d", cl_b, N).run(x), X, atol=1e-8)
    t_base = cl_b.wall_time()
    print(f"[3] simulated 2xP100: FMM-FFT {t_fmm*1e3:.3f} ms vs "
          f"1D FFT {t_base*1e3:.3f} ms -> speedup {t_base/t_fmm:.2f}x")
    print()
    print(cl.trace().render_profile(width=90, devices=[0]))


if __name__ == "__main__":
    main()
