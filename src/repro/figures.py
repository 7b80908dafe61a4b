"""The paper's claims as one table.

Every row of :data:`FIGURES` is one claim of the paper's evaluation
(Figs 1-9, the Sec. 5 roofline model, the Sec. 6.1 error bounds, the
Sec. 7 multi-node outlook) or of the design's ablations and the Sec. 7
extensions.  A row cites where the paper makes the claim and the values
the paper reports, runs one sweep through :func:`repro.pipelines.simulate`,
:func:`repro.model.search.find_fastest` or the real numerics, holds the
sweep to fixed bounds (its checks) and renders it as a table.
``tests/test_figures.py`` runs every row; ``python -m repro figures
--out REPORT.md`` writes the report from the same rows.

Performance numbers are simulated device time on the virtual K40c/P100
testbeds; every error is measured with real NumPy numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import comm
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_relative_error
from repro.fmm.distributed import DistributedFMM
from repro.fmm.plan import FmmGeometry
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import multinode_p100, routed_multinode_p100
from repro.machine.roofline import gemm_performance
from repro.machine.spec import K40C, P100, preset
from repro.model.comm import communication_savings
from repro.model.energy import energy_ratio, run_energy
from repro.model.error import choose_q, predicted_error
from repro.model.flops import fmm_flops_collected, fmm_stage_flops, fmm_total_flops
from repro.model.mops import fmm_stage_mops
from repro.model.roofline import (
    fmm_intensity, fmm_model_time, fmm_stage_times, fmmfft_model_time,
)
from repro.model.search import SearchResult, find_fastest, search_grid
from repro.nufft import nudft2_direct, nufft2
from repro.pipelines import build, simulate
from repro.util.asciiplot import ascii_series
from repro.util.prng import random_signal
from repro.util.table import Table
from repro.util.validation import real_dtype_for

# -- the paper's reported numbers --------------------------------------------

#: Figure 3 speedups over 1D cuFFTXT (the number above every bar), by
#: system and precision; keys are log2(N).
PAPER_FIG3 = {
    ("2xK40c", "complex64"): {
        12: 1.66, 13: 1.71, 14: 1.73, 15: 1.89, 16: 1.82, 17: 1.70, 18: 1.79, 19: 1.51,
        20: 1.13, 21: 0.99, 22: 1.01, 23: 1.04, 24: 1.03, 25: 1.04, 26: 1.05, 27: 1.04,
    },
    ("2xK40c", "complex128"): {
        12: 1.69, 13: 1.69, 14: 1.68, 15: 1.72, 16: 1.49, 17: 1.47, 18: 1.20, 19: 1.00,
        20: 0.91, 21: 1.00, 22: 1.02, 23: 1.04, 24: 1.04, 25: 1.06, 26: 1.05, 27: 1.05,
    },
    ("2xP100", "complex64"): {
        12: 1.20, 13: 1.43, 14: 1.32, 15: 1.67, 16: 1.62, 17: 1.63, 18: 1.57, 19: 1.42,
        20: 1.50, 21: 1.52, 22: 1.23, 23: 1.20, 24: 1.22, 25: 1.25, 26: 1.24, 27: 1.29,
        28: 1.29,
    },
    ("2xP100", "complex128"): {
        12: 1.15, 13: 1.26, 14: 1.40, 15: 1.51, 16: 1.47, 17: 1.43, 18: 1.48, 19: 1.43,
        20: 1.26, 21: 1.09, 22: 1.17, 23: 1.21, 24: 1.25, 25: 1.26, 26: 1.30, 27: 1.29,
    },
    ("8xP100", "complex64"): {
        14: 1.44, 15: 1.79, 16: 1.92, 17: 1.94, 18: 1.85, 19: 1.83, 20: 1.97, 21: 1.87,
        22: 1.82, 23: 1.83, 24: 1.80, 25: 1.63, 26: 1.68, 27: 1.86, 28: 1.99, 29: 2.09,
    },
    ("8xP100", "complex128"): {
        14: 1.78, 15: 1.91, 16: 1.86, 17: 1.82, 18: 1.95, 19: 1.88, 20: 1.76, 21: 1.75,
        22: 1.64, 23: 1.68, 24: 1.57, 25: 1.66, 26: 1.89, 27: 2.04, 28: 2.14,
    },
}

#: Figure 2's configuration and claims: "255 FMMs of size 524k x 524k
#: computed in 32ms with 35 kernel launches".
PAPER_FIG2 = dict(N=1 << 27, P=256, ML=64, B=3, Q=16, G=2, dtype="complex128",
                  fmm_count=255, fmm_size=524288, fmm_time_ms=32.0, kernel_launches=35)

#: Section 6.1 accuracy claims (relative l2).
PAPER_ACCURACY = dict(single_complex=4e-7, double_complex=2e-14)

#: Sections 5 and 6: FMM intensity [flop/byte] and P100 roofline [TF/s]
#: at the large-N cdouble config, the P100 crossover [byte/flop], the
#: comm reduction ("by up to 3x"), the FMM-FFT's share of its peak.
PAPER_MODEL = dict(fmm_intensity_double=7.8, fmm_roofline_tflops_p100=2.7,
                   crossover_byte_per_flop=0.031, comm_reduction=3.0,
                   fmmfft_efficiency=0.9)

# -- the row -----------------------------------------------------------------

#: one bound a sweep must meet: a label and a predicate on the sweep's data
Check = tuple[str, Callable[[Any], bool]]


@dataclass(frozen=True)
class Figure:
    """One paper claim.  ``ref`` cites the figure or section and states
    the claim, ``paper`` holds the values the paper reports for it;
    ``sweep`` measures, ``render`` tabulates, ``checks`` bound it."""

    name: str
    ref: str
    sweep: Callable[[], Any]
    render: Callable[[Any], str]
    checks: tuple[Check, ...]
    paper: dict = field(default_factory=dict)

    def failures(self, data: Any) -> list[str]:
        """Labels of the checks that ``data`` (this row's sweep) breaks."""
        return [label for label, holds in self.checks if not holds(data)]


def _table(columns: list[str], title: str, rows) -> str:
    t = Table(columns, title=title)
    for row in rows:
        t.add_row(row)
    return t.render()


def _largest(rows: dict) -> Any:
    """A sweep keyed by size, at its largest key."""
    return rows[max(rows)]


def _geometry(N: int, P: int, ML: int, B: int, Q: int, G: int = 2) -> FmmGeometry:
    return FmmGeometry.create(M=N // P, P=P, ML=ML, B=B, Q=Q, G=G)


def _staged_fmm(spec, geom: FmmGeometry, **kw) -> VirtualCluster:
    """Timing-only staged run of the distributed FMM stage."""
    cl = VirtualCluster(spec, execute=False)
    DistributedFMM(geom, cl, **kw).run(staged=True)
    return cl


# -- Figures 1 and 2 ---------------------------------------------------------


def _fig1() -> dict:
    """[SGEMM, BatchedSGEMM, DGEMM, BatchedDGEMM] flop/s per device and n."""
    return {dev: {n: [gemm_performance(dev, n, dt, batched=b)
                      for dt in (np.float32, np.float64) for b in (False, True)]
                  for n in (32, 64, 128, 192, 256, 384, 512, 768, 1024)}
            for dev in (K40C, P100)}


def _fig1_render(data: dict) -> str:
    return "\n\n".join(_table(
        ["N", "SGEMM", "BatchedSGEMM", "DGEMM", "BatchedDGEMM"],
        f"Figure 1 ({dev.name}) — modeled GFlop/s "
        f"(gamma_f={dev.gamma_f/1e12:.1f} TF, gamma_d={dev.gamma_d/1e12:.1f} TF, "
        f"beta={dev.beta/1e9:.0f} GB/s)",
        ([n] + [f / 1e9 for f in flops] for n, flops in rows.items()))
        for dev, rows in data.items())


def _fig2() -> dict:
    cfg = PAPER_FIG2
    spec = preset("2xP100")
    cl_b = simulate("fft1d", cfg["N"], spec, dtype=cfg["dtype"])
    cl_f = VirtualCluster(spec, execute=False)
    run = build("fmmfft", cl_f, cfg["N"], dtype=cfg["dtype"],
                params={k: cfg[k] for k in ("P", "ML", "B", "Q")})
    run.run()
    geom = run.plan.geometry
    fmm_names = [n for n in cl_f.ledger.time_by_name()
                 if not n.startswith(("fft2d", "COMM", "relayout"))]
    tr_b, tr_f = cl_b.trace(), cl_f.trace()
    return dict(
        baseline=cl_b, fmmfft=cl_f,
        fmm_count=geom.P - 1, fmm_size=geom.M,
        launches=sum(1 for r in cl_f.ledger.records(device=0)
                     if r.name in fmm_names and r.kind not in ("comm", "host")),
        fmm_time=max(max(r.end for r in cl_f.ledger.records(device=g) if r.name in fmm_names)
                     for g in range(2)),
        baseline_comm_bound=tr_b.comm_time(0) > tr_b.compute_time(0),
        fmmfft_compute_bound=tr_f.compute_time(0) > tr_f.comm_time(0),
    )


def _fig2_render(d: dict) -> str:
    cl_b, cl_f = d["baseline"], d["fmmfft"]
    return "\n".join([
        "-- 1D cuFFTXT-style baseline (top panel) --",
        cl_b.trace().render_profile(width=96, devices=[0]),
        "",
        "-- FMM-FFT (bottom panel) --",
        cl_f.trace().render_profile(width=96, devices=[0]),
        "",
        cl_f.trace().stage_summary().render(),
        "",
        f"claims: FMMs={d['fmm_count']} of size {d['fmm_size']}x{d['fmm_size']} "
        f"(paper: {PAPER_FIG2['fmm_count']} of {PAPER_FIG2['fmm_size']}); "
        f"FMM stage {d['fmm_time'] * 1e3:.1f} ms (paper ~{PAPER_FIG2['fmm_time_ms']} ms); "
        f"{d['launches']} kernel launches (paper {PAPER_FIG2['kernel_launches']})",
    ])


# -- Figure 3: speedup over the 1D FFT ---------------------------------------

#: every find_fastest result this process has run, keyed (system, dtype,
#: log2N): the Fig 3 panels, the calibration bands and Figs 4-5 share them.
#: The search is a pure function of its key, so sharing changes timing only.
_SEARCHES: dict[tuple[str, str, int], SearchResult] = {}


def _fastest(system: str, dtype: str, q: int) -> SearchResult:
    """The fastest FMM-FFT found at N = 2^q, searched once per process."""
    key = (system, dtype, q)
    if key not in _SEARCHES:
        _SEARCHES[key] = find_fastest(1 << q, preset(system), dtype=dtype)
    return _SEARCHES[key]


TESTBEDS = ("2xK40c", "2xP100", "8xP100")

#: speedup band at each panel's largest N (paper: ~1.05, ~1.3, ~1.9-2.1)
FIG3_LARGE_N = {"2xK40c": (1.0, 1.3), "2xP100": (1.1, 1.6), "8xP100": (1.6, math.inf)}

#: the calibrated speedup bands, complex128: system -> log2N -> (lo, hi).
#: The simulator's constants the paper does not print were fitted once
#: against Figure 3 and frozen; these bands catch a re-tune.
FIG3_BANDS = {
    "2xK40c": {14: (1.15, 1.55), 17: (1.40, 1.90), 22: (1.05, 1.35), 26: (0.95, 1.20)},
    "2xP100": {14: (1.05, 1.40), 17: (1.35, 1.85), 22: (1.15, 1.50), 26: (1.10, 1.40)},
    "8xP100": {16: (1.15, 1.55), 20: (1.35, 1.85), 24: (1.55, 2.00), 27: (1.65, 2.10)},
}


def _fig3_panel(system: str, dtype: str) -> dict:
    """Searched speedup, its model and 2D-FFT bounds at every N the paper plots."""
    spec = preset(system)
    rows = {}
    for q in PAPER_FIG3[(system, dtype)]:
        r = _fastest(system, dtype, q)
        p = r.params
        geom = _geometry(1 << q, p["P"], p["ML"], p["B"], p["Q"], spec.num_devices)
        t2d = simulate("fft2d", 1 << q, spec, dtype=dtype, params={"P": p["P"]}).wall_time()
        rows[q] = dict(
            speedup=r.speedup, params=p, budget=r.baseline_time / t2d,
            model=r.baseline_time / fmmfft_model_time(geom, spec, dtype, fft2d_time=t2d))
    return rows


def _fig3_render(system: str, dtype: str, rows: dict) -> str:
    paper = PAPER_FIG3[(system, dtype)]
    table = _table(
        ["log2N", "measured", "paper", "model", "2D-FFT budget", "fastest params"],
        f"Figure 3 panel: {dtype}, {preset(system).name} (speedup over 1D FFT)",
        ([q, r["speedup"], paper[q], r["model"], r["budget"],
          "P={P},ML={ML},B={B},Q={Q}".format(**r["params"])] for q, r in rows.items()))
    series = {"measured": [r["speedup"] for r in rows.values()],
              "paper": [paper[q] for q in rows],
              "model": [r["model"] for r in rows.values()]}
    return table + "\n" + ascii_series(list(rows), series, height=10)


def _fig3_row(system: str, dtype: str) -> Figure:
    lo, hi = FIG3_LARGE_N[system]
    band = f"{lo} < speedup" + (f" < {hi}" if hi < math.inf else "")
    return Figure(
        f"fig3_{system}_{dtype}",
        f"Fig. 3 ({system}, {dtype}): the fastest FMM-FFT found by searching "
        f"(P, M_L, B, Q), over the 1D FFT, beside the roofline model and the 2D-FFT budget",
        lambda: _fig3_panel(system, dtype),
        lambda d: _fig3_render(system, dtype, d),
        (("speedup > 0.95 at every N", lambda d: all(r["speedup"] > 0.95 for r in d.values())),
         (f"{band} at the largest N", lambda d: lo < _largest(d)["speedup"] < hi)),
        PAPER_FIG3[(system, dtype)])


def _bands_row(system: str) -> Figure:
    cells = FIG3_BANDS[system]
    paper = {q: PAPER_FIG3[(system, "complex128")][q] for q in cells}
    return Figure(
        f"fig3_bands_{system}",
        f"Fig. 3 ({system}, complex128): the bands the fitted constants were frozen at",
        lambda: {q: _fastest(system, "complex128", q).speedup for q in cells},
        lambda d: _table(
            ["log2N", "band", "measured", "paper"],
            f"Figure 3 calibration bands: complex128, {system}",
            ([q, "[{:.2f}, {:.2f}]".format(*cells[q]), s, paper[q]] for q, s in d.items())),
        tuple((f"{lo:.2f} <= speedup <= {hi:.2f} at 2^{q}",
               lambda d, q=q, lo=lo, hi=hi: lo <= d[q] <= hi)
              for q, (lo, hi) in cells.items()),
        paper)


# -- Figures 4 and 5: where the FMM's time goes ------------------------------

KERNEL_CLASSES = ("M2L-B", "M2L-ell", "S2T", "B-GEMM", "GEMV")

#: the Fig 5 stage groups (the GEMV reduction has no roofline bar)
FIG5_GROUPS = KERNEL_CLASSES[:4]


def _kernel_class(name: str) -> str | None:
    if name in ("M2L-B", "S2T"):
        return name
    if name.startswith("M2L-"):
        return "M2L-ell"
    if name in ("S2M", "L2T") or name.startswith(("M2M", "L2L")):
        return "B-GEMM"
    return "GEMV" if name == "REDUCE" else None


def _class_times(times: dict, classes, scale: float = 1.0) -> dict:
    acc = dict.fromkeys(classes, 0.0)
    for name, t in times.items():
        cls = _kernel_class(name)
        if cls in acc:
            acc[cls] += t / scale
    return acc


def _searched_fmm(q: int) -> tuple[SearchResult, FmmGeometry, VirtualCluster]:
    """The searched 2xP100 cdouble configuration at N = 2^q, its FMM staged."""
    r = _fastest("2xP100", "complex128", q)
    geom = FmmFftPlan.create(N=1 << q, G=2, build_operators=False, **r.params).geometry
    return r, geom, _staged_fmm(preset("2xP100"), geom)


def _fig4() -> dict:
    rows = {}
    for q in range(12, 28, 2):
        acc = _class_times(_searched_fmm(q)[2].ledger.time_by_name(), KERNEL_CLASSES)
        total = sum(acc.values())
        rows[q] = {k: v / total for k, v in acc.items()}
    return rows


def _fig5() -> dict:
    spec = preset("2xP100")
    rows = {}
    for q in (16, 18, 20, 22, 24, 26):
        r, geom, cl = _searched_fmm(q)
        # simulated per-stage times per device against the roofline's
        measured = _class_times(cl.ledger.time_by_name(), FIG5_GROUPS, scale=2)
        model = _class_times(fmm_stage_times(geom, spec), FIG5_GROUPS)
        eff = {g: (model[g] / measured[g] if measured[g] else float("nan"))
               for g in FIG5_GROUPS}
        eff["FMM"] = fmm_model_time(geom, spec) / max(sum(measured.values()), 1e-30)
        t2d = simulate("fft2d", 1 << q, spec, params={"P": r.params["P"]}).wall_time()
        eff["FMM-FFT"] = (fmm_model_time(geom, spec) + t2d) / r.fmmfft_time
        rows[q] = eff
    return rows


def _per_n_render(title: str) -> Callable[[dict], str]:
    return lambda rows: _table(["log2N", *_largest(rows)], title,
                               ([q, *r.values()] for q, r in rows.items()))


def _bgemm_most_efficient(d: dict) -> bool:
    large = _largest(d)
    return large["B-GEMM"] == max(large[g] for g in FIG5_GROUPS if large[g] == large[g])


# -- Figures 6-9: the parameter dependences ----------------------------------

#: the Figure 2 size the dependence figures sweep around
N27 = 1 << 27


def _fmm_costs(geom: FmmGeometry) -> dict:
    """Flops, roofline model time and simulated time of one FMM stage."""
    spec = preset("2xP100")
    return dict(gflops=fmm_total_flops(geom, "complex128") / 1e9,
                model_ms=fmm_model_time(geom, spec, "complex128") * 1e3,
                measured_ms=_staged_fmm(spec, geom).wall_time() * 1e3)


def _costs_render(key: str, title: str, *extra: str) -> Callable[[dict], str]:
    cols = ["FMM Ops [GFlops]", "FMM Model [msec]", "FMM Measured [msec]", *extra]
    return lambda rows: _table([key, *cols], title, ([k, *r.values()] for k, r in rows.items()))


def _fig7() -> dict:
    rows = {}
    for P in [1 << k for k in range(2, 19, 2)]:
        if N27 // P // 64 < (1 << 3):      # tree must reach the base level
            continue
        rows[P] = _fmm_costs(_geometry(N27, P, 64, 3, 16))
        rows[P]["fft2d_ms"] = simulate("fft2d", N27, preset("2xP100"),
                                       params={"P": P}).wall_time() * 1e3
    return rows


def _optima(rows: dict) -> tuple[int, int]:
    """Fig 6: the M_L minimizing flops, and the one minimizing time."""
    return (min(rows, key=lambda ml: rows[ml]["gflops"]),
            min(rows, key=lambda ml: rows[ml]["measured_ms"]))


def _mid_spread(rows: dict, key: str) -> float:
    """Fig 7: max/min of ``key`` over the mid range 64 <= P <= 2^14."""
    mid = [rows[p][key] for p in sorted(rows) if 64 <= p <= 1 << 14]
    return max(mid) / min(mid)


def _fig9_cost() -> dict:
    spec = preset("2xP100")
    rows = {}
    for Q in range(2, 25, 2):
        geom = _geometry(1 << 28, 128, 64, 3, Q)
        rows[Q] = dict(gflops=fmm_total_flops(geom, "complex128") / 1e9,
                       model_ms=fmm_model_time(geom, spec, "complex128") * 1e3)
    return rows


def _fig9_accuracy() -> dict:
    N, P, ML, B = 1 << 13, 16, 16, 3
    x = random_signal(N, "complex128", seed=99)
    return {Q: fmmfft_relative_error(x, FmmFftPlan.create(N=N, P=P, ML=ML, B=B, Q=Q))
            for Q in range(2, 25)}


def _errors_render(title: str, fmt: str = ".3e") -> Callable[[dict], str]:
    return lambda errs: _table(["Q", "relative l2 error"], title,
                               ([Q, f"{e:{fmt}}"] for Q, e in errs.items()))


# -- Section 6.1 accuracy and the Section 5 model ----------------------------

#: (N, P, ML, B) spread for the Sec. 6.1 error claims
ACCURACY_CONFIGS = [(1 << 12, 32, 16, 2), (1 << 13, 32, 16, 3), (1 << 14, 64, 32, 2),
                    (1 << 15, 64, 64, 3), (1 << 16, 64, 64, 3), (1 << 17, 128, 64, 3)]


def _accuracy() -> list[tuple]:
    """(N, P, ML, B, csingle error at Q=8, cdouble error at Q=16) per config."""
    rows = []
    for (N, P, ML, B) in ACCURACY_CONFIGS:
        errs = [fmmfft_relative_error(random_signal(N, dtype, seed=N), FmmFftPlan.create(
                    N=N, P=P, ML=ML, B=B, Q=Q, dtype=dtype))
                for dtype, Q in (("complex64", 8), ("complex128", 16))]
        rows.append((N, P, ML, B, *errs))
    return rows


def _model_validation() -> dict:
    N, P, ML, B, Q, G = N27, 256, 64, 3, 16, 2
    geom = _geometry(N, P, ML, B, Q, G)
    cl = _staged_fmm(preset("2xP100"), geom)
    model_f, model_m = fmm_stage_flops(geom, "complex128"), fmm_stage_mops(geom, "complex128")
    ledger_f, ledger_m = cl.ledger.flops_by_name(), cl.ledger.mops_by_name()
    stages, worst = [], 0.0
    for stage in sorted(model_f):
        lf, lm = ledger_f.get(stage, 0.0) / G, ledger_m.get(stage, 0.0) / G
        stages.append([stage, f"{model_f[stage]:.4g}", f"{lf:.4g}",
                       f"{model_m[stage]:.4g}", f"{lm:.4g}"])
        worst = max(worst, abs(lf - model_f[stage]) / max(model_f[stage], 1.0))
    intensity = fmm_intensity(geom, "complex128")
    d = dict(worst=worst, intensity=intensity,
             roofline_tf=min(P100.gamma_d, P100.beta * intensity) / 1e12,
             savings=communication_savings(N, G, geom),
             collected=fmm_flops_collected(N, P, ML, Q, G, B) / fmm_total_flops(geom))
    d["text"] = _table(
        ["stage", "model flops", "ledger flops", "model bytes", "ledger bytes"],
        f"Ledger vs Section 5 closed forms (per device x G={G})", stages,
    ) + "\n\n" + _table(["quantity", "ours", "paper"], "Model headline quantities", [
        ["FMM intensity [flop/byte, cdouble]", intensity, PAPER_MODEL["fmm_intensity_double"]],
        ["FMM roofline [TF/s, P100 cdouble]", d["roofline_tf"],
         PAPER_MODEL["fmm_roofline_tflops_p100"]],
        ["comm reduction vs 1D FFT", d["savings"], PAPER_MODEL["comm_reduction"]],
        ["collected/exact flop ratio", d["collected"], 1.0]])
    return d


# -- energy, ablations, extensions -------------------------------------------


def _energy() -> dict:
    """(1D FFT energy, FMM-FFT energy, ratio) per system at N = 2^26."""
    rows = {}
    for label, spec in [("2xP100", preset("2xP100")), ("8xP100", preset("8xP100")),
                        ("2 nodes x 4 P100", multinode_p100(2, 4)),
                        ("4 nodes x 4 P100", multinode_p100(4, 4))]:
        e_b = run_energy(simulate("fft1d", 1 << 26, spec))
        B = max(3, spec.num_devices.bit_length() - 1)  # need G | 2^B
        e_f = run_energy(simulate("fmmfft", 1 << 26, spec,
                                  params=dict(P=1 << 9, ML=64, B=B, Q=16)))
        rows[label] = (e_b, e_f, energy_ratio(e_b, e_f))
    return rows


def _onthefly() -> tuple[float, float]:
    """FMM bytes moved per device: on-the-fly vs streamed S2T/M2L operators."""
    geom = _geometry(1 << 27, 256, 64, 3, 16)
    onfly = fmm_stage_mops(geom, "complex128")
    rsize = real_dtype_for("complex128").itemsize
    streamed = dict(onfly)
    # S2T operator: (P-1) x ML x 3ML reals read once per application
    streamed["S2T"] += (geom.P - 1) * geom.ML * 3 * geom.ML * rsize
    for ell in geom.tree.levels_m2l():
        streamed[f"M2L-{ell}"] += (geom.P - 1) * 6 * geom.Q**2 * rsize
    streamed["M2L-B"] += (geom.P - 1) * ((1 << geom.tree.B) - 3) * geom.Q**2 * rsize
    return sum(onfly.values()), sum(streamed.values())


def _fusion() -> tuple[float, float, float, float]:
    """(time, bytes) of the FMM stage split, then with M2L+L2L fused."""
    geom = _geometry(1 << 27, 256, 64, 3, 16)
    split, fused = (_staged_fmm(preset("2xP100"), geom, fuse_m2l_l2l=fuse)
                    for fuse in (False, True))
    return (split.wall_time(), split.ledger.total("mops"),
            fused.wall_time(), fused.ledger.total("mops"))


def _reduced_q() -> dict:
    rows = {}
    for tol in (1e-14, 1e-10, 1e-6, 1e-3):
        Q = choose_q(tol)
        err = fmmfft_relative_error(random_signal(1 << 12, seed=1),
                                    FmmFftPlan.create(N=1 << 12, P=16, ML=16, B=2, Q=Q))
        cl = _staged_fmm(preset("2xP100"), _geometry(1 << 24, 1 << 9, 64, 3, Q))
        rows[tol] = dict(Q=Q, fmm_ms=cl.wall_time() * 1e3, err=err, pred=predicted_error(Q))
    return rows


def _nufft_accuracy() -> dict:
    rng = np.random.default_rng(3)
    n, m = 512, 1200
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.uniform(0, 1, m)
    ref = nudft2_direct(c, x)
    return {Q: float(np.linalg.norm(nufft2(c, x, Q=Q) - ref) / np.linalg.norm(ref))
            for Q in (4, 8, 12, 16, 20)}


# -- Section 7: across nodes ---------------------------------------------------

#: the routed fabric: 4 P100s per node on a radix-36 fat tree whose leaf
#: uplinks are 2x oversubscribed
MN_GPUS_PER_NODE, MN_RADIX, MN_OVERSUBSCRIPTION = 4, 36, 2.0
MN_DEVICES = (16, 32, 64, 128, 256)
#: weak scaling holds 2^22 points per device; strong scaling holds N = 2^26
MN_WEAK_PER_DEVICE, MN_STRONG_N = 1 << 22, 1 << 26
#: the all-to-all algorithms compared at 4 MiB per device on 4 nodes
MN_ALGORITHMS = ("bulk", "direct", "ring", "bruck", "hier", "hier2")
MN_ALGO_NODES, MN_ALGO_PAYLOAD = 4, float(1 << 22)


def _fat_tree(nodes: int):
    return routed_multinode_p100(nodes, gpus_per_node=MN_GPUS_PER_NODE, radix=MN_RADIX,
                                 oversubscription=MN_OVERSUBSCRIPTION)


def _multinode() -> dict:
    """The fastest FMM-FFT against the 1D FFT per device count, weak and
    strong, over the first 12 candidates of the search grid; and the
    simulated time of each all-to-all algorithm."""
    d = {"weak": {}, "strong": {}, "alltoall": {}}
    for G in MN_DEVICES:
        spec = _fat_tree(G // MN_GPUS_PER_NODE)
        for regime, N in (("weak", G * MN_WEAK_PER_DEVICE), ("strong", MN_STRONG_N)):
            d[regime][G] = find_fastest(N, spec, grid=search_grid(N, G)[:12])
    for algo in MN_ALGORITHMS:
        cl = VirtualCluster(_fat_tree(MN_ALGO_NODES), execute=False)
        comm.alltoall(cl, MN_ALGO_PAYLOAD, "a2a", algorithm=algo, reads=["x"], writes=["y"])
        cl.barrier()
        d["alltoall"][algo] = cl.wall_time()
    return d


def _multinode_render(d: dict) -> str:
    return "\n\n".join([*(_table(
        ["G", "nodes", "N", "FMM-FFT [ms]", "1D FFT [ms]", "speedup"],
        f"{regime} scaling, fat-tree r{MN_RADIX} o{MN_OVERSUBSCRIPTION:g} (complex128)",
        ([G, G // MN_GPUS_PER_NODE, r.N, f"{r.fmmfft_time * 1e3:.2f}",
          f"{r.baseline_time * 1e3:.2f}", f"{r.speedup:.2f}"] for G, r in d[regime].items()))
        for regime in ("weak", "strong")), _table(
        ["algorithm", "alltoall [ms]"],
        f"collective algorithms, {MN_ALGO_NODES * MN_GPUS_PER_NODE} devices, "
        f"{MN_ALGO_PAYLOAD / 2**20:.0f} MiB/device",
        ([algo, f"{t * 1e3:.3f}"] for algo, t in d["alltoall"].items()))])


def _speedups(d: dict, regime: str) -> list[float]:
    return [r.speedup for r in d[regime].values()]


def _fmm_times(title: str, key: str, scale: float, unit: str) -> Callable[[dict], str]:
    return lambda d: _table([key, f"FMM time [{unit}]"], title,
                            ([k, v * scale] for k, v in d.items()))


# -- the table ---------------------------------------------------------------

FIGURES: tuple[Figure, ...] = (
    Figure(
        "fig1_gemm",
        "Fig. 1: BatchedGEMM lags GEMM on K40c, near parity on P100 (Sec. 5.4 roofline)",
        _fig1, _fig1_render,
        (("K40c BatchedSGEMM < 0.7x SGEMM at n=512",
          lambda d: d[K40C][512][1] < 0.7 * d[K40C][512][0]),
         ("P100 BatchedSGEMM > 0.85x SGEMM at n=512",
          lambda d: d[P100][512][1] > 0.85 * d[P100][512][0]))),
    Figure(
        "fig2_profile",
        "Fig. 2 (N=2^27, 2xP100): 1D FFT comm bound; 255 FMMs of 524k in ~32 ms, 35 launches",
        _fig2, _fig2_render,
        (("255 FMMs", lambda d: d["fmm_count"] == PAPER_FIG2["fmm_count"]),
         ("each of size 524288", lambda d: d["fmm_size"] == PAPER_FIG2["fmm_size"]),
         ("35 kernel launches", lambda d: d["launches"] == PAPER_FIG2["kernel_launches"]),
         ("15 ms < FMM stage < 60 ms", lambda d: 15e-3 < d["fmm_time"] < 60e-3),
         ("1D FFT: comm > compute on device 0", lambda d: d["baseline_comm_bound"]),
         ("FMM-FFT: compute > comm on device 0", lambda d: d["fmmfft_compute_bound"]),
         ("FMM-FFT faster end to end",
          lambda d: d["fmmfft"].wall_time() < d["baseline"].wall_time())),
        PAPER_FIG2),
    *(_fig3_row(system, dtype) for system, dtype in PAPER_FIG3),
    *(_bands_row(system) for system in TESTBEDS),
    Figure(
        "fig3_ordering",
        "Fig. 3: gains grow with interconnect weakness, ~2x on 8 GPUs, no big loss on 2xK40c",
        lambda: {s: _fastest(s, "complex128", 26).speedup for s in TESTBEDS},
        lambda d: _table(["system", "speedup at 2^26", "paper"],
                         "Figure 3 ordering at N = 2^26, complex128",
                         ([s, v, PAPER_FIG3[(s, "complex128")][26]] for s, v in d.items())),
        (("8xP100 > 2xP100 > 2xK40c at 2^26",
          lambda d: d["8xP100"] > d["2xP100"] > d["2xK40c"]),
         ("8xP100 > 1.6 at 2^26", lambda d: d["8xP100"] > 1.6),
         ("2xK40c > 0.95 at 2^26", lambda d: d["2xK40c"] > 0.95)),
        {s: PAPER_FIG3[(s, "complex128")][26] for s in TESTBEDS}),
    Figure(
        "fig4_kernel_fractions",
        "Fig. 4 (2xP100, cdouble): at large N, M2L-B is negligible; BatchedGEMM and S2T dominate",
        _fig4, _per_n_render("Figure 4: fraction of FMM time per kernel (2xP100, cdouble)"),
        (("M2L-B < 0.1 at the largest N", lambda d: _largest(d)["M2L-B"] < 0.1),
         ("B-GEMM + S2T > 0.6 at the largest N",
          lambda d: _largest(d)["B-GEMM"] + _largest(d)["S2T"] > 0.6),
         ("fractions sum to 1 (rel 1e-6)",
          lambda d: all(abs(sum(f.values()) - 1.0) <= 1e-6 for f in d.values())))),
    Figure(
        "fig5_efficiency",
        "Fig. 5 (2xP100, cdouble): B-GEMM most efficient, custom kernels ~60%, FMM-FFT ~90%",
        _fig5,
        _per_n_render("Figure 5: achieved fraction of roofline model time (2xP100, cdouble)"),
        (("B-GEMM the most efficient stage at the largest N", _bgemm_most_efficient),
         ("0.4 < S2T < 0.75 at the largest N", lambda d: 0.4 < _largest(d)["S2T"] < 0.75),
         ("0.4 < M2L-ell < 0.75 at the largest N",
          lambda d: 0.4 < _largest(d)["M2L-ell"] < 0.75),
         ("FMM-FFT > 0.7 at the largest N", lambda d: _largest(d)["FMM-FFT"] > 0.7),
         ("every efficiency in (0, 1.01] (nan: stage absent)",
          lambda d: all(not v <= 0.0 and not v > 1.01
                        for eff in d.values() for v in eff.values()))),
        {"FMM-FFT": PAPER_MODEL["fmmfft_efficiency"]}),
    Figure(
        "fig6_ml_dependence",
        "Fig. 6 (N=2^27, P=256, B=3, G=2): flops minimize at M_L~32, time at larger M_L (64)",
        lambda: {ML: _fmm_costs(_geometry(N27, 256, ML, 3, 16))
                 for ML in [1 << k for k in range(11)]},
        _costs_render("ML", "Figure 6: ML dependence (N=2^27, P=256, B=3, G=2, cdouble)"),
        (("flop optimum M_L in {16, 32}", lambda d: _optima(d)[0] in (16, 32)),
         ("time optimum >= flop optimum", lambda d: _optima(d)[1] >= _optima(d)[0]),
         ("time optimum M_L in {32, 64, 128}", lambda d: _optima(d)[1] in (32, 64, 128)),
         ("M_L=1 > 2x the optimum's time",
          lambda d: d[1]["measured_ms"] > 2 * d[_optima(d)[1]]["measured_ms"]),
         ("M_L=1024 > 2x the optimum's time",
          lambda d: d[1024]["measured_ms"] > 2 * d[_optima(d)[1]]["measured_ms"]),
         ("0.4 < model/measured <= 1 at the optimum",
          lambda d: 0.4 < d[_optima(d)[1]]["model_ms"] / d[_optima(d)[1]]["measured_ms"] <= 1)),
        {"ML": 64}),
    Figure(
        "fig7_p_dependence",
        "Fig. 7 (N=2^27, M_L=64, B=3, G=2): FMM stable in P, 2D FFT ~3x worse at extreme P",
        _fig7,
        _costs_render("P", "Figure 7: P dependence (N=2^27, ML=64, B=3, G=2, cdouble)",
                      "2DFFT [msec]"),
        (("FMM time spread < 1.5x over 64 <= P <= 2^14",
          lambda d: _mid_spread(d, "measured_ms") < 1.5),
         ("2D FFT at the smallest P > 2x its best",
          lambda d: d[min(d)]["fft2d_ms"] > 2.0 * min(r["fft2d_ms"] for r in d.values())),
         ("FMM flop spread < 1.3x over 64 <= P <= 2^14",
          lambda d: _mid_spread(d, "gflops") < 1.3)),
        {"2D FFT degradation": 3.0}),
    Figure(
        "fig8_b_dependence",
        "Fig. 8 (N=2^27, P=256, M_L=64, G=2): flat in B until base-level work takes over at ~11",
        lambda: {B: _fmm_costs(_geometry(N27, 256, 64, B, 16)) for B in range(3, 12)},
        _costs_render("B", "Figure 8: B dependence (N=2^27, P=256, ML=64, G=2, cdouble)"),
        (("B=8 < 1.25x B=3", lambda d: d[8]["measured_ms"] < 1.25 * d[3]["measured_ms"]),
         ("B=11 > 1.5x B=3", lambda d: d[11]["measured_ms"] > 1.5 * d[3]["measured_ms"]),
         ("flops grow over B = 7, 9, 11",
          lambda d: d[11]["gflops"] > d[9]["gflops"] > d[7]["gflops"])),
        {"B": 11}),
    Figure(
        "fig9_q_cost",
        "Fig. 9 top (N=2^28, P=128, M_L=64, B=3, G=2): cost depends weakly on Q",
        _fig9_cost,
        lambda d: _table(
            ["Q", "FMM Ops [GFlops]", "FMM Model [msec]"],
            "Figure 9 (top): Q dependence of cost (N=2^28, P=128, ML=64, B=3, G=2)",
            ([Q, r["gflops"], r["model_ms"]] for Q, r in d.items())),
        (("model time at Q=24 < 2.5x Q=8",
          lambda d: d[24]["model_ms"] < 2.5 * d[8]["model_ms"]),)),
    Figure(
        "fig9_q_accuracy",
        "Fig. 9 bottom (cdouble): geometric, odd-even decay in Q; no gain above Q=18",
        _fig9_accuracy,
        _errors_render("Figure 9 (bottom): Q dependence of FMM-FFT accuracy (cdouble)"),
        (("err(4) < err(2)", lambda d: d[4] < d[2]),
         ("err(8) < 1e-3 err(2)", lambda d: d[8] < 1e-3 * d[2]),
         ("err(16) < 1e-2 err(8)", lambda d: d[16] < 1e-2 * d[8]),
         ("err(18) < 1e-12", lambda d: d[18] < 1e-12),
         ("1e-2 err(18) < err(Q) < 50 err(18) for Q = 20, 22, 24",
          lambda d: all(d[18] * 1e-2 < d[Q] < 50 * d[18] for Q in (20, 22, 24))),
         ("an even Q beats the odd one below it at least 3 times in 3..13",
          lambda d: sum(1 for Q in range(3, 15, 2) if d[Q + 1] < d[Q]) >= 3)),
        {"Q floor": 18}),
    Figure(
        "accuracy_claims",
        "Sec. 6.1: relative l2 error under 4e-7 in single-complex, 2e-14 in double-complex",
        _accuracy,
        lambda d: _table(
            ["N", "P", "ML", "B", "csingle err (Q=8)", "cdouble err (Q=16)"],
            "Section 6.1 accuracy claims (paper: < 4e-7 single, < 2e-14 double)",
            ([*r[:4], f"{r[4]:.3e}", f"{r[5]:.3e}"] for r in d)),
        (("csingle (Q=8) < 4e-7 everywhere",
          lambda d: all(r[4] < PAPER_ACCURACY["single_complex"] for r in d)),
         # a 2.5x cushion on the double bound: the paper reports its
         # fastest configs, this sweep includes stressed corners
         ("cdouble (Q=16) < 2.5 x 2e-14 everywhere",
          lambda d: all(r[5] < 2.5 * PAPER_ACCURACY["double_complex"] for r in d))),
        PAPER_ACCURACY),
    Figure(
        "model_validation",
        "Sec. 5/6: ledger = closed forms; 7.8 flop/byte, 2.7 TF/s on P100, comm cut up to 3x",
        _model_validation, lambda d: d["text"],
        (("ledger flops equal the closed forms (rel 1e-9)", lambda d: d["worst"] < 1e-9),
         ("5 < intensity < 12", lambda d: 5.0 < d["intensity"] < 12.0),
         ("1.8 < roofline TF/s < 4.0", lambda d: 1.8 < d["roofline_tf"] < 4.0),
         ("2.5 < comm reduction < 3.01", lambda d: 2.5 < d["savings"] < 3.01)),
        PAPER_MODEL),
    Figure(
        "energy_projection",
        "Secs. 1 and 7: dense compressed algorithms save energy, more so across nodes",
        _energy,
        lambda d: _table(
            ["system", "1D FFT [J]", "FMM-FFT [J]", "FMM comm [J]", "1D comm [J]",
             "energy ratio"], "Energy projection, N = 2^26 cdouble",
            ([label, e_b.total, e_f.total, e_f.communication, e_b.communication, ratio]
             for label, (e_b, e_f, ratio) in d.items())),
        (("FMM-FFT comm energy < 0.6x the 1D FFT's on every system",
          lambda d: all(e_f.communication < 0.6 * e_b.communication
                        for e_b, e_f, _ in d.values())),
         ("energy ratio 8xP100 > 2xP100", lambda d: d["8xP100"][2] > d["2xP100"][2]),
         ("energy ratio 2 nodes > 8xP100",
          lambda d: d["2 nodes x 4 P100"][2] > d["8xP100"][2]),
         ("energy ratio 2 nodes > 1.5", lambda d: d["2 nodes x 4 P100"][2] > 1.5))),
    Figure(
        "multinode_crossover",
        "Sec. 7: across nodes the FMM-FFT stays ahead when N grows with the machine, and "
        "its lead over a fixed N peaks then bends back (16-256 P100s, routed fat tree)",
        _multinode, _multinode_render,
        (("1.0 < weak-scaling speedup < 3.5 at every G",
          lambda d: all(1.0 < s < 3.5 for s in _speedups(d, "weak"))),
         ("strong-scaling peak speedup > 1.5", lambda d: max(_speedups(d, "strong")) > 1.5),
         ("strong-scaling speedup at the largest G below the peak",
          lambda d: _speedups(d, "strong")[-1] < max(_speedups(d, "strong"))),
         ("0.4 < strong-scaling speedup < 3.5 at every G",
          lambda d: all(0.4 < s < 3.5 for s in _speedups(d, "strong"))),
         ("hier2 all-to-all faster than direct",
          lambda d: d["alltoall"]["hier2"] < d["alltoall"]["direct"]))),
    Figure(
        "ablation_base_level",
        "Secs. 4.7 and 6.3.3: B > 2 trades tree-top latency for dense base-level compute",
        lambda: {B: _staged_fmm(preset("8xP100"), _geometry(1 << 16, 32, 16, B, 16, 8))
                 .wall_time() for B in (3, 4, 5)},
        _fmm_times("Ablation: base level at small N (8xP100)", "B", 1e6, "us"),
        (("B=5 faster than B=3 at N=2^16 on 8xP100", lambda d: d[5] < d[3]),)),
    Figure(
        "ablation_fused_post",
        "Alg. 1 lines 15-16: POST fused into the 2D FFT's load saves a round trip of T",
        lambda: [simulate("fmmfft", 1 << 26, preset("2xP100"), params=dict(
            P=1 << 9, ML=64, B=3, Q=16, fuse_post=fuse)).wall_time() for fuse in (True, False)],
        lambda d: (f"fused POST+2DFFT: {d[0]*1e3:.2f} ms; unfused: {d[1]*1e3:.2f} ms; "
                   f"saving {100*(d[1]-d[0])/d[1]:.1f}% (one round trip of T)"),
        (("fused faster than unfused", lambda d: d[0] < d[1]),)),
    Figure(
        "ablation_pipelining",
        "Fig. 2 top: cuFFTXT-style chunk-pipelined transposes overlap the six-step compute",
        lambda: [simulate("fft1d", 1 << 26, preset("2xP100"),
                          params={"chunks": chunks}).wall_time() for chunks in (8, 1)],
        lambda d: f"pipelined transposes: {d[0]*1e3:.2f} ms; blocking: {d[1]*1e3:.2f} ms",
        (("pipelined faster than blocking", lambda d: d[0] < d[1]),)),
    Figure(
        "ablation_p_gt_g",
        "Sec. 6.3.2: P >> G keeps level-3-BLAS shapes without hurting the FMM",
        lambda: {P: _staged_fmm(preset("2xP100"), _geometry(1 << 24, P, 64, 3, 16))
                 .wall_time() for P in (4, 64, 1024, 16384)},
        _fmm_times("Ablation: P > G generalization (N=2^24)", "P", 1e3, "ms"),
        (("FMM time spread < 1.6x over P = 4..16384",
          lambda d: max(d.values()) / min(d.values()) < 1.6),)),
    Figure(
        "ablation_onthefly",
        "Sec. 5.3: on-the-fly S2T/M2L operators save their P*ML and P*Q^2 memory traffic",
        _onthefly,
        lambda d: (f"FMM memory traffic per device: on-the-fly {d[0]/2**20:.1f} MiB, "
                   f"streamed operators {d[1]/2**20:.1f} MiB "
                   f"(+{100*(d[1]-d[0])/d[0]:.1f}%)"),
        (("streamed operators move more bytes", lambda d: d[1] > d[0]),)),
    Figure(
        "ext_fusion",
        "Sec. 5.3: fusing M2L and L2L prevents 1 read and 1 write of the L data",
        _fusion,
        lambda d: (f"FMM stage N=2^27 cfg: split {d[0]*1e3:.2f} ms / {d[1]/2**30:.2f} GiB "
                   f"moved; fused M2L+L2L {d[2]*1e3:.2f} ms / {d[3]/2**30:.2f} GiB moved "
                   f"({100*(d[1]-d[3])/d[1]:.1f}% fewer memory ops)"),
        (("fused time <= split time", lambda d: d[2] <= d[0]),
         ("fused moves fewer bytes", lambda d: d[3] < d[1]))),
    Figure(
        "ext_reduced_q",
        "Sec. 6.3.4: less accurate transforms are potentially faster by 1.5x",
        _reduced_q,
        lambda d: _table(
            ["tolerance", "chosen Q", "FMM stage [ms]", "measured err", "predicted err"],
            "Reduced-order transforms (Section 6.3.4)",
            ([f"{tol:g}", r["Q"], r["fmm_ms"], f"{r['err']:.2e}", f"{r['pred']:.2e}"]
             for tol, r in d.items())),
        (("measured error < tolerance for every tolerance",
          lambda d: all(r["err"] < tol for tol, r in d.items())),
         ("1.15 < FMM speedup 1e-14 -> 1e-3 < 2.5",
          lambda d: 1.15 < d[1e-14]["fmm_ms"] / d[1e-3]["fmm_ms"] < 2.5)),
        {"speedup": 1.5}),
    Figure(
        "nufft_accuracy",
        "Sec. 2: the Dutt-Rokhlin NUFFT (P = 1) shares the FMM-FFT's a-priori error knob Q",
        _nufft_accuracy, _errors_render("NUFFT-2 accuracy vs expansion order", ".2e"),
        (("err(8) < 3e-3 err(4)", lambda d: d[8] < 3e-3 * d[4]),
         ("err(16) < 1e-12", lambda d: d[16] < 1e-12))),
)


def report(figures: tuple[Figure, ...] = FIGURES) -> tuple[str, list[str]]:
    """Run every row; return the markdown report and the broken checks,
    each as ``"<row>: <check label>"``."""
    sections, broken = [], []
    for fig in figures:
        data = fig.sweep()
        failed = fig.failures(data)
        broken += [f"{fig.name}: {label}" for label in failed]
        sections += [f"## {fig.name}", "", f"{fig.ref}.", ""]
        if fig.paper:
            values = ", ".join(f"{k}={v}" for k, v in fig.paper.items())
            sections += [f"Paper's values: {values}.", ""]
        sections += [f"- {'✗' if label in failed else '✓'} {label}" for label, _ in fig.checks]
        sections += ["", "```", fig.render(data), "```", ""]
    checks = sum(len(f.checks) for f in figures)
    head = ["# Paper claims report", "",
            f"Every row of `repro.figures.FIGURES`, as `python -m repro figures --out "
            f"REPORT.md` writes it: {len(figures)} rows, {checks - len(broken)} of {checks} "
            f"checks hold.  Performance numbers are simulated device time on the virtual "
            f"K40c/P100 testbeds; every error is measured with real NumPy numerics.", ""]
    return "\n".join(head + sections), broken
