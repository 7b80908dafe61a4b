"""Figure 3: speedup of the FMM-FFT over the 1D FFT, all six panels.

For each system ({2xK40c, 2xP100, 8xP100}) and precision
({single,double}-complex), and for each N, the paper reports the fastest
FMM-FFT found by searching the parameter space, normalized to the 1D
cuFFTXT time, alongside the roofline-model bound (red) and the 2D-FFT
budget (black).  We regenerate all of it from the simulator + search,
printing the paper's bar labels next to ours.

Expected shape (asserted): speedup > 1 everywhere; largest gains on
8xP100 at large N (~1.9-2.1x); 2xK40c decaying to ~1.05-1.1 at large N.
"""

import pytest

from repro.bench.data import PAPER_FIG3
from repro.bench.figures import emit, fastest_config_sweep
from repro.fmm.plan import FmmGeometry
from repro.machine.spec import preset
from repro.model.roofline import fmmfft_model_time
from repro.pipelines import simulate
from repro.util.table import Table
from repro.util.asciiplot import ascii_series

PANELS = [
    ("2xK40c", "complex64", range(12, 28)),
    ("2xK40c", "complex128", range(12, 28)),
    ("2xP100", "complex64", range(12, 29)),
    ("2xP100", "complex128", range(12, 28)),
    ("8xP100", "complex64", range(14, 30)),
    ("8xP100", "complex128", range(14, 29)),
]


def _panel(sysname: str, dtype: str, qs) -> tuple[str, dict]:
    spec = preset(sysname)
    sweep = fastest_config_sweep(spec, list(qs), dtype=dtype)
    t = Table(
        ["log2N", "measured", "paper", "model", "2D-FFT budget", "fastest params"],
        title=f"Figure 3 panel: {dtype}, {spec.name} (speedup over 1D FFT)",
    )
    series = {"measured": [], "paper": [], "model": []}
    for q, row in sweep.items():
        p = row["params"]
        geom = FmmGeometry.create(
            M=(1 << q) // p["P"], P=p["P"], ML=p["ML"], B=p["B"], Q=p["Q"],
            G=spec.num_devices,
        )
        t2d = simulate("fft2d", 1 << q, spec, dtype=dtype,
                       params={"P": p["P"]}).wall_time()
        model_speedup = row["baseline_time"] / fmmfft_model_time(
            geom, spec, dtype, fft2d_time=t2d
        )
        budget_speedup = row["baseline_time"] / t2d
        paper = PAPER_FIG3.get((sysname, dtype), {}).get(q)
        t.add_row([
            q, row["speedup"], paper if paper is not None else "-",
            model_speedup, budget_speedup,
            f"P={p['P']},ML={p['ML']},B={p['B']},Q={p['Q']}",
        ])
        series["measured"].append(row["speedup"])
        series["paper"].append(paper if paper is not None else float("nan"))
        series["model"].append(model_speedup)
    chart = ascii_series(list(qs), series, height=10)
    return t.render() + "\n" + chart, sweep


@pytest.mark.parametrize("sysname,dtype,qs", PANELS, ids=[f"{s}-{d}" for s, d, _ in PANELS])
def test_fig3_panel(benchmark, sysname, dtype, qs):
    text, sweep = benchmark.pedantic(
        _panel, args=(sysname, dtype, qs), rounds=1, iterations=1
    )
    emit(f"fig3_{sysname}_{dtype}", text)

    speeds = {q: row["speedup"] for q, row in sweep.items()}
    assert all(s > 0.95 for s in speeds.values()), "FMM-FFT should not lose badly"
    large = max(speeds)
    if sysname == "8xP100":
        assert speeds[large] > 1.6, "8xP100 large-N gain band (paper ~1.9-2.1)"
    if sysname == "2xP100":
        assert 1.1 < speeds[large] < 1.6, "2xP100 large-N gain band (paper ~1.3)"
    if sysname == "2xK40c":
        assert 1.0 < speeds[large] < 1.3, "2xK40c large-N gain band (paper ~1.05)"
