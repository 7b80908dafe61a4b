"""The paper's claims, checked: one test per row of
:data:`repro.figures.FIGURES`, a Fig 2 run forced off the paper's P, the
seeded all-to-all-derate mutants the Fig 3 bands must catch, and
``repro figures --out``."""

import pytest

from repro import figures
from repro.cli import main
from repro.figures import FIGURES
from repro.machine import topology

BY_NAME = {fig.name: fig for fig in FIGURES}


@pytest.mark.parametrize("fig", FIGURES, ids=list(BY_NAME))
def test_figure(fig):
    data = fig.sweep()
    assert fig.failures(data) == [], fig.render(data)


def test_cli_figures_writes_report(tmp_path, capsys):
    out = tmp_path / "R.md"
    assert main(["figures", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Paper claims report")
    assert all(f"## {name}\n" in text for name in BY_NAME)
    assert "✗" not in text
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_fig2_counts_the_fmms_that_ran(monkeypatch):
    real = figures.build

    def at_p128(name, cluster, N, **kw):
        if name == "fmmfft":
            kw["params"] = {**kw["params"], "P": 128}
        return real(name, cluster, N, **kw)

    monkeypatch.setattr(figures, "build", at_p128)
    fig = BY_NAME["fig2_profile"]
    failed = fig.failures(fig.sweep())
    assert {"255 FMMs", "each of size 524288"} <= set(failed), failed


# The calibrated all-to-all derate is 0.55.  It is bound as the default
# argument of ``alltoall_effective_bandwidth``, so the mutant wraps the
# function: patching the ``ALLTOALL_EFFICIENCY`` constant changes nothing.
@pytest.mark.parametrize("efficiency, broken", [
    (0.40, {"fig3_bands_2xK40c": ["0.95 <= speedup <= 1.20 at 2^26"],
            "fig3_bands_2xP100": ["1.10 <= speedup <= 1.40 at 2^26"]}),
    (0.75, {"fig3_bands_2xK40c": ["1.05 <= speedup <= 1.35 at 2^22",
                                  "0.95 <= speedup <= 1.20 at 2^26"],
            "fig3_bands_2xP100": ["1.10 <= speedup <= 1.40 at 2^26"]}),
])
def test_derate_mutant_breaks_named_bands(monkeypatch, efficiency, broken):
    real = topology.alltoall_effective_bandwidth
    monkeypatch.setattr(topology, "alltoall_effective_bandwidth",
                        lambda graph, efficiency=efficiency: real(graph, efficiency))
    # searches run under the mutant must neither reuse nor leave results
    monkeypatch.setattr(figures, "_SEARCHES", {})
    for name, labels in broken.items():
        fig = BY_NAME[name]
        assert fig.failures(fig.sweep()) == labels
