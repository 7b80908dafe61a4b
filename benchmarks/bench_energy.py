"""Energy projection — the efficiency angle the paper motivates.

The introduction cites the harmonious energy efficiency of
compressed/dense algorithms [17]; the conclusion predicts multi-node
energy wins.  We price the simulated ledgers of both pipelines with the
Pascal-era energy model: the FMM-FFT spends *more* arithmetic energy
but saves communication and (via shorter wall time) idle energy, so its
energy win tracks interconnect weakness — modest at 2 GPUs, clear at 8,
large across nodes.
"""

import pytest

from repro.bench.figures import emit
from repro.machine.multinode import multinode_p100
from repro.machine.spec import dgx1_p100, dual_p100_nvlink
from repro.model.energy import energy_ratio, run_energy
from repro.pipelines import simulate
from repro.util.table import Table

N = 1 << 26

SYSTEMS = [
    ("2xP100", dual_p100_nvlink),
    ("8xP100", dgx1_p100),
    ("2 nodes x 4 P100", lambda: multinode_p100(2, 4)),
    ("4 nodes x 4 P100", lambda: multinode_p100(4, 4)),
]


def _measure():
    rows = []
    for label, make in SYSTEMS:
        spec = make()
        e_b = run_energy(simulate("fft1d", N, spec))
        B = max(3, spec.num_devices.bit_length() - 1)  # need G | 2^B
        e_f = run_energy(simulate(
            "fmmfft", N, spec, params=dict(P=1 << 9, ML=64, B=B, Q=16)))
        rows.append((label, e_b, e_f, energy_ratio(e_b, e_f)))
    return rows


def test_energy_projection(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    t = Table(
        ["system", "1D FFT [J]", "FMM-FFT [J]", "FMM comm [J]", "1D comm [J]",
         "energy ratio"],
        title=f"Energy projection, N = 2^26 cdouble",
    )
    for label, e_b, e_f, ratio in rows:
        t.add_row([label, e_b.total, e_f.total, e_f.communication,
                   e_b.communication, ratio])
    emit("energy_projection", t.render())

    by_label = {r[0]: r for r in rows}
    # FMM-FFT always moves far fewer joules over the wire
    for label, e_b, e_f, _ in rows:
        assert e_f.communication < 0.6 * e_b.communication, label
    # the energy win grows with interconnect weakness
    assert by_label["8xP100"][3] > by_label["2xP100"][3]
    assert by_label["2 nodes x 4 P100"][3] > by_label["8xP100"][3]
    assert by_label["2 nodes x 4 P100"][3] > 1.5
