"""Comm-algorithm bench: plan model sweep + simulated pipeline wall times.

For each simulated testbed (single-node NVLink boxes and a multi-node
machine) this benchmark sweeps the :mod:`repro.comm` cost model over a
range of collective payloads, records every algorithm's predicted time
and the model-chosen winner, then cross-checks the model with *actual*
simulated pipeline runs: the 8-device FMM-FFT and the 1D baseline under
``bulk`` vs ``auto`` collectives.  Artifacts go to
``benchmarks/out/BENCH_comm.json`` (uploaded per commit by the CI comm
job) plus a text table for the report.
"""

import json

import pytest

from artifacts import emit, out_dir
from repro.comm import algorithm_table, choose_algorithm
from repro.core.api import default_params
from repro.machine.multinode import multinode_p100
from repro.machine.spec import preset
from repro.pipelines import simulate
from repro.util.table import Table, format_bytes, format_time

_N = 1 << 20


def _specs():
    return {
        "2xP100": preset("2xP100"),
        "8xP100": preset("8xP100"),
        "2n x 4xP100": multinode_p100(2, gpus_per_node=4),
    }


def _pipeline_times(spec):
    """Simulated wall times for fmmfft and fft1d under bulk vs auto."""
    rows = {}
    for pipe in ("fmmfft", "fft1d"):
        rows[pipe] = {}
        params = default_params(_N) if pipe == "fmmfft" else None
        for algo in ("bulk", "auto"):
            rows[pipe][algo] = simulate(
                pipe, _N, spec, comm_algorithm=algo, params=params).wall_time()
    return rows


def _collect():
    payload = {"N": _N, "testbeds": {}}
    for label, spec in _specs().items():
        payload["testbeds"][label] = {
            "G": spec.num_devices,
            "model_table": algorithm_table(spec),
            "pipelines": _pipeline_times(spec),
        }
    return payload


def _render(payload):
    parts = []
    for label, row in payload["testbeds"].items():
        t = Table(["kind", "payload/dev", "bulk", "best algo", "best", "vs bulk"],
                  title=f"Comm model sweep, {label} (G={row['G']})")
        for r in row["model_table"]:
            t.add_row([r["kind"], format_bytes(r["payload_bytes"]),
                       format_time(r["bulk"]), r["best"],
                       format_time(r["predictions"].get(r["best"], r["bulk"])),
                       f"{r['speedup_vs_bulk']:.2f}x"])
        parts.append(t.render())
        p = row["pipelines"]
        parts.append(
            f"{label}: fmmfft bulk {format_time(p['fmmfft']['bulk'])} -> "
            f"auto {format_time(p['fmmfft']['auto'])}; "
            f"fft1d bulk {format_time(p['fft1d']['bulk'])} -> "
            f"auto {format_time(p['fft1d']['auto'])}"
        )
    return "\n\n".join(parts)


def test_comm_algorithms(benchmark):
    """Benchmark the comm model sweep and validate its headline claims."""
    payload = benchmark.pedantic(_collect, rounds=1, iterations=1)

    emit("comm_algorithms", _render(payload))
    path = out_dir() / "BENCH_comm.json"
    path.write_text(json.dumps(payload, indent=1))

    for label, row in payload["testbeds"].items():
        spec = _specs()[label]
        for r in row["model_table"]:
            # the winner really is the argmin of the recorded predictions
            best = min(r["predictions"], key=r["predictions"].get)
            assert r["predictions"][r["best"]] == pytest.approx(
                r["predictions"][best]
            ), (label, r)
            assert r["speedup_vs_bulk"] == pytest.approx(
                r["bulk"] / r["predictions"][r["best"]]
            ), (label, r)
            # and choose_algorithm agrees with the table
            assert choose_algorithm(
                spec, r["kind"], r["payload_bytes"]
            ) == r["best"], (label, r)
        # small collectives dodge the bulk barrier + overhead by a wide
        # margin on every topology (the point of the message plans)
        small = [r for r in row["model_table"] if r["payload_bytes"] <= 32768]
        assert small and all(r["speedup_vs_bulk"] > 1.5 for r in small), label
        # the headline: auto strictly beats bulk end to end on the dgx1 box
        p = row["pipelines"]
        if label == "8xP100":
            assert p["fmmfft"]["auto"] < p["fmmfft"]["bulk"]
            assert p["fft1d"]["auto"] < p["fft1d"]["bulk"]
