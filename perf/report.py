"""The metric catalogue, result files, and ``--compare``.

``BENCHMARK.json`` at the repository root is the catalogue: metric
names, units, directions and the regression bounds of the end-to-end
metrics.  Its per-layer entries have no field for a rule, so the rules
``--compare`` holds the simulated-clock and correctness metrics to are
the one table ``RULES`` here, checked against the catalogue on load.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent

#: simulated-clock numbers and counts: deterministic for a seed
_EXACT = (
    "sim_ms", "sim_speedup_vs_1dfft", "sim_serve_p99_ms",
    "sim_serve_max_rate_rps", "fmm.sim_ms", "dfft.sim_transpose_ms",
    "dfft.alltoalls", "machine.records", "comm.msgs", "comm.wire_bytes",
    "comm.sim_exposed_ms", "comm.overlap_frac", "comm.lb_gap",
    "comm.auto_regret_r4x8", "analysis.findings", "model.sim_over_model",
    "model.fig3_speedup_8xP100_n24", "ir.nodes", "serve.batches",
    "serve.mean_batch_size", "serve.plan_hit_rate", "serve.searches",
    "serve.replayed_frac", "serve.queue_depth_mean",
    "serve.deadline_miss_frac", "serve.shed", "serve.retry_shed",
    "serve.failed_batches", "faults.events", "faults.retries",
)
#: per-layer metric -> the rule ``--compare`` holds it to.  The driver's
#: format gives a per-layer entry of BENCHMARK.json no field for one, so
#: the rules live here, all of them, and ``catalogue()`` refuses a name
#: the manifest does not list.  Per-layer metrics without a rule are
#: host-time breakdowns: reported, never gated.
#:   "exact"        equal seeds give equal values
#:   "no_increase"  equal seeds: B may not read higher than A
#:   "x2"           B at most twice A, and never above REL_ERR_CEILING
#:   <metric name>  the bound of that end-to-end metric
RULES = {
    **dict.fromkeys(_EXACT, "exact"),
    "failed_frac": "no_increase",
    "rel_err_max": "x2",
    # host_ms_p50 over an exact count: as noisy as it, and bounded like it
    "host_us_per_sim_op": "host_ms_p50",
}
REL_ERR_CEILING = {"complex128": 1e-13, "complex64": 1e-6}


def catalogue() -> dict:
    cat = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(RULES) - {spec["name"] for spec in cat["per_layer"]}
    if unknown:
        raise SystemExit(f"report.RULES names metrics BENCHMARK.json does "
                         f"not list: {sorted(unknown)}")
    return cat


def quartiles(xs) -> dict:
    """Sample count, median and quartiles of a list of timings.

    Inclusive quartiles: of five cold starts the first is often slow
    (cold file cache), and the exclusive method puts q3 halfway to it.
    """
    if len(xs) < 2:
        return {"n": len(xs), "p50": xs[0] if xs else None}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"n": len(xs), "q1": q1, "p50": q2, "q3": q3}


def provenance(seed: int) -> dict:
    """Where and on what a result file was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "seed": seed,
        "git_commit": commit or None,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "gc": "on",
    }


# -- printing -----------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_results(doc: dict) -> None:
    """Every metric by name with unit and direction, one column per
    workload, then every output check as pass/fail by name."""
    cat = catalogue()
    names = [w["name"] for w in cat["workloads"]]
    arrow = {"lower": "v", "higher": "^"}
    for title, key in (("end to end (untraced run)", "end_to_end"),
                       ("per layer (traced run)", "per_layer")):
        print(f"\n== {title} ==")
        print(f"{'metric':34s} {'unit':8s}   " + " ".join(
            f"{n[:16]:>16s}" for n in names))
        for spec in cat[key]:
            row = [doc["workloads"][n][key].get(spec["name"]) for n in names]
            print(f"{spec['name']:34s} {spec['unit']:8s} {arrow[spec['better']]} "
                  + " ".join(f"{_fmt(v):>16s}" for v in row))
    print("\n== output checks ==")
    for n in names:
        w = doc["workloads"][n]
        parts = [f"{c} {'pass' if not bad else 'FAIL'} ({seen})"
                 for c, (seen, bad) in sorted(w["checks"].items())]
        print(f"{n:24s} ops {w['attempted']} failed {w['failed']}  "
              + "  ".join(parts))
        for extra, value in sorted(w.get("extras", {}).items()):
            print(f"{'':24s} {extra}: {json.dumps(value)}")


# -- compare --------------------------------------------------------------------

def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0 if a == b else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def _bounded(va, vb, better: str, bound: float, spread: float) -> tuple:
    """(change, bound, verdict), as printed, of one host-time metric."""
    change = _worse_by(va, vb, better)
    verdict = ("worse" if change > bound
               else "unresolved" if spread > bound else "within")
    return f"{change:+.1%}", f"{bound:.0%}", verdict


def _gate(rule: str, va, vb, same_seed: bool, dtype: str | None) -> str | None:
    """Verdict of one ruled per-layer metric; None when not comparable."""
    if rule == "x2":
        if vb is None:
            return None
        ceiling = REL_ERR_CEILING.get(dtype, float("inf"))
        return "worse" if vb > ceiling or (va and vb > 2 * va) else "within"
    if not same_seed:
        return None
    if rule == "exact":
        return "identical" if va == vb else "differs"
    return "worse" if (vb or 0.0) > (va or 0.0) else "within"  # no_increase


def compare(path_a: str, path_b: str) -> int:
    """Apply the catalogue's bounds and ``RULES`` to two result sets.

    1 if any row is ``worse`` or ``differs``; 2 if either file is a
    ``--smoke`` result, which is not comparable with anything.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for path, doc in ((path_a, a), (path_b, b)):
        if not doc.get("comparable"):
            print(f"{path}: a --smoke result (\"comparable\": false); "
                  "not compared")
            return 2
    cat = catalogue()
    e2e = {spec["name"]: spec for spec in cat["end_to_end"]}
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"]
    bad = 0

    def row(name, wl, va, vb, change, bound, verdict):
        nonlocal bad
        bad += verdict in ("worse", "differs")
        print(f"{name:28s} {wl:22s} {_fmt(va):>12s} {_fmt(vb):>12s} "
              f"{change:>8s} {bound:>6s}  {verdict}")

    row("metric", "workload", "A", "B", "change", "bound", "verdict")
    for wl in (w["name"] for w in cat["workloads"]):
        wa, wb = a["workloads"][wl], b["workloads"][wl]
        for name, spec in e2e.items():
            spread = max(w["spread"].get(name, 0.0) for w in (wa, wb))
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            if va is None or vb is None:  # a run with no completed ops
                row(name, wl, va, vb, "", "", "worse")
                continue
            row(name, wl, va, vb,
                *_bounded(va, vb, spec["better"], spec["bound"], spread))
        quiet = 0
        for name, rule in RULES.items():
            va, vb = wa["per_layer"].get(name), wb["per_layer"].get(name)
            if rule in e2e:
                if va is None and vb is None:
                    continue
                if va is None or vb is None:
                    row(name, wl, va, vb, "", rule, "differs")
                    continue
                spread = max(w["spread"].get(rule, 0.0) for w in (wa, wb))
                row(name, wl, va, vb, *_bounded(
                    va, vb, "lower", e2e[rule]["bound"], spread))
                continue
            verdict = _gate(rule, va, vb, same_seed, wb.get("dtype"))
            if verdict in ("worse", "differs"):
                row(name, wl, va, vb, "", rule, verdict)
            elif verdict is not None:
                quiet += 1
        # outputs: B may not fail more ops than A, nor fail a named check
        row("failed ops", wl, wa["failed"], wb["failed"], "", "",
            "worse" if wb["failed"] > wa["failed"] else "within")
        failing = sorted(c for c, (_, n) in wb["checks"].items() if n)
        row("output checks", wl, "", ",".join(failing) or "pass", "", "",
            "worse" if failing else "within")
        if same_seed:
            fa, fb = wa["fingerprints"], wb["fingerprints"]
            shared = sorted(set(fa) & set(fb))
            row("ledger fingerprints", wl, len(fa), len(fb), "", "exact",
                "differs" if any(fa[k] != fb[k] for k in shared)
                else "identical")
        print(f"{'(ruled per-layer metrics)':28s} {wl:22s} "
              f"{quiet} more compared and passing")
    if not same_seed:
        print("seeds differ: exact metrics, failed_frac and fingerprints "
              "not compared")
    print("RESULT:", "worse" if bad else "ok", f"({bad} row(s))")
    return 1 if bad else 0
