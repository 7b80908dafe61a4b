"""The repo's benchmark: six workloads, two clocks, layers seen from outside.

Three ways in::

    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1
        one workload, one run; the last line of stdout is one JSON
        object (the contract BENCHMARK.json's driver reads)
    python3 perf/run.py --seed S --out FILE [--smoke]
        every workload, untraced then traced, each in its own fresh
        process; prints every metric by name and every output check,
        writes FILE
    python3 perf/run.py --compare A.json B.json
        applies the catalogue's bounds to two result files

README.md has the glossary.  The program under test is built from
``src/`` next to this directory; nothing is installed.
"""

from __future__ import annotations

from time import perf_counter

#: process start, for setup_s: import repro -> first completed op
T0 = perf_counter()

import os  # noqa: E402

# one BLAS thread, decided before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from report import catalogue, compare, print_results, provenance, quartiles  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
SRC = PERF_DIR.parent / "src"

#: cold starts per untraced run (this process, plus fresh ones after it)
COLD_STARTS = 5
#: the measured phase never ends on fewer attempted ops than this
MIN_OPS = 5
#: output buffers the reference np.fft.fft cycles through
REF_BUFFERS = 6
#: tracebacks of raising ops printed per run; the rest are only counted
MAX_TRACEBACKS = 3
#: a run's child processes get this long
CHILD_TIMEOUT = 170

#: per-layer metric -> the (layer, key) spans whose self time it sums
SPAN_METRICS = {
    "fmm.s2t_ms": [("fmm", "s2t")],
    "fmm.m2l_ms": [("fmm", "m2l")],
    "fmm.s2m_ms": [("fmm", "s2m")],
    "fmm.m2m_ms": [("fmm", "m2m")],
    "fmm.l2l_ms": [("fmm", "l2l")],
    "fmm.l2t_ms": [("fmm", "l2t")],
    "core.post_ms": [("core", "post")],
    "core.stage_io_ms": [("core", "stage_io"), ("core", "run")],
    "dfft.transpose_ms": [("dfft", "transpose")],
    "machine.issue_ms": [("machine", "issue")],
    "machine.cluster_new_ms": [("machine", "cluster_new")],
    "comm.issue_ms": [("comm", "issue")],
    "ir.replay_self_ms": [("ir", "replay"), ("ir", "compile")],
    "serve.self_ms": [("serve", "run"), ("serve", "construct")],
    "serve.cache_ms": [("serve", "cache")],
}
#: per-layer metric -> the layer whose whole self time it is
LAYER_TOTALS = {"fmm.total_ms": "fmm", "fftcore.total_ms": "fftcore"}
UNATTRIBUTED = "unattributed"


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def _rss_mb() -> float:
    """Peak resident set of this process, in MB.

    ``VmHWM`` where /proc has it: ``ru_maxrss`` of a process started by
    fork+exec begins at its parent's peak, and the cold starts are
    children of a process that has already run the measured phase.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_op(w, i: int, begin=perf_counter, end=perf_counter):
    """(seconds, Out or None); a raising op is reported, not fatal.

    The collector stays on inside the op, as it is for users.  A full
    collection before it, outside the timed region, puts every op at
    the same point of the collector's cycle: without it every second
    serve op pays a generation-2 pass (35 ms of 180) and the median
    flips between two modes.

    ``begin``/``end`` bracket exactly the op; the traced run passes
    the opening and closing of its root span.
    """
    gc.collect()
    t0 = begin()
    try:
        out = w.op(i)
    except Exception:  # the benchmark must go on to count the failure
        w.record("exception", False)
        if w.checks["exception"][1] <= MAX_TRACEBACKS:
            traceback.print_exc()
        out = None
    return end() - t0, out


class Run:
    """One run of one workload: set-up, warm-up, and the op counters."""

    def __init__(self, workload_cls, seed: int, light: bool):
        self.w = workload_cls(seed, light)
        self.attempted = self.failed = 0
        self.i = 0
        #: seconds spent in ops, failed ones included: the run's wall time
        #: less what the harness does between ops
        self.busy_s = 0.0
        first = self.w.setup()
        self.setup_s = perf_counter() - T0
        self.setup_rss_mb = _rss_mb()
        self.w.check(first)

    def step(self, i: int | None = None, timer=_timed_op):
        """One counted, checked op; returns its host seconds or None.

        ``timer(w, i)`` runs and times the op; the check stays outside it.
        """
        if i is None:
            self.i += 1
            i = self.i
        dt, out = timer(self.w, i)
        self.attempted += 1
        self.busy_s += dt
        if out is None or not self.w.check(out):
            self.failed += 1
            return None
        return dt

    def warm_up(self) -> None:
        for _ in range(self.w.warmup):
            self.step()
        self.w.warm = True

    def phase(self, seconds: float, samples: list, max_ops: float):
        """Iterate over the measured phase: until ``seconds`` are up or
        ``samples`` holds ``max_ops``, and for at least MIN_OPS attempts.

        Bounded by attempts, not successes: a program whose every op
        fails ends the phase too, and is reported as failing.
        """
        first = self.attempted
        end = perf_counter() + seconds
        while ((perf_counter() < end and len(samples) < max_ops)
               or self.attempted - first < MIN_OPS):
            yield

    def result(self, metrics: dict | None, names, **detail) -> dict:
        """The run's record; ``metrics`` is None when too few ops
        completed to take a median from (the failed ones already make
        the run incorrect), and every metric is then null."""
        w = self.w
        checks_ok = all(bad == 0 for _, bad in w.checks.values())
        metrics = metrics or {}
        return {
            "correct": self.failed == 0 and checks_ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: metrics.get(n) for n in names},
            "checks": w.checks,
            "fingerprints": {k: fp for k, (_, fp) in w.fingerprints.items()},
            "dtype": getattr(w, "dtype", None) and w.dtype.__name__,
            **detail,
        }


def measure(run: Run, seconds: float, max_ops: float, cold_starts: int) -> dict:
    """The untraced run: every end-to-end metric, plain VirtualCluster."""
    w = run.w
    run.warm_up()
    host = []
    # The reference FFT writes into buffers it is given, in turn, and the
    # reference time is the median of the best-placed one.  A fresh 4 MB
    # result per call costs 1.5 of 6 ms in page faults, or not, by the
    # allocator's mood; and into one fixed buffer the same FFT takes 4.6,
    # 5.6 or 6.5 ms for the life of a process, by where that buffer lies.
    fft_outs = [np.empty_like(w.numpy_signal) for _ in range(REF_BUFFERS)]
    numpy_fft = [[] for _ in fft_outs]
    names = [spec["name"] for spec in catalogue()["end_to_end"]]
    busy_before = run.busy_s
    for _ in run.phase(seconds, host, max_ops):
        dt = run.step()
        if dt is not None:
            host.append(dt)
        # the reference FFT is timed in the same loop, under the same
        # machine state as the op it is compared with
        k = run.attempted % REF_BUFFERS
        t0 = perf_counter()
        np.fft.fft(w.numpy_signal, out=fft_outs[k])
        numpy_fft[k].append(perf_counter() - t0)
    if len(host) < 2:
        return run.result(None, names)
    rss_end_mb = _rss_mb()
    w.finish()
    numpy_fft = min(filter(None, numpy_fft), key=statistics.median)

    colds = [{"setup_s": run.setup_s, "rss_mb": run.setup_rss_mb}]
    for _ in range(cold_starts - 1):
        colds.append(_child(["--workload", w.name, "--seed", str(w.seed),
                             "--cold-start"]))
    setups = [c["setup_s"] for c in colds]

    deciles = statistics.quantiles(host, n=10)
    metrics = {
        "setup_s": statistics.median(setups),
        # over the phase's wall time less the harness's own share of it
        # (a third, on the serve workloads): the time of failed ops counts
        "ops_per_s": len(host) / (run.busy_s - busy_before),
        "host_ms_p50": _median_ms(host),
        "host_ms_p90": deciles[8] * 1e3,
        "ratio_vs_numpy": statistics.median(host) / statistics.median(numpy_fft),
        # of the cold starts, not of this process: the high-water mark
        # after many ops moves in allocator-sized steps from seed to seed
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in colds),
    }
    q_host, q_setup = quartiles(host), quartiles(setups)
    # what --compare calls unresolved: the spread of the samples behind
    # each metric, as IQR over median
    host_spread = (q_host["q3"] - q_host["q1"]) / q_host["p50"]
    spread = dict.fromkeys(
        ("ops_per_s", "host_ms_p50", "host_ms_p90", "ratio_vs_numpy"),
        host_spread)
    if "q1" in q_setup:
        spread["setup_s"] = (q_setup["q3"] - q_setup["q1"]) / q_setup["p50"]
    return run.result(metrics, names, spread=spread, rss_end_mb=rss_end_mb,
                      samples={"host_s": q_host, "setup_s": q_setup,
                               "numpy_fft_s": quartiles(numpy_fft)})


def trace(run: Run, seconds: float, max_ops: float, light: bool) -> dict:
    """The traced run: every per-layer metric.

    Untraced and traced ops alternate on the same input, so the
    overhead of tracing is a ratio of medians taken under the same
    machine state.  Probes follow the paired phase.
    """
    from probes import probe
    from repro.machine.cluster import VirtualCluster
    from spans import Tracer

    w = run.w
    tracer = Tracer()
    run.warm_up()
    plain, traced, selfs = [], [], []

    def traced_op(w, i):
        """The op under a root span, hooks on for exactly that long."""
        def begin():
            w.Cluster = tracer.Cluster
            tracer.install()
            tracer.reset()
            tracer.begin(w.root_layer or UNATTRIBUTED, "op")
            return tracer.spans[0][3]

        def end():
            tracer.end(0)
            tracer.uninstall()
            w.Cluster = VirtualCluster
            return tracer.spans[0][4]

        return _timed_op(w, i, begin, end)

    names = [spec["name"] for spec in catalogue()["per_layer"]]
    for _ in run.phase(seconds / 2, traced, max_ops):
        run.i += 1
        dt = run.step(run.i)
        dt_traced = run.step(run.i, timer=traced_op)
        if dt is not None and dt_traced is not None:
            plain.append(dt)
            traced.append(dt_traced)
            selfs.append(tracer.self_times())
            # the self-check: layer self times plus the unattributed
            # remainder against the traced op time
            w.record("trace_sum", abs(sum(selfs[-1].values()) - dt_traced)
                     <= 0.10 * dt_traced)
    if len(traced) < 2:
        return run.result(None, names)
    w.finish()

    keys = sorted({k for s in selfs for k in s})
    stage_ms = {k: _median_ms([s.get(k, 0.0) for s in selfs]) for k in keys}
    layer_ms: dict[str, float] = {}
    for (layer, _), ms in stage_ms.items():
        layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
    op_ms = _median_ms(traced)

    m: dict = {name: sum(stage_ms.get(k, 0.0) for k in spans)
               for name, spans in SPAN_METRICS.items()}
    m.update({name: layer_ms.get(layer, 0.0)
              for name, layer in LAYER_TOTALS.items()})
    m["trace.overhead_frac"] = op_ms / _median_ms(plain) - 1.0
    m["trace.unattributed_frac"] = layer_ms.get(UNATTRIBUTED, 0.0) / op_ms
    m["fmm.share"] = m["fmm.total_ms"] / op_ms

    m.update(probe(w, _median_ms(plain), stage_ms, light))
    # serve workloads count requests; the others count ops
    m.setdefault("failed_frac", run.failed / run.attempted)
    if m.get("machine.records"):
        m["machine.us_per_record"] = (
            m["machine.issue_ms"] * 1e3 / m["machine.records"])
    # a hook that found no target takes its layer's numbers with it
    for layer in set(tracer.missing.values()):
        for name in m:
            if name.startswith(layer + "."):
                m[name] = None

    return run.result(
        m, names,
        extras={k: v for k, v in m.items() if k not in names},
        missing_hooks=sorted(tracer.missing),
        samples={"traced_op_s": quartiles(traced),
                 "untraced_op_s": quartiles(plain)})


# -- processes ------------------------------------------------------------------

def _child(argv: list[str]) -> dict:
    """Run this script in a fresh process; its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    if args.cold_start:
        print(json.dumps({"setup_s": run.setup_s,
                          "rss_mb": run.setup_rss_mb}))
        return 0
    max_ops = args.ops if args.ops else float("inf")
    if args.trace:
        doc = trace(run, args.seconds, max_ops, light=args.smoke)
        units = {s["name"]: s["unit"] for s in catalogue()["per_layer"]}
    else:
        doc = measure(run, args.seconds, max_ops,
                      1 if args.smoke else COLD_STARTS)
        units = {s["name"]: s["unit"] for s in catalogue()["end_to_end"]}
    if args.detail:
        Path(args.detail).write_text(json.dumps(doc))
    # the driver's line: numbers only; a metric this workload does not
    # exercise (or whose hook is gone) reads 0
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": v if v is not None else 0.0, "unit": units[n]}
                    for n, v in doc["metrics"].items()},
    }))
    return 0


def run_suite(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cat = catalogue()
    # --smoke: the op count (--ops below) ends the phase, not the clock
    seconds = 60 if args.smoke else args.seconds or cat["run_seconds"]
    doc = {"comparable": not args.smoke, "seconds": seconds,
           "provenance": provenance(args.seed), "workloads": {}}
    for spec in cat["workloads"]:
        name = spec["name"]
        runs = {}
        for traced in (0, 1):
            detail = out.parent / f".{name}.{traced}.json"
            argv = ["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(traced),
                    "--detail", str(detail)]
            if args.smoke:
                # 10 ops either way: the traced run makes them as 5 pairs
                argv += ["--smoke", "--ops", "5" if traced else "10"]
            print(f"[{name}] {'traced' if traced else 'untraced'} run ...",
                  flush=True)
            _child(argv)
            runs[traced] = json.loads(detail.read_text())
            detail.unlink()
        e2e, layers = runs[0], runs[1]
        # as the issue defines it: the untraced run's host_ms_p50 over the
        # record count.  A traced run on its own (the driver's --trace 1)
        # has only the untraced ops of its paired phase to divide.
        p50 = e2e["metrics"]["host_ms_p50"]
        records = layers["metrics"]["machine.records"]
        if p50 and records:
            layers["metrics"]["host_us_per_sim_op"] = p50 * 1e3 / records
        doc["workloads"][name] = {
            "why": spec["why"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
            "extras": layers.get("extras", {}),
            "spread": e2e.get("spread", {}),
            "samples": {**e2e.get("samples", {}), **layers.get("samples", {})},
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "correct": e2e["correct"] and layers["correct"],
            "checks": {c: [e2e["checks"].get(c, [0, 0])[k]
                           + layers["checks"].get(c, [0, 0])[k] for k in (0, 1)]
                       for c in {**e2e["checks"], **layers["checks"]}},
            "fingerprints": e2e["fingerprints"],
            "missing_hooks": layers.get("missing_hooks", []),
            "dtype": e2e["dtype"],
        }
    out.write_text(json.dumps(doc, indent=1))
    print_results(doc)
    print(f"\nwrote {out}" + ("" if doc["comparable"]
                              else "  (smoke: not comparable)"))
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (driver mode)")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="end the measured phase after this many ops")
    ap.add_argument("--detail", help="also write the full run record here")
    ap.add_argument("--cold-start", action="store_true",
                    help="set up, print setup_s, exit (used for setup_s)")
    ap.add_argument("--out", default=str(PERF_DIR / "out" / "results.json"))
    ap.add_argument("--smoke", action="store_true",
                    help="10 ops per workload, one cold start, not comparable")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    # the program is built from source: no src/ next to perf/, no benchmark
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perf/run.py: no program to measure at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload:
        if not args.cold_start and args.seconds <= 0 and not args.ops:
            ap.error("--workload needs --seconds or --ops")
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
