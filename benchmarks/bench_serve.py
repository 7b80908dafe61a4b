"""Serving benchmark: batching + wisdom vs one-shot cold planning.

Drives the same synthetic open-loop workload (Poisson arrivals, 3:2:1
size mix of 2^16/2^17/2^18) through four service configurations on the
8-device DGX-1 testbed:

- ``unbatched_cold``  — no batching, no plan cache, no wisdom: every
  request re-runs the autotune search and rebuilds its plan (the
  "re-plan per request" strawman the service exists to kill);
- ``unbatched_warm``  — per-request execution but warm wisdom/plans;
- ``batched_cold``    — continuous batching, caches start empty;
- ``batched_warm``    — continuous batching over warm wisdom/plans.

It also sweeps throughput vs offered load for the batched-warm service,
measures the live-telemetry overhead (scheduler host wall time with the
:class:`~repro.obs.telemetry.MetricsRegistry` enabled vs disabled —
the registry must stay a rounding error against the event loop),
measures the IR-replay payoff (per-batch host wall time replaying
compiled :mod:`repro.ir` graphs vs re-interpreting every batch), and
records everything to ``benchmarks/out/BENCH_serve.json``.  The
headline assertions: batched-warm throughput is at least 2x the
one-shot cold arm, the warm arms perform **zero** autotune searches,
the warm plan-cache hit rate is 100%, warm replayed batches cost at
least 2x less host time per batch than interpreted ones, and the
interleaved schedules pass the hazard sanitizer.  Run standalone with
``--smoke`` for the CI quick pass.
"""

import gc
import json
import sys
import time

from artifacts import emit, out_dir
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    Wisdom,
    summarize,
    synthetic_workload,
)
from repro.util.table import Table

SYSTEM = "8xP100"
DTYPE = "complex128"
#: effectively-saturating offered load: arrivals outpace any service
SATURATING_RATE = 1e5


def _run_arm(spec, requests, cache, batching, max_inflight, capacity=4096):
    """One service configuration over one request trace -> ServeReport."""
    cl = VirtualCluster(spec, execute=False)
    sched = ServeScheduler(
        cl,
        Batcher(cache, max_batch=8, batching=batching),
        queue=AdmissionQueue(capacity=capacity),
        max_inflight=max_inflight,
    )
    sched.run(requests)
    cl.sanitize()  # interleaved batches must be provably hazard-free
    return summarize(sched)


def _warm_cache(spec, requests):
    """A cache pre-warmed for every size in the trace, counters zeroed."""
    cache = PlanCache(spec, wisdom=Wisdom())
    for n in sorted({r.N for r in requests}):
        cache.plan_for(n, DTYPE)
    cache.plan_hits = cache.plan_misses = 0
    cache.wisdom_hits = cache.wisdom_misses = cache.searches = 0
    return cache


def _telemetry_overhead(spec, requests, repeats=7):
    """Host wall time of the serve loop with telemetry on vs off.

    Both arms run the identical batched-warm schedule; the "off" arm
    passes a disabled :class:`MetricsRegistry`, whose series lookups
    return shared no-op objects.  Host drift (CPU frequency, noisy
    neighbors) dwarfs the effect on a single timing, so the arms run
    as back-to-back *pairs* and ``overhead_frac`` is the **median of
    the paired ratios** — drift cancels within a pair, the median
    rejects outlier pairs.  CI tracks it against the <3% target.
    """
    import statistics

    from repro.obs.telemetry import MetricsRegistry

    def _once(registry):
        cache = _warm_cache(spec, requests)
        cl = VirtualCluster(spec, execute=False)
        sched = ServeScheduler(
            cl, Batcher(cache, max_batch=8),
            queue=AdmissionQueue(capacity=4096),
            max_inflight=2, telemetry=registry,
        )
        t0 = time.perf_counter()
        sched.run(requests)
        return time.perf_counter() - t0

    on = off = float("inf")
    fracs = []
    for _ in range(repeats):
        a = _once(MetricsRegistry())
        b = _once(MetricsRegistry(enabled=False))
        on, off = min(on, a), min(off, b)
        fracs.append((a - b) / b)
    return {
        "enabled_s": on,
        "disabled_s": off,
        "overhead_frac": statistics.median(fracs),
        "target_frac": 0.03,
    }


def _replay_overhead(spec, requests, repeats=7):
    """Per-batch host wall time: interpreted re-issue vs IR graph replay.

    Both arms serve the identical warm trace.  The replay arm first
    runs a priming pass so every batch configuration's op graph is
    captured, certified, and stored in the cache's graph tier; the
    timed pass then replays every batch (the simulated schedule is
    bit-identical either way — only host work changes).  Both arms run
    with telemetry disabled: the registry's cost is common to both
    paths and is tracked separately by :func:`_telemetry_overhead`.
    Pairing and the median-of-ratios follow that function: drift
    cancels within a back-to-back pair, the median rejects outliers.
    """
    import statistics

    from repro.obs.telemetry import MetricsRegistry

    def _once(replay):
        cache = _warm_cache(spec, requests)
        if replay:  # prime the graph tier outside the timed window
            ServeScheduler(
                VirtualCluster(spec, execute=False),
                Batcher(cache, max_batch=8),
                queue=AdmissionQueue(capacity=4096),
                max_inflight=2, replay=True,
            ).run(requests)
        cl = VirtualCluster(spec, execute=False)
        sched = ServeScheduler(
            cl, Batcher(cache, max_batch=8),
            queue=AdmissionQueue(capacity=4096),
            max_inflight=2, replay=replay,
            telemetry=MetricsRegistry(enabled=False),
        )
        # both arms start at the same point of the collector's cycle:
        # a generation-2 pass over the priming run's garbage costs more
        # than the handful of batches being timed
        gc.collect()
        t0 = time.perf_counter()
        sched.run(requests)
        dt = time.perf_counter() - t0
        assert sched.batches, "trace produced no batches"
        if replay:
            assert sched.replayed_batches == len(sched.batches), (
                sched.replayed_batches, len(sched.batches))
        return dt / len(sched.batches)

    interp = repl = float("inf")
    speedups = []
    for _ in range(repeats):
        a = _once(False)
        b = _once(True)
        interp, repl = min(interp, a), min(repl, b)
        speedups.append(a / b)
    return {
        "interpreted_per_run_s": interp,
        "replayed_per_run_s": repl,
        "speedup": statistics.median(speedups),
        "target_speedup": 2.0,
    }


def _collect(num_requests, sweep_rates):
    spec = preset(SYSTEM)
    requests = synthetic_workload(num_requests, rate=SATURATING_RATE, seed=11)
    arms = {
        "unbatched_cold": _run_arm(
            spec, requests,
            PlanCache(spec, capacity=0, remember=False),
            batching=False, max_inflight=1,
        ),
        "unbatched_warm": _run_arm(
            spec, requests, _warm_cache(spec, requests),
            batching=False, max_inflight=1,
        ),
        "batched_cold": _run_arm(
            spec, requests, PlanCache(spec, wisdom=Wisdom()),
            batching=True, max_inflight=2,
        ),
        "batched_warm": _run_arm(
            spec, requests, _warm_cache(spec, requests),
            batching=True, max_inflight=2,
        ),
    }
    sweep = []
    for rate in sweep_rates:
        reqs = synthetic_workload(num_requests, rate=rate, seed=11)
        rep = _run_arm(spec, reqs, _warm_cache(spec, reqs),
                       batching=True, max_inflight=2)
        sweep.append({"offered_rate": rate, "throughput": rep.throughput,
                      "p99_latency": rep.latency["p99"],
                      "mean_batch_size": rep.mean_batch_size})
    return {
        "system": SYSTEM, "dtype": DTYPE, "num_requests": num_requests,
        "arms": {name: json.loads(rep.to_json()) for name, rep in arms.items()},
        "sweep": sweep,
        "speedup_batched_warm_vs_cold": (
            arms["batched_warm"].throughput / arms["unbatched_cold"].throughput
        ),
        "telemetry_overhead": _telemetry_overhead(spec, requests),
        "replay": _replay_overhead(spec, requests),
    }


def _render(payload):
    t = Table(
        ["arm", "throughput [req/s]", "p50 [ms]", "p99 [ms]",
         "mean batch", "searches"],
        title=f"Serving arms, {payload['system']} "
              f"({payload['num_requests']} requests, saturating load)",
    )
    for name, rep in payload["arms"].items():
        t.add_row([
            name, f"{rep['throughput']:.1f}",
            f"{rep['latency']['p50'] * 1e3:.3f}",
            f"{rep['latency']['p99'] * 1e3:.3f}",
            f"{rep['mean_batch_size']:.2f}", rep["searches"],
        ])
    s = Table(["offered [req/s]", "served [req/s]", "p99 [ms]", "mean batch"],
              title="Throughput vs offered load (batched, warm)")
    for row in payload["sweep"]:
        s.add_row([f"{row['offered_rate']:.0f}", f"{row['throughput']:.1f}",
                   f"{row['p99_latency'] * 1e3:.3f}",
                   f"{row['mean_batch_size']:.2f}"])
    headline = (f"batched-warm vs one-shot-cold throughput: "
                f"{payload['speedup_batched_warm_vs_cold']:.1f}x")
    ov = payload["telemetry_overhead"]
    telem = (f"telemetry overhead: {ov['overhead_frac'] * 100:.2f}% of "
             f"scheduler wall time (target < {ov['target_frac'] * 100:.0f}%)")
    rp = payload["replay"]
    replay = (f"IR replay: {rp['replayed_per_run_s'] * 1e6:.0f} us/batch vs "
              f"{rp['interpreted_per_run_s'] * 1e6:.0f} us/batch interpreted "
              f"({rp['speedup']:.1f}x less host work, target >= "
              f"{rp['target_speedup']:.0f}x)")
    return "\n\n".join([t.render(), s.render(), headline, telem, replay])


def _check(payload):
    arms = payload["arms"]
    # the acceptance headline: >= 2x over re-plan-per-request serving
    assert payload["speedup_batched_warm_vs_cold"] >= 2.0, payload
    # warm starts perform zero autotune searches and never miss the cache
    for arm in ("unbatched_warm", "batched_warm"):
        assert arms[arm]["searches"] == 0, arm
        assert arms[arm]["wisdom_misses"] == 0, arm
        assert arms[arm]["plan_hit_rate"] == 1.0, arm
    # the cold one-shot arm searches on every single request
    assert arms["unbatched_cold"]["searches"] == payload["num_requests"]
    # batching actually coalesces under saturating load
    assert arms["batched_warm"]["mean_batch_size"] > 1.5, arms["batched_warm"]
    # batching helps even among warm arms (launch/collective amortization)
    assert (arms["batched_warm"]["throughput"]
            > arms["unbatched_warm"]["throughput"])
    # nothing was shed (the queue was sized for the trace)
    for name, rep in arms.items():
        assert sum(rep["shed"].values()) == 0, name
    # offered-load sweep: served rate tracks offered load until saturation
    sweep = payload["sweep"]
    assert all(s["throughput"] > 0 for s in sweep)
    # live telemetry must be a rounding error against the event loop.
    # 3% is the tracked target; the hard gate is looser because CI
    # hosts are noisy and the absolute times are small.
    ov = payload["telemetry_overhead"]
    assert ov["enabled_s"] > 0 and ov["disabled_s"] > 0, ov
    assert ov["overhead_frac"] < 0.25, ov
    # warm replayed batches must beat interpreted re-issue by >= 2x on
    # per-batch host time -- the compiled-replay acceptance headline
    rp = payload["replay"]
    assert rp["interpreted_per_run_s"] > 0 and rp["replayed_per_run_s"] > 0, rp
    assert rp["speedup"] >= rp["target_speedup"], rp


def _emit(payload):
    emit("serve_throughput", _render(payload))
    path = out_dir() / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=1))
    return path


def test_serve_throughput(benchmark):
    """Benchmark the four serving arms and validate the headline claims."""
    payload = benchmark.pedantic(
        lambda: _collect(32, [500.0, 2000.0, 8000.0, 32000.0]),
        rounds=1, iterations=1,
    )
    _emit(payload)
    _check(payload)


def main(argv):
    """Standalone entry: ``--smoke`` runs a reduced trace for CI."""
    smoke = "--smoke" in argv
    if smoke:
        payload = _collect(12, [2000.0, 20000.0])
    else:
        payload = _collect(32, [500.0, 2000.0, 8000.0, 32000.0])
    path = _emit(payload)
    _check(payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
