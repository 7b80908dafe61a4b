"""Host wall-clock benches: what the NumPy substrate and the serve loop
cost on the machine that runs them.

The paper's claims run on the simulated clock (``repro.figures``) and the
system's own claims in tier-1 (``tests/``); these read the host's clock,
so they stay out of the deterministic tier-1 suite.  Run them with
``python -m pytest benchmarks/bench_host.py``.
"""

import gc
import math
import statistics
import time

import numpy as np

from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset
from repro.nufft import nufft2
from repro.nufft.nonuniform_fmm import NonuniformPeriodicFMM
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    Wisdom,
    synthetic_workload,
)


def test_fig1_host_batched_matmul(benchmark):
    """Real measured batched GEMM on this host (NumPy/BLAS), the
    engine's compute substrate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 128, 128))
    b = rng.standard_normal((64, 128, 128))

    result = benchmark(lambda: a @ b)
    assert result.shape == (64, 128, 128)


def test_nufft_scaling(benchmark):
    """FMM evaluation cost grows ~linearly in points; dense grows
    quadratically.  Measured on this host."""
    rng = np.random.default_rng(4)

    def measure(n):
        src = rng.uniform(0, 1, n)
        tgt = rng.uniform(0, 1, n)
        L = max(3, int(math.log2(n)) - 5)
        fmm = NonuniformPeriodicFMM(src, tgt, L=L, B=3 if L >= 3 else 2, Q=12)
        w = rng.standard_normal(n)
        t0 = time.perf_counter()
        fmm.apply(w)
        return time.perf_counter() - t0

    def sweep():
        return {n: measure(n) for n in (1000, 4000, 16000)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # 16x the points should cost far less than 256x (the dense ratio)
    assert times[16000] < 64 * times[1000]


def test_nufft2_host_throughput(benchmark):
    rng = np.random.default_rng(5)
    n, m = 1024, 5000
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.uniform(0, 1, m)
    out = benchmark(lambda: nufft2(c, x, Q=12))
    assert out.shape == (m,)


# -- the serve loop: 32 requests at saturating load on the 8-GPU DGX-1 -------

SERVE_SPEC = preset("8xP100")
SERVE_TRACE = synthetic_workload(32, rate=1e5, seed=11)
#: back-to-back arm pairs: each gate is the median of the paired ratios,
#: so host drift cancels within a pair and the median rejects outliers
PAIRS = 7


def _warm_cache():
    """A cache pre-warmed for every size in the trace, counters zeroed."""
    cache = PlanCache(SERVE_SPEC, wisdom=Wisdom())
    for n in sorted({r.N for r in SERVE_TRACE}):
        cache.plan_for(n, "complex128")
    cache.plan_hits = cache.plan_misses = 0
    cache.wisdom_hits = cache.wisdom_misses = cache.searches = 0
    return cache


def _scheduler(cache, **kw):
    return ServeScheduler(VirtualCluster(SERVE_SPEC, execute=False),
                          Batcher(cache, max_batch=8),
                          queue=AdmissionQueue(capacity=4096), max_inflight=2, **kw)


def _telemetry_overhead():
    """Scheduler host time of a run plus the derivation of its telemetry
    (``sched.telemetry``, read off what the run left behind) against the
    run alone."""

    def _once(derive):
        sched = _scheduler(_warm_cache())
        t0 = time.perf_counter()
        sched.run(SERVE_TRACE)
        if derive:
            assert len(sched.telemetry) > 0
        return time.perf_counter() - t0

    on = off = float("inf")
    fracs = []
    for _ in range(PAIRS):
        a = _once(True)
        b = _once(False)
        on, off = min(on, a), min(off, b)
        fracs.append((a - b) / b)
    return on, off, statistics.median(fracs)


def _replay_speedup():
    """Per-batch host time: interpreted re-issue against IR graph replay."""

    def _once(replay):
        cache = _warm_cache()
        if replay:  # capture every batch's graph outside the timed window
            _scheduler(cache, replay=True).run(SERVE_TRACE)
        sched = _scheduler(cache, replay=replay)
        # both arms start at the same point of the collector's cycle: a
        # generation-2 pass over the priming run's garbage costs more
        # than the handful of batches being timed
        gc.collect()
        t0 = time.perf_counter()
        sched.run(SERVE_TRACE)
        dt = time.perf_counter() - t0
        assert sched.batches, "trace produced no batches"
        if replay:
            assert sched.replayed_batches == len(sched.batches), (
                sched.replayed_batches, len(sched.batches))
        return dt / len(sched.batches)

    interp = repl = float("inf")
    speedups = []
    for _ in range(PAIRS):
        a = _once(False)
        b = _once(True)
        interp, repl = min(interp, a), min(repl, b)
        speedups.append(a / b)
    return interp, repl, statistics.median(speedups)


def test_serve_telemetry_overhead(benchmark):
    """Deriving a run's telemetry must be a rounding error against the
    serve loop: 3% is the tracked target; the gate is looser because host
    times this small are noisy."""
    on, off, overhead = benchmark.pedantic(_telemetry_overhead, rounds=1, iterations=1)
    assert on > 0 and off > 0, (on, off)
    assert overhead < 0.25, (on, off, overhead)


def test_serve_replay_speedup(benchmark):
    """Warm batches replayed from compiled IR graphs must cost at least 2x
    less host work than re-interpreted ones (the simulated schedule is
    bit-identical either way)."""
    interp, replayed, speedup = benchmark.pedantic(_replay_speedup, rounds=1, iterations=1)
    assert interp > 0 and replayed > 0, (interp, replayed)
    assert speedup >= 2.0, (interp, replayed, speedup)
