"""Direct per-layer measurements and simulated-clock numbers.

Everything here is read from outside: timed calls into public
functions, and counts taken from the ledgers and reports the ops
produce.  Spans (spans.py) say where an op's host time went; these
probes add what no steady-state op exercises (plan build, capture,
certification, search) and the simulated clock.

Every probe returns ``{metric name: value}``.  ``light`` cuts the
repetition counts for ``--smoke``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from repro import comm
from repro.analysis.plancheck import clear_verdicts, verify_matrix
from repro.comm.plans import build_plan
from repro.core.api import default_params
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.faults import FaultInjector
from repro.fftcore.plan import LocalFFTPlan
from repro.fmm.batched import BatchedFMM
from repro.fmm.plan import FmmOperators
from repro.ir import ReplayExecutor, capture_pipeline
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import routed_multinode_p100
from repro.machine.spec import preset
from repro.model import find_fastest, fmm_stage_flops, fmmfft_model_time
from repro.obs import MetricsRegistry, build_trace, compute_metrics
from repro.serve import DEADLINE_TARGETS, summarize, synthetic_workload

from workloads import (
    ExecFft1d,
    ExecFmmFft,
    HostSingle,
    ServeNodeLoss,
    ServeSteady,
    ServeWorkload,
    SimPair,
    TransformWorkload,
)


def timed_ms(fn, reps: int = 3):
    """(median milliseconds over ``reps`` calls, last result)."""
    times, result = [], None
    for _ in range(reps):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3, result


def paired_ratio(a, b, pairs: int) -> list[float]:
    """time(a) / time(b) over back-to-back pairs; drift cancels in a pair."""
    out = []
    for _ in range(pairs):
        t0 = perf_counter()
        a()
        t1 = perf_counter()
        b()
        out.append((t1 - t0) / (perf_counter() - t1))
    return out


# -- read from the ledgers of the reference op --------------------------------

def ledger_metrics(clusters, op_ms: float) -> dict:
    """Counts and simulated-clock numbers off the clusters of one op."""
    m: dict = {}
    records = sum(len(cl.ledger) for cl in clusters)
    m["machine.records"] = records
    m["host_us_per_sim_op"] = op_ms * 1e3 / records
    wire = [r.comm_bytes for cl in clusters for r in cl.ledger
            if r.kind == "comm" and r.comm_bytes > 0]
    m["comm.msgs"] = len(wire)
    m["comm.wire_bytes"] = sum(wire)
    m["dfft.alltoalls"] = sum(e["kind"] == "alltoall"
                              for cl in clusters for e in cl.comm_log)
    by_region = [cl.ledger.time_by_region(device=0) for cl in clusters]
    m["dfft.sim_transpose_ms"] = 1e3 * sum(
        t for regions in by_region for r, t in regions.items()
        if "transpose" in r)
    m["fmm.sim_ms"] = 1e3 * sum(
        t for regions in by_region for r, t in regions.items()
        if "fmmfft/fmm" in r)
    return m


def obs_metrics(clusters) -> dict:
    """repro.obs over the first cluster: its cost and what it reports."""
    cl = clusters[0]
    ms, report = timed_ms(lambda: compute_metrics(
        cl.ledger, cl.spec, comm_log=cl.comm_log), reps=1)
    export_ms, _ = timed_ms(lambda: build_trace(cl.ledger, cl.spec), reps=1)
    return {
        "obs.compute_metrics_ms": ms,
        "obs.trace_export_ms": export_ms,
        "comm.sim_exposed_ms": report.exposed_comm * 1e3,
        "comm.overlap_frac": report.overlap_fraction,
    }


def lower_bound_gap(cl) -> float:
    """Simulated all-to-all time over the communication-volume bound.

    The bound (Koopman & Bisseling) is the bytes a device must send
    over the bandwidth it can inject, taken as the sum of its direct
    links; the simulated time of one all-to-all is the span from its
    first message starting to its last one ending.
    """
    inject = sum(d["link"].bandwidth
                 for _, _, d in cl.spec.graph.edges(0, data=True))
    sim = bound = 0.0
    for entry in cl.comm_log:
        if entry["kind"] != "alltoall":
            continue
        recs = [r for r in cl.ledger
                if r.kind == "comm" and r.name == entry["name"]]
        sim += max(r.end for r in recs) - min(r.start for r in recs)
        bound += entry["payload"] / inject
    return sim / bound if bound else 0.0


# -- timed calls into single layers -----------------------------------------

def plan_build(w: TransformWorkload, G: int, light: bool) -> dict:
    p, reps = w.plan, 1 if light else 3
    ops_ms, _ = timed_ms(lambda: FmmOperators.create(
        M=p.M, P=p.P, ML=p.ML, B=p.B, Q=p.Q, dtype=p.dtype, G=G), reps)
    plan_ms, _ = timed_ms(lambda: FmmFftPlan.create(
        N=p.N, P=p.P, ML=p.ML, B=p.B, Q=p.Q, G=G, dtype=p.dtype), reps)
    return {"fmm.ops_build_ms": ops_ms, "core.plan_build_ms": plan_ms}


def fft_rows(w: TransformWorkload, M: int, P: int, light: bool) -> dict:
    """LocalFFTPlan.forward on the (M,P) and (P,M) row batches of the
    2D stage, against pocketfft on the same batches."""
    reps = 2 if light else 5
    a = w.x.reshape(M, P)
    b = np.ascontiguousarray(a.T)
    plan_p = LocalFFTPlan(P, dtype=w.dtype)
    plan_m = LocalFFTPlan(M, dtype=w.dtype)
    ours, _ = timed_ms(lambda: (plan_p.forward(a, axis=1),
                                plan_m.forward(b, axis=1)), reps)
    pocket, _ = timed_ms(lambda: (np.fft.fft(a, axis=1),
                                  np.fft.fft(b, axis=1)), reps)
    return {"fftcore.rows_ms": ours, "fftcore.vs_pocketfft": ours / pocket}


def batched_kernels(w: HostSingle, light: bool) -> dict:
    reps = 2 if light else 5
    ops = w.plan.operators
    fmm = BatchedFMM(ops)
    S = np.ascontiguousarray(w.x.reshape(w.plan.M, w.plan.P).T)
    Sb = S.reshape(ops.P, ops.tree.num_leaves, ops.ML)
    s2t_ms, _ = timed_ms(lambda: fmm.s2t(Sb), reps)
    apply_ms, _ = timed_ms(lambda: fmm.apply(S), reps)
    return {"fmm.batched_s2t_ms": s2t_ms, "fmm.batched_apply_ms": apply_ms}


def comm_plans(spec, payload: float, light: bool) -> dict:
    """Cold and warm ``build_plan`` (the plan verifier sits behind the
    cold one) and the host cost of issuing one all-to-all."""
    algorithm = comm.choose_algorithm(spec, "alltoall", payload)

    def build():
        return build_plan(spec, "alltoall", payload, algorithm,
                          ("x",), ("y",), "")

    def cold():
        clear_verdicts()
        return build()

    cold_ms, _ = timed_ms(cold, 1 if light else 3)
    warm_ms, _ = timed_ms(build, 5 if light else 25)

    def issue():
        cl = VirtualCluster(spec, execute=False)
        t0 = perf_counter()
        comm.alltoall(cl, payload, "probe", reads=["x"], writes=["y"],
                      algorithm=algorithm)
        return perf_counter() - t0

    issue_s = statistics.median(issue() for _ in range(5 if light else 25))
    return {"comm.plan_cold_ms": cold_ms, "comm.plan_warm_us": warm_ms * 1e3,
            "comm.alltoall_issue_us": issue_s * 1e6,
            # a cold build is a build plus its certification
            "analysis.plancheck_cold_ms": cold_ms - warm_ms}


def auto_regret_r4x8() -> float:
    """Simulated FMM-FFT time under ``auto`` over the best fixed
    algorithm, N=2^24 on the 4x8 fat tree (1.0: auto picked the best)."""
    spec = routed_multinode_p100(4, 8)
    n = 1 << 24
    plan = FmmFftPlan.create(N=n, G=32, dtype=np.complex128,
                             build_operators=False, **default_params(n, 32))

    def sim(algorithm):
        cl = VirtualCluster(spec, execute=False)
        FmmFftDistributed(plan, cl, comm_algorithm=algorithm).run()
        return cl.wall_time()

    return sim("auto") / min(sim(a) for a in comm.ALGORITHMS if a != "auto")


def sim_fft1d_ms(spec, n: int) -> float:
    cl = VirtualCluster(spec, execute=False)
    Distributed1DFFT(n, cl, comm_algorithm="auto").run()
    return cl.wall_time() * 1e3


def ir_direct(spec, n: int, light: bool) -> dict:
    """Capture, certify, and one graph replayed against interpreted."""
    reps = 1 if light else 3
    plan = FmmFftPlan.create(N=n, G=spec.num_devices, dtype=np.complex128,
                             build_operators=False,
                             **default_params(n, spec.num_devices))

    def capture():
        return capture_pipeline("fmmfft", VirtualCluster(spec, execute=False),
                                n, comm_algorithm="auto")[0]

    capture_ms, graph = timed_ms(capture, reps)
    certify_ms, _ = timed_ms(lambda: capture().certify(spec), reps)
    graph.certify(spec)

    def replay():
        ReplayExecutor(graph, VirtualCluster(spec, execute=False)).run()

    def interpret():
        FmmFftDistributed(plan, VirtualCluster(spec, execute=False),
                          comm_algorithm="auto").run()

    ratios = paired_ratio(interpret, replay, 6 if light else 30)
    replay_ms, _ = timed_ms(replay, 3 if light else 15)
    interp_ms, _ = timed_ms(interpret, 3 if light else 15)
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    return {"ir.capture_ms": capture_ms,
            # certify() above timed a fresh capture plus its certification
            "ir.certify_ms": certify_ms - capture_ms,
            "ir.replay_ms": replay_ms, "ir.interp_ms": interp_ms,
            "ir.replay_speedup": q2, "ir.replay_speedup_q1": q1,
            "ir.replay_speedup_q3": q3, "ir.nodes": len(graph)}


# -- serve: reports, the rate ladder, paired overheads ------------------------

def serve_report_metrics(w: ServeWorkload, out, op_ms: float) -> dict:
    s = out.sched
    rep = summarize(s)
    done = max(1, rep.completed)
    hits, misses, searches = out.cache
    return {
        "sim_ms": rep.wall_time * 1e3,
        "sim_serve_p99_ms": rep.latency_by_class["interactive"]["p99"] * 1e3,
        "serve.batches": rep.batches,
        "serve.us_per_batch": op_ms * 1e3 / max(1, rep.batches),
        "serve.mean_batch_size": rep.mean_batch_size,
        "serve.plan_hit_rate": hits / max(1, hits + misses),
        "serve.searches": searches,
        "serve.replayed_frac": s.replayed_batches / max(1, rep.batches),
        "serve.queue_depth_mean": rep.queue_depth_mean,
        "serve.deadline_miss_frac": sum(rep.deadline_misses.values()) / done,
        "serve.shed": sum(rep.shed.values()),
        "serve.retry_shed": sum(rep.retry_shed.values()),
        "serve.failed_batches": rep.failed_batches,
        "faults.events": rep.fault_events,
        "faults.retries": sum(rep.retried.values()),
    }


def rate_ladder(w: ServeSteady, light: bool) -> tuple[float, dict]:
    """Open-loop ladder in simulated time on the warm cache.

    A rate passes when interactive p99 is within its deadline target,
    nothing is shed, no deadline is missed, and the backlog does not
    grow (served throughput at least 0.95 of the realised arrival rate).
    Returns the highest passing rate and the p99 at every rate.
    """
    n = 128 if light else 512
    best, p99s = 0.0, {}
    for rate in range(2000, 16001, 2000):
        trace = synthetic_workload(n, float(rate), seed=w.seed)
        rep = summarize(w.serve(trace).sched)
        p99 = rep.latency_by_class["interactive"]["p99"]
        p99s[str(rate)] = p99 * 1e3
        if (p99 <= DEADLINE_TARGETS["interactive"]
                and not sum(rep.shed.values())
                and not sum(rep.deadline_misses.values())
                and rep.throughput >= 0.95 * n / trace[-1].arrival):
            best = float(rate)
    return best, p99s


def telemetry_overhead(w: ServeSteady, light: bool) -> float:
    """Scheduler host time with the metrics registry on over off, minus 1."""
    trace = w.traces[0][:64]
    ratios = paired_ratio(
        lambda: w.serve(trace, telemetry=MetricsRegistry()),
        lambda: w.serve(trace, telemetry=MetricsRegistry(enabled=False)),
        3 if light else 15)
    return statistics.median(ratios) - 1.0


def faults_overhead(w: ServeNodeLoss, light: bool) -> float:
    """Host time with a silent injector installed over none, minus 1.

    Both arms interpret every batch (replay refuses an injector, so the
    fault-free arm turns it off too): the ratio is the injector's own
    cost, not the cost of losing replay.
    """
    trace = w.traces[0][:16]
    ratios = paired_ratio(
        lambda: w.serve(trace, FaultInjector(w.spec, seed=7), replay=False),
        lambda: w.serve(trace, replay=False), 3 if light else 15)
    return statistics.median(ratios) - 1.0


# -- one entry per workload ---------------------------------------------------

def probe(w, op_ms: float, stage_ms: dict, light: bool) -> dict:
    """Every non-span per-layer metric of workload ``w``.

    ``op_ms`` is the untraced median op time, ``stage_ms`` the median
    self time per (layer, key).  Ledgers, reports and simulated times
    are those of ``w.ref_out``, the latest op on input 0: the same op
    whatever input the paired phase ended on.
    """
    out = w.ref_out
    m: dict = {"rel_err_max": w.rel_err_max}
    if isinstance(w, ServeWorkload):
        m["failed_frac"] = w.requests_failed / w.requests_attempted
    if out.clusters:
        m.update(ledger_metrics(out.clusters, op_ms))
        m.update(obs_metrics(out.clusters))
        m["analysis.sanitize_ms"] = w.sanitize_ms
        m["analysis.findings"] = w.findings

    if isinstance(w, (ExecFmmFft, ExecFft1d)):
        m["sim_ms"] = out.clusters[0].wall_time() * 1e3
        m["comm.lb_gap"] = lower_bound_gap(out.clusters[0])
    if isinstance(w, ExecFft1d):
        m.update(fft_rows(w, 512, 512, light))  # the default six-step split
    if isinstance(w, ExecFmmFft):
        m.update(fft_rows(w, w.plan.M, w.plan.P, light))
        m.update(plan_build(w, 8, light))
        if stage_ms.get(("fmm", "s2t")):
            # flops computed from the model, all 8 devices, per host second
            flops = fmm_stage_flops(w.plan.geometry, w.dtype)["S2T"] * 8
            m["fmm.s2t_gflops"] = flops / stage_ms[("fmm", "s2t")] / 1e6
        m["sim_speedup_vs_1dfft"] = sim_fft1d_ms(w.spec, w.N) / m["sim_ms"]
        m["model.sim_over_model"] = m["sim_ms"] * 1e-3 / fmmfft_model_time(
            w.plan.geometry, w.spec, w.dtype)
    if isinstance(w, HostSingle):
        m.update(plan_build(w, 1, light))
        m.update(batched_kernels(w, light))
        m.update(fft_rows(w, w.plan.M, w.plan.P, light))
    if isinstance(w, SimPair):
        fmm, fft = out.clusters
        m["sim_ms"] = fmm.wall_time() * 1e3
        m["sim_speedup_vs_1dfft"] = fft.wall_time() / fmm.wall_time()
        m["comm.lb_gap"] = lower_bound_gap(fft)
        m["model.sim_over_model"] = fmm.wall_time() / fmmfft_model_time(
            w.plan.geometry, w.spec, np.complex128)
        m.update(comm_plans(w.spec, w.N * 16 / w.spec.num_devices, light))
        m["comm.auto_regret_r4x8"] = auto_regret_r4x8()
        ms, (_, findings) = timed_ms(
            lambda: verify_matrix(g_list=(2, 4, 8, 16, 64)), reps=1)
        m["analysis.verify_g64_s"] = ms * 1e-3
        m["analysis.findings"] += len(findings)
        m["model.fig3_speedup_8xP100_n24"] = find_fastest(
            1 << 24, preset("8xP100")).speedup
    if isinstance(w, ServeWorkload):
        m.update(serve_report_metrics(w, out, op_ms))
    if isinstance(w, ServeSteady):
        best, p99s = rate_ladder(w, light)
        m["sim_serve_max_rate_rps"] = best
        m["ladder_p99_ms"] = p99s
        m["obs.telemetry_overhead_frac"] = telemetry_overhead(w, light)
        m["model.search_ms"], _ = timed_ms(
            lambda: find_fastest(1 << 17, w.spec), 1 if light else 3)
        m.update(ir_direct(w.spec, 1 << 17, light))
    if isinstance(w, ServeNodeLoss):
        m["faults.overhead_frac"] = faults_overhead(w, light)
    return m
