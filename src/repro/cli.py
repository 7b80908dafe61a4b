"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List the simulated testbeds and their interconnect characteristics.
``transform``
    FMM-FFT a synthetic signal and report the error vs the exact FFT.
``search``
    Find the fastest (P, M_L, B, Q) for one size on one system.
``speedup``
    The Figure 3 sweep for one system/precision as a table.
``profile``
    Render the Figure-2-style simulated timeline for a configuration.
``analyze``
    Profile a pipeline and run the hazard sanitizer over its recorded
    schedule (``--sanitize`` raises on any data race or defect;
    ``--json`` writes the shared analysis-findings document).
``verify``
    Statically certify every comm-plan algorithm on every topology
    class — deadlock-freedom, payload conservation, buffer liveness —
    without running the simulator (:mod:`repro.analysis.plancheck`).
    ``--ir`` additionally captures every pipeline's op graph and checks
    it against the plan certificates' preallocation contracts
    (:mod:`repro.ir.prealloc`).
``ir``
    Capture a pipeline into the backend-neutral op-graph IR
    (:mod:`repro.ir`), certify it (hazards + prealloc), fuse its
    elementwise stages, and report graph structure plus the host-side
    capture-vs-replay wall time — the compiled-replay payoff.
``metrics``
    Observability report for a simulated run: per-region rollups, the
    measured-vs-model join, comm/compute overlap and the critical path.
``comm``
    Collective-algorithm cost table for one testbed: per-size predicted
    times for every :mod:`repro.comm` plan, the model-chosen winner,
    and its speedup over the legacy bulk collective.
``model``
    Section 5 model breakdown (per-stage roofline) for a configuration.
``energy``
    Energy projection of FMM-FFT vs the 1D baseline on one system.
``multinode``
    The Section 7 multi-node projection table.
``serve``
    Drive a synthetic open-loop workload through the batching transform
    service (:mod:`repro.serve`): Poisson arrivals, continuous batching,
    plan cache + persistent wisdom, latency percentiles.
``chaos``
    The serve workload under seeded fault injection (:mod:`repro.faults`):
    link flaps/degrades, stragglers, transient message failures.  Reports
    retry/shed accounting and can assert replay determinism
    (``--replay-check``) and hazard freedom (``--sanitize``).
``tune``
    Build/extend a JSON tuning-wisdom file over a range of sizes.
``trace``
    Export a Perfetto / chrome://tracing JSON of a simulated run.
``figures``
    Run every row of the paper-claims table (:mod:`repro.figures`):
    each row's sweep, checks and table, written as one markdown report
    (``--out REPORT.md``); exits 1 if any check breaks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import pipelines
from repro.comm import ALGORITHMS
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_relative_error
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset, _PRESETS
from repro.model.error import choose_q
from repro.model.search import find_fastest
from repro.util.prng import random_signal
from repro.util.table import Table, format_bytes, format_time


def _parse_size(s: str) -> int:
    """Accept plain ints or '2^k' / '2**k' forms."""
    s = s.strip()
    for sep in ("^", "**"):
        if sep in s:
            base, exp = s.split(sep)
            return int(base) ** int(exp)
    return int(s)


def cmd_info(args: argparse.Namespace) -> int:
    """List the simulated testbeds."""
    t = Table(["system", "G", "P2P [GB/s]", "all-to-all inj [GB/s]", "collective ovh [us]"],
              title="Simulated testbeds")
    for name in sorted(_PRESETS):
        spec = preset(name)
        t.add_row([
            spec.name, spec.num_devices,
            spec.pair_bandwidth(0, 1) / 1e9,
            spec.alltoall_bandwidth() / 1e9,
            spec.collective_overhead * 1e6,
        ])
    print(t.render())
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    """FMM-FFT a synthetic signal; exit 1 if tolerance missed."""
    N = _parse_size(args.n)
    Q = args.q if args.q else choose_q(args.tolerance, args.dtype)
    x = random_signal(N, args.dtype, seed=args.seed)
    from repro.core.api import default_params

    d = default_params(N)
    d["Q"] = Q
    if args.p:
        d["P"] = args.p
    plan = FmmFftPlan.create(N=N, dtype=args.dtype, **d)
    err = fmmfft_relative_error(x, plan)
    print(f"plan: {plan.describe()}")
    print(f"relative l2 error vs exact FFT: {err:.3e} "
          f"(target {args.tolerance:g}, chosen Q={Q})")
    if args.trace_out:
        # replay the same size on a simulated testbed and export the
        # Perfetto trace of the distributed schedule
        from repro.obs import save_trace

        spec = preset(args.system)
        cl, _ = _simulate("fmmfft", N, spec, args.dtype)
        save_trace(args.trace_out, cl.ledger, spec)
        print(f"wrote {args.trace_out} ({spec.name} timing replay, "
              f"{len(cl.ledger)} ops)")
    return 0 if err <= args.tolerance else 1


def cmd_search(args: argparse.Namespace) -> int:
    """Find the fastest parameters for one size/system."""
    N = _parse_size(args.n)
    spec = preset(args.system)
    r = find_fastest(N, spec, dtype=args.dtype)
    p = r.params
    print(f"N={N} on {spec.name} ({args.dtype}):")
    print(f"  fastest: P={p['P']}, ML={p['ML']}, B={p['B']}, Q={p['Q']}")
    print(f"  FMM-FFT {format_time(r.fmmfft_time)}  "
          f"1D FFT {format_time(r.baseline_time)}  speedup {r.speedup:.2f}x")
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    """Figure-3-style speedup sweep for one system."""
    spec = preset(args.system)
    t = Table(["log2N", "FMM-FFT", "1D FFT", "speedup"],
              title=f"Speedup sweep, {spec.name}, {args.dtype}")
    for q in range(args.min, args.max + 1):
        r = find_fastest(1 << q, spec, dtype=args.dtype)
        t.add_row([q, format_time(r.fmmfft_time), format_time(r.baseline_time),
                   f"{r.speedup:.2f}"])
    print(t.render())
    return 0


def _simulate(pipeline: str, N: int, spec, dtype: str, comm: str = "bulk"):
    """Run one pipeline timing-only; returns ``(cluster, params)``.

    The FMM-FFT runs at the fastest parameters :func:`find_fastest`
    finds on ``spec``; ``params`` is None for every other pipeline.
    """
    params = (find_fastest(N, spec, dtype=dtype).params
              if pipeline == "fmmfft" else None)
    cl = pipelines.simulate(pipeline, N, spec, dtype=dtype,
                            comm_algorithm=comm, params=params)
    return cl, params


def cmd_profile(args: argparse.Namespace) -> int:
    """Render the simulated timeline for a configuration."""
    N = _parse_size(args.n)
    spec = preset(args.system)
    pipeline = "fft1d" if args.baseline else "fmmfft"
    cl, params = _simulate(pipeline, N, spec, args.dtype)
    if params is not None:
        print(f"params: {params}")
    devices = [int(d) for d in args.devices.split(",")] if args.devices else None
    print(cl.trace().render_profile(width=args.width, devices=devices))
    print()
    print(cl.trace().stage_summary().render())
    if args.trace_out:
        from repro.obs import save_trace

        save_trace(args.trace_out, cl.ledger, spec)
        print(f"wrote {args.trace_out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Profile a pipeline and run the hazard sanitizer over its schedule."""
    from repro.machine.multinode import multinode_p100

    N = _parse_size(args.n)
    if args.nodes > 1:
        spec = multinode_p100(args.nodes, gpus_per_node=args.gpus_per_node)
    else:
        spec = preset(args.system)
    cl, params = _simulate(args.pipeline, N, spec, args.dtype, comm=args.comm)
    if params is not None:
        print(f"params: {params}")

    print(cl.trace().render_profile(width=args.width))
    print()
    report = cl.trace().hazards()
    print(report.render())
    if args.json:
        from repro.analysis.findings import (finding_context, from_hazards,
                                             write_findings)

        ctx = finding_context(pipeline=args.pipeline, comm=args.comm,
                              n=N, system=cl.spec.name)
        write_findings(args.json, from_hazards(report, context=ctx))
        print(f"findings JSON written to {args.json}")
    if args.sanitize:
        report.raise_if_any()
    return 0 if report.ok else 1


def _verify_ir(N: int, dtype: str, comm: str):
    """Capture every pipeline and check its graph prealloc contract.

    Returns ``(rows, findings)``: one row per pipeline (graph facts +
    verdict) and the :mod:`repro.ir.prealloc` findings, for folding
    into ``repro verify``'s table and findings JSON.
    """
    from repro.ir import capture_pipeline, check_graph_prealloc
    from repro.ir.executor import scratch_replay

    rows, findings = [], []
    for name in pipelines.NAMES:
        spec = pipelines.machine_for(name, preset("8xP100"))
        cl = VirtualCluster(spec, execute=False)
        graph, _ = capture_pipeline(name, cl, N, dtype=dtype,
                                    comm_algorithm=comm)
        fnd = check_graph_prealloc(graph, spec)
        findings.extend(fnd)
        # the replay-memory assertion: every buffer the replay touches
        # fits the contract the certificates promised
        scratch = scratch_replay(graph, spec)
        scratch.sanitize()
        rows.append({
            "pipeline": name, "G": graph.meta["G"],
            "nodes": len(graph.nodes),
            "records": graph.num_records,
            "comm_calls": len(graph.comm_calls()),
            "peak_live_bytes": (0.0 if graph.prealloc is None
                                else graph.prealloc["peak_live_bytes"]),
            "findings": len(fnd),
            "ok": not fnd,
        })
    return rows, findings


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically certify comm plans over the algorithm x topology matrix."""
    from repro.analysis.findings import write_findings
    from repro.analysis.plancheck import DEFAULT_G_LIST, verify_matrix

    g_list = (tuple(int(g) for g in args.g_list.split(","))
              if args.g_list else DEFAULT_G_LIST)
    payload = float(_parse_size(args.payload))
    rows, findings = verify_matrix(g_list=g_list, payload=payload,
                                   include_degraded=not args.no_degraded)
    t = Table(
        ["spec", "kind", "algorithm", "G", "rounds", "msgs",
         "wire", "peak live/dev", "verdict"],
        title="Static plan verification",
    )
    for r in rows:
        t.add_row([
            r["spec"], r["kind"], r["algorithm"], r["G"],
            r["num_rounds"], r["num_messages"],
            format_bytes(r["wire_bytes"]),
            format_bytes(r["prealloc"].get("peak_live_bytes", 0.0)),
            "certified" if r["ok"] else f"{r['findings']} finding(s)",
        ])
    print(t.render())
    print()
    if args.ir:
        ir_rows, ir_findings = _verify_ir(_parse_size(args.ir_n),
                                          args.dtype, args.comm)
        findings = list(findings) + ir_findings
        it = Table(
            ["pipeline", "G", "nodes", "records", "comm", "peak live/dev",
             "verdict"],
            title=f"IR graph preallocation (N={_parse_size(args.ir_n)})",
        )
        for r in ir_rows:
            it.add_row([
                r["pipeline"], r["G"], r["nodes"], r["records"],
                r["comm_calls"], format_bytes(r["peak_live_bytes"]),
                "certified" if r["ok"] else f"{r['findings']} finding(s)",
            ])
        print(it.render())
        print()
        rows = list(rows) + ir_rows
    if args.json:
        write_findings(args.json, findings)
        print(f"findings JSON written to {args.json}")
    for f in findings[:20]:
        print(f)
    if len(findings) > 20:
        print(f"... {len(findings) - 20} more finding(s)")
    n_ok = sum(1 for r in rows if r["ok"])
    print(f"verify: {n_ok}/{len(rows)} plans certified, "
          f"{len(findings)} finding(s)")
    return 0 if not findings else 1


def cmd_ir(args: argparse.Namespace) -> int:
    """Capture pipelines into the IR and report graph facts + timings."""
    import gc
    import json as _json
    import time as _time

    from repro.ir import ReplayExecutor, capture_pipeline, fuse_elementwise

    N = _parse_size(args.n)
    spec = preset(args.system)
    names = pipelines.NAMES if args.pipeline == "all" else (args.pipeline,)
    reps = max(1, args.repeats)
    t = Table(
        ["pipeline", "G", "nodes", "records", "buffers", "comm", "fused",
         "peak live/dev", "capture [ms]", "replay [ms]", "host speedup"],
        title=f"IR capture/replay, {args.system}, N={N}, {args.comm}",
    )
    rows = []
    for name in names:
        pspec = pipelines.machine_for(name, spec)
        cl = VirtualCluster(pspec, execute=False)
        t0 = _time.perf_counter()
        graph, _ = capture_pipeline(name, cl, N, dtype=args.dtype,
                                    comm_algorithm=args.comm)
        graph.certify(pspec)
        capture_s = _time.perf_counter() - t0
        fused = fuse_elementwise(graph, pspec)
        ex = ReplayExecutor(graph, VirtualCluster(pspec, execute=False))
        # start every timing loop at the same point of the collector's
        # cycle: a generation-2 pass over the earlier pipelines' graphs
        # costs several replays
        gc.collect()
        t0 = _time.perf_counter()
        for _ in range(reps):
            ex.run()
        replay_s = (_time.perf_counter() - t0) / reps
        row = graph.summary()
        row.update(fused_launches=fused.meta["fused"],
                   capture_s=capture_s, replay_s=replay_s,
                   host_speedup=capture_s / max(replay_s, 1e-12))
        rows.append(row)
        t.add_row([
            name, row["G"], row["nodes"], row["records_per_replay"],
            row["buffers"], row["comm_calls"], row["fused_launches"],
            format_bytes(row["peak_live_bytes"] or 0.0),
            f"{capture_s * 1e3:.2f}", f"{replay_s * 1e3:.2f}",
            f"{row['host_speedup']:.1f}x",
        ])
    print(t.render())
    print()
    print(f"ir: {len(rows)} pipeline(s) captured, certified, and replayed "
          f"({reps} replay(s) each); capture includes one interpreted run "
          "+ certification")
    if args.json:
        payload = {"system": args.system, "n": N, "dtype": args.dtype,
                   "comm": args.comm, "repeats": reps, "pipelines": rows}
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=1)
        print(f"graph summaries written to {args.json}")
    return 0


def _plan_cache(spec, wisdom_path: str | None):
    """A serve plan cache over the wisdom file at ``wisdom_path``, when
    there is one: what ``tune`` fills and ``serve`` starts warm from."""
    from pathlib import Path

    from repro.serve import PlanCache, Wisdom

    warm = wisdom_path and Path(wisdom_path).exists()
    return PlanCache(spec, wisdom=Wisdom.load(wisdom_path) if warm else None)


def _run_serve(spec, args: argparse.Namespace):
    """Serve a synthetic workload; returns (cluster, scheduler).

    Shared by ``serve`` and ``metrics --pipeline serve`` so both observe
    identical schedules.
    """
    from repro.serve import (AdmissionQueue, Batcher, ServeScheduler,
                             synthetic_workload)

    sizes = None
    if getattr(args, "sizes", None):
        sizes = {_parse_size(s): 1.0 for s in args.sizes.split(",")}
    cache = _plan_cache(spec, getattr(args, "wisdom", None))
    cl = VirtualCluster(spec, execute=False)
    batcher = Batcher(cache, max_batch=getattr(args, "max_batch", 8),
                      batching=not getattr(args, "no_batching", False))
    sched = ServeScheduler(
        cl, batcher,
        queue=AdmissionQueue(capacity=getattr(args, "queue_capacity", 64)),
        max_inflight=getattr(args, "max_inflight", 2),
    )
    reqs = synthetic_workload(
        getattr(args, "requests", 32), rate=getattr(args, "rate", 2000.0),
        sizes=sizes, dtype=args.dtype, seed=getattr(args, "seed", 0),
    )
    sched.run(reqs)
    return cl, sched


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic open-loop workload on a simulated testbed."""
    import json
    from pathlib import Path

    from repro.obs import build_trace, prometheus_text
    from repro.serve import merge_serve_track, serve_run_doc, summarize

    spec = preset(args.system)
    cl, sched = _run_serve(spec, args)
    if args.sanitize:
        cl.sanitize()
        print("sanitizer: interleaved schedule certified hazard-free")
    rep = summarize(sched)
    print(f"served {args.requests} requests at {args.rate:g} req/s offered "
          f"on {spec.name} (max batch {args.max_batch}, "
          f"{'' if not args.no_batching else 'no '}batching)")
    print(rep.render())
    if args.wisdom:
        sched.batcher.cache.wisdom.save(args.wisdom)
        print(f"wisdom saved to {args.wisdom} "
              f"({len(sched.batcher.cache.wisdom)} entries)")
    if args.json:
        doc = serve_run_doc(sched, rep)
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True))
        print(f"wrote {args.json} (serve-run v{doc['version']}: report + "
              f"{len(doc['telemetry']['series'])} telemetry series)")
    if args.prom:
        snap = sched.telemetry.snapshot(time=sched.wall_time)
        Path(args.prom).write_text(prometheus_text(snap))
        print(f"wrote {args.prom} (Prometheus text exposition)")
    if args.trace_out:
        doc = merge_serve_track(build_trace(cl.ledger, spec), sched)
        Path(args.trace_out).write_text(json.dumps(doc))
        print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} events, "
              "serve track included)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Serve workload under seeded fault injection; graceful degradation."""
    import json
    from pathlib import Path

    from repro.faults import seeded_chaos
    from repro.obs import build_trace, merge_fault_track
    from repro.serve import (AdmissionQueue, Batcher, PlanCache,
                             ServeScheduler, merge_serve_track, serve_run_doc,
                             summarize, synthetic_workload)

    spec = preset(args.system)
    sizes = None
    if args.sizes:
        sizes = {_parse_size(s): 1.0 for s in args.sizes.split(",")}
    reqs = synthetic_workload(args.requests, rate=args.rate, sizes=sizes,
                             dtype=args.dtype, seed=args.seed)

    def run_once():
        """One chaos run from scratch — fresh injector, cluster, caches."""
        inj = seeded_chaos(
            spec, seed=args.fault_seed, transient_rate=args.transient_rate,
            flaps=args.flaps, stragglers=args.stragglers,
            degrades=args.degrades, horizon=args.horizon,
        )
        cl = VirtualCluster(spec, execute=False, faults=inj)
        sched = ServeScheduler(
            cl, Batcher(PlanCache(spec), max_batch=args.max_batch),
            queue=AdmissionQueue(capacity=args.queue_capacity),
            max_inflight=args.max_inflight,
            retry_budget=args.retry_budget,
        )
        sched.run(reqs)
        return cl, sched

    cl, sched = run_once()
    if args.replay_check:
        fp = cl.ledger.fingerprint()
        cl2, _ = run_once()
        if fp != cl2.ledger.fingerprint():
            print("replay check: FAILED — two identically seeded chaos runs "
                  "produced different ledgers")
            return 1
        print(f"replay check: ok (ledger fingerprint {fp[:16]}… twice)")
    if args.sanitize:
        cl.sanitize()
        print("sanitizer: retried chaos schedule certified hazard-free")
    rep = summarize(sched)
    inj = cl.faults
    print(f"chaos: {args.requests} requests at {args.rate:g} req/s on "
          f"{spec.name} (fault seed {args.fault_seed}, transient rate "
          f"{args.transient_rate:g}, {args.stragglers} straggler(s), "
          f"{args.flaps} flap(s), {args.degrades} degrade(s); "
          f"{len(inj.events)} fault events)")
    print(rep.render())
    if args.json:
        doc = serve_run_doc(sched, rep)
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True))
        print(f"wrote {args.json} (serve-run v{doc['version']}: report + "
              f"{len(doc['telemetry']['series'])} telemetry series)")
    if args.trace_out:
        doc = merge_fault_track(
            merge_serve_track(build_trace(cl.ledger, spec), sched),
            inj.events)
        Path(args.trace_out).write_text(json.dumps(doc))
        print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} events, "
              "serve + fault tracks included)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """ASCII telemetry dashboard: live serve run or snapshot replay."""
    import json
    from pathlib import Path

    from repro.obs import render_dashboard
    from repro.serve import serve_run_doc

    if args.replay:
        doc = json.loads(Path(args.replay).read_text())
    else:
        spec = preset(args.system)
        _, sched = _run_serve(spec, args)
        doc = serve_run_doc(sched)
    out = render_dashboard(doc)
    print(out)
    if args.out:
        Path(args.out).write_text(out + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Observability report: rollups, model join, overlap, critical path."""
    from repro.obs import compute_metrics, save_trace

    N = _parse_size(args.n)
    spec = preset(args.system)
    serve_report = None
    if args.pipeline == "serve":
        from repro.serve import summarize

        cl, sched = _run_serve(spec, args)
        params = None
        serve_report = summarize(sched)
    else:
        cl, params = _simulate(args.pipeline, N, spec, args.dtype,
                               comm=args.comm)
    geom = params and _geometry(N, spec, args.dtype, params)
    rep = compute_metrics(cl.ledger, cl.spec, geom=geom, dtype=args.dtype,
                          comm_log=cl.comm_log)
    if params is not None:
        print(f"params: {params}")
    print(rep.render())
    if serve_report is not None:
        print()
        print("serve latency / throughput")
        print(serve_report.render())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps(rep.to_json(), indent=1))
        print(f"wrote {args.json}")
    if args.trace_out:
        save_trace(args.trace_out, cl.ledger, cl.spec)
        print(f"wrote {args.trace_out}")
    return 0


def cmd_comm(args: argparse.Namespace) -> int:
    """Collective-algorithm cost table for one testbed."""
    from repro.comm import algorithm_table

    spec = preset(args.testbed)
    rows = algorithm_table(spec)
    algos = sorted({a for r in rows for a in r["predictions"]})
    t = Table(["kind", "payload/dev", "bulk"] + algos + ["best", "vs bulk"],
              title=f"Comm algorithm model, {spec.name} (G={spec.num_devices})")
    for r in rows:
        t.add_row(
            [r["kind"], format_bytes(r["payload_bytes"]),
             format_time(r["bulk"])]
            + [format_time(r["predictions"][a]) for a in algos]
            + [r["best"], f"{r['speedup_vs_bulk']:.2f}x"]
        )
    print(t.render())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps(rows, indent=1))
        print(f"wrote {args.json}")
    return 0


def _geometry(N: int, spec, dtype: str, params: dict):
    """The FMM geometry of one FMM-FFT configuration (no operators)."""
    return FmmFftPlan.create(N=N, G=spec.num_devices, dtype=dtype,
                             build_operators=False, **params).geometry


def cmd_model(args: argparse.Namespace) -> int:
    """Print the Section 5 model breakdown."""
    from repro.model.report import render_model_report

    N = _parse_size(args.n)
    spec = preset(args.system)
    params = find_fastest(N, spec, dtype=args.dtype).params
    print(render_model_report(_geometry(N, spec, args.dtype, params), spec,
                              args.dtype))
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    """Energy projection of FMM-FFT vs the baseline."""
    from repro.model.energy import energy_ratio, run_energy

    N = _parse_size(args.n)
    spec = preset(args.system)
    e_b = run_energy(_simulate("fft1d", N, spec, args.dtype)[0])
    e_f = run_energy(_simulate("fmmfft", N, spec, args.dtype)[0])
    t = Table(["pipeline", "compute [J]", "memory [J]", "comm [J]", "idle [J]", "total [J]"],
              title=f"Energy projection, N={N} on {spec.name}")
    for label, e in (("1D FFT", e_b), ("FMM-FFT", e_f)):
        t.add_row([label, e.compute, e.memory, e.communication, e.idle, e.total])
    print(t.render())
    print(f"energy ratio (baseline/FMM-FFT): {energy_ratio(e_b, e_f):.2f}x")
    return 0


def cmd_multinode(args: argparse.Namespace) -> int:
    """Multi-node projection table (flat NICs or a routed fat tree)."""
    from repro.machine.multinode import multinode_p100, routed_multinode_p100

    N = _parse_size(args.n)
    routed = args.radix > 0
    fabric = (f"fat-tree r{args.radix} o{args.oversubscription:g}"
              if routed else "flat NIC")
    t = Table(["nodes", "G", "FMM-FFT", "1D FFT", "speedup"],
              title=f"Multi-node projection, N={N} ({args.dtype}, {fabric})")
    for nodes in (1, 2, 4, 8):
        if routed:
            spec = routed_multinode_p100(
                nodes, gpus_per_node=args.gpus_per_node, radix=args.radix,
                oversubscription=args.oversubscription)
        else:
            spec = multinode_p100(nodes, gpus_per_node=args.gpus_per_node)
        r = find_fastest(N, spec, dtype=args.dtype)
        t.add_row([nodes, spec.num_devices, format_time(r.fmmfft_time),
                   format_time(r.baseline_time), f"{r.speedup:.2f}"])
    print(t.render())
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Build or extend the wisdom file ``repro serve --wisdom`` reads."""
    cache = _plan_cache(preset(args.system), args.wisdom)
    for q in range(args.min, args.max + 1):
        params, alg, _ = cache.resolve(1 << q, args.dtype)
        print(f"N=2^{q}: {params} comm={alg}")
    cache.wisdom.save(args.wisdom)
    print(f"wisdom saved to {args.wisdom} ({len(cache.wisdom)} entries)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export a Perfetto / chrome://tracing JSON of a simulated run."""
    from repro.obs import save_trace

    spec = preset(args.system)
    cl, _ = _simulate("fmmfft", _parse_size(args.n), spec, args.dtype)
    save_trace(args.out, cl.ledger, spec)
    print(f"wrote {len(cl.ledger)} ops to {args.out} "
          f"(load in chrome://tracing or Perfetto)")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Run the paper-claims table; print or write its report."""
    from repro.figures import report

    text, broken = report()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    for label in broken:
        print(f"check broken: {label}", file=sys.stderr)
    return 1 if broken else 0


def _dtype_option(sub, **kw) -> None:
    sub.add_argument("--dtype", default="complex128",
                     choices=["complex64", "complex128"], **kw)


def _comm_option(sub, help: str) -> None:
    sub.add_argument("--comm", default="bulk", choices=ALGORITHMS,
                     help=help)


def _workload_options(sub) -> None:
    """The synthetic serve workload ``serve``, ``chaos`` and ``top`` share."""
    sub.add_argument("--system", default="8xP100", choices=sorted(_PRESETS))
    _dtype_option(sub)
    sub.add_argument("--requests", type=int, default=32,
                     help="number of requests in the synthetic trace")
    sub.add_argument("--rate", type=float, default=2000.0,
                     help="offered load [req/s] (Poisson arrivals)")
    sub.add_argument("--sizes", default=None,
                     help="comma-separated size mix (e.g. '2^16,2^18'); "
                          "default 3:2:1 mix of 2^16/2^17/2^18")
    sub.add_argument("--max-batch", type=int, default=8,
                     help="largest coalesced batch")
    sub.add_argument("--max-inflight", type=int, default=2,
                     help="concurrent in-flight batches on the cluster")
    sub.add_argument("--queue-capacity", type=int, default=64,
                     help="admission queue depth (arrivals beyond it shed)")
    sub.add_argument("--seed", type=int, default=0,
                     help="workload seed (arrivals, sizes)")


def _pipeline_option(sub, default: str, *extra: str) -> None:
    """``--pipeline``: the table's names, plus ``extra`` where a command
    has a mode of its own."""
    sub.add_argument("--pipeline", default=default,
                     choices=[*extra, *pipelines.NAMES])


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list simulated testbeds").set_defaults(fn=cmd_info)

    tr = sub.add_parser("transform", help="FMM-FFT a synthetic signal")
    tr.add_argument("--n", default="2^14", help="size (e.g. 4096 or 2^20)")
    _dtype_option(tr)
    tr.add_argument("--tolerance", type=float, default=1e-12)
    tr.add_argument("--q", type=int, default=0, help="override expansion order")
    tr.add_argument("--p", type=int, default=0, help="override P")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--system", default="2xP100", choices=sorted(_PRESETS),
                    help="testbed for the --trace-out timing replay")
    tr.add_argument("--trace-out", default=None,
                    help="also export a Perfetto trace of the simulated run")
    tr.set_defaults(fn=cmd_transform)

    se = sub.add_parser("search", help="find the fastest parameters")
    se.add_argument("--n", default="2^24")
    se.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(se)
    se.set_defaults(fn=cmd_search)

    sp = sub.add_parser("speedup", help="Figure-3-style sweep")
    sp.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(sp)
    sp.add_argument("--min", type=int, default=14)
    sp.add_argument("--max", type=int, default=24)
    sp.set_defaults(fn=cmd_speedup)

    pr = sub.add_parser("profile", help="Figure-2-style timeline")
    pr.add_argument("--n", default="2^24")
    pr.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(pr)
    pr.add_argument("--baseline", action="store_true",
                    help="profile the six-step 1D FFT instead")
    pr.add_argument("--width", type=int, default=100)
    pr.add_argument("--devices", default=None,
                    help="comma-separated device ids to show (default all)")
    pr.add_argument("--trace-out", default=None,
                    help="also export a Perfetto trace of the run")
    pr.set_defaults(fn=cmd_profile)

    an = sub.add_parser("analyze", help="hazard-sanitize a simulated schedule")
    _pipeline_option(an, "fmmfft")
    an.add_argument("--n", default="2^20", help="size (e.g. 4096 or 2^20)")
    an.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    an.add_argument("--nodes", type=int, default=1,
                    help="> 1 analyzes a multi-node machine instead of --system")
    an.add_argument("--gpus-per-node", type=int, default=4)
    _dtype_option(an)
    an.add_argument("--width", type=int, default=100)
    _comm_option(an, "collective algorithm (see repro.comm)")
    an.add_argument("--sanitize", action="store_true",
                    help="strict mode: raise HazardError on any finding")
    an.add_argument("--json", metavar="PATH", default=None,
                    help="write the shared analysis-findings JSON to PATH")
    an.set_defaults(fn=cmd_analyze)

    vf = sub.add_parser(
        "verify", help="statically certify comm plans (no simulation)")
    vf.add_argument("--g-list", default=None,
                    help="comma-separated device counts "
                         "(default 2,4,8,16,64,256)")
    vf.add_argument("--payload", default="2^20",
                    help="per-device payload bytes (e.g. 2^20)")
    vf.add_argument("--no-degraded", action="store_true",
                    help="skip the fault-degraded topology views")
    vf.add_argument("--json", metavar="PATH", default=None,
                    help="write the shared analysis-findings JSON to PATH")
    vf.add_argument("--ir", action="store_true",
                    help="also capture every pipeline's op graph and check "
                         "it against the prealloc contracts (repro.ir)")
    vf.add_argument("--ir-n", default="2^12",
                    help="problem size for the --ir captures")
    _dtype_option(vf, help="dtype for the --ir captures")
    _comm_option(vf, "collective algorithm for the --ir captures")
    vf.set_defaults(fn=cmd_verify)

    ir = sub.add_parser(
        "ir", help="capture/certify/replay a pipeline's op-graph IR")
    _pipeline_option(ir, "all", "all")
    ir.add_argument("--n", default="2^12", help="size (e.g. 4096 or 2^12)")
    ir.add_argument("--system", default="8xP100", choices=sorted(_PRESETS))
    _dtype_option(ir)
    _comm_option(ir, "collective algorithm (see repro.comm)")
    ir.add_argument("--repeats", type=int, default=5,
                    help="replay repetitions for the host-wall timing")
    ir.add_argument("--json", metavar="PATH", default=None,
                    help="write the per-pipeline graph summaries to PATH")
    ir.set_defaults(fn=cmd_ir)

    me = sub.add_parser("metrics", help="observability report for a run")
    _pipeline_option(me, "fmmfft", "serve")
    me.add_argument("--n", default="2^20", help="size (e.g. 4096 or 2^20)")
    me.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(me)
    _comm_option(me, "collective algorithm (see repro.comm)")
    me.add_argument("--json", default=None,
                    help="also write the report as JSON to this path")
    me.add_argument("--trace-out", default=None,
                    help="also export a Perfetto trace of the run")
    me.set_defaults(fn=cmd_metrics)

    cm = sub.add_parser("comm", help="collective-algorithm cost table")
    cm.add_argument("--testbed", default="8xP100", choices=sorted(_PRESETS))
    cm.add_argument("--json", default=None,
                    help="also write the table rows as JSON to this path")
    cm.set_defaults(fn=cmd_comm)

    mo = sub.add_parser("model", help="Section 5 model breakdown")
    mo.add_argument("--n", default="2^24")
    mo.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(mo)
    mo.set_defaults(fn=cmd_model)

    en = sub.add_parser("energy", help="energy projection")
    en.add_argument("--n", default="2^24")
    en.add_argument("--system", default="8xP100", choices=sorted(_PRESETS))
    _dtype_option(en)
    en.set_defaults(fn=cmd_energy)

    mn = sub.add_parser("multinode", help="multi-node projection")
    mn.add_argument("--n", default="2^24")
    mn.add_argument("--gpus-per-node", type=int, default=4)
    mn.add_argument("--radix", type=int, default=0,
                    help="fat-tree switch radix (0 = flat NIC model)")
    mn.add_argument("--oversubscription", type=float, default=1.0,
                    help="leaf uplink oversubscription factor")
    _dtype_option(mn)
    mn.set_defaults(fn=cmd_multinode)

    sv = sub.add_parser("serve", help="batching transform service workload")
    _workload_options(sv)
    sv.add_argument("--no-batching", action="store_true",
                    help="serve one request per execution (baseline)")
    sv.add_argument("--wisdom", default=None,
                    help="persistent wisdom JSON: loaded if present, "
                         "saved after the run (warm starts skip autotuning)")
    sv.add_argument("--sanitize", action="store_true",
                    help="hazard-sanitize the interleaved schedule")
    sv.add_argument("--json", default=None,
                    help="write the versioned serve-run document (report + "
                         "telemetry snapshot + SLO timeline) to this path")
    sv.add_argument("--prom", default=None,
                    help="write the telemetry snapshot in Prometheus text "
                         "exposition format to this path")
    sv.add_argument("--trace-out", default=None,
                    help="export a Perfetto trace with the serve track")
    sv.set_defaults(fn=cmd_serve)

    ch = sub.add_parser("chaos", help="serve workload under fault injection")
    _workload_options(ch)
    ch.add_argument("--fault-seed", type=int, default=0,
                    help="chaos scenario seed (see repro.faults.seeded_chaos)")
    ch.add_argument("--transient-rate", type=float, default=0.02,
                    help="per-attempt transient failure probability")
    ch.add_argument("--flaps", type=int, default=0,
                    help="number of random link-flap windows")
    ch.add_argument("--stragglers", type=int, default=1,
                    help="number of random straggler windows")
    ch.add_argument("--degrades", type=int, default=0,
                    help="number of random link-degrade windows")
    ch.add_argument("--horizon", type=float, default=50e-3,
                    help="chaos scenario horizon [s]")
    ch.add_argument("--retry-budget", type=int, default=2,
                    help="service-level re-enqueues per failed request")
    ch.add_argument("--sanitize", action="store_true",
                    help="hazard-sanitize the retried chaos schedule")
    ch.add_argument("--replay-check", action="store_true",
                    help="run twice and require bit-identical ledgers")
    ch.add_argument("--json", default=None,
                    help="write the versioned serve-run document (report + "
                         "telemetry snapshot + SLO timeline) to this path")
    ch.add_argument("--trace-out", default=None,
                    help="export a Perfetto trace with serve + fault tracks")
    ch.set_defaults(fn=cmd_chaos)

    tp = sub.add_parser("top", help="ASCII telemetry dashboard for serve")
    tp.add_argument("--replay", default=None, metavar="PATH",
                    help="render from a saved serve-run / telemetry-snapshot "
                         "JSON instead of running a workload")
    _workload_options(tp)
    tp.add_argument("--out", default=None,
                    help="also write the rendered dashboard to this path")
    tp.set_defaults(fn=cmd_top)

    tu = sub.add_parser("tune", help="build a tuning-wisdom file")
    tu.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(tu)
    tu.add_argument("--min", type=int, default=14)
    tu.add_argument("--max", type=int, default=20)
    tu.add_argument("--wisdom", default="wisdom.json",
                    help="wisdom JSON to extend (what `serve --wisdom` reads)")
    tu.set_defaults(fn=cmd_tune)

    tc = sub.add_parser("trace", help="export a Perfetto trace JSON")
    tc.add_argument("--n", default="2^24")
    tc.add_argument("--system", default="2xP100", choices=sorted(_PRESETS))
    _dtype_option(tc)
    tc.add_argument("--out", default="trace.json")
    tc.set_defaults(fn=cmd_trace)

    fg = sub.add_parser("figures", help="check the paper's claims, write the report")
    fg.add_argument("--out", default=None,
                    help="write the markdown report here (default: print it)")
    fg.set_defaults(fn=cmd_figures)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
