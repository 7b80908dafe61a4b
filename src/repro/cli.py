"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List the simulated testbeds and their interconnect characteristics.
``transform``
    FMM-FFT a synthetic signal and report the error vs the exact FFT.
``search``
    The fastest (P, M_L, B, Q) and its speedup over the 1D FFT, one row
    per (N, machine): one size, the Figure 3 sweep (``--n 2^14..2^24``)
    or the Section 7 multi-node projection (``--nodes 1,2,4,8``).
``analyze``
    The report of one simulated run: the Figure-2-style timeline, the
    metrics (per-region and per-op-name rollups, the measured-vs-model
    join, comm/compute overlap, the critical path) and the hazard
    sanitizer over its schedule; exits 1 on any hazard (``--sanitize``
    raises).  ``--json`` writes the shared analysis-findings document
    with the metrics under ``metrics``; ``--trace-out`` the Perfetto
    trace.
``verify``
    Statically certify every comm-plan algorithm on every topology
    class — deadlock-freedom, payload conservation, buffer liveness —
    without running the simulator (:mod:`repro.analysis.plancheck`).
``ir``
    Capture a pipeline into the backend-neutral op-graph IR
    (:mod:`repro.ir`), certify it (a hazard-free scratch replay), and
    report graph structure plus the host-side capture-vs-replay wall
    time — the compiled-replay payoff.
``comm``
    Collective-algorithm cost table for one testbed: per-size predicted
    times for every :mod:`repro.comm` plan, the model-chosen winner,
    and its speedup over the legacy bulk collective.
``model``
    Section 5 model breakdown (per-stage roofline) for a configuration,
    then the energy projection of FMM-FFT vs the 1D baseline.
``serve``
    Drive a synthetic open-loop workload through the batching transform
    service (:mod:`repro.serve`): Poisson arrivals, continuous batching,
    plan cache + persistent wisdom, latency percentiles.
``chaos``
    The serve workload under seeded fault injection (:mod:`repro.faults`):
    link flaps/degrades, stragglers, transient message failures.  Reports
    retry/shed accounting and can assert replay determinism
    (``--replay-check``) and hazard freedom (``--sanitize``).
``top``
    ASCII telemetry dashboard of a serve run or a saved snapshot.
``tune``
    Build/extend a JSON tuning-wisdom file over a list of sizes.
``figures``
    Run every row of the paper-claims table (:mod:`repro.figures`):
    each row's sweep, checks and table, written as one markdown report
    (``--out REPORT.md``); exits 1 if any check breaks.

Every size option (``--n``, ``--payload``, ``--sizes``)
takes ``4096``, ``2^12`` or ``2**12``; the list ones also take a
power-of-two range ``2^14..2^24``.
"""
from __future__ import annotations

import argparse
import os
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
    """A size: ``4096``, ``2^12`` or ``2**12`` (an argparse ``type=``)."""
    s = s.strip()
    parts = s.split("^") if "^" in s else s.split("**")
    if len(parts) > 2 or not all(p.isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(
            f"invalid size {s!r} (expected e.g. 4096, 2^12 or 2**12)")
    return int(parts[0]) ** int(parts[1]) if len(parts) == 2 else int(s)


def _parse_sizes(s: str) -> list[int]:
    """A comma list of sizes; an item ``lo..hi`` is every power of two
    from ``lo`` to ``hi`` (an argparse ``type=``)."""
    out = []
    for item in s.split(","):
        lo, dots, hi = item.partition("..")
        if not dots:
            out.append(_parse_size(item))
            continue
        a, b = _parse_size(lo), _parse_size(hi)
        if not (0 < a <= b and a & (a - 1) == 0 == b & (b - 1)):
            raise argparse.ArgumentTypeError(
                f"invalid size range {item.strip()!r} (expected powers of "
                "two lo <= hi, e.g. 2^14..2^24)")
        out.extend(1 << q for q in range(a.bit_length() - 1, b.bit_length()))
    return out


def _ints(s: str) -> list[int]:
    """A comma list of integers (an argparse ``type=``)."""
    return [int(v) for v in s.split(",")]


def _size_label(N: int) -> str:
    return f"2^{N.bit_length() - 1}" if N & (N - 1) == 0 else str(N)


def _machines(args: argparse.Namespace, nodes: list[int]) -> list:
    """The machines ``--system``/``--nodes``/... name: ``--system`` when
    ``nodes`` is ``[1]``, else one multi-node P100 machine per node count
    with ``--gpus-per-node`` GPUs each — flat NICs, or a routed fat tree
    when ``--radix`` is > 0."""
    from repro.machine.multinode import multinode_p100, routed_multinode_p100

    if nodes == [1]:
        return [preset(args.system)]
    if getattr(args, "radix", 0) > 0:
        return [routed_multinode_p100(
                    n, gpus_per_node=args.gpus_per_node, radix=args.radix,
                    oversubscription=args.oversubscription) for n in nodes]
    return [multinode_p100(n, gpus_per_node=args.gpus_per_node)
            for n in nodes]


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
    N = args.n
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
    return 0 if err <= args.tolerance else 1


def cmd_search(args: argparse.Namespace) -> int:
    """The fastest parameters and speedup per (N, machine)."""
    specs = _machines(args, args.nodes)
    if args.nodes == [1]:
        where = specs[0].name
    else:
        where = "Multi-node projection, " + (
            f"fat-tree r{args.radix} o{args.oversubscription:g}"
            if args.radix > 0 else "flat NIC")
    t = Table(["nodes", "G", "N", "P", "ML", "B", "Q", "FMM-FFT", "1D FFT",
               "speedup"],
              title=f"{where}: fastest FMM-FFT vs the 1D FFT ({args.dtype})")
    for nodes, spec in zip(args.nodes, specs):
        for N in args.n:
            r = find_fastest(N, spec, dtype=args.dtype)
            p = r.params
            t.add_row([nodes, spec.num_devices, _size_label(N), p["P"],
                       p["ML"], p["B"], p["Q"], format_time(r.fmmfft_time),
                       format_time(r.baseline_time), f"{r.speedup:.2f}"])
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


def cmd_analyze(args: argparse.Namespace) -> int:
    """The report of one simulated run: timeline, metrics, hazards."""
    from repro.obs import compute_metrics, save_trace

    [spec] = _machines(args, [args.nodes])
    params, serve_text = None, ""
    n, comm = args.n, args.comm
    if args.pipeline == "serve":
        from repro.serve import summarize

        cl, sched = _run_serve(spec, args)
        serve_text = ("\n\nserve latency / throughput\n"
                      + summarize(sched).render())
        # the serve run ignores --n/--comm: record what it did serve
        n = tuple(sorted({b["N"] for b in sched.batches}))
        comm = tuple(sorted({e["algorithm"] for e in cl.comm_log}))
    else:
        cl, params = _simulate(args.pipeline, args.n, spec, args.dtype,
                               comm=args.comm)
    if params is not None:
        print(f"params: {params}")
    print(cl.trace().render_profile(width=args.width, devices=args.devices))
    geom = params and _geometry(args.n, spec, args.dtype, params)
    rep = compute_metrics(cl.ledger, cl.spec, geom=geom, dtype=args.dtype,
                          comm_log=cl.comm_log)
    print(f"\n{rep.render()}{serve_text}\n")
    hazards = cl.trace().hazards()
    print(hazards.render())
    if args.json:
        import json

        from repro.analysis.findings import (finding_context, findings_doc,
                                             from_hazards)

        ctx = finding_context(pipeline=args.pipeline, comm=comm, n=n,
                              system=cl.spec.name)
        doc = findings_doc(from_hazards(hazards, context=ctx))
        doc["metrics"] = rep.to_json()
        Path(args.json).write_text(json.dumps(doc, indent=1))
        print(f"findings + metrics JSON written to {args.json}")
    if args.trace_out:
        save_trace(args.trace_out, cl.ledger, cl.spec)
        print(f"wrote {args.trace_out} ({len(cl.ledger)} ops; load in "
              "chrome://tracing or Perfetto)")
    if args.sanitize:
        hazards.raise_if_any()
    return 0 if hazards.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically certify comm plans over the algorithm x topology matrix."""
    from repro.analysis.findings import write_findings
    from repro.analysis.plancheck import DEFAULT_G_LIST, verify_matrix

    g_list = tuple(args.g_list) if args.g_list else DEFAULT_G_LIST
    rows, findings = verify_matrix(g_list=g_list, payload=float(args.payload),
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
    import json
    import time as _time

    from repro.ir import ReplayExecutor, capture_pipeline

    N = args.n
    spec = preset(args.system)
    names = pipelines.NAMES if args.pipeline == "all" else (args.pipeline,)
    reps = max(1, args.repeats)
    t = Table(
        ["pipeline", "G", "nodes", "records", "buffers", "comm",
         "capture [ms]", "replay [ms]", "host speedup"],
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
        row.update(capture_s=capture_s, replay_s=replay_s,
                   host_speedup=capture_s / max(replay_s, 1e-12))
        rows.append(row)
        t.add_row([
            name, row["G"], row["nodes"], row["records_per_replay"],
            row["buffers"], row["comm_calls"],
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
        Path(args.json).write_text(json.dumps(payload, indent=1))
        print(f"graph summaries written to {args.json}")
    return 0


def _plan_cache(spec, wisdom_path: str | None):
    """A serve plan cache over the wisdom file at ``wisdom_path``, when
    there is one: what ``tune`` fills and ``serve`` starts warm from."""
    from repro.serve import PlanCache, Wisdom

    warm = wisdom_path and Path(wisdom_path).exists()
    return PlanCache(spec, wisdom=Wisdom.load(wisdom_path) if warm else None)


def _run_serve(spec, args: argparse.Namespace, faults=None):
    """Serve a synthetic workload; returns (cluster, scheduler).

    Shared by ``serve``, ``top``, ``analyze --pipeline serve`` and
    ``chaos`` (which passes its fault injector) so all of them observe
    identical schedules.
    """
    from repro.serve import (AdmissionQueue, Batcher, ServeScheduler,
                             synthetic_workload)

    sizes = getattr(args, "sizes", None)
    cache = _plan_cache(spec, getattr(args, "wisdom", None))
    cl = VirtualCluster(spec, execute=False, faults=faults)
    batcher = Batcher(cache, max_batch=getattr(args, "max_batch", 8),
                      batching=not getattr(args, "no_batching", False))
    sched = ServeScheduler(
        cl, batcher,
        queue=AdmissionQueue(capacity=getattr(args, "queue_capacity", 64)),
        max_inflight=getattr(args, "max_inflight", 2),
        retry_budget=getattr(args, "retry_budget", 2),
    )
    reqs = synthetic_workload(
        getattr(args, "requests", 32), rate=getattr(args, "rate", 2000.0),
        sizes=sizes and {n: 1.0 for n in sizes}, dtype=args.dtype,
        seed=getattr(args, "seed", 0),
    )
    sched.run(reqs)
    return cl, sched


def _write_serve_run(args: argparse.Namespace, cl, sched, rep) -> None:
    """``--json`` and ``--trace-out`` of ``serve`` and ``chaos``: the
    serve-run document, and the Perfetto trace with the serve track (and
    the fault track when the run had an injector)."""
    import json

    from repro.obs import build_trace, merge_fault_track
    from repro.serve import merge_serve_track, serve_run_doc

    if args.json:
        doc = serve_run_doc(sched, rep)
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True))
        print(f"wrote {args.json} (serve-run v{doc['version']}: report + "
              f"{len(doc['telemetry']['series'])} telemetry series)")
    if args.trace_out:
        doc = merge_serve_track(build_trace(cl.ledger, cl.spec), sched)
        tracks = "serve track"
        if cl.faults is not None:
            doc = merge_fault_track(doc, cl.faults.events)
            tracks = "serve + fault tracks"
        Path(args.trace_out).write_text(json.dumps(doc))
        print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} events, "
              f"{tracks} included)")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic open-loop workload on a simulated testbed."""
    from repro.obs import prometheus_text
    from repro.serve import summarize

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
    if args.prom:
        snap = sched.telemetry.snapshot(time=sched.wall_time)
        Path(args.prom).write_text(prometheus_text(snap))
        print(f"wrote {args.prom} (Prometheus text exposition)")
    _write_serve_run(args, cl, sched, rep)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Serve workload under seeded fault injection; graceful degradation."""
    from repro.faults import seeded_chaos
    from repro.serve import summarize

    spec = preset(args.system)

    def run_once():
        """One chaos run from scratch — fresh injector, cluster, caches."""
        return _run_serve(spec, args, faults=seeded_chaos(
            spec, seed=args.fault_seed, transient_rate=args.transient_rate,
            flaps=args.flaps, stragglers=args.stragglers,
            degrades=args.degrades, horizon=args.horizon))

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
    print(f"chaos: {args.requests} requests at {args.rate:g} req/s on "
          f"{spec.name} (fault seed {args.fault_seed}, transient rate "
          f"{args.transient_rate:g}, {args.stragglers} straggler(s), "
          f"{args.flaps} flap(s), {args.degrades} degrade(s); "
          f"{len(cl.faults.events)} fault events)")
    print(rep.render())
    _write_serve_run(args, cl, sched, rep)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """ASCII telemetry dashboard: a fresh serve run or a snapshot replay."""
    import json

    from repro.obs import render_dashboard
    from repro.serve import serve_run_doc

    if args.replay:
        doc = json.loads(Path(args.replay).read_text())
    else:
        _, sched = _run_serve(preset(args.system), args)
        doc = serve_run_doc(sched)
    out = render_dashboard(doc)
    print(out)
    if args.out:
        Path(args.out).write_text(out + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_comm(args: argparse.Namespace) -> int:
    """Collective-algorithm cost table for one testbed."""
    from repro.comm import algorithm_table

    spec = preset(args.system)
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

        Path(args.json).write_text(json.dumps(rows, indent=1))
        print(f"wrote {args.json}")
    return 0


def _geometry(N: int, spec, dtype: str, params: dict):
    """The FMM geometry of one FMM-FFT configuration (no operators)."""
    return FmmFftPlan.create(N=N, G=spec.num_devices, dtype=dtype,
                             build_operators=False, **params).geometry


def cmd_model(args: argparse.Namespace) -> int:
    """The Section 5 model breakdown, then the energy projection."""
    from repro.model.energy import energy_ratio, run_energy
    from repro.model.report import render_model_report

    N, spec = args.n, preset(args.system)
    cl_f, params = _simulate("fmmfft", N, spec, args.dtype)
    print(render_model_report(_geometry(N, spec, args.dtype, params), spec,
                              args.dtype))
    print()
    e_b = run_energy(_simulate("fft1d", N, spec, args.dtype)[0])
    e_f = run_energy(cl_f)
    t = Table(["pipeline", "compute [J]", "memory [J]", "comm [J]", "idle [J]", "total [J]"],
              title=f"Energy projection, N={N} on {spec.name}")
    for label, e in (("1D FFT", e_b), ("FMM-FFT", e_f)):
        t.add_row([label, e.compute, e.memory, e.communication, e.idle, e.total])
    print(t.render())
    print(f"energy ratio (baseline/FMM-FFT): {energy_ratio(e_b, e_f):.2f}x")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Build or extend the wisdom file ``repro serve --wisdom`` reads."""
    cache = _plan_cache(preset(args.system), args.wisdom)
    for N in args.n:
        params, alg, _ = cache.resolve(N, args.dtype)
        print(f"N={_size_label(N)}: {params} comm={alg}")
    cache.wisdom.save(args.wisdom)
    print(f"wisdom saved to {args.wisdom} ({len(cache.wisdom)} entries)")
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


def _system_option(sub, default: str = "2xP100") -> None:
    sub.add_argument("--system", default=default, choices=sorted(_PRESETS))


def _size_option(sub, default: str, flag: str = "--n",
                 help: str = "size (e.g. 4096 or 2^20)") -> None:
    sub.add_argument(flag, default=default, type=_parse_size, help=help)


def _dtype_option(sub) -> None:
    sub.add_argument("--dtype", default="complex128",
                     choices=["complex64", "complex128"])


def _comm_option(sub) -> None:
    sub.add_argument("--comm", default="bulk", choices=ALGORITHMS,
                     help="collective algorithm (see repro.comm)")


def _workload_options(sub) -> None:
    """The synthetic serve workload ``serve``, ``chaos`` and ``top`` share."""
    _system_option(sub, "8xP100")
    _dtype_option(sub)
    sub.add_argument("--requests", type=int, default=32,
                     help="number of requests in the synthetic trace")
    sub.add_argument("--rate", type=float, default=2000.0,
                     help="offered load [req/s] (Poisson arrivals)")
    sub.add_argument("--sizes", type=_parse_sizes, default=None,
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


def _serve_outputs(sub, tracks: str) -> None:
    """``--sanitize``/``--json``/``--trace-out`` of ``serve`` and ``chaos``."""
    sub.add_argument("--sanitize", action="store_true",
                     help="hazard-sanitize the interleaved schedule")
    sub.add_argument("--json", default=None,
                     help="write the versioned serve-run document (report + "
                          "telemetry snapshot + SLO timeline) to this path")
    sub.add_argument("--trace-out", default=None,
                     help=f"export a Perfetto trace with the {tracks}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list simulated testbeds").set_defaults(fn=cmd_info)

    tr = sub.add_parser("transform", help="FMM-FFT a synthetic signal")
    _size_option(tr, "2^14")
    _dtype_option(tr)
    tr.add_argument("--tolerance", type=float, default=1e-12)
    tr.add_argument("--q", type=int, default=0, help="override expansion order")
    tr.add_argument("--p", type=int, default=0, help="override P")
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(fn=cmd_transform)

    se = sub.add_parser(
        "search", help="fastest parameters per (N, machine): one size, "
                       "the Fig. 3 sweep or the Sec. 7 node sweep")
    se.add_argument("--n", default="2^24", type=_parse_sizes,
                    help="comma-separated sizes; lo..hi is every power of "
                         "two between (e.g. 2^14..2^24)")
    _system_option(se)
    se.add_argument("--nodes", type=_ints, default=[1],
                    help="comma-separated node counts; anything but 1 "
                         "sweeps multi-node machines instead of --system")
    se.add_argument("--gpus-per-node", type=int, default=4)
    se.add_argument("--radix", type=int, default=0,
                    help="fat-tree switch radix (0 = flat NIC model)")
    se.add_argument("--oversubscription", type=float, default=1.0,
                    help="leaf uplink oversubscription factor")
    _dtype_option(se)
    se.set_defaults(fn=cmd_search)

    an = sub.add_parser(
        "analyze", help="report of a simulated run: timeline, metrics, "
                        "hazards, Perfetto trace")
    _pipeline_option(an, "fmmfft", "serve")
    _size_option(an, "2^20")
    _system_option(an)
    an.add_argument("--nodes", type=int, default=1,
                    help="> 1 analyzes a multi-node machine instead of --system")
    an.add_argument("--gpus-per-node", type=int, default=4)
    _dtype_option(an)
    _comm_option(an)
    an.add_argument("--width", type=int, default=100)
    an.add_argument("--devices", type=_ints, default=None,
                    help="comma-separated device ids to show (default all)")
    an.add_argument("--sanitize", action="store_true",
                    help="strict mode: raise HazardError on any finding")
    an.add_argument("--json", metavar="PATH", default=None,
                    help="write the shared analysis-findings JSON, with the "
                         "metrics under 'metrics', to PATH")
    an.add_argument("--trace-out", default=None,
                    help="also export a Perfetto trace of the run")
    an.set_defaults(fn=cmd_analyze)

    vf = sub.add_parser(
        "verify", help="statically certify comm plans (no simulation)")
    vf.add_argument("--g-list", type=_ints, default=None,
                    help="comma-separated device counts "
                         "(default 2,4,8,16,64,256)")
    _size_option(vf, "2^20", "--payload",
                 "per-device payload bytes (e.g. 2^20)")
    vf.add_argument("--no-degraded", action="store_true",
                    help="skip the fault-degraded topology views")
    vf.add_argument("--json", metavar="PATH", default=None,
                    help="write the shared analysis-findings JSON to PATH")
    vf.set_defaults(fn=cmd_verify)

    ir = sub.add_parser(
        "ir", help="capture/certify/replay a pipeline's op-graph IR")
    _pipeline_option(ir, "all", "all")
    _size_option(ir, "2^12")
    _system_option(ir, "8xP100")
    _dtype_option(ir)
    _comm_option(ir)
    ir.add_argument("--repeats", type=int, default=5,
                    help="replay repetitions for the host-wall timing")
    ir.add_argument("--json", metavar="PATH", default=None,
                    help="write the per-pipeline graph summaries to PATH")
    ir.set_defaults(fn=cmd_ir)

    cm = sub.add_parser("comm", help="collective-algorithm cost table")
    _system_option(cm, "8xP100")
    cm.add_argument("--json", default=None,
                    help="also write the table rows as JSON to this path")
    cm.set_defaults(fn=cmd_comm)

    mo = sub.add_parser("model", help="Section 5 model breakdown and energy "
                                      "projection")
    _size_option(mo, "2^24")
    _system_option(mo)
    _dtype_option(mo)
    mo.set_defaults(fn=cmd_model)

    sv = sub.add_parser("serve", help="batching transform service workload")
    _workload_options(sv)
    sv.add_argument("--no-batching", action="store_true",
                    help="serve one request per execution (baseline)")
    sv.add_argument("--wisdom", default=None,
                    help="persistent wisdom JSON: loaded if present, "
                         "saved after the run (warm starts skip autotuning)")
    sv.add_argument("--prom", default=None,
                    help="write the telemetry snapshot in Prometheus text "
                         "exposition format to this path")
    _serve_outputs(sv, "serve track")
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
    ch.add_argument("--replay-check", action="store_true",
                    help="run twice and require bit-identical ledgers")
    _serve_outputs(ch, "serve + fault tracks")
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
    _system_option(tu)
    _dtype_option(tu)
    tu.add_argument("--n", default="2^14..2^20", type=_parse_sizes,
                    help="comma-separated sizes to tune (e.g. 2^14..2^20)")
    tu.add_argument("--wisdom", default="wisdom.json",
                    help="wisdom JSON to extend (what `serve --wisdom` reads)")
    tu.set_defaults(fn=cmd_tune)

    fg = sub.add_parser("figures", help="check the paper's claims, write the report")
    fg.add_argument("--out", default=None,
                    help="write the markdown report here (default: print it)")
    fg.set_defaults(fn=cmd_figures)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``repro analyze | head``): stop
        # quietly with the shell's SIGPIPE status; stdout goes to devnull
        # so the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
