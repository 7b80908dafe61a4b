"""The metrics engine: ledger -> quantitative observability.

Four analyses over one recorded run, all pure functions of the
:class:`~repro.machine.ledger.Ledger`:

- :func:`rollup` — per-stage totals (time, launches, flops, bytes, comm
  bytes, achieved GFLOP/s and GB/s), grouped by hierarchical region
  path or by op name;
- :func:`join_fmm_model` — the measured-vs-model join behind Figure 5:
  each FMM stage's simulated time against its Section 5 roofline
  prediction (:func:`repro.model.roofline.fmm_stage_times`), as an
  efficiency ratio;
- :func:`overlap_stats` — per-device comm/compute overlap: how much of
  the comm busy time is hidden under compute (the paper's Figure 2
  claim) and how much is *exposed* (extends the critical path);
- :func:`critical_path` — longest dependent chain through the
  happens-before graph (program order + wait edges, the same graph the
  hazard sanitizer builds), plus per-op slack from a backward pass.

:func:`compute_metrics` bundles all four into a :class:`MetricsReport`
with ``render()`` (the ``repro metrics`` CLI output) and ``to_json()``
(its ``--json`` payload).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.hazards import happens_before
from repro.machine.ledger import Ledger, OpRecord
from repro.machine.spec import ClusterSpec
from repro.util.table import Table, format_bytes, format_count, format_time


# ---------------------------------------------------------------------------
# per-stage rollups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageStat:
    """Aggregated totals for one stage (a region path or an op name)."""

    key: str
    ops: int
    time: float
    flops: float
    mops: float
    comm_bytes: float

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s over the stage's busy time."""
        return self.flops / self.time / 1e9 if self.time > 0 else 0.0

    @property
    def mem_gbs(self) -> float:
        """Achieved memory GB/s over the stage's busy time."""
        return self.mops / self.time / 1e9 if self.time > 0 else 0.0


def rollup(
    ledger: Ledger,
    by: str = "region",
    device: int | None = None,
    depth: int | None = None,
) -> list[StageStat]:
    """Per-stage totals, sorted by descending time.

    Parameters
    ----------
    ledger:
        The recorded run.
    by:
        'region' groups by the hierarchical region path stamped by
        ``cluster.region(...)`` scopes; 'name' groups by op name.
    device:
        Restrict to one device (None sums over all).
    depth:
        With ``by='region'``, truncate paths to this many segments
        (``depth=1`` turns ``"fmmfft/fmm/S2M"`` into ``"fmmfft"``), so
        the same ledger rolls up at any level of the hierarchy.
    """
    if by not in ("region", "name"):
        raise ValueError(f"rollup key must be 'region' or 'name', got {by!r}")
    acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
    for r in ledger.records(device=device):
        key = r.region if by == "region" else r.name
        if by == "region":
            if not key:
                key = "(unregioned)"
            elif depth is not None:
                key = "/".join(key.split("/")[:depth])
        a = acc[key]
        a[0] += 1
        a[1] += r.duration
        a[2] += r.flops
        a[3] += r.mops
        a[4] += r.comm_bytes
    stats = [
        StageStat(key=k, ops=int(a[0]), time=a[1], flops=a[2],
                  mops=a[3], comm_bytes=a[4])
        for k, a in acc.items()
    ]
    stats.sort(key=lambda s: (-s.time, s.key))
    return stats


# ---------------------------------------------------------------------------
# measured vs Section-5 model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelJoin:
    """One FMM stage's measured time against its roofline prediction."""

    stage: str
    measured: float
    model: float

    @property
    def efficiency(self) -> float:
        """Fraction of the idealized roofline achieved (Figure 5)."""
        return self.model / self.measured if self.measured > 0 else 0.0


def join_fmm_model(
    ledger: Ledger,
    geom,
    spec: ClusterSpec,
    dtype="complex128",
    device: int = 0,
) -> list[ModelJoin]:
    """Join per-stage measured times with the Section 5 predictions.

    Stage names in the ledger ('S2M', 'M2L-3', ...) are exactly the keys
    of :func:`repro.model.roofline.fmm_stage_times`, so the join is by
    name on one device (stages replicate across devices with identical
    cost).  Stages the model does not predict (comm, transposes, fused
    variants) are simply absent — the rollup still accounts their time.
    """
    from repro.model.roofline import fmm_stage_times

    model = fmm_stage_times(geom, spec, dtype)
    measured = ledger.time_by_name(device=device)
    out = [
        ModelJoin(stage=name, measured=measured[name], model=model[name])
        for name in sorted(model)
        if name in measured and measured[name] > 0
    ]
    out.sort(key=lambda j: -j.measured)
    return out


# ---------------------------------------------------------------------------
# measured vs comm plan model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommJoin:
    """One collective's measured comm time against its plan prediction.

    ``measured`` is the per-device average busy time of the stage's comm
    records (ledger durations divided by G for collectives/halos, raw
    for p2p — matching the per-device convention of the predictions);
    ``model`` is the :func:`repro.comm.tuning.predict_time` total over
    the logged calls.  For ``bulk`` the two agree exactly (the flat
    model *is* the charged duration); for message plans the ratio is a
    balance diagnostic — below 1.0 when devices idle between rounds of
    the plan's critical path, above 1.0 when queueing stretched rounds.
    """

    name: str
    kind: str
    algorithm: str
    calls: int
    payload: float
    measured: float
    model: float

    @property
    def ratio(self) -> float:
        """measured / model; 1.0 when both are zero (degenerate calls)."""
        if self.model > 0:
            return self.measured / self.model
        return 1.0 if self.measured == 0 else float("inf")


def join_comm_model(
    ledger: Ledger,
    comm_log: list[dict],
    num_devices: int,
) -> list[CommJoin]:
    """Join the cluster's ``comm_log`` against the ledger's comm records.

    Groups log entries by (stage name, kind, algorithm), sums their
    predictions, and compares with the summed durations of the comm
    records carrying that stage name — the measured-vs-model validation
    for the :mod:`repro.comm` cost model.
    """
    if not comm_log:
        return []
    groups: dict[tuple, list[float]] = {}
    for e in comm_log:
        k = (e["name"], e["kind"], e["algorithm"])
        g = groups.setdefault(k, [0, 0.0, 0.0])
        g[0] += 1
        g[1] += e["payload"]
        g[2] += e["predicted"]
    dur_by_name: dict[str, float] = defaultdict(float)
    for r in ledger:
        if r.kind == "comm":
            dur_by_name[r.name] += r.duration
    out = []
    for (name, kind, algo), (calls, payload, model) in groups.items():
        measured = dur_by_name.get(name, 0.0)
        if kind in ("alltoall", "allgather", "halo"):
            measured /= max(num_devices, 1)
        out.append(CommJoin(name=name, kind=kind, algorithm=algo,
                            calls=int(calls), payload=payload,
                            measured=measured, model=model))
    out.sort(key=lambda j: -j.measured)
    return out


# ---------------------------------------------------------------------------
# retry accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryStats:
    """Time and attempts charged to timed-out ``!fail`` comm records.

    The comm layer names every failed attempt ``<stage>!fail``, so
    retry cost is recoverable from the ledger alone.  ``attempts``
    counts failed attempts (a failed bulk collective's G coherent
    records count once); ``retry_time`` is their total duration — the
    simulated time the run spent discovering failures, before backoff.
    """

    attempts: int
    retry_time: float
    by_name: dict[str, float]


def retry_stats(ledger: Ledger) -> RetryStats:
    """Fold a ledger's ``!fail`` records into a :class:`RetryStats`."""
    attempts, total = 0, 0.0
    by_name: dict[str, float] = defaultdict(float)
    seen: set = set()
    for r in ledger:
        if r.kind != "comm" or not r.name.endswith("!fail"):
            continue
        if r.peer < 0:
            key = (r.name, r.start, r.duration)
            if key in seen:
                continue
            seen.add(key)
        attempts += 1
        total += r.duration
        by_name[r.name] += r.duration
    return RetryStats(attempts=attempts, retry_time=total,
                      by_name=dict(by_name))


# ---------------------------------------------------------------------------
# comm/compute overlap
# ---------------------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge intervals into a sorted disjoint union."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def _intersect_measure(
    xs: list[tuple[float, float]], ys: list[tuple[float, float]]
) -> float:
    """Total length of the intersection of two disjoint sorted unions."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass(frozen=True)
class OverlapStats:
    """Comm/compute overlap accounting for one device (or all).

    ``comm_busy`` is the *union* of this device's comm intervals (as
    sender or receiver), ``overlap`` the part of it covered by compute,
    ``exposed`` the part that is not — the comm time that actually
    extends the timeline, the quantity the FMM-FFT exists to shrink.
    """

    device: int            # -1 = aggregated over all devices
    comm_busy: float
    compute_busy: float
    overlap: float

    @property
    def exposed(self) -> float:
        return self.comm_busy - self.overlap

    @property
    def overlap_fraction(self) -> float:
        """Hidden fraction of comm busy time; 0.0 when there is no comm."""
        return self.overlap / self.comm_busy if self.comm_busy > 0 else 0.0


def overlap_stats(ledger: Ledger, device: int) -> OverlapStats:
    """Overlap accounting for one device.

    A comm record occupies its sender (``device``) and, for p2p, its
    receiver (``peer``); compute is every positive-duration non-comm,
    non-host op on the device.
    """
    comm, compute = [], []
    for r in ledger:
        if r.duration <= 0.0:
            continue
        if r.kind == "comm":
            if r.device == device or r.peer == device:
                comm.append(r.interval())
        elif r.kind != "host" and r.device == device:
            compute.append(r.interval())
    cu, xu = _union(comm), _union(compute)
    return OverlapStats(
        device=device,
        comm_busy=sum(b - a for a, b in cu),
        compute_busy=sum(b - a for a, b in xu),
        overlap=_intersect_measure(cu, xu),
    )


def overlap_summary(ledger: Ledger, num_devices: int) -> list[OverlapStats]:
    """Per-device stats plus a device=-1 aggregate (summed busy times)."""
    per_dev = [overlap_stats(ledger, g) for g in range(num_devices)]
    agg = OverlapStats(
        device=-1,
        comm_busy=sum(s.comm_busy for s in per_dev),
        compute_busy=sum(s.compute_busy for s in per_dev),
        overlap=sum(s.overlap for s in per_dev),
    )
    return per_dev + [agg]


# ---------------------------------------------------------------------------
# critical path + slack
# ---------------------------------------------------------------------------

@dataclass
class CriticalPath:
    """The longest dependent chain of a recorded run.

    ``ops`` runs first-to-last; ``length`` is terminal end minus chain
    start, which for a complete run equals the simulated wall time.
    ``slack`` maps each op uid to how far it could finish later without
    delaying the run's final completion, given the recorded dependency
    edges (program order + waits; barrier-induced orderings are not in
    the ledger, so slack is an upper bound there).  Critical ops have
    slack 0; ``idle`` is the total gap time inside the chain (an op
    starting later than its binding predecessor finished, e.g. across a
    barrier).
    """

    ops: list[OpRecord] = field(default_factory=list)
    length: float = 0.0
    idle: float = 0.0
    slack: dict[int, float] = field(default_factory=dict)

    def stage_times(self) -> dict[str, float]:
        """Time on the critical path per op name."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.ops:
            acc[r.name] += r.duration
        return dict(acc)


def critical_path(ledger: Ledger) -> CriticalPath:
    """Extract the critical path and per-op slack of one run.

    Uses the same happens-before edges as the hazard sanitizer.  The
    path is found by walking back from the op with the latest end,
    always following the predecessor that finished last; slack comes
    from a backward (latest-finish) pass over the DAG.
    """
    recs = list(ledger)
    if not recs:
        return CriticalPath()
    by_uid = {r.uid: r for r in recs}
    preds: dict[int, list[int]] = defaultdict(list)
    succs: dict[int, list[int]] = defaultdict(list)
    for a, b in happens_before(ledger):
        preds[b].append(a)
        succs[a].append(b)

    # walk back from the global terminal
    terminal = max(recs, key=lambda r: (r.end, r.uid))
    chain = [terminal]
    idle = 0.0
    cur = terminal
    while preds[cur.uid]:
        pred = max((by_uid[u] for u in preds[cur.uid] if u in by_uid),
                   key=lambda r: (r.end, r.uid), default=None)
        if pred is None:
            break
        if cur.start > pred.end:
            idle += cur.start - pred.end
        chain.append(pred)
        cur = pred
    chain.reverse()

    # backward latest-finish pass (uids are issue-ordered; reverse is a
    # valid reverse-topological order since every edge points forward)
    end_of_run = max(r.end for r in recs)
    latest_finish: dict[int, float] = {}
    for r in reversed(recs):
        ss = succs[r.uid]
        if not ss:
            lf = end_of_run
        else:
            lf = min(latest_finish[s] - by_uid[s].duration for s in ss)
        latest_finish[r.uid] = lf
    span = max(abs(end_of_run), 1.0)
    slack = {}
    for r in recs:
        s = latest_finish[r.uid] - r.end
        slack[r.uid] = 0.0 if abs(s) < 1e-12 * span else s
    return CriticalPath(
        ops=chain,
        length=terminal.end - chain[0].start,
        idle=idle,
        slack=slack,
    )


# ---------------------------------------------------------------------------
# the bundled report
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    """Everything ``repro metrics`` reports for one run."""

    wall_time: float
    stages: list[StageStat]
    names: list[StageStat]
    model: list[ModelJoin]
    overlap: list[OverlapStats]
    path: CriticalPath
    comm: list[CommJoin] = field(default_factory=list)
    retry: RetryStats | None = None

    @property
    def exposed_comm(self) -> float:
        """Aggregate exposed-comm seconds (device -1 row)."""
        return self.overlap[-1].exposed

    @property
    def overlap_fraction(self) -> float:
        return self.overlap[-1].overlap_fraction

    def render(self) -> str:
        """Human-readable report (tables + summary lines)."""
        parts: list[str] = []
        t = Table(["region", "ops", "time", "flops", "mem bytes",
                   "comm bytes", "GFLOP/s", "GB/s"],
                  title="Per-stage rollup (by region)")
        for s in self.stages:
            t.add_row([s.key, s.ops, format_time(s.time),
                       format_count(s.flops), format_bytes(s.mops),
                       format_bytes(s.comm_bytes),
                       f"{s.gflops:.1f}", f"{s.mem_gbs:.1f}"])
        parts.append(t.render())
        if self.model:
            t = Table(["stage", "measured", "model (Sec. 5)", "efficiency"],
                      title="Measured vs Section-5 roofline (per device)")
            for j in self.model:
                t.add_row([j.stage, format_time(j.measured),
                           format_time(j.model), f"{j.efficiency:.2f}"])
            parts.append(t.render())
        if self.comm:
            t = Table(["collective", "kind", "algorithm", "calls", "payload",
                       "measured", "model", "ratio"],
                      title="Comm measured vs plan model (per device)")
            for c in self.comm:
                t.add_row([c.name, c.kind, c.algorithm, c.calls,
                           format_bytes(c.payload), format_time(c.measured),
                           format_time(c.model), f"{c.ratio:.2f}"])
            parts.append(t.render())
        t = Table(["device", "comm busy", "compute busy", "overlapped",
                   "exposed", "hidden frac"],
                  title="Comm/compute overlap")
        for s in self.overlap:
            t.add_row(["all" if s.device < 0 else f"dev{s.device}",
                       format_time(s.comm_busy), format_time(s.compute_busy),
                       format_time(s.overlap), format_time(s.exposed),
                       f"{s.overlap_fraction:.3f}"])
        parts.append(t.render())
        if self.retry is not None and self.retry.attempts > 0:
            top = sorted(self.retry.by_name.items(), key=lambda kv: -kv[1])[:4]
            parts.append(
                f"comm retries: {self.retry.attempts} failed attempts, "
                f"{format_time(self.retry.retry_time)} in timeouts ("
                + ", ".join(f"{n} {format_time(tm)}" for n, tm in top) + ")"
            )
        n_critical = sum(1 for v in self.path.slack.values() if v == 0.0)
        parts.append(
            f"critical path: {len(self.path.ops)} ops, "
            f"length {format_time(self.path.length)} "
            f"(wall {format_time(self.wall_time)}, "
            f"idle on path {format_time(self.path.idle)}); "
            f"{n_critical}/{len(self.path.slack)} ops have zero slack"
        )
        top = sorted(self.path.stage_times().items(), key=lambda kv: -kv[1])[:6]
        parts.append(
            "critical-path time by stage: "
            + ", ".join(f"{name} {format_time(tm)}" for name, tm in top)
        )
        return "\n\n".join(parts)

    def to_json(self) -> dict:
        """Machine-readable payload (the BENCH/--json schema)."""
        return {
            "wall_time": self.wall_time,
            "exposed_comm": self.exposed_comm,
            "overlap_fraction": self.overlap_fraction,
            "retry_attempts": (self.retry.attempts
                               if self.retry is not None else 0),
            "retry_time": (self.retry.retry_time
                           if self.retry is not None else 0.0),
            "critical_path_length": self.path.length,
            "critical_path_ops": len(self.path.ops),
            "critical_path_idle": self.path.idle,
            "stages": [
                {"region": s.key, "ops": s.ops, "time": s.time,
                 "flops": s.flops, "mops": s.mops,
                 "comm_bytes": s.comm_bytes, "gflops": s.gflops,
                 "mem_gbs": s.mem_gbs}
                for s in self.stages
            ],
            "model_join": [
                {"stage": j.stage, "measured": j.measured, "model": j.model,
                 "efficiency": j.efficiency}
                for j in self.model
            ],
            "comm_join": [
                {"name": c.name, "kind": c.kind, "algorithm": c.algorithm,
                 "calls": c.calls, "payload": c.payload,
                 "measured": c.measured, "model": c.model, "ratio": c.ratio}
                for c in self.comm
            ],
            "overlap": [
                {"device": s.device, "comm_busy": s.comm_busy,
                 "compute_busy": s.compute_busy, "overlap": s.overlap,
                 "exposed": s.exposed,
                 "overlap_fraction": s.overlap_fraction}
                for s in self.overlap
            ],
        }


def compute_metrics(
    ledger: Ledger,
    spec: ClusterSpec,
    geom=None,
    dtype="complex128",
    comm_log=None,
) -> MetricsReport:
    """Run every analysis over one ledger.

    ``geom`` (an :class:`~repro.fmm.plan.FmmGeometry`) enables the
    Section-5 model join; without it the report simply omits that table
    (baseline FFT pipelines have no FMM stages to predict).  ``comm_log``
    (the cluster's :mod:`repro.comm` call log) enables the comm
    measured-vs-plan-model table the same way.
    """
    start, end = ledger.span()
    return MetricsReport(
        wall_time=end - start,
        stages=rollup(ledger, by="region"),
        names=rollup(ledger, by="name"),
        model=join_fmm_model(ledger, geom, spec, dtype) if geom is not None else [],
        overlap=overlap_summary(ledger, spec.num_devices),
        path=critical_path(ledger),
        comm=join_comm_model(ledger, comm_log, spec.num_devices)
        if comm_log else [],
        retry=retry_stats(ledger),
    )
