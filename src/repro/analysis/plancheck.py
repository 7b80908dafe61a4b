"""Static plan verifier: certify a CommPlan before any op runs.

The hazard sanitizer (:mod:`repro.analysis.hazards`) is dynamic — it
certifies one *recorded* ledger, so a comm plan that deadlocks, drops a
payload block, or reads an undefined staging buffer is caught only
after a full simulated run, and only for the one (G, topology,
algorithm) combination that executed.  This module is the static
complement: it proves schedule-level invariants from the
:class:`~repro.comm.plans.CommPlan` alone, for any machine, without
running anything.

Three families of checks, reported as :class:`~repro.analysis.findings.
Finding` rows whose rule prefix is the category:

``deadlock-*``
    Per-round send/recv matching (well-formed endpoints, no two sends
    competing for one receive slot), routing discipline for ``hier``
    node groups, messages touching lost devices, and cycle detection
    over the round-dependency graph: a message that reads a staging
    buffer produced only by a *later* round, or forwards a block that
    has not yet arrived, is a cycle — on real hardware the rendezvous
    would wait forever.
``conservation-*``
    Payload-matrix conservation.  A symbolic block-flow interpreter
    replays the rounds: every device starts with its logical blocks
    ((src, dst) pairs for an alltoall, its own origin for an
    allgather), each message must carry exactly the blocks its
    algorithm's forwarding rule prescribes (and their bytes must equal
    ``Msg.nbytes``), and at the end every logical block must have been
    delivered exactly once with nothing stranded in staging.
``liveness-*``
    Buffer def-use over the declared reads/writes: reads of staging
    sub-resources (``#via``/``#fwd``/``#nd`` parts) that nothing wrote
    (dangling ``buf#part`` reads), and staging stores no later round
    consumes (dead stores).  The interpreter also tallies per-device
    peak live bytes, which ``repro verify`` prints per plan.

Certification is wired into :func:`repro.comm.plans.build_plan` behind
a verdict cache keyed by ``(spec_fingerprint, kind, algorithm)`` — plan
structure depends only on those three (payload scales every message
linearly) — so the serve warm path pays one dict lookup and never
re-verifies.  ``repro verify`` sweeps the full algorithm x G x
topology matrix from the CLI and emits the shared JSON findings
schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, finding_context
from repro.machine.spec import spec_fingerprint
from repro.util.validation import ParameterError

#: sub-resource name fragments that are plan-internal staging buffers
#: (the builders' ABI): reads of these must be produced by an earlier
#: round; anything else unmatched is assumed to be caller input.
#: ``#g``/``#x`` are the hier2 gather/exchange staging parts.
STAGING_MARKERS = ("#via", "#fwd", "#nd", "#rem", "#g", "#x")

#: per-rule cap on detail findings; the rest collapse into one summary
MAX_DETAIL_FINDINGS = 16

_TOOL = "plancheck"


class PlanCheckError(ParameterError):
    """Raised by :func:`certify_plan` when a plan fails verification."""


@dataclass(frozen=True)
class PlanCertificate:
    """Outcome of statically verifying one plan.

    ``prealloc`` is the interpreter's memory tally: per-device peak
    live bytes (source blocks still held + staged forwards + delivered
    payload) and final resident bytes.  ``repro verify`` prints the
    peak; nothing sizes buffers from it.
    """

    algorithm: str
    kind: str
    num_devices: int
    payload: float
    wire_bytes: float
    num_messages: int
    num_rounds: int
    findings: tuple
    prealloc: dict
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        """Plain-dict summary (the ``repro verify --json`` row)."""
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "G": self.num_devices,
            "payload": self.payload,
            "wire_bytes": self.wire_bytes,
            "num_messages": self.num_messages,
            "num_rounds": self.num_rounds,
            "ok": self.ok,
            "findings": len(self.findings),
            "prealloc": dict(self.prealloc),
            "fingerprint": self.fingerprint,
        }

    def render(self, limit: int = MAX_DETAIL_FINDINGS) -> str:
        """Human-readable certificate / failure report."""
        head = (
            f"plancheck {self.kind}/{self.algorithm} G={self.num_devices}: "
            f"{self.num_messages} messages in {self.num_rounds} rounds, "
            f"{self.wire_bytes:.0f} wire bytes"
        )
        if self.ok:
            peak = self.prealloc.get("peak_live_bytes", 0.0)
            return head + f" -- certified (peak live {peak:.0f} B/device)"
        lines = [head + f" -- {len(self.findings)} finding(s)"]
        for f in self.findings[:limit]:
            lines.append(f"  [{f.rule}] {f.message}")
        if len(self.findings) > limit:
            lines.append(f"  ... {len(self.findings) - limit} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# findings plumbing
# ---------------------------------------------------------------------------

class _Collector:
    """Accumulates findings with a per-rule detail cap."""

    def __init__(self, base_context: tuple):
        self.base = base_context
        self.rows: list[Finding] = []
        self._suppressed: dict[str, int] = {}

    def add(self, rule: str, message: str, **ctx) -> None:
        seen = sum(1 for f in self.rows if f.rule == rule)
        if seen >= MAX_DETAIL_FINDINGS:
            self._suppressed[rule] = self._suppressed.get(rule, 0) + 1
            return
        self.rows.append(Finding(
            tool=_TOOL, rule=rule, severity="error", message=message,
            context=self.base + finding_context(**ctx)))

    def done(self) -> tuple:
        for rule, n in sorted(self._suppressed.items()):
            self.rows.append(Finding(
                tool=_TOOL, rule=rule, severity="error",
                message=f"... {n} more {rule} finding(s) suppressed",
                context=self.base))
        return tuple(self.rows)


def _root(name: str) -> str:
    return name.split("#", 1)[0]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# topology helpers (hier node groups)
# ---------------------------------------------------------------------------

def _hier_info(spec):
    """(node_idx, leader_of, groups) for a ``node_of`` machine, else None."""
    node_of = spec.graph.graph.get("node_of")
    if not node_of:
        return None
    nodes: dict = {}
    for dev, nd in node_of.items():
        nodes.setdefault(nd, []).append(dev)
    groups = [sorted(devs) for _, devs in sorted(nodes.items())]
    if len(groups) < 2:
        return None
    node_idx = {}
    leader_of = {}
    for i, grp in enumerate(groups):
        for g in grp:
            node_idx[g] = i
            leader_of[g] = grp[0]  # build_plan's leader convention
    return node_idx, leader_of, groups


def _relay(groups, i: int, j: int) -> int:
    """build_plan's hier2 relay convention: node i's device for node j."""
    grp = groups[i]
    return grp[j % len(grp)]


# ---------------------------------------------------------------------------
# structural checks (send/recv matching, endpoints, lost devices)
# ---------------------------------------------------------------------------

def _check_structure(plan, G: int, lost, out: _Collector) -> bool:
    """Well-formedness; returns False when interpretation is impossible."""
    ok = True
    if not plan.rounds:
        out.add("deadlock-malformed", "plan has no rounds")
        return False
    for k, rnd in enumerate(plan.rounds):
        if not rnd:
            out.add("deadlock-malformed", f"round {k} is empty", round=k)
            ok = False
        pairs = set()
        for m in rnd:
            if not (0 <= m.src < G and 0 <= m.dst < G):
                out.add("deadlock-malformed",
                        f"round {k}: message {m.src}->{m.dst} references a "
                        f"device outside 0..{G - 1}", round=k)
                ok = False
                continue
            if m.src == m.dst:
                out.add("deadlock-malformed",
                        f"round {k}: device {m.src} sends to itself", round=k)
                ok = False
            if not (m.nbytes >= 0.0 and m.nbytes == m.nbytes
                    and m.nbytes != float("inf")):
                out.add("deadlock-malformed",
                        f"round {k}: message {m.src}->{m.dst} has invalid "
                        f"byte count {m.nbytes!r}", round=k)
                ok = False
            if (m.src, m.dst) in pairs:
                out.add("deadlock-unmatched",
                        f"round {k}: two sends {m.src}->{m.dst} compete for "
                        "one receive slot (unmatched rendezvous)", round=k)
            pairs.add((m.src, m.dst))
            if m.src in lost or m.dst in lost:
                out.add("deadlock-lost-device",
                        f"round {k}: message {m.src}->{m.dst} touches a lost "
                        "device -- the rendezvous can never complete",
                        round=k)
    return ok


# ---------------------------------------------------------------------------
# buffer def-use / liveness over declared reads & writes
# ---------------------------------------------------------------------------

def _prefixes(name: str):
    """``name`` and each proper ancestor at ``#`` boundaries.

    Two buffer names conflict (:func:`~repro.analysis.hazards.
    buffers_conflict`) exactly when one is the other or an ancestor of
    the other in the ``#`` hierarchy, so conflict queries reduce to
    O(depth) dict lookups over these prefixes.
    """
    yield name
    while "#" in name:
        name = name.rsplit("#", 1)[0]
        yield name


class _RoundIndex:
    """Earliest/latest round each buffer name is touched, per device,
    supporting O(depth) conflict queries instead of linear scans."""

    def __init__(self):
        self.exact: dict = {}  # (device, name) -> (min_round, max_round)
        self.desc: dict = {}   # (device, ancestor) -> same, over descendants

    def add(self, device: int, name: str, rnd: int) -> None:
        key = (device, name)
        lo, hi = self.exact.get(key, (rnd, rnd))
        self.exact[key] = (min(lo, rnd), max(hi, rnd))
        for a in _prefixes(name):  # name is a descendant of each prefix
            key = (device, a)
            lo, hi = self.desc.get(key, (rnd, rnd))
            self.desc[key] = (min(lo, rnd), max(hi, rnd))

    def conflicts(self, device: int, name: str):
        """(min_round, max_round) over all touches conflicting with
        ``name`` on ``device``, or None when nothing conflicts."""
        spans = []
        span = self.desc.get((device, name))  # name itself + descendants
        if span is not None:
            spans.append(span)
        for p in _prefixes(name):
            if p != name:
                span = self.exact.get((device, p))  # proper ancestors
                if span is not None:
                    spans.append(span)
        if not spans:
            return None
        return (min(lo for lo, _ in spans), max(hi for _, hi in spans))


def _check_defuse(plan, out: _Collector) -> None:
    """Use-before-write, dangling staging reads, round-dependency cycles."""
    writes = _RoundIndex()
    for k, rnd in enumerate(plan.rounds):
        for m in rnd:
            for w in m.writes:
                writes.add(m.dst, w, k)
    for k, rnd in enumerate(plan.rounds):
        for m in rnd:
            for r in m.reads:
                span = writes.conflicts(m.src, r)
                if span is not None and span[0] < k:
                    continue  # defined by an earlier round
                if span is not None:
                    out.add(
                        "deadlock-cycle",
                        f"round {k}: message {m.src}->{m.dst} reads {r!r} "
                        f"which is first written in round {span[0]} -- "
                        "cyclic round dependency (data produced downstream)",
                        round=k, buffer=r)
                elif any(mark in r for mark in STAGING_MARKERS):
                    out.add(
                        "liveness-undefined-read",
                        f"round {k}: message {m.src}->{m.dst} reads staging "
                        f"sub-resource {r!r} which no message writes on "
                        f"device {m.src} (dangling read)",
                        round=k, buffer=r)
                # else: caller-provided input buffer


def _check_dead_stores(plan, staged_by_msg: dict, out: _Collector) -> None:
    """Staging stores (interpreter says the message staged blocks for
    later forwarding) must be consumed by a later round at the dst."""
    reads = _RoundIndex()
    for k, rnd in enumerate(plan.rounds):
        for m in rnd:
            for r in m.reads:
                reads.add(m.src, r, k)
    for (k, idx), nstaged in sorted(staged_by_msg.items()):
        if nstaged == 0:
            continue
        m = plan.rounds[k][idx]
        consumed = False
        for w in m.writes:
            span = reads.conflicts(m.dst, w)
            if span is not None and span[1] > k:
                consumed = True
                break
        if not consumed:
            out.add(
                "liveness-dead-store",
                f"round {k}: message {m.src}->{m.dst} stages {nstaged} "
                f"block(s) under {list(m.writes)!r} but no later round reads "
                "them on the destination (dead store)",
                round=k)


# ---------------------------------------------------------------------------
# block-flow interpreter: payload-matrix conservation
# ---------------------------------------------------------------------------

def _required_alltoall(m, hold, G: int, hier, s: float, out: _Collector,
                       k: int):
    """Blocks the algorithm's forwarding rule prescribes for one message.

    Returns (required_set, ambiguous_ok).  ``hier`` is the
    (algorithm, node_idx, leader_of, groups) tuple for hier/hier2
    plans, the algorithm name otherwise.
    """
    src, dst = m.src, m.dst
    if isinstance(hier, tuple):
        algo, node_idx, leader_of, groups = hier
        i, j = node_idx[src], node_idx[dst]
        if algo == "hier2":
            if i == j:
                # phase-0 intra delivery, the phase-1 relay gather, or
                # the phase-3 scatter; the declared bytes disambiguate
                # (gather is empty in phase 0/3, direct in phase 1).
                direct_req = {b for b in hold[src] if b[1] == dst}
                gather = {b for b in hold[src]
                          if node_idx[b[1]] != i
                          and _relay(groups, i, node_idx[b[1]]) == dst}
                for cand in (direct_req, gather, direct_req | gather):
                    if _close(len(cand) * s, m.nbytes):
                        return cand
                return direct_req | gather
            if src != _relay(groups, i, j) or dst != _relay(groups, j, i):
                out.add("deadlock-routing",
                        f"round {k}: message {src}->{dst} violates hier2 "
                        "routing (the node-pair exchange must go "
                        "relay-to-relay)", round=k)
                return set()
            # relay exchange: everything destined to dst's node
            return {b for b in hold[src] if node_idx[b[1]] == j}
        if i == j:
            if src != leader_of[src] and dst == leader_of[src]:
                # non-leader -> its leader: phase-0 intra delivery or the
                # phase-1 funnel; the declared bytes disambiguate.
                direct_req = {b for b in hold[src] if b[1] == dst}
                funnel = {b for b in hold[src]
                          if node_idx[b[1]] != node_idx[src]}
                for cand in (direct_req, funnel, direct_req | funnel):
                    if _close(len(cand) * s, m.nbytes):
                        return cand
                return direct_req | funnel
            # intra-node pairwise / leader scatter: final placement only
            return {b for b in hold[src] if b[1] == dst}
        if src == leader_of[src] and dst == leader_of[dst]:
            # leader exchange: everything destined to dst's node
            return {b for b in hold[src] if node_idx[b[1]] == node_idx[dst]}
        out.add("deadlock-routing",
                f"round {k}: message {src}->{dst} violates hierarchical "
                "routing (cross-node traffic must go leader-to-leader)",
                round=k)
        return set()
    if hier == "direct":
        return {(src, dst)}
    if hier == "ring":
        if dst != (src + 1) % G:
            out.add("deadlock-routing",
                    f"round {k}: ring message {src}->{dst} is not a "
                    "nearest-neighbour hop", round=k)
        return set(hold[src])  # store-and-forward: everything held
    # bruck: distance encodes the bit this round clears
    dist = (dst - src) % G
    kbit = dist.bit_length() - 1
    if dist == 0 or (1 << kbit) != dist:
        out.add("deadlock-routing",
                f"round {k}: bruck message {src}->{dst} at distance {dist} "
                "(not a power of two)", round=k)
        return set()
    return {b for b in hold[src] if (((b[1] - src) % G) >> kbit) & 1}


def _interpret_alltoall(plan, G: int, payload: float, hier,
                        out: _Collector):
    """Replay the rounds symbolically; returns (prealloc, staged_by_msg)."""
    s = payload / (G - 1)
    hold = [{(g, d) for d in range(G) if d != g} for g in range(G)]
    dest_index = [frozenset((o, d) for o in range(G) if o != d)
                  for d in range(G)]
    delivered: set = set()
    delivered_count = [0] * G
    peak = [float(G - 1)] * G
    staged_by_msg: dict = {}

    for k, rnd in enumerate(plan.rounds):
        incoming = []  # (dst, blocks, (k, idx))
        sent_this_round: set = set()
        for idx, m in enumerate(rnd):
            if not (0 <= m.src < G and 0 <= m.dst < G) or m.src == m.dst:
                continue  # structurally flagged already
            if hier == "ring":
                # fast path: store-and-forward carries everything held
                if m.dst != (m.src + 1) % G:
                    out.add("deadlock-routing",
                            f"round {k}: ring message {m.src}->{m.dst} is "
                            "not a nearest-neighbour hop", round=k)
                required = carried = hold[m.src]
                missing = frozenset()
                hold[m.src] = set()
            else:
                required = _required_alltoall(m, hold, G, hier, s, out, k)
                carried = required & hold[m.src]
                missing = required - carried
                hold[m.src] -= carried
            if not _close(len(required) * s, m.nbytes):
                out.add(
                    "conservation-bytes",
                    f"round {k}: message {m.src}->{m.dst} declares "
                    f"{m.nbytes:.0f} B but the {plan.algorithm} forwarding "
                    f"rule moves {len(required)} block(s) "
                    f"({len(required) * s:.0f} B)", round=k)
            for b in sorted(missing):
                if b in delivered or b in sent_this_round:
                    out.add(
                        "conservation-duplicate",
                        f"round {k}: message {m.src}->{m.dst} re-sends block "
                        f"{b} which was already forwarded or delivered",
                        round=k)
                else:
                    out.add(
                        "deadlock-cycle",
                        f"round {k}: message {m.src}->{m.dst} must forward "
                        f"block {b} which has not yet arrived at device "
                        f"{m.src} (forward-before-receive)", round=k)
            sent_this_round |= carried
            incoming.append((m.dst, carried, (k, idx)))
        for dst, blocks, mid in incoming:
            deliv = blocks & dest_index[dst]
            dups = deliv & delivered
            if dups:
                out.add("conservation-duplicate",
                        f"round {k}: {len(dups)} block(s) delivered to "
                        f"device {dst} a second time (e.g. {sorted(dups)[0]})",
                        round=k)
            delivered |= deliv
            delivered_count[dst] += len(deliv - dups)
            stage = blocks - deliv
            dups2 = stage & hold[dst]
            if dups2:
                out.add("conservation-duplicate",
                        f"round {k}: {len(dups2)} block(s) staged at device "
                        f"{dst} twice (e.g. {sorted(dups2)[0]})", round=k)
            hold[dst] |= stage
            staged_by_msg[mid] = len(stage)
        for g in range(G):
            peak[g] = max(peak[g], len(hold[g]) + delivered_count[g])

    want = G * (G - 1)
    if len(delivered) != want:
        undelivered = want - len(delivered)
        stuck = {g: sorted(hold[g])[:3] for g in range(G) if hold[g]}
        out.add(
            "conservation-missing",
            f"{undelivered} of {want} logical blocks never delivered; "
            f"blocks still held: { {g: v for g, v in list(stuck.items())[:4]} }")
    leftovers = sum(1 for g in range(G) for b in hold[g] if b[0] != g)
    if leftovers:
        out.add("conservation-missing",
                f"{leftovers} forwarded block(s) stranded in staging at "
                "the end of the plan")

    prealloc = {
        "per_device_peak_live_bytes": [p * s for p in peak],
        "per_device_final_bytes": [c * s for c in delivered_count],
        "peak_live_bytes": max(peak) * s,
    }
    return prealloc, staged_by_msg


def _required_allgather(m, hold, G: int, hier, b: float, out: _Collector,
                        k: int):
    """Origins one allgather message must carry (copies, not moves)."""
    src, dst = m.src, m.dst
    if isinstance(hier, tuple):
        algo, node_idx, leader_of, groups = hier
        if algo == "hier2":
            i, j = node_idx[src], node_idx[dst]
            if i == j:
                # phase-0 intra contribution or the phase-2 relay
                # broadcast of foreign origins; bytes disambiguate.
                contrib = {src} - hold[dst]
                forward = hold[src] - hold[dst]
                for cand in (contrib, forward):
                    if _close(len(cand) * b, m.nbytes):
                        return cand
                return forward
            if src != _relay(groups, i, j) or dst != _relay(groups, j, i):
                out.add("deadlock-routing",
                        f"round {k}: allgather message {src}->{dst} "
                        "violates hier2 routing (node-pair exchange must "
                        "go relay-to-relay)", round=k)
                return set()
            # relay exchange: every origin native to src's node
            return {o for o in hold[src] if node_idx[o] == i}
        funnel = src != leader_of[src] and dst == leader_of[src]
        bcast = src == leader_of[src] and leader_of[dst] == src
        ring = src == leader_of[src] and dst == leader_of[dst]
        if not (funnel or bcast or ring):
            out.add("deadlock-routing",
                    f"round {k}: allgather message {src}->{dst} violates "
                    "hierarchical routing", round=k)
            return set()
        return hold[src] - hold[dst]
    if hier == "direct":
        return {src}
    if hier == "ring":
        if dst != (src + 1) % G:
            out.add("deadlock-routing",
                    f"round {k}: ring message {src}->{dst} is not a "
                    "nearest-neighbour hop", round=k)
        return hold[src] - hold[dst]
    # bruck: the send distance encodes how many origins are forwarded
    c = (src - dst) % G
    if c == 0:
        out.add("deadlock-routing",
                f"round {k}: bruck allgather self-distance message "
                f"{src}->{dst}", round=k)
        return set()
    return {(src + t) % G for t in range(min(c, G - c))}


def _interpret_allgather(plan, G: int, payload: float, hier,
                         out: _Collector):
    """Symbolic replay for allgather plans (blocks replicate)."""
    b = payload
    hold = [{g} for g in range(G)]
    peak = [1.0] * G

    for k, rnd in enumerate(plan.rounds):
        incoming = []
        for m in rnd:
            if not (0 <= m.src < G and 0 <= m.dst < G) or m.src == m.dst:
                continue
            required = _required_allgather(m, hold, G, hier, b, out, k)
            carried = required & hold[m.src]
            missing = required - carried
            if not _close(len(required) * b, m.nbytes):
                out.add(
                    "conservation-bytes",
                    f"round {k}: message {m.src}->{m.dst} declares "
                    f"{m.nbytes:.0f} B but the {plan.algorithm} rule moves "
                    f"{len(required)} origin block(s) "
                    f"({len(required) * b:.0f} B)", round=k)
            for o in sorted(missing):
                if o in hold[m.dst]:
                    out.add("conservation-duplicate",
                            f"round {k}: message {m.src}->{m.dst} would "
                            f"re-deliver origin {o} already present at the "
                            "destination", round=k)
                else:
                    out.add(
                        "deadlock-cycle",
                        f"round {k}: message {m.src}->{m.dst} must forward "
                        f"origin {o} which has not yet arrived at device "
                        f"{m.src} (forward-before-receive)", round=k)
            incoming.append((m.dst, carried))
        for dst, blocks in incoming:
            dups = blocks & hold[dst]
            if dups:
                out.add("conservation-duplicate",
                        f"round {k}: {len(dups)} origin block(s) delivered "
                        f"to device {dst} a second time "
                        f"(e.g. origin {sorted(dups)[0]})", round=k)
            hold[dst] |= blocks
        for g in range(G):
            peak[g] = max(peak[g], float(len(hold[g])))

    full = set(range(G))
    for g in range(G):
        miss = full - hold[g]
        if miss:
            out.add("conservation-missing",
                    f"device {g} ends without origin block(s) "
                    f"{sorted(miss)} -- the allgather is incomplete",
                    device=g)

    prealloc = {
        "per_device_peak_live_bytes": [p * b for p in peak],
        "per_device_final_bytes": [len(hold[g]) * b for g in range(G)],
        "peak_live_bytes": max(peak) * b,
    }
    return prealloc, {}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def check_plan(spec, plan, payload: float, lost=frozenset()) -> PlanCertificate:
    """Statically verify one plan; never raises, returns the certificate.

    ``payload`` is the per-device payload the plan was built for (the
    same value passed to :func:`repro.comm.plans.build_plan`); ``lost``
    is an optional set of device ids currently lost to faults — any
    message touching one is a rendezvous that cannot complete.
    """
    G = spec.num_devices
    out = _Collector(finding_context(
        algorithm=plan.algorithm, kind=plan.kind, G=G))
    prealloc: dict = {}
    if plan.kind not in ("alltoall", "allgather"):
        out.add("deadlock-malformed", f"unknown collective kind {plan.kind!r}")
    elif G < 2:
        out.add("deadlock-malformed", "plans need at least 2 devices")
    elif _check_structure(plan, G, frozenset(lost), out):
        hier = plan.algorithm
        if plan.algorithm in ("hier", "hier2"):
            info = _hier_info(spec)
            hier = None if info is None else (plan.algorithm,) + info
        if hier is None:
            out.add("deadlock-routing",
                    f"{plan.algorithm} plan on a machine without a "
                    "multi-node node_of annotation")
        elif plan.kind == "alltoall":
            prealloc, staged = _interpret_alltoall(plan, G, payload, hier, out)
            _check_defuse(plan, out)
            _check_dead_stores(plan, staged, out)
        else:
            prealloc, _ = _interpret_allgather(plan, G, payload, hier, out)
            _check_defuse(plan, out)
    return PlanCertificate(
        algorithm=plan.algorithm, kind=plan.kind, num_devices=G,
        payload=payload, wire_bytes=plan.wire_bytes(),
        num_messages=plan.num_messages, num_rounds=len(plan.rounds),
        findings=out.done(), prealloc=prealloc,
        fingerprint=spec_fingerprint(spec))


#: verdict cache: (spec_fingerprint, kind, algorithm) -> PlanCertificate.
#: Plan structure is payload-linear, so one certification covers every
#: payload at that structural key — the serve warm path pays one dict hit.
_VERDICTS: dict = {}


def clear_verdicts() -> None:
    """Drop all cached verdicts (tests, long-lived tuning sweeps)."""
    _VERDICTS.clear()


def certify_plan(spec, plan, payload: float) -> PlanCertificate:
    """Cached strict verification: raises :class:`PlanCheckError`.

    This is the :func:`repro.comm.plans.build_plan` admission gate.  On
    a verdict-cache miss the plan is fully checked; on a hit the stored
    certificate is returned at zero cost.
    """
    key = (spec_fingerprint(spec), plan.kind, plan.algorithm)
    cert = _VERDICTS.get(key)
    if cert is None:
        cert = _VERDICTS[key] = check_plan(spec, plan, payload)
    if not cert.ok:
        raise PlanCheckError(cert.render())
    return cert


# ---------------------------------------------------------------------------
# the `repro verify` matrix
# ---------------------------------------------------------------------------

DEFAULT_G_LIST = (2, 4, 8, 16, 64, 256)


def _matrix_specs(g_list, include_degraded: bool):
    """(label, spec) rows covering single-node, multi-node, degraded."""
    from repro.faults.injector import (DeviceLoss, FaultInjector, LinkDegrade,
                                       LinkFlap)
    from repro.machine import topology as topo
    from repro.machine.multinode import multinode_p100, routed_multinode_p100
    from repro.machine.spec import (ClusterSpec, NVLINK_P100_LINK, P100,
                                    dgx1_p100)

    rows = []
    for G in g_list:
        rows.append((f"flat{G}", ClusterSpec(
            device=P100, num_devices=G,
            graph=topo.fully_connected(G, NVLINK_P100_LINK),
            name=f"{G}xP100 flat")))
        if G == 8:
            rows.append(("dgx1", dgx1_p100()))
        if G >= 4:
            nodes = 2 if G <= 8 else G // 4
            rows.append((f"nodes{nodes}x{G // nodes}",
                         multinode_p100(nodes, gpus_per_node=G // nodes)))
        if G >= 16:
            # routed fat tree: radix 8 -> 4 nodes per leaf, so G >= 64
            # exercises cross-leaf (spine) routes too
            nodes = G // 4
            rows.append((f"routed{nodes}x4",
                         routed_multinode_p100(nodes, gpus_per_node=4,
                                               radix=8, oversubscription=2.0)))
    if include_degraded:
        base = multinode_p100(2, gpus_per_node=4)
        inj = FaultInjector(base, scheduled=(
            LinkFlap(0, 1, start=1e-3, end=3e-3),
            LinkDegrade(4, 5, start=1e-3, end=3e-3, bandwidth_scale=0.25),
        ))
        rows.append(("nodes2x4-degraded", inj.degraded_spec(2e-3)))
        dgx = dgx1_p100()
        inj2 = FaultInjector(dgx, scheduled=(
            LinkDegrade(0, 1, start=1e-3, end=3e-3, bandwidth_scale=0.5),))
        rows.append(("dgx1-degraded", inj2.degraded_spec(2e-3)))
        # a routed machine that lost a whole node's devices: plans over
        # the full device set must still certify (retry/reroute happens
        # at runtime, not in the plan structure)
        routed = routed_multinode_p100(4, gpus_per_node=4, radix=8)
        inj3 = FaultInjector(routed, scheduled=tuple(
            DeviceLoss(d, time=1e-3) for d in range(4, 8)))
        rows.append(("routed4x4-nodeloss", inj3.degraded_spec(2e-3)))
    return rows


def verify_matrix(g_list=DEFAULT_G_LIST, payload: float = float(1 << 20),
                  include_degraded: bool = True):
    """Certify every message-plan algorithm x kind over the topology matrix.

    Returns ``(rows, findings)``: one summary dict per (spec, kind,
    algorithm) certification and the flat list of findings across all
    of them (empty when every plan is healthy).
    """
    from repro.comm.plans import build_plan

    rows = []
    findings: list = []
    for label, spec in _matrix_specs(tuple(g_list), include_degraded):
        multinode = _hier_info(spec) is not None
        algorithms = ("direct", "ring", "bruck") + (
            ("hier", "hier2") if multinode else ())
        for kind in ("alltoall", "allgather"):
            for algorithm in algorithms:
                plan = build_plan(spec, kind, payload, algorithm,
                                  reads=("x",), certify=False)
                cert = check_plan(spec, plan, payload)
                row = cert.to_json()
                row["spec"] = label
                rows.append(row)
                findings.extend(cert.findings)
    return rows, findings

