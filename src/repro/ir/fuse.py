"""Elementwise-stage fusion over a captured graph.

Two kernel launches fuse when doing so provably cannot change any
observable schedule fact except saving one launch:

- both are :data:`~repro.ir.graph.OP_LAUNCH` nodes of data-parallel
  kinds (``copy``/``custom``/``fft``) on the *same* device stream, with
  no other node on that stream between them (stream order already
  serializes them);
- the second's declared dependencies, if any, all point at the first
  (so no cross-stream event is consumed between them);
- nothing else depends on the first (its completion time is not
  observed by any other node — and no barrier, which reads every
  stream clock, sits between them in program order).

The fused node sums flops/mops, composes the NumPy closures in order,
unions the write sets, drops the first node's writes from the second's
read set (they are produced internally now), takes the deepest common
region-path prefix as its region tag (attribution rolls up to the
shared parent), and — the modeled payoff — charges **one** launch
latency instead of two.  This is exactly the
transformation the paper's implementation applies by hand (the fused
twiddle/load callbacks in the 2D FFT); the IR makes it mechanical.

Fusion deliberately changes modeled timing (that is its purpose), so
the serve layer replays *unfused* graphs — where ledger bit-identity
with the interpreted path is the contract — while ``repro ir`` reports
both forms and the fused speedup.
"""

from __future__ import annotations

from dataclasses import replace

from repro.ir.graph import IRGraph, IRNode, OP_BARRIER, OP_HOST, OP_LAUNCH

#: launch kinds that are data-parallel over their buffers and therefore
#: safe to fuse back-to-back into one kernel
FUSABLE_KINDS = ("copy", "custom", "fft")


def _common_region(a: str, b: str) -> str:
    """Deepest shared prefix of two region paths."""
    if a == b:
        return a
    out = []
    for x, y in zip(a.split("/"), b.split("/")):
        if x != y:
            break
        out.append(x)
    return "/".join(out)


def _use_counts(nodes) -> list[int]:
    use = [0] * len(nodes)
    for n in nodes:
        for idx, _, _ in n.producers():
            if idx >= 0:
                use[idx] += 1
    return use


def _fuse_once(nodes: list[IRNode], launch_latency: float):
    """One fusion pass; returns (new_nodes, remap, n_fused)."""
    use = _use_counts(nodes)
    barrier_seen = [0] * (len(nodes) + 1)
    for i, n in enumerate(nodes):
        barrier_seen[i + 1] = barrier_seen[i] + (n.op == OP_BARRIER)
    # stream-adjacency: previous launch index per (device, stream)
    prev_on_stream: dict = {}
    fuse_into: dict[int, int] = {}  # victim index -> target index
    for i, n in enumerate(nodes):
        if n.op != OP_LAUNCH:
            if n.op == OP_HOST:
                # a host op samples (and records) its compute stream's
                # clock, so it observes the first launch's end time
                prev_on_stream.pop((n.device, "compute"), None)
            continue
        key = (n.device, n.stream)
        p = prev_on_stream.get(key)
        prev_on_stream[key] = i
        if p is None or p in fuse_into:
            continue
        a = nodes[p]
        if (a.kind in FUSABLE_KINDS and n.kind in FUSABLE_KINDS
                and use[p] <= (1 if any(d[0] == p for d in n.deps) else 0)
                and all(d[0] == p for d in n.deps)
                and barrier_seen[i] == barrier_seen[p + 1]):
            fuse_into[i] = p
    if not fuse_into:
        return nodes, None, 0
    remap = [0] * len(nodes)
    out: list[IRNode] = []
    merged: dict[int, int] = {}
    for i, n in enumerate(nodes):
        if i in fuse_into:
            tgt = merged[fuse_into[i]]
            a = out[tgt]
            fa, fb = a.fn, n.fn
            if fa is not None and fb is not None:
                def _composed(cl, _fa=fa, _fb=fb):
                    _fa(cl)
                    _fb(cl)
                fn = _composed
            else:
                fn = fa if fb is None else fb
            out[tgt] = IRNode(
                op=OP_LAUNCH, name=f"{a.name}+{n.name}",
                kind=n.kind if a.kind == "copy" else a.kind,
                device=a.device, stream=a.stream,
                duration=a.duration + n.duration - launch_latency,
                flops=a.flops + n.flops, mops=a.mops + n.mops,
                reads=a.reads + tuple(r for r in n.reads
                                      if r not in a.writes
                                      and r not in a.reads),
                writes=a.writes + tuple(w for w in n.writes
                                        if w not in a.writes),
                region=_common_region(a.region, n.region),
                deps=a.deps, fn=fn)
            remap[i] = tgt
            continue
        remap[i] = len(out)
        merged[i] = len(out)
        out.append(n)
    # rewrite dependency indices
    def moved(d):
        if type(d[0]) is tuple:  # latest-of-several: every candidate
            return tuple(moved(c) for c in d)
        idx, sub, w = d
        return (remap[idx] if idx >= 0 else idx, sub, w)

    final: list[IRNode] = []
    for n in out:
        deps = tuple(moved(d) for d in n.deps)
        final.append(n if deps == n.deps else replace(n, deps=deps))
    return final, remap, len(fuse_into)


def fuse_elementwise(graph: IRGraph, spec) -> IRGraph:
    """Fuse adjacent elementwise stages; returns a new graph.

    Runs passes to a fixpoint so chains collapse fully.  The input
    graph is untouched; the result's ``meta["fused"]`` counts merged
    launches and its prealloc/certification state is reset (timing
    changed, so it must re-certify).
    """
    latency = spec.device.launch_latency
    nodes = list(graph.nodes)
    total = 0
    while True:
        nodes, _, n = _fuse_once(nodes, latency)
        if n == 0:
            break
        total += n
    fused = IRGraph(nodes, {**graph.meta, "fused": total})
    fused.stage_in = graph.stage_in
    fused.finalize = graph.finalize
    fused.validate()
    return fused
