"""Span recording for the traced run, set entirely from outside ``src/``.

Three kinds of boundary are observed, none by editing the program:

- a ``VirtualCluster`` subclass whose public issue methods (``launch``,
  ``host_op``, ``sendrecv``, ...) open a ``machine`` span and wrap the
  ``fn`` closure handed to them in a span named after the pipeline
  region that issued it (``fmmfft/fmm/S2T`` -> ``fmm``/``s2t``);
- wrappers over named public entry points that *other* layers call
  (``comm.alltoall``, ``ReplayExecutor.run``, ``PlanCache.plan_for``,
  ``LocalFFTPlan.forward``, ...), installed for the duration of a
  traced op and removed again;
- one root span per op, opened by the harness.

A layer's self time is its spans' duration minus the part their child
spans cover, so the self times of all spans of one op sum to the op's
duration exactly; what the root span keeps for itself is the
*unattributed* remainder.

Everything passes ``*args, **kwargs`` through untouched.  A hook whose
target no longer exists is skipped and listed in ``Tracer.missing``; the
harness then reports that layer's numbers as null.  The untraced run
never imports this module's hooks into the program at all.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter

from repro.machine.cluster import VirtualCluster

#: public ``VirtualCluster`` methods that issue work (one machine span each)
CLUSTER_METHODS = ("launch", "host_op", "host_action", "sendrecv",
                   "alltoall", "allgather", "barrier")

#: (module, dotted attribute, layer, key) — public entry points that
#: another layer calls.  Functions are patched on the module the callers
#: read them from at call time; methods on their class.
HOOKS = (
    ("repro.comm", "alltoall", "comm", "issue"),
    ("repro.comm", "allgather", "comm", "issue"),
    ("repro.comm", "halo_exchange", "comm", "issue"),
    ("repro.comm", "grouped_alltoall", "comm", "issue"),
    ("repro.comm", "sendrecv", "comm", "issue"),
    ("repro.fmm.distributed", "DistributedFMM.run", "fmm", "issue"),
    ("repro.fmm.batched", "BatchedFMM.apply", "fmm", "batched_apply"),
    ("repro.fmm.batched", "BatchedFMM.s2t", "fmm", "batched_s2t"),
    ("repro.fftcore.plan", "LocalFFTPlan.forward", "fftcore", "rows"),
    ("repro.core.distributed", "FmmFftDistributed.__init__", "core", "construct"),
    ("repro.core.distributed", "FmmFftDistributed.run", "core", "run"),
    ("repro.dfft.fft1d", "Distributed1DFFT.__init__", "dfft", "construct"),
    ("repro.dfft.fft1d", "Distributed1DFFT.run", "dfft", "run"),
    ("repro.ir.executor", "ReplayExecutor.__init__", "ir", "compile"),
    ("repro.ir.executor", "ReplayExecutor.run", "ir", "replay"),
    ("repro.serve.cache", "PlanCache.plan_for", "serve", "cache"),
    ("repro.serve.cache", "PlanCache.graph_for", "serve", "cache"),
    ("repro.serve.cache", "PlanCache.put_graph", "serve", "cache"),
    ("repro.serve.scheduler", "ServeScheduler.__init__", "serve", "construct"),
    ("repro.serve.scheduler", "ServeScheduler.run", "serve", "run"),
    ("repro.faults.injector", "FaultInjector.__init__", "faults", "construct"),
)

#: third component of an ``fmmfft/fmm/<stage>`` region -> span key
_FMM_STAGE = {"S2M": "s2m", "S2T": "s2t", "upward": "m2m", "m2l": "m2l",
              "base": "m2l", "downward": "l2l", "L2T": "l2t",
              "halo-S": "halo"}


def classify_closure(region: str) -> tuple[str, str]:
    """(layer, key) of an ``fn`` closure from the region that issued it."""
    parts = region.split("/")
    if parts[:2] == ["fmmfft", "fmm"] and len(parts) > 2:
        return "fmm", _FMM_STAGE.get(parts[2], "other")
    if "relayout" in parts:
        return "core", "stage_io"
    if any(p.startswith("transpose") for p in parts):
        return "dfft", "transpose"
    if parts[0] == "fmmfft" and parts[-1] == "fftP":
        # the fused load callback (POST) runs inside this closure; the
        # local FFT itself is a child span of fftcore
        return "core", "post"
    if parts[-1] in ("fftP", "fftM", "load"):
        return "dfft", "rows"
    return "machine", "fn"


class Tracer:
    """Collects the spans of one op at a time and owns the hooks."""

    def __init__(self):
        #: [layer, key, parent index, start, end] per span, in open order
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: hook targets that no longer exist -> the layer that loses them
        self.missing: dict[str, str] = {}
        self.Cluster = _traced_cluster_class(self)
        #: (owner, attribute, original, wrapped) per resolvable hook
        self._hooks: list[tuple] = []
        for module, attr, layer, key in HOOKS:
            try:
                owner = importlib.import_module(module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing[f"{module}:{attr}"] = layer
                continue
            self._hooks.append(
                (owner, name, original, self.spanned(layer, key, original)))

    # -- recording ----------------------------------------------------

    def begin(self, layer: str, key: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, key, parent, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def spanned(self, layer: str, key: str, fn):
        """``fn`` with a span around every call; arguments untouched."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(layer, key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (layer, key) over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[tuple[str, str], float] = {}
        for (layer, key, _, t0, t1), child in zip(self.spans, covered):
            out[(layer, key)] = out.get((layer, key), 0.0) + (t1 - t0) - child
        return out

    # -- hooks --------------------------------------------------------

    def install(self) -> None:
        """Put the span wrappers over every resolvable entry point."""
        for owner, name, _, wrapped in self._hooks:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore the program's own entry points."""
        for owner, name, original, _ in self._hooks:
            setattr(owner, name, original)


def _traced_cluster_class(tracer: Tracer):
    """A ``VirtualCluster`` subclass reporting to ``tracer``."""

    def wrap_fn(cluster, fn):
        layer, key = classify_closure(cluster.region_path)
        return tracer.spanned(layer, key, fn)

    def issue_method(base):
        @functools.wraps(base)
        def method(self, *args, **kwargs):
            if self.execute:
                # closures arrive positionally (host_op, host_action) or
                # as fn=; only plain functions/methods are wrapped, so a
                # dtype or any other callable value passes through as is
                args = tuple(
                    wrap_fn(self, a)
                    if isinstance(a, (types.FunctionType, types.MethodType))
                    else a for a in args)
                if kwargs.get("fn") is not None:
                    kwargs["fn"] = wrap_fn(self, kwargs["fn"])
            idx = tracer.begin("machine", "issue")
            try:
                return base(self, *args, **kwargs)
            finally:
                tracer.end(idx)
        return method

    class TracedCluster(VirtualCluster):
        def __init__(self, *args, **kwargs):
            idx = tracer.begin("machine", "cluster_new")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end(idx)

    for name in CLUSTER_METHODS:
        base = getattr(VirtualCluster, name, None)
        if base is None:
            tracer.missing[f"VirtualCluster.{name}"] = "machine"
        else:
            setattr(TracedCluster, name, issue_method(base))
    return TracedCluster
