"""Repo-specific AST lint: the numeric discipline the kernels rely on.

Thirteen rules, each targeting a failure mode this codebase has actually
to guard against (run with ``python tools/lint.py src``):

``future-annotations``
    Every module starts with ``from __future__ import annotations`` so
    ``X | None`` annotations stay cheap strings on all supported
    Pythons.
``bare-except``
    ``except:`` swallows ``KeyboardInterrupt`` during hour-long sweeps;
    catch something.
``mutable-default``
    ``def f(x=[])`` aliases state across calls — plans and caches here
    are long-lived, so this bites.
``np-fft``
    ``np.fft`` may only be called inside ``repro/fftcore/oracle.py``
    (the reference oracles).  Everything else — the rest of
    :mod:`repro.fftcore` included — must route through the library's
    own transforms, or the reproduction silently stops reproducing.
``dtype-discipline``
    In kernel paths (``core/``, ``dfft/``, ``fmm/``, ``fftcore/``):
    no dtype-less ``np.zeros``/``np.empty``/``np.ones``/``np.full``
    (defaults to float64 and upcasts complex64 pipelines), and no bare
    ``np.complex128`` literal unless the same statement also handles
    ``np.complex64`` (i.e. it is explicit precision dispatch, not a
    silent upcast).
``launch-declares``
    Every ``.launch`` / ``.sendrecv`` / ``.alltoall`` / ``.allgather``
    call site passes ``reads=`` and ``writes=`` so the hazard sanitizer
    can certify the schedule (and the call site documents its
    data-flow).
``raw-comm``
    Pipelines (``core/``, ``dfft/``, ``fmm/``) must issue collectives
    through :mod:`repro.comm` (receiver spelled ``comm``), never the raw
    :class:`~repro.machine.cluster.VirtualCluster` methods — raw calls
    bypass the algorithm knob, topology routing, and the comm_log
    measured-vs-model join.  ``._collective`` is internal to the machine
    and comm layers and is flagged everywhere else.

``serve-plan-cache``
    Serving code (``repro/serve/``) must obtain plans from the
    :class:`~repro.serve.cache.PlanCache`, never construct
    ``FmmFftPlan`` directly — a stray construction silently bypasses
    the wisdom store and falsifies the hit-rate the service reports.
    ``repro/serve/cache.py`` is the one sanctioned construction site.

``fault-injection-site``
    Synthetic faults originate only in :mod:`repro.faults` and are
    consumed only by the engine (:mod:`repro.machine`): the comm layer,
    pipelines and serving code must not query fault outcomes (``.message_outcome`` /
    ``.collective_outcome``) or construct ``CommFailure`` themselves.
    A pipeline raising its own faults bypasses the injector's seeded
    event stream, so the run stops being replay-deterministic and the
    fault ledger stops being truthful.

``deterministic-time``
    No wall clock (``time.time()``, ``datetime.now()``) and no unseeded
    randomness (``np.random.*`` global-state draws, unseeded
    ``default_rng()``, the stdlib ``random`` module) outside
    :mod:`repro.util.prng` and ``benchmarks/``.  The simulator's only
    clock is virtual and every stochastic choice is a seeded draw; a
    stray wall-clock read or unseeded sample silently breaks the
    ``repro chaos --replay-check`` bit-identity gate.  Under ``tests/``
    this is the only rule applied (the others are about library code:
    tests call ``np.fft`` as their oracle and build records by hand),
    and it also refuses a hypothesis ``settings(...)`` that sets
    ``derandomize`` to anything but ``True`` or names a ``database``:
    the tier-1 gate runs the one derandomized, database-less profile of
    ``tests/conftest.py``, so a green run is the same run everywhere.

``telemetry-registry``
    Metric series (``CounterSeries`` / ``GaugeSeries`` /
    ``HistogramSeries``) are constructed only inside
    :mod:`repro.obs.telemetry` — everyone else goes through a
    :class:`~repro.obs.telemetry.MetricsRegistry`, whose keyed lookup
    is what makes snapshots complete and merges deterministic.  A
    free-floating series never lands in any snapshot, so ``repro top``
    and the exporters silently under-report.

``engine-site``
    One engine owns the simulated timeline.  Ledger records
    (``OpRecord``) are constructed and stream clocks (``Stream.clock``)
    assigned only inside :mod:`repro.machine`, so the
    stream/event algebra exists once — the replay executor re-issues
    taped steps through the engine's issue halves instead of mirroring
    them.  IR nodes and graphs (:class:`~repro.ir.graph.IRNode` /
    :class:`~repro.ir.graph.IRGraph`) are constructed only inside
    :mod:`repro.machine` (the capture tape) and :mod:`repro.ir` —
    everyone else obtains graphs through the capture entry points
    (:func:`repro.ir.capture.capture`, :mod:`repro.ir.pipelines`): a
    hand-assembled graph skips the tape's dependency resolution and
    :meth:`~repro.ir.graph.IRGraph.certify`'s gauntlet.  And
    :mod:`repro.machine` must not import :mod:`repro.ir`: the engine
    writes the tape, the IR reads it, never the other way round.

``launch-trig``
    In pipelines (``core/``, ``dfft/``, ``fmm/``): no ``np.exp`` /
    ``np.cos`` / ``np.sin`` inside a function passed as ``fn=`` to
    ``.launch`` or as a load callback (``load=`` / ``load_callback=``)
    to a stage that launches it, nor in a same-module function or method
    it calls.  The closure runs on every execution of the plan, so a
    table built there is rebuilt per op (the six-step twiddle cost
    6.5 ms of a 33 ms op this way); build it at plan time or take it
    from :mod:`repro.fftcore.twiddle`'s cache.

Any rule can be waived on one line with ``# lint: allow-<rule>``; a
waiver naming no known rule is itself reported (``unknown-waiver``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: rules that only apply under these path fragments (kernel code)
KERNEL_PATHS = ("repro/core/", "repro/dfft/", "repro/fmm/", "repro/fftcore/")

#: the only module allowed to touch numpy.fft
NP_FFT_ALLOWED = "repro/fftcore/oracle.py"

#: VirtualCluster methods that must declare their buffer access sets
COMM_METHODS = ("launch", "sendrecv", "alltoall", "allgather")

#: pipeline packages that must route collectives through repro.comm
PIPELINE_PATHS = ("repro/core/", "repro/dfft/", "repro/fmm/")

#: the only packages allowed to touch the raw collective machinery
RAW_COMM_ALLOWED = ("repro/machine/", "repro/comm/")

#: cluster comm entry points covered by the raw-comm rule
RAW_COMM_METHODS = ("sendrecv", "alltoall", "allgather")

#: serving code whose plans must come from the plan cache
SERVE_PATHS = ("repro/serve/",)

#: the one serve module allowed to construct plans (the cache itself)
SERVE_PLAN_ALLOWED = "repro/serve/cache.py"

#: the only packages allowed to draw fault outcomes or raise CommFailure
FAULT_RAISE_ALLOWED = ("repro/faults/", "repro/machine/")

#: injector outcome queries covered by the fault-injection-site rule
FAULT_OUTCOME_METHODS = ("message_outcome", "collective_outcome")

#: the only places allowed to touch wall clocks / unseeded randomness
DETERMINISTIC_TIME_ALLOWED = ("repro/util/prng.py", "benchmarks/")

#: the test suite: linted for the determinism of the gate, nothing else
TESTS_PATH = "/tests/"
#: hypothesis settings a test module may only restate, never change
HYPOTHESIS_PINNED = {"derandomize": True, "database": None}

#: metric series classes that must be built via the registry
TELEMETRY_SERIES = ("CounterSeries", "GaugeSeries", "HistogramSeries")

#: the one module allowed to construct series directly (the registry)
TELEMETRY_ALLOWED = "repro/obs/telemetry.py"

#: IR node/graph classes whose construction the engine-site rule confines
IR_TYPES = ("IRNode", "IRGraph")

#: the only packages allowed to build IR nodes/graphs (tape + IR)
IR_CONSTRUCT_ALLOWED = ("repro/machine/", "repro/ir/")

#: the only package allowed to build OpRecords or write stream clocks,
#: and the one package that must not import repro.ir
ENGINE_PATH = "repro/machine/"

#: transcendental table builders the launch-trig rule keeps out of closures
TRIG_FUNCS = ("exp", "cos", "sin")

#: keywords that hand a callback to a stage whose launch closure runs it
LOAD_KWARGS = ("load", "load_callback")

#: every waivable rule; a pragma naming anything else is unknown-waiver
RULES = (
    "bare-except",
    "deterministic-time",
    "dtype-discipline",
    "engine-site",
    "fault-injection-site",
    "future-annotations",
    "launch-declares",
    "launch-trig",
    "mutable-default",
    "np-fft",
    "raw-comm",
    "serve-plan-cache",
    "telemetry-registry",
)

_PRAGMA = re.compile(r"#\s*lint:\s*allow-([a-z0-9-]+)")


@dataclass(frozen=True)
class LintIssue:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _pragmas(source: str) -> dict[int, set[str]]:
    """Per-line ``# lint: allow-<rule>`` waivers."""
    out: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        for m in _PRAGMA.finditer(text):
            out.setdefault(i, set()).add(m.group(1))
    return out


def _is_np(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _in_kernel_path(path: str) -> bool:
    p = path.replace("\\", "/")
    return any(frag in p for frag in KERNEL_PATHS)


class _Checker(ast.NodeVisitor):
    """Single-pass visitor that applies every node-local rule."""

    def __init__(self, path: str, source: str, pragmas: dict[int, set[str]]):
        self.path = path
        self.source = source
        self.pragmas = pragmas
        self.issues: list[LintIssue] = []
        self.kernel = _in_kernel_path(path)
        p = path.replace("\\", "/")
        self.np_fft_ok = NP_FFT_ALLOWED in p
        self.pipeline = any(frag in p for frag in PIPELINE_PATHS)
        self.raw_comm_ok = any(frag in p for frag in RAW_COMM_ALLOWED)
        self.serve = (
            any(frag in p for frag in SERVE_PATHS) and SERVE_PLAN_ALLOWED not in p
        )
        self.fault_raise_ok = any(frag in p for frag in FAULT_RAISE_ALLOWED)
        self.det_time_ok = any(frag in p for frag in DETERMINISTIC_TIME_ALLOWED)
        self.tests = TESTS_PATH in "/" + p
        self.telemetry_ok = TELEMETRY_ALLOWED in p
        self.ir_ok = any(frag in p for frag in IR_CONSTRUCT_ALLOWED)
        self.engine = ENGINE_PATH in p
        self._stmt: ast.stmt | None = None

    # -- plumbing ------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule in self.pragmas.get(line, ()):
            return
        self.issues.append(LintIssue(self.path, line, rule, message))

    def visit(self, node: ast.AST):  # noqa: D102 - ast.NodeVisitor hook
        if isinstance(node, ast.stmt):
            prev, self._stmt = self._stmt, node
            super().visit(node)
            self._stmt = prev
        else:
            super().visit(node)

    # -- rules ---------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(node, "bare-except",
                         "bare 'except:' -- name the exception(s)")
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Name)
                and d.func.id in ("list", "dict", "set")
            )
            if bad:
                self._report(
                    d, "mutable-default",
                    f"mutable default argument in {getattr(node, 'name', '<lambda>')}()",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # np.fft containment
        if node.attr == "fft" and _is_np(node.value) and not self.np_fft_ok:
            self._report(
                node, "np-fft",
                "numpy.fft outside repro/fftcore/oracle.py -- use the library's own "
                "transforms or repro.fftcore.oracle",
            )
        # silent complex64 -> complex128 upcasts in kernel code
        if node.attr == "complex128" and _is_np(node.value) and self.kernel:
            seg = ""
            if self._stmt is not None:
                seg = ast.get_source_segment(self.source, self._stmt) or ""
            if "complex64" not in seg:
                self._report(
                    node, "dtype-discipline",
                    "bare np.complex128 in a kernel path -- dispatch on the "
                    "input dtype (or waive with '# lint: allow-dtype-discipline')",
                )
        self.generic_visit(node)

    def _check_clock_write(self, target: ast.expr) -> None:
        if (isinstance(target, ast.Attribute) and target.attr == "clock"
                and not self.engine):
            self._report(
                target, "engine-site",
                "stream clock written outside repro.machine -- hand the "
                "step to the engine's issue halves instead of advancing "
                "the timeline by hand",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_clock_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_write(node.target)
        self.generic_visit(node)

    def _check_engine_imports(self, node: ast.stmt, modules) -> None:
        for module in modules:
            if self.engine and (module + ".").startswith("repro.ir."):
                self._report(
                    node, "engine-site",
                    f"repro.machine imports {module} -- the engine writes "
                    "the tape and repro.ir reads it, never the other way",
                )

    def visit_Import(self, node: ast.Import) -> None:
        self._check_engine_imports(node, [a.name for a in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self._check_engine_imports(
            node, [module] + [f"{module}.{a.name}" for a in node.names])

    def _check_deterministic_time(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # wall clock: time.time() / time.time_ns()
        if (
            isinstance(base, ast.Name)
            and base.id == "time"
            and func.attr in ("time", "time_ns")
        ):
            self._report(
                node, "deterministic-time",
                f"time.{func.attr}() reads the wall clock -- simulated time "
                "is the only clock here (repro chaos --replay-check breaks)",
            )
        # datetime.now()/utcnow(), date.today()
        if func.attr in ("now", "utcnow", "today"):
            owner = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else "")
            if owner in ("datetime", "date"):
                self._report(
                    node, "deterministic-time",
                    f"{owner}.{func.attr}() reads the wall clock -- "
                    "replayed runs must be bit-identical",
                )
        # numpy global-state / unseeded randomness
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and _is_np(base.value)
        ):
            if func.attr == "default_rng":
                seed = node.args[0] if node.args else None
                for kw in node.keywords:
                    if kw.arg == "seed":
                        seed = kw.value
                if seed is None or (
                    isinstance(seed, ast.Constant) and seed.value is None
                ):
                    self._report(
                        node, "deterministic-time",
                        "unseeded np.random.default_rng() -- draws become "
                        "run-dependent; pass an explicit seed (see "
                        "repro.util.prng)",
                    )
            else:
                self._report(
                    node, "deterministic-time",
                    f"np.random.{func.attr}() uses numpy's global RNG state "
                    "-- use a seeded np.random.default_rng(seed) generator",
                )
        # the stdlib random module (global state, seeded from the OS)
        if isinstance(base, ast.Name) and base.id == "random":
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    self._report(
                        node, "deterministic-time",
                        "random.Random() without a seed -- draws become "
                        "run-dependent",
                    )
            elif func.attr.islower():
                self._report(
                    node, "deterministic-time",
                    f"random.{func.attr}() uses the OS-seeded global RNG -- "
                    "use a seeded generator (see repro.util.prng)",
                )

    def _check_hypothesis_settings(self, node: ast.Call) -> None:
        """``settings(...)`` in a test module may not undo the profile."""
        for kw in node.keywords:
            if kw.arg in HYPOTHESIS_PINNED and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is HYPOTHESIS_PINNED[kw.arg]):
                self._report(
                    node, "deterministic-time",
                    f"settings({kw.arg}=...) overrides the derandomized, "
                    "database-less tier-1 profile of tests/conftest.py -- "
                    "commit a find as an @example instead",
                )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not self.det_time_ok:
            self._check_deterministic_time(node)
        if self.tests and isinstance(func, ast.Name) and func.id == "settings":
            self._check_hypothesis_settings(node)
        # synthetic faults originate only in repro.faults / machine
        if not self.fault_raise_ok:
            if isinstance(func, ast.Name) and func.id == "CommFailure":
                self._report(
                    node, "fault-injection-site",
                    "CommFailure constructed outside the fault/machine "
                    "layers -- synthetic faults must come from the seeded "
                    "injector, or replay determinism is lost",
                )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in FAULT_OUTCOME_METHODS
            ):
                self._report(
                    node, "fault-injection-site",
                    f".{func.attr}() outside the fault/machine layers "
                    "-- only the engine may draw fault outcomes (each "
                    "draw consumes the injector's seeded stream)",
                )
        # serving code must get plans from the cache, not build them
        if self.serve and (
            (isinstance(func, ast.Name) and func.id == "FmmFftPlan")
            or (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "FmmFftPlan"
            )
        ):
            self._report(
                node, "serve-plan-cache",
                "FmmFftPlan constructed in serving code -- resolve plans "
                "through repro.serve.cache.PlanCache so wisdom and hit-rate "
                "accounting stay truthful",
            )
        # metric series come only from the registry's keyed lookup
        if not self.telemetry_ok:
            series = None
            if isinstance(func, ast.Name) and func.id in TELEMETRY_SERIES:
                series = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in TELEMETRY_SERIES
            ):
                series = func.attr
            if series is not None:
                self._report(
                    node, "telemetry-registry",
                    f"{series} constructed outside repro.obs.telemetry -- "
                    "get series from a MetricsRegistry "
                    "(.counter/.gauge/.histogram) so they land in snapshots",
                )
        # the engine-site rule: who may build records, nodes and graphs
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute) else "")
        if callee in IR_TYPES and not self.ir_ok:
            self._report(
                node, "engine-site",
                f"{callee} constructed outside repro.machine/repro.ir -- "
                "graphs come from the capture entry points "
                "(repro.ir.capture / repro.ir.pipelines); hand-built "
                "graphs skip certify()",
            )
        if callee == "OpRecord" and not self.engine:
            self._report(
                node, "engine-site",
                "OpRecord constructed outside repro.machine -- ledger "
                "records come from the engine's issue halves, the one "
                "copy of the stream/event algebra",
            )
        if isinstance(func, ast.Attribute):
            # dtype-less allocations in kernel code
            if (
                self.kernel
                and func.attr in ("zeros", "empty", "ones", "full")
                and _is_np(func.value)
            ):
                need_pos = 3 if func.attr == "full" else 2
                has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or (
                    len(node.args) >= need_pos
                )
                if not has_dtype:
                    self._report(
                        node, "dtype-discipline",
                        f"np.{func.attr} without an explicit dtype defaults to "
                        "float64 and silently upcasts complex64 pipelines",
                    )
            # launch/comm call sites must declare their data-flow
            if func.attr in COMM_METHODS:
                kws = {kw.arg for kw in node.keywords}
                missing = [k for k in ("reads", "writes") if k not in kws]
                if missing:
                    self._report(
                        node, "launch-declares",
                        f".{func.attr}() call missing {'/'.join(missing)} "
                        "declaration(s) -- the hazard sanitizer needs every "
                        "op's buffer access sets",
                    )
            # pipelines must route collectives through repro.comm
            via_comm = isinstance(func.value, ast.Name) and func.value.id == "comm"
            if func.attr == "_collective" and not self.raw_comm_ok:
                self._report(
                    node, "raw-comm",
                    "._collective() is internal to repro.machine/repro.comm "
                    "-- use the repro.comm collectives",
                )
            elif (
                self.pipeline
                and not self.raw_comm_ok
                and func.attr in RAW_COMM_METHODS
                and not via_comm
            ):
                self._report(
                    node, "raw-comm",
                    f"raw .{func.attr}() in a pipeline -- issue it through "
                    "repro.comm so the algorithm knob, topology routing, and "
                    "comm_log join apply",
                )
        self.generic_visit(node)


def _check_future_import(path: str, tree: ast.Module,
                         pragmas: dict[int, set[str]]) -> list[LintIssue]:
    body = tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # module docstring carries no annotations
    if not body:
        return []
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            if any(a.name == "annotations" for a in node.names):
                return []
    if "future-annotations" in pragmas.get(1, ()):
        return []
    return [LintIssue(path, 1, "future-annotations",
                      "missing 'from __future__ import annotations'")]


def _check_launch_trig(path: str, tree: ast.Module,
                       pragmas: dict[int, set[str]]) -> list[LintIssue]:
    """Trig calls reachable from a launch closure, per module.

    The roots are ``fn=`` of a ``.launch`` call and the load callbacks
    (:data:`LOAD_KWARGS`) of any call.  Their names resolve to functions
    nested in the function that makes the call, or (``self.f``) to
    methods of the module; from there, ``self.f(...)`` and ``f(...)``
    calls are followed to any function of that name defined in the
    module.
    """
    if not any(frag in path.replace("\\", "/") for frag in PIPELINE_PATHS):
        return []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = [n for n in ast.walk(tree) if isinstance(n, defs)]
    by_name: dict[str, list[ast.AST]] = {}
    for f in funcs:
        by_name.setdefault(f.name, []).append(f)
    queue: list[ast.AST] = []
    for outer in funcs:
        local = {n.name: n for n in ast.walk(outer)
                 if isinstance(n, defs) and n is not outer}
        for call in ast.walk(outer):
            if not isinstance(call, ast.Call):
                continue
            launch = (isinstance(call.func, ast.Attribute)
                      and call.func.attr == "launch")
            for kw in call.keywords:
                if not (launch and kw.arg == "fn" or kw.arg in LOAD_KWARGS):
                    continue
                for n in ast.walk(kw.value):
                    if isinstance(n, ast.Lambda):
                        queue.append(n)
                    elif isinstance(n, ast.Name) and n.id in local:
                        queue.append(local[n.id])
                    elif (isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name)
                          and n.value.id == "self"):
                        queue += by_name.get(n.attr, [])
    lines: set[int] = set()
    seen: set[int] = set()
    while queue:
        fn = queue.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and _is_np(func.value):
                if func.attr in TRIG_FUNCS:
                    lines.add(call.lineno)
            elif isinstance(func, ast.Name):
                queue += by_name.get(func.id, [])
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "self"):
                queue += by_name.get(func.attr, [])
    return [
        LintIssue(path, line, "launch-trig",
                  "np.exp/cos/sin reachable from a launch closure -- it runs "
                  "on every execution; build the table once (plan time, or "
                  "repro.fftcore.twiddle's cache)")
        for line in sorted(lines) if "launch-trig" not in pragmas.get(line, ())
    ]


def lint_source(path: str, source: str) -> list[LintIssue]:
    """Lint one module's source text; returns sorted issues."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintIssue(path, exc.lineno or 1, "syntax",
                          f"could not parse: {exc.msg}")]
    pragmas = _pragmas(source)
    checker = _Checker(path, source, pragmas)
    checker.visit(tree)
    issues = (checker.issues + _check_future_import(path, tree, pragmas)
              + _check_launch_trig(path, tree, pragmas))
    known = set(RULES)
    for line, names in pragmas.items():
        for name in sorted(names - known):
            issues.append(LintIssue(
                path, line, "unknown-waiver",
                f"'# lint: allow-{name}' names no known rule -- a typo "
                "here silently waives nothing",
            ))
    if checker.tests:
        issues = [i for i in issues if i.rule == "deterministic-time"]
    issues.sort(key=lambda i: (i.path, i.line, i.rule))
    return issues


def lint_file(path: str | Path) -> list[LintIssue]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(str(p), p.read_text(encoding="utf-8"))


def iter_py_files(paths: Sequence[str | Path]) -> Iterable[Path]:
    """Expand files/directories into the .py files beneath them."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Sequence[str | Path]) -> list[LintIssue]:
    """Lint every .py file under the given files/directories."""
    issues: list[LintIssue] = []
    for f in iter_py_files(paths):
        issues.extend(lint_file(f))
    return issues
