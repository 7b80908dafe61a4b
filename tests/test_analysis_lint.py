"""The AST lint pass: every rule bad/good, pragmas, and a clean tree."""

import os

from repro.analysis.lint import LintIssue, lint_paths, lint_source

HDR = "from __future__ import annotations\n"


def rules(src, path="src/repro/util/x.py"):
    return [i.rule for i in lint_source(path, src)]


class TestFutureAnnotations:
    def test_missing_flagged(self):
        assert rules("x = 1\n") == ["future-annotations"]

    def test_present_ok(self):
        assert rules(HDR + "x = 1\n") == []

    def test_docstring_then_import_ok(self):
        assert rules('"""doc."""\n' + HDR) == []

    def test_empty_module_ok(self):
        assert rules("") == []
        assert rules('"""doc only."""\n') == []

    def test_pragma_waives(self):
        assert rules("# lint: allow-future-annotations\nx = 1\n") == []


class TestBareExcept:
    def test_bare_flagged(self):
        src = HDR + "try:\n    pass\nexcept:\n    pass\n"
        assert rules(src) == ["bare-except"]

    def test_typed_ok(self):
        src = HDR + "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert rules(src) == []

    def test_pragma_waives(self):
        src = HDR + "try:\n    pass\nexcept:  # lint: allow-bare-except\n    pass\n"
        assert rules(src) == []


class TestMutableDefault:
    def test_literal_list_flagged(self):
        assert rules(HDR + "def f(a=[]):\n    pass\n") == ["mutable-default"]

    def test_dict_call_flagged(self):
        assert rules(HDR + "def f(a=dict()):\n    pass\n") == ["mutable-default"]

    def test_kwonly_flagged(self):
        assert rules(HDR + "def f(*, a={}):\n    pass\n") == ["mutable-default"]

    def test_none_ok(self):
        assert rules(HDR + "def f(a=None, b=(), c=3):\n    pass\n") == []


class TestNpFftContainment:
    SRC = HDR + "import numpy as np\ny = np.fft.fft(x)\n"

    def test_flagged_outside_fftcore(self):
        assert rules(self.SRC, "src/repro/util/x.py") == ["np-fft"]

    def test_allowed_in_fftcore(self):
        assert rules(self.SRC, "src/repro/fftcore/oracle.py") == []

    def test_numpy_alias_flagged(self):
        src = HDR + "import numpy\ny = numpy.fft.ifft(x)\n"
        assert rules(src, "src/repro/dfft/x.py") == ["np-fft"]

    def test_mutant_put_back_in_the_plan_is_caught_by_this_rule_only(self):
        """The ``numpy`` fast path of LocalFFTPlan, re-seeded: inside
        ``repro.fftcore`` but not the oracle module."""
        import repro.fftcore.plan as plan

        src = open(plan.__file__).read()
        assert rules(src, "src/repro/fftcore/plan.py") == []
        mutant = src.replace(
            "out = self.kernel(moved.astype(self.dtype, copy=False), sign=sign)",
            "out = np.fft.fft(moved) if sign < 0 else self.kernel(moved, sign=sign)")
        assert mutant != src
        assert rules(mutant, "src/repro/fftcore/plan.py") == ["np-fft"]


class TestDtypeDiscipline:
    KP = "src/repro/core/x.py"  # a kernel path

    def test_bare_complex128_flagged_in_kernel_path(self):
        src = HDR + "import numpy as np\na = np.complex128\n"
        assert rules(src, self.KP) == ["dtype-discipline"]

    def test_complex128_ok_outside_kernel_path(self):
        src = HDR + "import numpy as np\na = np.complex128\n"
        assert rules(src, "src/repro/model/x.py") == []

    def test_complex64_alternative_same_statement_ok(self):
        src = (HDR + "import numpy as np\n"
               "a = np.complex64 if half else np.complex128\n")
        assert rules(src, self.KP) == []

    def test_alloc_without_dtype_flagged(self):
        src = HDR + "import numpy as np\na = np.zeros(n)\n"
        assert rules(src, self.KP) == ["dtype-discipline"]

    def test_alloc_with_dtype_kwarg_ok(self):
        src = HDR + "import numpy as np\na = np.empty(n, dtype=np.float64)\n"
        assert rules(src, self.KP) == []

    def test_alloc_with_positional_dtype_ok(self):
        src = HDR + "import numpy as np\na = np.zeros(n, np.float32)\n"
        assert rules(src, self.KP) == []

    def test_pragma_waives(self):
        src = (HDR + "import numpy as np\n"
               "a = np.zeros(n)  # lint: allow-dtype-discipline\n")
        assert rules(src, self.KP) == []


class TestLaunchDeclares:
    GOOD = HDR + "ev = cl.launch(g, 'k', 'gemm', f, m, dt, reads=['x'], writes=['y'])\n"

    def test_missing_both_flagged(self):
        src = HDR + "ev = cl.launch(g, 'k', 'gemm', f, m, dt)\n"
        assert rules(src) == ["launch-declares"]

    def test_missing_one_flagged(self):
        src = HDR + "ev = cl.sendrecv(a, b, n, 'msg', reads=['x'])\n"
        assert rules(src) == ["launch-declares"]

    def test_both_present_ok(self):
        assert rules(self.GOOD) == []

    def test_collectives_covered(self):
        src = HDR + "evs = cl.alltoall(n, 'a2a')\nevs = cl.allgather(n, 'ag')\n"
        assert rules(src) == ["launch-declares", "launch-declares"]

    def test_unrelated_name_ok(self):
        # only method calls named like comm primitives are checked
        assert rules(HDR + "rocket.launch()\n") == ["launch-declares"]
        assert rules(HDR + "launch()\n") == []


class TestLaunchTrig:
    """No table-building transcendental may be reachable from a launch
    closure: the closure runs on every execution of the plan."""

    KP = "src/repro/dfft/x.py"  # a pipeline path
    LAUNCH = ("        cl.launch(g, name='k', fn=data_fn if g == 0 else None,\n"
              "                  reads=['x'], writes=['x'])\n")
    DIRECT = (HDR + "import numpy as np\n"
              "class Plan:\n"
              "    def stage(self, cl, g):\n"
              "        def data_fn(c):\n"
              "            c.dev(g)['x'] = c.dev(g)['x'] * np.exp(self.phase)\n"
              + LAUNCH)
    VIA_METHOD = (HDR + "import numpy as np\n"
                  "class Plan:\n"
                  "    def _twiddle(self, g):\n"
                  "        return np.cos(g) + 1j * np.sin(g)\n"
                  "    def stage(self, cl, g):\n"
                  "        def data_fn(c):\n"
                  "            c.dev(g)['x'] = c.dev(g)['x'] * self._twiddle(g)\n"
                  + LAUNCH)
    PLAN_TIME = (HDR + "import numpy as np\n"
                 "class Plan:\n"
                 "    def stage(self, cl, g):\n"
                 "        w = np.exp(self.phase)\n"
                 "        def data_fn(c):\n"
                 "            c.dev(g)['x'] = c.dev(g)['x'] * w\n"
                 + LAUNCH)

    def test_trig_in_closure_flagged(self):
        assert rules(self.DIRECT, self.KP) == ["launch-trig"]

    def test_trig_in_method_called_from_closure_flagged(self):
        issues = lint_source(self.KP, self.VIA_METHOD)
        assert [(i.rule, i.line) for i in issues] == [("launch-trig", 5)]

    def test_lambda_closure_flagged(self):
        src = (HDR + "import numpy as np\n"
               "cl.launch(0, name='k', fn=lambda c: np.sin(c.t), reads=[], writes=[])\n")
        assert rules(src, self.KP) == []  # module level: no enclosing plan method
        src = (HDR + "import numpy as np\ndef stage(cl):\n"
               "    cl.launch(0, name='k', fn=lambda c: np.sin(c.t), reads=[], writes=[])\n")
        assert rules(src, self.KP) == ["launch-trig"]

    def test_table_built_at_plan_time_ok(self):
        assert rules(self.PLAN_TIME, self.KP) == []

    def test_only_pipeline_paths(self):
        assert rules(self.DIRECT, "src/repro/nufft/x.py") == []

    def test_mutant_of_shipped_six_step_caught_by_this_rule_only(self):
        """Seeded mutant: put the per-op exponential back into the
        shipped six-step twiddle.  Every other rule stays silent."""
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "src", "repro", "dfft", "fft1d.py")
        with open(path, encoding="utf-8") as fh:
            shipped = fh.read()
        cached = "twiddle_block(self.N, rows, cols, -1, self.dtype)"
        per_op = ("np.exp(-2j * np.pi * np.outer(np.arange(rows), "
                  "np.arange(cols)) / self.N)")
        assert shipped.count(cached) == 1
        assert lint_source("src/repro/dfft/fft1d.py", shipped) == []
        mutant = lint_source("src/repro/dfft/fft1d.py",
                             shipped.replace(cached, per_op))
        assert [i.rule for i in mutant] == ["launch-trig"]


class TestMachinery:
    def test_syntax_error_reported_not_raised(self):
        issues = lint_source("src/repro/x.py", "def f(:\n")
        assert [i.rule for i in issues] == ["syntax"]

    def test_issue_str_is_clickable(self):
        s = str(LintIssue("src/a.py", 3, "np-fft", "msg"))
        assert s.startswith("src/a.py:3: ")

    def test_issues_sorted_by_line(self):
        src = "try:\n    pass\nexcept:\n    pass\ndef f(a=[]):\n    pass\n"
        issues = lint_source("src/repro/util/x.py", src)
        assert [i.line for i in issues] == sorted(i.line for i in issues)


def test_shipped_tree_is_clean():
    """The acceptance gate: the whole src tree lints clean."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    assert lint_paths([os.path.normpath(root)]) == []


class TestServePlanCache:
    CREATE = HDR + "plan = FmmFftPlan.create(N=16, P=4, ML=2, B=2, Q=4)\n"
    CALL = HDR + "plan = FmmFftPlan(16, 4)\n"

    def test_create_flagged_in_serve(self):
        assert rules(self.CREATE, "src/repro/serve/scheduler.py") == [
            "serve-plan-cache"
        ]

    def test_direct_construction_flagged_in_serve(self):
        assert rules(self.CALL, "src/repro/serve/batcher.py") == [
            "serve-plan-cache"
        ]

    def test_cache_module_exempt(self):
        assert rules(self.CREATE, "src/repro/serve/cache.py") == []

    def test_non_serve_paths_exempt(self):
        assert rules(self.CREATE, "src/repro/core/api.py") == []
        assert rules(self.CREATE, "src/repro/model/search.py") == []

    def test_pragma_waives(self):
        src = HDR + ("plan = FmmFftPlan.create(N=16)"
                     "  # lint: allow-serve-plan-cache\n")
        assert rules(src, "src/repro/serve/scheduler.py") == []

    def test_unrelated_factory_ok(self):
        src = HDR + "plan = PlanCacheFmmFftPlanish.create(N=16)\n"
        assert rules(src, "src/repro/serve/scheduler.py") == []


class TestFaultInjectionSite:
    RAISE = HDR + 'raise CommFailure("a2a", time=0.0)\n'
    DRAW = HDR + 'out = inj.message_outcome(0, 1, "m", 0.5)\n'
    DRAW_COLL = HDR + 'out = inj.collective_outcome("a2a", 0.5)\n'

    def test_commfailure_flagged_outside_allowed_layers(self):
        assert rules(self.RAISE, "src/repro/serve/scheduler.py") == [
            "fault-injection-site"
        ]
        assert rules(self.RAISE, "src/repro/dfft/plan.py") == [
            "fault-injection-site"
        ]
        # the comm layer lost its fault gate: the engine raises
        assert rules(self.RAISE, "src/repro/comm/api.py") == [
            "fault-injection-site"
        ]

    def test_outcome_draws_flagged_outside_allowed_layers(self):
        assert rules(self.DRAW, "src/repro/serve/scheduler.py") == [
            "fault-injection-site"
        ]
        assert rules(self.DRAW_COLL, "src/repro/core/api.py") == [
            "fault-injection-site"
        ]
        assert rules(self.DRAW, "src/repro/comm/api.py") == [
            "fault-injection-site"
        ]

    def test_allowed_layers_exempt(self):
        for path in ("src/repro/faults/injector.py",
                     "src/repro/machine/cluster.py"):
            assert rules(self.RAISE, path) == []
            assert rules(self.DRAW, path) == []

    def test_pragma_waives(self):
        src = HDR + ('raise CommFailure("a2a", time=0.0)'
                     "  # lint: allow-fault-injection-site\n")
        assert rules(src, "src/repro/serve/scheduler.py") == []

    def test_unrelated_attribute_ok(self):
        src = HDR + "out = report.outcome(0)\nx = CommFailureReport()\n"
        assert rules(src, "src/repro/serve/scheduler.py") == []


class TestDeterministicTime:
    """Wall clocks and unseeded randomness break replay determinism."""

    PATH = "src/repro/serve/x.py"

    def det(self, src, path=PATH):
        return [i.rule for i in lint_source(path, HDR + src)
                if i.rule == "deterministic-time"]

    def test_wall_clock_flagged(self):
        assert self.det("t = time.time()\n")
        assert self.det("t = time.time_ns()\n")

    def test_perf_counter_ok(self):
        # harness timing is fine; only the wall clock breaks replay
        assert not self.det("t = time.perf_counter()\n")

    def test_datetime_flagged(self):
        assert self.det("t = datetime.now()\n")
        assert self.det("t = datetime.datetime.utcnow()\n")
        assert self.det("d = date.today()\n")

    def test_numpy_global_rng_flagged(self):
        assert self.det("x = np.random.rand(3)\n")
        assert self.det("np.random.seed(0)\n")
        assert self.det("x = np.random.normal(size=4)\n")

    def test_unseeded_default_rng_flagged(self):
        assert self.det("rng = np.random.default_rng()\n")
        assert self.det("rng = np.random.default_rng(None)\n")
        assert self.det("rng = np.random.default_rng(seed=None)\n")

    def test_seeded_default_rng_ok(self):
        assert not self.det("rng = np.random.default_rng(7)\n")
        assert not self.det("rng = np.random.default_rng(seed)\n")
        assert not self.det("rng = np.random.default_rng(seed=cfg.seed)\n")

    def test_stdlib_random_flagged(self):
        assert self.det("x = random.random()\n")
        assert self.det("random.shuffle(xs)\n")
        assert self.det("r = random.Random()\n")

    def test_seeded_stdlib_random_ok(self):
        assert not self.det("r = random.Random(3)\n")

    def test_generator_method_ok(self):
        assert not self.det("x = rng.random()\n")

    def test_prng_module_and_benchmarks_exempt(self):
        assert not self.det("x = np.random.rand(3)\n",
                            path="src/repro/util/prng.py")
        assert not self.det("t = time.time()\n",
                            path="benchmarks/bench_fft.py")

    def test_pragma_waives(self):
        src = "t = time.time()  # lint: allow-deterministic-time\n"
        assert not self.det(src)


class TestDeterministicGate:
    """The ``tests/`` twin: the tier-1 gate runs one derandomized,
    database-less hypothesis profile and seeded generators only."""

    T = "tests/test_x.py"

    @staticmethod
    def lint(src, path):
        return [i.rule for i in lint_source(path, src)]

    def test_settings_may_not_undo_the_profile(self):
        for kw in ("derandomize=False", "derandomize=flag",
                   "database=DirectoryBasedExampleDatabase('.h')"):
            src = f"@settings(max_examples=5, {kw})\ndef test_x():\n    pass\n"
            assert self.lint(src, self.T) == ["deterministic-time"], kw

    def test_settings_within_the_profile_ok(self):
        src = ("@settings(deadline=None, max_examples=5, derandomize=True, "
               "database=None)\ndef test_x():\n    pass\n")
        assert self.lint(src, self.T) == []

    def test_unseeded_rng_flagged_seeded_ok(self):
        assert self.lint("rng = np.random.default_rng()\n", self.T) == ["deterministic-time"]
        assert self.lint("rng = np.random.default_rng(7)\n", self.T) == []

    def test_only_this_rule_applies_to_tests(self):
        # no __future__ import, np.fft as the oracle, a bare OpRecord: src rules
        src = "y = np.fft.fft(x)\nr = OpRecord(device=0)\n"
        assert self.lint(src, self.T) == []
        assert "np-fft" in self.lint(src, "src/repro/util/x.py")

    def test_settings_rule_is_for_tests_only(self):
        src = HDR + "s = settings(derandomize=False)\n"
        assert self.lint(src, "src/repro/util/x.py") == []

    def test_suite_is_clean(self):
        here = os.path.dirname(os.path.abspath(__file__))
        assert lint_paths([here]) == []


class TestTelemetryRegistry:
    COUNTER = HDR + "s = CounterSeries('comm.bytes')\n"
    GAUGE = HDR + "s = GaugeSeries('serve.queue_depth')\n"
    HIST = HDR + "s = telemetry.HistogramSeries('serve.batch_latency')\n"

    def test_direct_construction_flagged(self):
        for src in (self.COUNTER, self.GAUGE, self.HIST):
            assert rules(src, "src/repro/serve/scheduler.py") == [
                "telemetry-registry"
            ], src
            assert rules(src, "src/repro/comm/api.py") == [
                "telemetry-registry"
            ], src

    def test_registry_module_exempt(self):
        for src in (self.COUNTER, self.GAUGE, self.HIST):
            assert rules(src, "src/repro/obs/telemetry.py") == [], src

    def test_registry_lookup_ok(self):
        src = HDR + "s = reg.counter('comm.bytes', {'link_class': 'direct'})\n"
        assert rules(src, "src/repro/comm/api.py") == []

    def test_unrelated_names_ok(self):
        # collections.Counter and lookalike names must not trip it
        src = HDR + "from collections import Counter\nc = Counter()\n"
        assert rules(src, "src/repro/machine/topology.py") == []
        src = HDR + "x = MyCounterSeriesFactory()\n"
        assert rules(src, "src/repro/serve/queue.py") == []

    def test_pragma_waives(self):
        src = HDR + ("s = CounterSeries('x.y')"
                     "  # lint: allow-telemetry-registry\n")
        assert rules(src, "src/repro/serve/scheduler.py") == []


class TestPerRuleWaivers:
    """`# lint: allow-<rule>` suppresses exactly that rule on exactly
    that line — a waiver elsewhere, or for another rule, changes nothing."""

    def waiver_case(self, bad_line, rule, path="src/repro/util/x.py",
                    tail=""):
        """The line must flag bare, pass waived, and flag again when the
        waiver sits on a different line."""
        bare = HDR + bad_line + "\n" + tail
        assert [i.rule for i in lint_source(path, bare)] == [rule]
        waived = HDR + bad_line + f"  # lint: allow-{rule}\n" + tail
        assert lint_source(path, waived) == []
        elsewhere = HDR + bad_line + "\n" + tail + f"# lint: allow-{rule}\n"
        assert [i.rule for i in lint_source(path, elsewhere)] == [rule]

    def test_future_annotations(self):
        # line-1 rule: the pragma must sit on line 1
        assert lint_source("x.py", "x = 1  # lint: allow-future-annotations\n") == []
        got = lint_source("x.py", "x = 1\n# lint: allow-future-annotations\n")
        assert [i.rule for i in got] == ["future-annotations"]

    def test_bare_except(self):
        src = HDR + "try:\n    pass\nexcept:  # lint: allow-bare-except\n    pass\n"
        assert lint_source("x.py", src) == []
        src = HDR + "# lint: allow-bare-except\ntry:\n    pass\nexcept:\n    pass\n"
        assert [i.rule for i in lint_source("x.py", src)] == ["bare-except"]

    def test_mutable_default(self):
        self.waiver_case("def f(a=[]):", "mutable-default",
                         tail="    pass\n")

    def test_np_fft(self):
        self.waiver_case("y = np.fft.fft(x)", "np-fft")

    def test_dtype_discipline(self):
        self.waiver_case("a = np.zeros(4)", "dtype-discipline",
                         path="src/repro/core/x.py")

    def test_launch_declares(self):
        self.waiver_case("cl.launch(op)", "launch-declares")

    def test_launch_trig(self):
        src = TestLaunchTrig.DIRECT
        bad = "            c.dev(g)['x'] = c.dev(g)['x'] * np.exp(self.phase)"
        assert rules(src.replace(bad, bad + "  # lint: allow-launch-trig"),
                     TestLaunchTrig.KP) == []
        assert rules(src + "# lint: allow-launch-trig\n",
                     TestLaunchTrig.KP) == ["launch-trig"]

    def test_raw_comm(self):
        self.waiver_case("cl.sendrecv(0, 1, reads=(), writes=('b',))",
                         "raw-comm", path="src/repro/dfft/x.py")

    def test_serve_plan_cache(self):
        self.waiver_case("p = FmmFftPlan(n=4)", "serve-plan-cache",
                         path="src/repro/serve/x.py")

    def test_fault_injection_site(self):
        self.waiver_case("e = CommFailure('boom')", "fault-injection-site",
                         path="src/repro/serve/x.py")

    def test_deterministic_time(self):
        self.waiver_case("t = time.time()", "deterministic-time",
                         path="src/repro/serve/x.py")

    def test_telemetry_registry(self):
        self.waiver_case("s = GaugeSeries('q.depth')", "telemetry-registry",
                         path="src/repro/serve/x.py")

    def test_engine_site(self):
        self.waiver_case("r = OpRecord(device=0)", "engine-site",
                         path="src/repro/serve/x.py")


class TestUnknownWaiver:
    def test_unknown_waiver_is_itself_an_issue(self):
        got = lint_source("x.py", HDR + "x = 1  # lint: allow-bogus-rule\n")
        assert [i.rule for i in got] == ["unknown-waiver"]
        assert "allow-bogus-rule" in got[0].message

    def test_typoed_rule_does_not_silently_waive(self):
        src = HDR + "try:\n    pass\nexcept:  # lint: allow-bare-excpet\n    pass\n"
        got = sorted(i.rule for i in lint_source("x.py", src))
        assert got == ["bare-except", "unknown-waiver"]

    def test_known_waivers_are_not_flagged(self):
        from repro.analysis.lint import RULES
        for rule in RULES:
            src = HDR + f"x = 1  # lint: allow-{rule}\n"
            assert lint_source("x.py", src) == []
