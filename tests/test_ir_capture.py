"""Capture: the tape of an eager run mirrors that run exactly.

Opening the tape must be invisible — the run appends the same ledger
the plain pipeline would — while the graph it yields accounts for every
record, resolves every dependency to its true producer (by name, never
by timestamp), and refuses anything it cannot replay truthfully
(foreign events, producer-less synthetics).  A fault injector on the
cluster is no reason to refuse: the tape holds fault-free prices and
the faults stay with the run (``tests/test_ir_faults.py`` has the full
faults x replay matrix).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, LinkFlap
from repro.ir import (
    CaptureError,
    ReplayExecutor,
    capture,
    capture_built,
    capture_pipeline,
)
from repro.ir.graph import OP_BARRIER, OP_COLL, OP_LAUNCH, OP_LOG
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.machine.stream import Event
from repro.pipelines import NAMES as PIPELINE_NAMES
from repro.pipelines import build, machine_for
from repro.util.validation import ParameterError

N = 1 << 12
SPEC = p100_nvlink_node(2)


def _cluster(name, execute=False):
    return VirtualCluster(machine_for(name, SPEC), execute=execute)


class TestGraphStructure:
    def test_every_pipeline_captures(self):
        for name in PIPELINE_NAMES:
            cl = _cluster(name)
            graph, _ = capture_pipeline(name, cl, N)
            graph.validate()
            assert graph.meta["pipeline"] == name
            assert graph.meta["G"] == cl.G
            assert not graph.meta["executed"]
            assert graph.nodes, name

    def test_records_account_for_the_whole_ledger(self):
        for name in PIPELINE_NAMES:
            cl = _cluster(name)
            graph, _ = capture_pipeline(name, cl, N)
            assert graph.num_records == len(cl.ledger), name

    def test_comm_calls_mirror_the_comm_log(self):
        cl = _cluster("fmmfft")
        graph, _ = capture_pipeline("fmmfft", cl, N)
        assert graph.comm_calls() == list(cl.comm_log)
        assert len([n for n in graph.nodes if n.op == OP_LOG]) == len(
            cl.comm_log
        )

    def test_deps_point_at_captured_producers(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        for i, n in enumerate(graph.nodes):
            for idx, sub, _ in n.deps:
                assert idx < i
                if idx >= 0 and sub >= 0:
                    assert graph.nodes[idx].op == OP_COLL

    def test_launches_carry_declares_and_regions(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        launches = [n for n in graph.nodes if n.op == OP_LAUNCH]
        assert launches
        for n in launches:
            assert n.reads or n.writes
            assert n.region.startswith("fft1d")

    def test_summary_shape(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        s = graph.summary()
        assert s["pipeline"] == "fft1d"
        assert s["nodes"] == len(graph.nodes)
        assert s["records_per_replay"] == graph.num_records
        assert s["buffers"] > 0
        assert s["peak_live_bytes"] is None  # not yet certified

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ParameterError, match="pipeline must be one of"):
            capture_pipeline("warp", _cluster("fft1d"), N)


class TestCaptureIsTransparent:
    def test_capture_run_ledger_equals_plain_run(self):
        from repro.dfft.fft1d import Distributed1DFFT

        plain = VirtualCluster(SPEC, execute=False)
        Distributed1DFFT(N, plain, comm_algorithm="bulk").run()
        captured = VirtualCluster(SPEC, execute=False)
        capture_pipeline("fft1d", captured, N, comm_algorithm="bulk")
        assert captured.ledger.fingerprint() == plain.ledger.fingerprint()

    def test_execute_capture_returns_pipeline_result(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cl = VirtualCluster(SPEC, execute=True)
        graph, result = capture_built(build("fft1d", cl, N), x)
        assert graph.meta["executed"]
        np.testing.assert_allclose(result, np.fft.fft(x), rtol=1e-9)


    def test_fault_cluster_captures_fault_free_steps(self):
        from repro.dfft.fft1d import Distributed1DFFT

        def flapping():
            inj = FaultInjector(SPEC, scheduled=(LinkFlap(0, 1, 0.0, 40e-6),))
            return VirtualCluster(SPEC, execute=False, faults=inj)

        plain = flapping()
        Distributed1DFFT(N, plain, comm_algorithm="ring").run()
        captured = flapping()
        graph, _ = capture_pipeline("fft1d", captured, N, comm_algorithm="ring")
        # the capture run is the faulty eager run ...
        assert captured.ledger.fingerprint() == plain.ledger.fingerprint()
        fails = [r for r in captured.ledger if r.name.endswith("!fail")]
        assert fails
        # ... and the graph is what a healthy capture would have taped
        healthy = VirtualCluster(SPEC, execute=False)
        clean, _ = capture_pipeline("fft1d", healthy, N, comm_algorithm="ring")
        assert graph.num_records == len(captured.ledger) - len(fails)
        assert ([(n.op, n.name, n.duration, n.deps) for n in graph.nodes]
                == [(n.op, n.name, n.duration, n.deps) for n in clean.nodes])
        assert graph.certify(SPEC)["hazards"] == 0


class TestCaptureRefusals:
    def test_foreign_event_refused(self):
        cl = VirtualCluster(SPEC, execute=False)
        # a real event produced *before* capture starts: its uid names
        # a producer the graph does not contain
        ev = cl.launch(0, "pre", "copy", flops=0.0, mops=8.0,
                       dtype=np.complex128, reads=[], writes=["pre.buf"])

        def run(c):
            c.launch(0, "inside", "copy", flops=0.0, mops=8.0,
                     dtype=np.complex128, after=[ev],
                     reads=["pre.buf"], writes=["in.buf"])

        with pytest.raises(CaptureError):
            capture(run, cl)

    def test_event_of_an_earlier_capture_refused(self):
        cl = VirtualCluster(SPEC, execute=False)
        kept = {}

        def first(c):
            kept["real"] = _copy(c, 0, "a")
            kept["synthetic"] = c.barrier()

        capture(first, cl)
        cl.reset_time()  # uids restart: only the producer name tells
        for stale in kept.values():
            with pytest.raises(CaptureError):
                capture(lambda c: _copy(c, 1, "b", after=[stale]), cl)

    def test_producerless_synthetic_refused_but_t0_dropped(self):
        cl = VirtualCluster(SPEC, execute=False)
        with pytest.raises(CaptureError, match="unresolvable synthetic"):
            capture(lambda c: _copy(c, 0, "a", after=[Event(1e-3, "made up")]),
                    cl)
        graph, _ = capture(
            lambda c: _copy(c, 0, "a", after=[Event.zero()]), cl)
        assert graph.nodes[0].deps == ()

    def test_nested_capture_refused_and_tape_closes_on_error(self):
        cl = VirtualCluster(SPEC, execute=False)
        with pytest.raises(CaptureError, match="already open"):
            capture(lambda c: capture(lambda c2: None, c), cl)

        def boom(c):
            raise RuntimeError("pipeline died")

        with pytest.raises(RuntimeError):
            capture(boom, cl)
        graph, _ = capture(lambda c: _copy(c, 0, "a"), cl)
        assert len(graph.nodes) == 1

    def test_validate_rejects_forward_dep(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N)
        bad = graph.nodes[0]
        object.__setattr__(bad, "deps", ((5, -1, True),))
        with pytest.raises(ParameterError, match="does not precede"):
            graph.validate()


def _copy(cl, g, name, after=()):
    return cl.launch(g, name, "copy", flops=0.0, mops=8.0,
                     dtype=np.complex128, after=after,
                     reads=[f"{name}.in"], writes=[f"{name}.out"])


class TestDependenciesNameTheirProducer:
    """Resolution is by producer, never by comparing ``Event.time``."""

    def test_simultaneous_completions_do_not_alias(self):
        # A (dev 0) and B (dev 1) complete at the same instant; C waits
        # on the synthetic comm.halo_exchange builds at G=1 from A's
        # event.  Time matching resolved this to B, the later writer.
        cl = VirtualCluster(SPEC, execute=False)
        rel = Event(0.0, "release")

        def run(c):
            a = _copy(c, 0, "A", after=[rel])
            b = _copy(c, 1, "B")
            assert a.time == b.time
            _copy(c, 1, "C", after=[Event(a.time, "halo", src=a.src)])

        graph, _ = capture(run, cl, release_event=rel)
        A, B, C = graph.nodes
        assert C.deps == ((0, -1, False),)
        # shift A's release: C (queued behind B on device 1) must still
        # start after A, which only the true edge enforces
        cl2 = VirtualCluster(SPEC, execute=False)
        ReplayExecutor(graph, cl2).run(release=5e-3)
        a, b, c = cl2.ledger
        assert a.start == 5e-3 and b.start == 0.0
        assert c.start == a.end > b.end
        assert c.waits == ()  # ordering only: no ghost wait edge

    def test_g1_halo_synthetic_resolves_to_its_producer(self):
        from repro import comm

        cl = VirtualCluster(p100_nvlink_node(1), execute=False)

        def run(c):
            a = _copy(c, 0, "A")
            (halo,) = comm.halo_exchange(c, 64.0, "halo", "A.out", "h",
                                         after=[a])
            assert halo.op == -1 and halo.time == a.time
            (idle,) = comm.halo_exchange(c, 64.0, "halo", "A.out", "h")
            _copy(c, 0, "C", after=[halo, idle])

        graph, _ = capture(run, cl)
        assert graph.nodes[-1].deps == ((0, -1, False),)

    def test_stream_clock_synthetic_names_the_last_step(self):
        cl = VirtualCluster(SPEC, execute=False)

        def run(c):
            c.sendrecv(0, 1, 64.0, "m", reads=["a"], writes=["b"])
            after_msg = c.stream_event(1, "comm.rx", "rx idle")
            c.barrier()
            after_barrier = c.stream_event(1, "comm.rx", "rx idle")
            _copy(c, 0, "C", after=[after_msg, after_barrier])

        graph, _ = capture(run, cl)
        assert graph.nodes[1].op == OP_BARRIER
        assert graph.nodes[2].deps == ((0, -1, False), (1, -1, False))

    def test_collective_events_carry_their_device(self):
        cl = VirtualCluster(SPEC, execute=False)

        def run(c):
            evs = c.alltoall(64.0, "a2a", reads=["a"], writes=["b"])
            _copy(c, 1, "C", after=[evs[1]])

        graph, _ = capture(run, cl)
        assert graph.nodes[0].op == OP_COLL
        assert graph.nodes[1].deps == ((0, 1, True),)
        scratch = VirtualCluster(SPEC, execute=False)
        ReplayExecutor(graph, scratch).run()
        assert scratch.ledger.fingerprint() == cl.ledger.fingerprint()


class TestHarnessCompatibility:
    """A measuring subclass over the public issue methods (what
    ``perf/spans.py`` installs) must still see complete captures."""

    METHODS = ("launch", "host_op", "host_action", "sendrecv",
               "alltoall", "allgather", "barrier")

    def wrapped_cluster_class(self, calls):
        import types

        def issue_method(base):
            def method(self, *args, **kwargs):
                def wrap(fn):
                    def inner(*a, **k):
                        calls["fn"] += 1
                        return fn(*a, **k)
                    return inner

                args = tuple(
                    wrap(a) if isinstance(
                        a, (types.FunctionType, types.MethodType)) else a
                    for a in args)
                if kwargs.get("fn") is not None:
                    kwargs["fn"] = wrap(kwargs["fn"])
                calls[base.__name__] = calls.get(base.__name__, 0) + 1
                return base(self, *args, **kwargs)
            return method

        Wrapped = type("Wrapped", (VirtualCluster,), {})
        for name in self.METHODS:
            setattr(Wrapped, name, issue_method(getattr(VirtualCluster, name)))
        return Wrapped

    @pytest.mark.parametrize("name", PIPELINE_NAMES)
    def test_wrapped_cluster_yields_certifiable_graph(self, name):
        calls = {"fn": 0}
        Wrapped = self.wrapped_cluster_class(calls)
        spec = machine_for(name, SPEC)
        n = 256 if name == "nufft" else N
        cl = Wrapped(spec, execute=True)
        graph, _ = capture_pipeline(name, cl, n)
        assert graph.num_records == len(cl.ledger)
        assert graph.certify(spec)["hazards"] == 0
        assert calls["launch"] > 0 and calls["fn"] > 0
        # the tape holds the wrapped closures: a replay runs them too
        before = calls["fn"]
        ReplayExecutor(graph, cl).run()
        assert calls["fn"] == 2 * before

    def test_entry_points_keep_their_names(self):
        from repro.ir import executor, pipelines
        from repro.serve import Batcher, PlanCache, ServeScheduler

        assert callable(executor.ReplayExecutor.__init__)
        assert callable(executor.ReplayExecutor.run)
        assert callable(pipelines.capture_pipeline)
        assert callable(PlanCache.graph_for) and callable(PlanCache.put_graph)
        sched = ServeScheduler(VirtualCluster(SPEC, execute=False),
                               Batcher(PlanCache(SPEC, autotune=False)))
        assert sched.replayed_batches == 0
        for name in self.METHODS:
            assert callable(getattr(VirtualCluster, name))


class TestGraphKeys:
    def test_key_carries_configuration(self):
        cl = _cluster("fft1d")
        graph, _ = capture_pipeline("fft1d", cl, N, comm_algorithm="ring")
        # (name, N, M, P, dtype, effective chunks, algorithm, G)
        assert graph.meta["key"] == (
            "fft1d", N, 64, 64, "complex128", 1, "ring", 2)

    def test_spec_fingerprint_recorded(self):
        from repro.machine.spec import spec_fingerprint

        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        graph, _ = capture_pipeline("fft1d", cl, N)
        assert graph.meta["spec_fingerprint"] == spec_fingerprint(cl.spec)
