"""The pipeline table: one contract over all seven distributed pipelines.

Every row of :data:`repro.pipelines.PIPELINES` (and the 3D FFT's pencil
decomposition) is built by name and held to the same contract:
``stage_in`` / ``run`` / ``finalize`` / ``graph_key`` / ``ns``.  That the
table's ``build`` and ``simulate`` issue exactly the schedule of a
hand-constructed pipeline is asserted, per comm algorithm, by
``tests/test_ir_bit_identity.py::test_schedule_bit_identity``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import comm, pipelines
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft import (
    Distributed1DFFT,
    Distributed2DFFT,
    Distributed3DFFT,
    DistributedRealFFT,
)
from repro.fftcore.oracle import reference_fft, reference_rfft
from repro.dfft.layout import BlockRows
from repro.dfft.transpose import distributed_transpose
from repro.fmm.distributed import DistributedFMM
from repro.fmm.reference import dense_apply_all
from repro.ir import ReplayExecutor, capture_built, capture_pipeline, scratch_replay
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.nufft.transforms import nudft2_direct
from repro.util.validation import ParameterError

N = 1 << 10
SPEC = p100_nvlink_node(2)

VARIANTS = [pytest.param(name, {}, id=name) for name in pipelines.NAMES] + [
    pytest.param("fft3d", {"decomposition": "pencil"}, id="fft3d-pencil")]


def _cluster(name, execute=True):
    return VirtualCluster(pipelines.machine_for(name, SPEC), execute=execute)


def _reference(name, pipe, args):
    """The pipeline's result from an independent oracle."""
    if name in ("fft1d", "fmmfft"):
        return reference_fft(args[0])
    if name == "fft2d":  # output B[p, m]: the natural-order vector, reshaped
        return reference_fft(reference_fft(args[0], axis=0), axis=1).T
    if name == "rfft":
        return reference_rfft(args[0])
    if name == "fft3d":
        out = args[0]
        for axis in range(3):
            out = reference_fft(out, axis=axis)
        return out
    if name == "fmm":
        return dense_apply_all(args[0], pipe.ops.M, pipe.ops.P)[0]
    return nudft2_direct(*args)


def _result(name, pipe, out):
    """``run``'s return value as the tensor ``finalize`` gathers."""
    return pipe.finalize() if name == "fmm" else out  # fmm: (events, r)


@pytest.mark.parametrize("name,params", VARIANTS)
class TestContract:
    def test_run_matches_the_oracle_and_finalize(self, name, params):
        pipe = pipelines.build(name, _cluster(name), N, params=params)
        args = pipelines.inputs(pipe, seed=1)
        out = _result(name, pipe, pipe.run(*args))
        ref = _reference(name, pipe, args)
        assert np.linalg.norm(out - ref) <= 1e-9 * np.linalg.norm(ref)
        np.testing.assert_array_equal(pipe.finalize(), out)

    def test_staged_replay_equals_run(self, name, params):
        """build -> stage_in -> (replayed) run -> finalize == run(x)."""
        pipe = pipelines.build(name, _cluster(name), N, params=params)
        graph, _ = capture_built(pipe, *pipelines.inputs(pipe, seed=1))
        fresh = pipelines.inputs(pipe, seed=2)
        pipe.stage_in(*fresh)
        ReplayExecutor(graph, pipe.cl).run()
        staged = np.asarray(pipe.finalize()).copy()
        twin = pipelines.build(name, _cluster(name), N, params=params)
        out = _result(name, twin, twin.run(*fresh))
        assert staged.tobytes() == np.asarray(out).tobytes()

    def test_graph_key_names_the_configuration(self, name, params):
        def key(n=N, **kw):
            return pipelines.build(name, _cluster(name, execute=False), n,
                                   params=params, **kw).graph_key()

        assert key() == key() and hash(key()) == hash(key())
        assert key()[0] == name
        assert key(2 * N) != key()
        if name != "nufft":  # always complex128, no collective
            assert key(dtype="complex64") != key()
            assert key(comm_algorithm="ring") != key()

    def test_capture_certify_replay_ledger_identical(self, name, params):
        cl = _cluster(name, execute=False)
        pipe = pipelines.build(name, cl, N, params=params)
        graph, _ = capture_built(pipe)
        assert graph.meta["pipeline"] == name
        assert graph.meta["buffer_prefix"] == pipe.ns
        assert graph.certify(cl.spec)["hazards"] == 0
        replayed = scratch_replay(graph, cl.spec)
        assert replayed.ledger.fingerprint() == cl.ledger.fingerprint()
        assert replayed.comm_log == cl.comm_log


class TestTable:
    def test_capture_pipeline_maps_the_real_dtype(self):
        graph, _ = capture_pipeline(
            "rfft", _cluster("rfft", execute=False), N, dtype="complex64")
        assert graph.meta["key"][:2] == ("rfft", "float32")
        assert "complex64" in graph.meta["key"]

    def test_simulate_returns_the_run_cluster(self):
        cl = pipelines.simulate("nufft", 256, SPEC)
        assert cl.G == 1 and not cl.execute and len(cl.ledger) == 3
        assert pipelines.simulate("fft1d", N, SPEC).wall_time() > 0.0

    def test_params_reach_the_pipeline(self):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        ff = pipelines.build("fmmfft", cl, 1 << 18,
                             params=dict(P=64, ML=32, B=3, Q=8, chunks=2,
                                         fuse_post=False))
        assert ff.graph_key() == (
            "fmmfft", 1 << 18, 64, 32, 3, 8, 2, "complex128", "bulk", 2, False)


def _cl(G=2, execute=True):
    return VirtualCluster(p100_nvlink_node(G), execute=execute)


_TEXT = np.array(list("abcdefgh" * 8))
_Z = np.ones(64, dtype=np.complex128)

def _geometry_plan():
    return FmmFftPlan.create(N=4096, P=8, ML=16, B=3, Q=16, G=2,
                             build_operators=False)


#: constructor -> a call with ``batch=b`` on a timing-only cluster
_BATCH_DOORS = {
    "DistributedFMM": lambda b: DistributedFMM(
        _geometry_plan().geometry, _cl(execute=False), batch=b),
    "FmmFftDistributed": lambda b: FmmFftDistributed(
        _geometry_plan(), _cl(execute=False), batch=b),
    "Distributed2DFFT": lambda b: Distributed2DFFT(
        8, 8, _cl(execute=False), batch=b),
    "distributed_transpose": lambda b: distributed_transpose(
        _cl(execute=False), "a", "a", BlockRows(8, 8, 2), "complex128", batch=b),
}

#: comm collective -> a call on ``cl`` with payload ``p``
_PAYLOAD_DOORS = {
    "alltoall-bulk": lambda cl, p: comm.alltoall(cl, p, "t", writes=["y"]),
    "alltoall-ring": lambda cl, p: comm.alltoall(
        cl, p, "t", writes=["y"], algorithm="ring", chunks=2),
    "alltoall-auto": lambda cl, p: comm.alltoall(
        cl, p, "t", writes=["y"], algorithm="auto"),
    "allgather-bulk": lambda cl, p: comm.allgather(cl, p, "g", writes=["z"]),
    "allgather-direct": lambda cl, p: comm.allgather(
        cl, p, "g", writes=["z"], algorithm="direct"),
    "grouped": lambda cl, p: comm.grouped_alltoall(
        cl, p, "g", groups=[[0, 1], [2, 3]]),
}

#: case -> (call, the offending value as the message must name it)
BAD_INPUT = {
    **{f"{door}-batch={b!r}": (lambda call=call, b=b: call(b), repr(b))
       for door, call in _BATCH_DOORS.items()
       for b in (0, -2, True, 2.5, "2")},
    **{f"{cls.__name__}-chunks={c!r}":
       (lambda cls=cls, a=a, c=c: cls(*a, _cl(), chunks=c), repr(c))
       for cls, a in ((Distributed1DFFT, (64,)), (Distributed2DFFT, (8, 8)),
                      (DistributedRealFFT, (64,)))
       for c in (0, -3, True, 2.5, "4")},
    **{f"build-{name}-comm": (
        lambda name=name: pipelines.build(
            name, _cl(1 if name == "nufft" else 2), 64, comm_algorithm="warp"),
        "'warp'") for name in pipelines.NAMES},
    "build-unknown-name": (lambda: pipelines.build("warp", _cl(), 64), "'warp'"),
    "build-unknown-param": (
        lambda: pipelines.build("fft1d", _cl(), 64, params={"fuse_post": 1}),
        "fuse_post"),
    "fft1d-text": (lambda: Distributed1DFFT(64, _cl()).run(_TEXT), "<U1"),
    "fft2d-text": (lambda: Distributed2DFFT(8, 8, _cl()).run(_TEXT), "<U1"),
    "fft2d-size": (lambda: Distributed2DFFT(8, 8, _cl()).run(_Z[:48]), "(48,)"),
    "fft3d-size": (
        lambda: Distributed3DFFT(4, 4, 4, _cl()).run(_Z[:48]), "(48,)"),
    "fft2d-after": (
        lambda: Distributed2DFFT(8, 8, _cl(execute=False)).run(after=[None]),
        "got 1"),
    "rfft-complex": (
        lambda: DistributedRealFFT(64, _cl()).run(_Z), "complex128"),
    **{f"comm-{door}-payload={p!r}": (
        lambda call=call, p=p: call(_cl(8, execute=False), p), repr(p))
       for door, call in _PAYLOAD_DOORS.items()
       for p in ("8", None, True, [8.0])},
}


class TestBadInputDoors:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_parameter_error_names_the_value(self, case):
        call, value = BAD_INPUT[case]
        with pytest.raises(ParameterError, match=re.escape(value)):
            call()
