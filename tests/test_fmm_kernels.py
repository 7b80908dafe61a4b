"""The shared FMM kernel set (``repro.fmm.kernels``) behind both drivers.

References are deliberately the slow way round: the dense O(M^2) oracle
for the whole pipeline, and per-stage loops over boxes and offsets that
apply the *math-layout* tensors of ``repro.fmm.operators`` in complex
arithmetic — sharing neither the planar layout, nor the GEMM-layout
operators, nor the windows with the code under test.
"""

import numpy as np
import pytest

from repro.fmm import kernels, operators
from repro.fmm.batched import BatchedFMM
from repro.fmm.distributed import DistributedFMM
from repro.fmm.interaction import COUSINS_EVEN, COUSINS_ODD, base_offsets
from repro.fmm.plan import FmmOperators
from repro.fmm.reference import dense_apply_all
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.util.validation import ParameterError

M, P, ML, B, Q = 256, 4, 16, 2, 16          # L = 4: levels 4 and 3 are hierarchical
N, NB = M * P, M // ML
DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
LAYOUTS = ["contiguous", "transposed", "sliced"]
BATCHES = [(), (3,)]


def _tol(dtype):
    """Rounding of the working precision (the FMM truncation error at
    Q = 16 is below both)."""
    return 2e-5 if np.dtype(dtype) in (np.float32, np.complex64) else 1e-12


def _data(shape, dtype, layout, seed=7):
    """Random data of one logical shape in three memory layouts."""
    rng = np.random.default_rng(seed)

    def draw(shp):
        a = rng.uniform(-1, 1, shp)
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.uniform(-1, 1, shp)
        return a.astype(dtype)

    if layout == "contiguous":
        return draw(shape)
    if layout == "transposed":  # last two axes swapped in memory
        a = draw((*shape[:-2], shape[-1], shape[-2])).swapaxes(-1, -2)
    else:                       # every other element of a wider buffer
        a = draw((*shape[:-1], 2 * shape[-1]))[..., ::2]
    assert a.shape == tuple(shape) and not a.flags.c_contiguous
    return a


def _ops(dtype, G=1):
    return FmmOperators.create(M=M, P=P, ML=ML, B=B, Q=Q, dtype=dtype, G=G)


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


# -- loop references, one per stage (math-layout operators, complex) ---------

def _ref_s2t(S):
    K = operators.s2t_matrix(P, ML, N)  # [p, i, j'] over [b-1 | b | b+1]
    out = np.zeros(S[..., 1:, :, :].shape, dtype=np.result_type(S.dtype, np.float64))
    for b in range(NB):
        tri = np.concatenate([S[..., 1:, (b + s) % NB, :] for s in (-1, 0, 1)], axis=-1)
        out[..., b, :] = np.einsum("pij,...pj->...pi", K, tri)
    return out


def _ref_m2m(child):
    Kmm = operators.m2m_matrix(Q)  # [q, (left k | right k)]
    return (np.einsum("qk,...pbk->...pbq", Kmm[:, :Q], child[..., 0::2, :])
            + np.einsum("qk,...pbk->...pbq", Kmm[:, Q:], child[..., 1::2, :]))


def _ref_m2l_level(level, Mexp):
    K = operators.m2l_level_tensor(level, P, Q, N)  # [p, parity, si, i, j]
    nb = Mexp.shape[-2]
    out = np.zeros(Mexp.shape, dtype=np.result_type(Mexp.dtype, np.float64))
    for b in range(nb):
        for si, s in enumerate(COUSINS_ODD if b % 2 else COUSINS_EVEN):
            out[..., b, :] += np.einsum(
                "pij,...pj->...pi", K[:, b % 2, si], Mexp[..., (b + s) % nb, :])
    return out


def _ref_m2l_base(MB):
    K = operators.m2l_base_tensor(B, P, Q, N)  # [p, si, i, j]
    nb = MB.shape[-2]
    out = np.zeros(MB.shape, dtype=np.result_type(MB.dtype, np.float64))
    for b in range(nb):
        for si, s in enumerate(base_offsets(B)):
            out[..., b, :] += np.einsum("pij,...pj->...pi", K[:, si], MB[..., (b + s) % nb, :])
    return out


def _ref_l2l(parent):
    Kmm = operators.m2m_matrix(Q)
    out = np.empty((*parent.shape[:-2], 2 * parent.shape[-2], Q),
                   dtype=np.result_type(parent.dtype, np.float64))
    out[..., 0::2, :] = np.einsum("qk,...pbq->...pbk", Kmm[:, :Q], parent)
    out[..., 1::2, :] = np.einsum("qk,...pbq->...pbk", Kmm[:, Q:], parent)
    return out


STAGES = {
    # name: (input shape after the batch axes, call, reference)
    "s2m": ((P, NB, ML), lambda f, a: f.s2m(a),
            lambda a: np.einsum("qm,...pbm->...pbq", operators.s2m_matrix(Q, ML), a[..., 1:, :, :])),
    "s2t": ((P, NB, ML), lambda f, a: f.s2t(a), _ref_s2t),
    "m2m": ((P - 1, NB, Q), lambda f, a: f.m2m(a), _ref_m2m),
    "m2l_level": ((P - 1, NB, Q), lambda f, a: f.m2l_level(4, a), lambda a: _ref_m2l_level(4, a)),
    "m2l_base": ((P - 1, 1 << B, Q), lambda f, a: f.m2l_base(a), _ref_m2l_base),
    "reduce": ((P - 1, 1 << B, Q), lambda f, a: f.reduce(a), lambda a: a.sum(axis=(-2, -1))),
    "l2l": ((P - 1, NB // 2, Q), lambda f, a: f.l2l(a), _ref_l2l),
    "l2t": ((P - 1, NB, Q), lambda f, a: f.l2t(a),
            lambda a: np.einsum("qm,...pbq->...pbm", operators.s2m_matrix(Q, ML), a)),
}


@pytest.mark.parametrize("batch", BATCHES, ids=["single", "k3"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
class TestAgainstReferences:
    @pytest.mark.parametrize("stage", STAGES)
    def test_stage(self, stage, dtype, layout, batch):
        shape, call, ref = STAGES[stage]
        a = _data((*batch, *shape), dtype, layout)
        got = call(BatchedFMM(_ops(dtype)), a)
        want = ref(a.astype(np.result_type(dtype, np.float64)))
        assert got.shape == want.shape
        assert got.dtype == np.dtype(dtype)  # real stays real, precision kept
        assert _rel(got, want) < _tol(dtype)

    def test_pipeline(self, dtype, layout, batch):
        S = _data((*batch, P, M), dtype, layout)
        T, r = BatchedFMM(_ops(dtype)).apply(S)
        assert T.shape == S.shape and T.dtype == np.dtype(dtype)
        wide = S.astype(np.result_type(dtype, np.float64))
        for idx in np.ndindex(*batch):
            Tref, rref = dense_apply_all(wide[idx], M, P)
            assert _rel(T[idx], Tref) < _tol(dtype)
            assert _rel(r[idx], rref) < _tol(dtype)


def test_batch_is_bit_identical_to_one_at_a_time():
    """Leading axes are broadcast batch dimensions, never GEMM rows."""
    fmm = BatchedFMM(_ops(np.complex128))
    S = _data((3, P, M), np.complex128, "contiguous")
    T, r = fmm.apply(S)
    for i in range(3):
        Ti, ri = fmm.apply(S[i])
        np.testing.assert_array_equal(T[i], Ti)
        np.testing.assert_array_equal(r[i], ri)


def test_planar_roundtrip_and_mixed_precision():
    a = _data((2, P - 1, NB, Q), np.complex64, "sliced")
    planar = kernels.fold(a)
    assert planar.shape == (2, P - 1, 2, NB, Q) and planar.dtype == np.float32
    np.testing.assert_array_equal(kernels.unfold(planar), a)
    assert kernels.fold(a.real).shape == (2, P - 1, 1, NB, Q)
    # complex64 data under float64 operators widens, like the parent did
    T, _ = BatchedFMM(_ops(np.complex128)).apply(_data((P, M), np.complex64, "contiguous"))
    assert T.dtype == np.complex128


# -- every GEMM is real ------------------------------------------------------

@pytest.fixture
def matmul_dtypes(monkeypatch):
    """Operand dtypes of every ``np.matmul`` issued while active."""
    seen = []
    real_matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        seen.append((np.asarray(a).dtype, np.asarray(b).dtype))
        return real_matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return seen


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=lambda d: np.dtype(d).name)
class TestNoComplexGemm:
    """A complex GEMM against an up-cast real operator costs 4x the real
    flops where the paper's C factor says 2x."""

    def _check(self, seen, dtype, stages):
        real = np.float32 if dtype is np.complex64 else np.float64
        assert len(seen) >= stages  # the recorder did see the kernels
        assert all(a == real and b == real for a, b in seen), set(seen)

    def test_batched_apply(self, dtype, matmul_dtypes):
        BatchedFMM(_ops(dtype)).apply(_data((P, M), dtype, "contiguous"))
        # S2M, 2 M2M, S2T, 2x2 M2L, M2L-B, 2 L2L, L2T
        self._check(matmul_dtypes, dtype, 12)

    def test_distributed_run(self, dtype, matmul_dtypes):
        cl = VirtualCluster(p100_nvlink_node(2))
        DistributedFMM(_ops(dtype, G=2), cl, dtype=dtype).run(_data((P, M), dtype, "contiguous"))
        self._check(matmul_dtypes, dtype, 12)


# -- the distributed driver: halos, pass state ---------------------------------

def _run_distributed(G, S, **kwargs):
    ops = FmmOperators.create(M=512, P=8, ML=16, B=3, Q=16, G=G)
    dfmm = DistributedFMM(ops, VirtualCluster(p100_nvlink_node(G)), **kwargs)
    _, r = dfmm.run(S)
    return dfmm, r


class TestHaloFootprint:
    """The kernels read their neighbours through the recorded halos, and
    no further out than the widths the exchanges declare (and are
    charged for): 1 leaf box for S2T, 2 boxes for the cousin M2L."""

    @pytest.fixture
    def S(self):
        return _data((8, 512), np.complex128, "contiguous")

    @pytest.fixture
    def single(self, S):
        return BatchedFMM(FmmOperators.create(M=512, P=8, ML=16, B=3, Q=16)).apply(S)

    @pytest.mark.parametrize("G", [2, 4, 8])
    def test_nan_outside_declared_width_is_never_read(self, G, S, single, monkeypatch):
        stash = DistributedFMM._stash_halo

        def padded(self, what, width, level):
            stash(self, what, width, level)
            left, right = self._halo[what]
            assert left.shape[-2] == right.shape[-2] == width
            nan = np.full_like(left[..., :1, :], np.nan)
            self._halo[what] = (np.concatenate([nan, left], axis=-2),
                                np.concatenate([right, nan], axis=-2))

        monkeypatch.setattr(DistributedFMM, "_stash_halo", padded)
        dfmm, r = _run_distributed(G, S)
        assert sorted(dfmm._halo) == ["M4", "M5", "S"]
        assert all(np.isnan(h).any() for pair in dfmm._halo.values() for h in pair)
        assert _rel(dfmm.gather(), single[0]) < 1e-13
        assert _rel(r, single[1]) < 1e-13

    @pytest.mark.parametrize("what", ["S", "M5", "M4"])
    def test_nan_inside_declared_width_is_read(self, what, S, monkeypatch):
        """Control: the halos are the path, not a by-pass around them."""
        stash = DistributedFMM._stash_halo

        def poisoned(self, name, width, level):
            stash(self, name, width, level)
            if name == what:
                self._halo[name][0][..., 0, :] = np.nan  # outermost declared box

        monkeypatch.setattr(DistributedFMM, "_stash_halo", poisoned)
        dfmm, _ = _run_distributed(4, S)
        assert np.isnan(dfmm.gather()[1:]).any()


class TestPassState:
    def test_state_exists_before_any_pass(self):
        ops = FmmOperators.create(M=512, P=8, ML=16, B=3, Q=16, G=2)
        dfmm = DistributedFMM(ops, VirtualCluster(p100_nvlink_node(2), execute=False))
        assert dfmm._M == dfmm._L == dfmm._halo == {}
        assert dfmm._S is dfmm._MB is dfmm._r is None
        assert dfmm.run()[1] is None  # timing-only: no r, no error

    def test_second_run_starts_clean(self):
        S = _data((8, 512), np.complex128, "contiguous")
        dfmm, r1 = _run_distributed(2, S)
        T1 = dfmm.gather()
        _, r2 = dfmm.run(S)
        np.testing.assert_array_equal(dfmm.gather(), T1)
        np.testing.assert_array_equal(r2, r1)

    def test_missing_reduce_is_a_parameter_error(self, monkeypatch):
        monkeypatch.setattr(DistributedFMM, "_do_reduce", lambda self: None)
        with pytest.raises(ParameterError, match="REDUCE"):
            _run_distributed(2, _data((8, 512), np.complex128, "contiguous"))
