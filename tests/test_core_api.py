import re

import numpy as np
import pytest

from repro.core.api import default_params, fmmfft, fourier_transform, ifmmfft
from repro.core.plan import FmmFftPlan
from repro.core.single import fmmfft_batched, fmmfft_single
from repro.fmm.batched import BatchedFMM
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import p100_nvlink_node
from repro.util.prng import random_signal
from repro.util.validation import ParameterError


class TestDefaultParams:
    @pytest.mark.parametrize("q", range(10, 24, 2))
    def test_always_admissible(self, q):
        N = 1 << q
        for G in (1, 2, 4):
            d = default_params(N, G)
            plan = FmmFftPlan.create(N=N, G=G, build_operators=False, **d)
            assert plan.N == N

    def test_large_n_uses_ml64_q16(self):
        d = default_params(1 << 24)
        assert d["ML"] == 64
        assert d["Q"] == 16

    def test_rejects_non_pow2(self):
        with pytest.raises(ParameterError):
            default_params(1000)


class TestFmmfft:
    def test_defaults(self):
        x = random_signal(4096, seed=0)
        out = fmmfft(x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-9)

    def test_explicit_params(self):
        x = random_signal(2048, seed=1)
        out = fmmfft(x, P=8, ML=16, B=3, Q=16)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-9)

    def test_distributed_path(self):
        x = random_signal(8192, seed=2)
        cl = VirtualCluster(p100_nvlink_node(2))
        out = fmmfft(x, cluster=cl)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-8)
        assert cl.wall_time() > 0

    def test_real_input(self):
        x = random_signal(1024, "float64", seed=3)
        out = fmmfft(x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-9)

    def test_single_precision_input(self):
        x = random_signal(4096, "complex64", seed=4)
        out = fmmfft(x, Q=8)
        assert out.dtype == np.complex64
        ref = np.fft.fft(x.astype(np.complex128))
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 4e-7

    def test_rejects_2d(self):
        with pytest.raises(ParameterError):
            fmmfft(np.zeros((4, 4), dtype=complex))


_N = 1024
_TEXT = np.full(_N, "a")


def _plan1():
    return FmmFftPlan.create(N=_N, **default_params(_N))


def _timing_only():
    return VirtualCluster(p100_nvlink_node(2), execute=False)


#: the entry points of the single-device and one-call pipelines with an
#: input they cannot use, and the text the error must carry
BAD_INPUT = {
    "fmmfft-timing-only-cluster": (
        lambda: fmmfft(random_signal(_N, seed=0), cluster=_timing_only()), "execute=False"),
    "ifmmfft-timing-only-cluster": (
        lambda: ifmmfft(random_signal(_N, seed=0), cluster=_timing_only()), "execute=False"),
    "fmmfft-text": (lambda: fmmfft(_TEXT), "<U1"),
    "ifmmfft-text": (lambda: ifmmfft(_TEXT), "<U1"),
    "single-text": (lambda: fmmfft_single(_TEXT, _plan1()), "<U1"),
    "single-stack": (lambda: fmmfft_single(np.zeros((1, _N)), _plan1()), f"(1, {_N})"),
    "batched-empty-stack": (
        lambda: fmmfft_batched(np.empty((0, _N)), _plan1()), f"(0, {_N})"),
    "batched-text": (lambda: fmmfft_batched(_TEXT[None], _plan1()), "<U1"),
    "BatchedFMM.apply-text": (
        lambda: BatchedFMM(_plan1().operators).apply(
            _TEXT.reshape(_plan1().P, -1)), "<U1"),
    "BatchedFMM.s2t-text": (
        lambda: BatchedFMM(_plan1().operators).s2t(
            _TEXT.reshape(_plan1().P, -1, _plan1().ML)), "<U1"),
}


class TestBadInputDoors:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_parameter_error_names_the_value(self, case):
        call, value = BAD_INPUT[case]
        with pytest.raises(ParameterError, match=re.escape(value)):
            call()


class TestFourierTransform:
    def test_forward(self):
        x = random_signal(100, seed=5)
        np.testing.assert_allclose(fourier_transform(x), np.fft.fft(x), atol=1e-8)

    def test_inverse(self):
        x = random_signal(64, seed=6)
        np.testing.assert_allclose(
            fourier_transform(fourier_transform(x), inverse=True), x, atol=1e-9
        )


class TestDefaultParamsPropertySweep:
    """Edge-case sweep: every feasible (N, G) yields an admissible plan.

    Large G / small N used to emit B > L or P not divisible by G; the
    contract now is: either raise ParameterError up front, or return
    parameters FmmFftPlan.create accepts.
    """

    @pytest.mark.parametrize("G", [1, 2, 4, 8, 16])
    def test_admissible_or_explicit_rejection(self, G):
        feasible = 0
        for q in range(2, 21):
            N = 1 << q
            try:
                d = default_params(N, G)
            except ParameterError:
                continue
            plan = FmmFftPlan.create(N=N, G=G, build_operators=False, **d)
            feasible += 1
            assert plan.P % G == 0
            assert (1 << plan.B) % G == 0
            assert 2 <= plan.B <= plan.L
            assert plan.ML << plan.L == plan.M
        assert feasible > 0, f"no feasible size for G={G}"

    def test_infeasible_small_n_large_g_raises(self):
        with pytest.raises(ParameterError):
            default_params(1 << 3, 16)

    def test_rejects_non_pow2_g(self):
        with pytest.raises(ParameterError):
            default_params(1 << 12, 3)

    def test_classic_sizes_unchanged(self):
        # the regression pin: the historical defaults must not drift
        assert default_params(1 << 20, 8) == dict(P=256, ML=64, B=3, Q=16)
