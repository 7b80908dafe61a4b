import numpy as np
import pytest

from repro.dfft.fft1d import Distributed1DFFT
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import dual_p100_nvlink, p100_nvlink_node
from repro.util.validation import ParameterError


def _rand(n, rng, dtype=np.complex128):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)


class TestCorrectness:
    @pytest.mark.parametrize("G", [1, 2, 4, 8])
    def test_matches_numpy(self, G, rng):
        N = 1 << 12
        cl = VirtualCluster(p100_nvlink_node(G))
        x = _rand(N, rng)
        y = Distributed1DFFT(N, cl).run(x)
        rel = np.linalg.norm(y - np.fft.fft(x)) / np.linalg.norm(np.fft.fft(x))
        assert rel < 1e-12

    @pytest.mark.parametrize("M,P", [(256, 16), (16, 256), (64, 64)])
    def test_explicit_splits(self, M, P, rng):
        cl = VirtualCluster(p100_nvlink_node(2))
        x = _rand(M * P, rng)
        y = Distributed1DFFT(M * P, cl, M=M, P=P).run(x)
        assert np.linalg.norm(y - np.fft.fft(x)) / np.linalg.norm(y) < 1e-12

    def test_single_precision(self, rng):
        cl = VirtualCluster(p100_nvlink_node(2))
        x = _rand(1 << 10, rng, np.complex64)
        y = Distributed1DFFT(1 << 10, cl, dtype="complex64").run(x)
        ref = np.fft.fft(x.astype(np.complex128))
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-4

    def test_chunks_do_not_change_result(self, rng):
        x = _rand(1 << 10, rng)
        outs = []
        for chunks in (1, 2, 8):
            cl = VirtualCluster(p100_nvlink_node(2))
            outs.append(Distributed1DFFT(1 << 10, cl, chunks=chunks).run(x))
        np.testing.assert_allclose(outs[0], outs[1])
        np.testing.assert_allclose(outs[0], outs[2])


class TestValidation:
    def test_rejects_non_pow2(self):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        with pytest.raises(Exception):
            Distributed1DFFT(1000, cl)

    def test_rejects_bad_split(self):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        with pytest.raises(ParameterError):
            Distributed1DFFT(1024, cl, M=100, P=12)

    def test_rejects_real_dtype(self):
        cl = VirtualCluster(p100_nvlink_node(2), execute=False)
        with pytest.raises(ParameterError):
            Distributed1DFFT(1024, cl, dtype="float64")

    def test_requires_data_in_execute_mode(self):
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError):
            Distributed1DFFT(1024, cl).run()

    def test_wrong_input_shape(self, rng):
        cl = VirtualCluster(p100_nvlink_node(2))
        with pytest.raises(ParameterError):
            Distributed1DFFT(1024, cl).run(np.zeros(512, dtype=complex))


class TestTiming:
    def test_three_alltoalls(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(1 << 20, cl).run()
        names = set(cl.ledger.comm_bytes_by_name())
        assert {"transpose1", "transpose2", "transpose3"} <= names

    def test_comm_bound_at_large_n(self):
        """Figure 2 (top): wall time ~ the three transposes."""
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(1 << 26, cl).run()
        tr = cl.trace()
        assert tr.comm_time(0) > tr.compute_time(0)

    def test_overlap_beats_serial(self):
        """Pipelined comm/compute must be faster than their sum."""
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(1 << 26, cl).run()
        tr = cl.trace()
        assert cl.wall_time() < tr.comm_time(0) + tr.compute_time(0)

    def test_timing_only_returns_none(self):
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        assert Distributed1DFFT(1 << 12, cl).run() is None

    def test_comm_volume_matches_model(self):
        from repro.model.comm import fft1d_comm_bytes

        N, G = 1 << 20, 2
        cl = VirtualCluster(dual_p100_nvlink(), execute=False)
        Distributed1DFFT(N, cl).run()
        sent = sum(
            v for k, v in cl.ledger.comm_bytes_by_name().items() if "transpose" in k
        ) / G
        assert sent == pytest.approx(fft1d_comm_bytes(N, G))
