"""Transform requests and the synthetic open-loop workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import CompletedRequest, TransformRequest, synthetic_workload
from repro.util.validation import ParameterError


class TestTransformRequest:
    def test_valid(self):
        r = TransformRequest(rid=0, N=1 << 12, arrival=1.5, deadline="interactive")
        assert r.N == 4096 and r.deadline == "interactive"

    def test_rejects_non_pow2(self):
        with pytest.raises(ParameterError):
            TransformRequest(rid=0, N=1000)

    def test_rejects_bad_dtype(self):
        with pytest.raises(ParameterError):
            TransformRequest(rid=0, N=64, dtype="float64")

    def test_rejects_negative_arrival(self):
        with pytest.raises(ParameterError):
            TransformRequest(rid=0, N=64, arrival=-1.0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ParameterError, match="finite"):
            TransformRequest(rid=0, N=1 << 16, arrival=arrival)

    def test_rejects_unknown_deadline(self):
        with pytest.raises(ParameterError):
            TransformRequest(rid=0, N=64, deadline="urgent")

    def test_rejects_wrong_payload_shape(self):
        with pytest.raises(ParameterError):
            TransformRequest(rid=0, N=64, x=np.zeros(32, dtype=complex))

    def test_latency(self):
        r = TransformRequest(rid=7, N=64, arrival=1.0)
        c = CompletedRequest(request=r, batch_id=0, batch_size=2,
                             release=1.5, finish=2.25)
        assert c.latency == pytest.approx(1.25)


class TestSyntheticWorkload:
    def test_deterministic_per_seed(self):
        a = synthetic_workload(32, rate=1000.0, seed=3)
        b = synthetic_workload(32, rate=1000.0, seed=3)
        assert a == b
        c = synthetic_workload(32, rate=1000.0, seed=4)
        assert a != c

    def test_arrivals_increase(self):
        reqs = synthetic_workload(64, rate=500.0, seed=0)
        arr = [r.arrival for r in reqs]
        assert arr == sorted(arr) and arr[0] > 0.0

    def test_size_mix_respected(self):
        reqs = synthetic_workload(100, rate=1.0, sizes={256: 1.0, 512: 1.0},
                                  seed=1)
        assert {r.N for r in reqs} <= {256, 512}

    def test_interactive_fraction_extremes(self):
        all_batch = synthetic_workload(20, rate=1.0, interactive_fraction=0.0)
        assert all(r.deadline == "batch" for r in all_batch)
        all_inter = synthetic_workload(20, rate=1.0, interactive_fraction=1.0)
        assert all(r.deadline == "interactive" for r in all_inter)

    def test_payloads_attached_on_request(self):
        reqs = synthetic_workload(4, rate=1.0, sizes={256: 1.0},
                                  with_payloads=True)
        assert all(r.x is not None and r.x.shape == (256,) for r in reqs)
        assert all(synthetic_workload(4, rate=1.0).__getitem__(i).x is None
                   for i in range(4))

    def test_mean_rate_roughly_matches(self):
        reqs = synthetic_workload(2000, rate=100.0, seed=5)
        span = reqs[-1].arrival - reqs[0].arrival
        assert 2000 / span == pytest.approx(100.0, rel=0.15)

    @pytest.mark.parametrize("kwargs", [
        dict(num_requests=0, rate=1.0),
        dict(num_requests=4, rate=0.0),
        dict(num_requests=4, rate=1.0, interactive_fraction=1.5),
        dict(num_requests=4, rate=1.0, sizes={100: 1.0}),
        dict(num_requests=4, rate=1.0, sizes={256: -1.0}),
        dict(num_requests=4, rate=float("nan")),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            synthetic_workload(**kwargs)
