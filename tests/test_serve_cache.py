"""Plan cache + wisdom: fingerprints, persistence, LRU, and counters."""

from __future__ import annotations

import pytest

from repro.machine.spec import p100_nvlink_node, preset
from repro.serve import PlanCache, Wisdom, spec_fingerprint
from repro.util.validation import ParameterError

N = 1 << 12


def cache(spec=None, **kw):
    """Fast cache for unit tests: no autotune search, default params."""
    kw.setdefault("autotune", False)
    return PlanCache(spec if spec is not None else p100_nvlink_node(2), **kw)


class TestFingerprint:
    def test_stable_and_machine_keyed(self):
        assert spec_fingerprint(preset("2xP100")) == spec_fingerprint(preset("2xP100"))
        assert spec_fingerprint(preset("2xP100")) != spec_fingerprint(preset("8xP100"))
        assert spec_fingerprint(preset("2xP100")) != spec_fingerprint(preset("2xK40c"))

    def test_name_does_not_matter(self):
        from dataclasses import replace

        spec = preset("2xP100")
        relabeled = replace(spec, name="renamed box")
        assert spec_fingerprint(spec) == spec_fingerprint(relabeled)


class TestWisdom:
    def test_roundtrip(self):
        spec = p100_nvlink_node(2)
        w = Wisdom()
        w.put(spec, N, "complex128", dict(P=16, ML=16, B=2, Q=16), "ring", 1e-3)
        w2 = Wisdom.loads(w.dumps())
        hit = w2.get(spec, N, "complex128")
        assert hit["params"] == dict(P=16, ML=16, B=2, Q=16)
        assert hit["comm_algorithm"] == "ring"
        assert len(w2) == 1
        (entry,) = w2.entries.values()
        assert entry["fmmfft_time"] == 1e-3

    def test_returned_params_are_copies(self):
        spec = p100_nvlink_node(2)
        w = Wisdom()
        w.put(spec, N, "complex128", dict(P=16, ML=16, B=2, Q=16), "ring")
        w.get(spec, N, "complex128")["params"]["P"] = -1
        assert w.get(spec, N, "complex128")["params"]["P"] == 16

    def test_miss_on_other_machine_or_size(self):
        spec = p100_nvlink_node(2)
        w = Wisdom()
        w.put(spec, N, "complex128", dict(P=16, ML=16, B=2, Q=16), "ring")
        assert w.get(p100_nvlink_node(4), N, "complex128") is None
        assert w.get(spec, 2 * N, "complex128") is None
        assert w.get(spec, N, "complex64") is None

    def test_save_load(self, tmp_path):
        spec = p100_nvlink_node(2)
        w = Wisdom()
        w.put(spec, N, "complex128", dict(P=16, ML=16, B=2, Q=16), "direct")
        path = tmp_path / "wisdom.json"
        w.save(path)
        assert Wisdom.load(path).get(spec, N, "complex128") is not None

    @pytest.mark.parametrize("text", [
        "not json",
        '{"version": 2, "kind": "serve-wisdom", "entries": {}}',
        '{"version": 1, "kind": "other", "entries": {}}',
        '{"version": 1, "kind": "serve-wisdom", "entries": {"k": {}}}',
        '{"version": 1, "kind": "serve-wisdom", "entries": '
        '{"k": {"params": {"P": 4}, "comm_algorithm": "ring"}}}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParameterError):
            Wisdom.loads(text)


class TestPlanCache:
    def test_cold_then_warm(self):
        c = cache()
        plan, alg, setup = c.plan_for(N, "complex128")
        assert plan.N == N and setup > 0.0 and alg
        assert (c.plan_misses, c.wisdom_misses) == (1, 1)
        plan2, alg2, setup2 = c.plan_for(N, "complex128")
        assert plan2 is plan and alg2 == alg and setup2 == 0.0
        assert (c.plan_hits, c.wisdom_hits) == (1, 1)
        assert c.hit_rate == 0.5

    def test_no_search_without_autotune(self):
        c = cache()
        c.plan_for(N, "complex128")
        assert c.searches == 0

    def test_lru_eviction(self):
        c = cache(capacity=1)
        a, _, _ = c.plan_for(N, "complex128")
        c.plan_for(2 * N, "complex128")
        assert len(c) == 1
        b, _, _ = c.plan_for(N, "complex128")  # evicted -> rebuilt
        assert b is not a and c.plan_misses == 3

    def test_capacity_zero_never_caches(self):
        c = cache(capacity=0)
        c.plan_for(N, "complex128")
        c.plan_for(N, "complex128")
        assert len(c) == 0 and c.plan_hits == 0 and c.plan_misses == 2

    def test_remember_false_keeps_wisdom_cold(self):
        c = cache(remember=False)
        c.plan_for(N, "complex128")
        c.plan_for(N, "complex128")
        assert len(c.wisdom) == 0 and c.wisdom_misses == 2

    def test_warm_wisdom_crosses_instances(self):
        c1 = cache()
        c1.plan_for(N, "complex128")
        c2 = cache(wisdom=Wisdom.loads(c1.wisdom.dumps()))
        _, _, setup = c2.plan_for(N, "complex128")
        assert c2.wisdom_hits == 1 and c2.wisdom_misses == 0
        # wisdom hit still pays the (modeled) plan build, not the search
        from repro.serve.cache import PLAN_BUILD_TIME

        assert setup == pytest.approx(PLAN_BUILD_TIME)

    def test_plan_key_matches_cache_key(self):
        c = cache()
        plan, _, _ = c.plan_for(N, "complex128")
        assert plan.plan_key()[0] == "fmmfft"
        assert plan.plan_key() in c._plans

    def test_rejects_negative_capacity(self):
        with pytest.raises(ParameterError):
            cache(capacity=-1)

    def test_autotune_searches_once(self):
        c = PlanCache(p100_nvlink_node(2), autotune=True)
        c.plan_for(N, "complex128")
        c.plan_for(N, "complex128")
        assert c.searches == 1


class TestFingerprintTopologySensitivity:
    """The wisdom key must change when the machine's links change —
    otherwise a degraded topology poisons the healthy machine's wisdom."""

    def test_degraded_link_changes_fingerprint(self):
        from repro.faults import FaultInjector, LinkDegrade

        spec = preset("8xP100")
        inj = FaultInjector(spec, scheduled=(
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=0.25),))
        assert (spec_fingerprint(inj.degraded_spec(0.5))
                != spec_fingerprint(spec))
        # outside the window the degraded spec is the healthy machine
        assert (spec_fingerprint(inj.degraded_spec(2.0))
                == spec_fingerprint(spec))

    def test_removed_link_changes_fingerprint(self):
        from repro.faults import FaultInjector, LinkFlap

        spec = preset("8xP100")
        inj = FaultInjector(spec, scheduled=(LinkFlap(2, 3, 0.0, 1.0),))
        assert (spec_fingerprint(inj.degraded_spec(0.5))
                != spec_fingerprint(spec))

    def test_isolated_device_changes_fingerprint(self):
        from repro.faults import DeviceLoss, FaultInjector

        spec = preset("8xP100")
        inj = FaultInjector(spec, scheduled=(DeviceLoss(5, 0.0),))
        assert (spec_fingerprint(inj.degraded_spec(1.0))
                != spec_fingerprint(spec))

    def test_distinct_degradations_distinct_fingerprints(self):
        from repro.faults import FaultInjector, LinkDegrade

        spec = preset("8xP100")
        a = FaultInjector(spec, scheduled=(
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=0.25),))
        b = FaultInjector(spec, scheduled=(
            LinkDegrade(0, 1, 0.0, 1.0, bandwidth_scale=0.5),))
        assert (spec_fingerprint(a.degraded_spec(0.5))
                != spec_fingerprint(b.degraded_spec(0.5)))
