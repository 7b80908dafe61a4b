"""Multi-window burn-rate SLO evaluation over a run's outcomes.

The contract under test: an alert trips only when *both* the short and
the long window burn past the threshold (a short-window blip alone is
rejected), clears as soon as the short window recovers, and every
burn sample and transition carries its outcome's simulated time — what
the ``slo.*`` series of a serve run's telemetry are read off.
"""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    SloAlert,
    SloObjective,
    burn_rate,
    slo_timeline,
)
from repro.obs.fold import RunFacts
from repro.obs.telemetry import telemetry_rows
from repro.util.validation import ParameterError

# default objective: availability 0.9 -> budget 0.1, threshold 2.0,
# so a window needs miss fraction >= 0.2 to burn at alert pace
OBJ = SloObjective()


class TestObjectiveValidation:
    def test_defaults_are_valid(self):
        assert OBJ.availability == 0.9
        assert OBJ.short_window <= OBJ.long_window

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_availability_bounds(self, bad):
        with pytest.raises(ParameterError):
            SloObjective(availability=bad)

    def test_window_ordering(self):
        with pytest.raises(ParameterError):
            SloObjective(short_window=2e-3, long_window=1e-3)
        with pytest.raises(ParameterError):
            SloObjective(short_window=0.0)

    def test_burn_threshold_positive(self):
        with pytest.raises(ParameterError):
            SloObjective(burn_threshold=0.0)


class TestTriggerAndClear:
    def test_sustained_misses_trigger_then_successes_clear(self):
        # misses spread across the long window: both burns saturate
        out = [(i * OBJ.long_window / 10, "interactive", False)
               for i in range(10)]
        tl = slo_timeline(out)
        assert tl.active("interactive")
        assert [a.kind for a in tl.alerts] == ["trigger"]
        assert tl.alerts[0].deadline_class == "interactive"
        assert tl.alerts[0].short_burn >= OBJ.burn_threshold
        assert tl.alerts[0].long_burn >= OBJ.burn_threshold
        # successes flush the short window below threshold -> clear
        t = out[-1][0]
        for _ in range(40):
            t += OBJ.short_window / 8
            out.append((t, "interactive", True))
        tl = slo_timeline(out)
        assert not tl.active("interactive")
        assert [a.kind for a in tl.alerts] == ["trigger", "clear"]
        assert tl.alerts[1].short_burn < OBJ.burn_threshold

    def test_alert_emits_registry_counters_and_gauges(self):
        """A run's telemetry writes the burn samples as ``slo.burn_rate``
        gauges and the transitions as ``slo.alerts`` counters, each at
        its outcome's simulated time."""
        tl = slo_timeline([(i * OBJ.long_window / 10, "batch", False)
                           for i in range(10)])
        rows = {(r["name"], tuple(r["labels"].items())): r
                for r in telemetry_rows(RunFacts(slo=tl))}
        trig = rows["slo.alerts", (("class", "batch"), ("kind", "trigger"))]
        assert trig["value"] == 1.0
        assert trig["last_time"] == tl.alerts[0].time
        assert ("slo.alerts", (("class", "batch"), ("kind", "clear"))) \
            not in rows
        short = rows["slo.burn_rate", (("class", "batch"), ("window", "short"))]
        long_ = rows["slo.burn_rate", (("class", "batch"), ("window", "long"))]
        assert short["value"] >= OBJ.burn_threshold
        assert long_["value"] >= OBJ.burn_threshold
        # gauges are stamped at the completion's simulated time
        assert short["samples"][-1][0] == pytest.approx(
            9 * OBJ.long_window / 10)
        assert short["samples"] == [[t, s] for t, s, _ in tl.burns["batch"]]
        assert long_["samples"] == [[t, lg] for t, _, lg in tl.burns["batch"]]
        assert ("slo.burn_rate", (("class", "interactive"),
                                  ("window", "short"))) not in rows

    def test_no_retrigger_while_active(self):
        tl = slo_timeline([(i * OBJ.long_window / 10, "interactive", False)
                           for i in range(30)])
        # stays firing the whole time: exactly one trigger, no clear
        assert [a.kind for a in tl.alerts] == ["trigger"]

    def test_outcomes_are_taken_in_time_order(self):
        """A scheduler learns a batch's outcomes when it issues it, and
        two batches in flight can finish out of order: the timeline is
        the one of the outcomes sorted by time, ties kept in order."""
        out = [(i * OBJ.long_window / 10, "interactive", i % 3 != 0)
               for i in range(30)]
        out += [(out[-1][0], "interactive", False)] * 4
        shuffled = out[10:20][::-1] + out[:10] + out[20:]
        assert slo_timeline(shuffled) == slo_timeline(out)
        times = [a.time for a in slo_timeline(out).alerts]
        assert times and times == sorted(times)

    def test_classes_are_independent(self):
        out = []
        for i in range(10):
            t = i * OBJ.long_window / 10
            out += [(t, "interactive", False), (t, "batch", True)]
        tl = slo_timeline(out)
        assert tl.active("interactive")
        assert not tl.active("batch")
        assert {a.deadline_class for a in tl.alerts} == {"interactive"}


class TestMultiWindowRejectsBlips:
    def test_short_window_blip_alone_does_not_trigger(self):
        # a long healthy history, then a burst of misses confined to
        # the short window: short burn saturates but the long window
        # still averages below threshold -> no alert
        out = [(i * OBJ.long_window / 100, "interactive", True)
               for i in range(96)]
        t = out[-1][0]
        for _ in range(4):
            t += OBJ.short_window / 10
            out.append((t, "interactive", False))
        tl = slo_timeline(out)
        _, short, long_ = tl.burns["interactive"][-1]
        assert short >= OBJ.burn_threshold  # the blip is real
        assert long_ < OBJ.burn_threshold  # but not sustained
        assert not tl.active("interactive")
        assert tl.alerts == []

    def test_burn_rate_math(self):
        # 2 misses out of 10 in-window outcomes: miss fraction 0.2,
        # budget 0.1 -> burn 2.0 exactly
        assert burn_rate(2, 10, OBJ) == pytest.approx(2.0)
        out = ([(i * 1e-4, "batch", True) for i in range(8)]
               + [(8e-4 + i * 1e-4, "batch", False) for i in range(2)])
        _, short, _ = slo_timeline(out).burns["batch"][-1]
        assert short == pytest.approx(2.0)

    def test_empty_window_burns_zero(self):
        assert burn_rate(0, 0, OBJ) == 0.0
        tl = slo_timeline([])
        assert tl.burns == {"interactive": [], "batch": []}
        assert not tl.active("interactive")


class TestSerialization:
    def test_to_json_shape(self):
        tight = SloObjective(availability=0.99)
        tl = slo_timeline([(i * OBJ.long_window / 10, "interactive", False)
                           for i in range(10)], {"interactive": tight})
        doc = tl.to_json()
        assert set(doc) == {"objectives", "alerts"}
        assert doc["objectives"]["interactive"]["availability"] == 0.99
        assert doc["objectives"]["batch"]["availability"] == OBJ.availability
        a = doc["alerts"][0]
        assert a["kind"] == "trigger"
        assert a["deadline_class"] == "interactive"
        assert a["time"] >= 0.0

    def test_alert_dataclass_fields(self):
        a = SloAlert(1.0, "batch", "trigger", 3.0, 2.5)
        assert (a.time, a.kind) == (1.0, "trigger")
