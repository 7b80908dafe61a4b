"""The admission queue: backpressure, priority, and compatible drains."""

from __future__ import annotations

import pytest

from repro.serve import AdmissionQueue, TransformRequest
from repro.util.validation import ParameterError


def req(rid, N=256, deadline="batch", arrival=0.0):
    return TransformRequest(rid=rid, N=N, deadline=deadline, arrival=arrival)


class TestAdmission:
    def test_admits_until_full_then_sheds(self):
        q = AdmissionQueue(capacity=2)
        assert q.offer(req(0), 0.0) and q.offer(req(1), 0.1)
        assert not q.offer(req(2), 0.2)
        assert len(q) == 2
        assert q.shed["batch"] == 1 and q.admitted["batch"] == 2

    def test_shed_counted_per_class(self):
        q = AdmissionQueue(capacity=1)
        q.offer(req(0), 0.0)
        q.offer(req(1, deadline="interactive"), 0.1)
        assert q.shed == {"interactive": 1, "batch": 0}

    def test_depth_samples_track_changes(self):
        q = AdmissionQueue(capacity=4)
        q.offer(req(0), 0.5)
        q.offer(req(1), 0.7)
        q.take(1.0, lambda r: True, 2)
        assert q.depth_samples == [(0.0, 0), (0.5, 1), (0.7, 2), (1.0, 0)]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ParameterError):
            AdmissionQueue(capacity=0)

    @pytest.mark.parametrize("capacity", [1.5, True])
    def test_rejects_non_integer_capacity(self, capacity):
        with pytest.raises(ParameterError, match="int"):
            AdmissionQueue(capacity=capacity)


class TestPriority:
    def test_interactive_ahead_of_batch(self):
        q = AdmissionQueue()
        q.offer(req(0, deadline="batch"), 0.0)
        q.offer(req(1, deadline="interactive"), 0.1)
        assert q.head().rid == 1

    def test_fifo_within_class(self):
        q = AdmissionQueue()
        for i in range(3):
            q.offer(req(i), 0.0)
        assert q.head().rid == 0


class TestTake:
    def test_includes_head_and_respects_limit(self):
        q = AdmissionQueue()
        for i in range(5):
            q.offer(req(i), 0.0)
        got = q.take(1.0, lambda r: True, 3)
        assert [r.rid for r in got] == [0, 1, 2]
        assert len(q) == 2

    def test_filters_compatible(self):
        q = AdmissionQueue()
        q.offer(req(0, N=256), 0.0)
        q.offer(req(1, N=512), 0.0)
        q.offer(req(2, N=256), 0.0)
        got = q.take(1.0, lambda r: r.N == 256, 8)
        assert [r.rid for r in got] == [0, 2]
        assert q.head().rid == 1

    def test_empty_queue(self):
        q = AdmissionQueue()
        assert q.head() is None
        assert q.take(0.0, lambda r: True, 4) == []

    def test_rejects_bad_limit(self):
        q = AdmissionQueue()
        q.offer(req(0), 0.0)
        with pytest.raises(ParameterError):
            q.take(0.0, lambda r: True, 0)


class TestReadmission:
    """Regression: a request re-offered (batch-failure retry) must get a
    fresh admission token instead of corrupting a sibling admission."""

    def test_same_request_admitted_twice_drains_twice(self):
        q = AdmissionQueue()
        r = req(7)
        assert q.offer(r, 0.0) and q.offer(r, 1.0)
        assert len(q) == 2
        got = q.take(2.0, lambda x: True, 8)
        assert [x.rid for x in got] == [7, 7]
        assert len(q) == 0

    def test_duplicate_rid_take_removes_only_taken_admission(self):
        q = AdmissionQueue()
        r = req(7)
        q.offer(r, 0.0)
        q.offer(r, 1.0)
        got = q.take(2.0, lambda x: True, 1)
        assert [x.rid for x in got] == [7]
        # the second admission is still queued, not collaterally dropped
        assert len(q) == 1
        assert q.head().rid == 7

    def test_reoffered_request_queues_behind_its_class(self):
        q = AdmissionQueue()
        r = req(3)
        q.offer(r, 0.0)
        q.offer(req(4), 0.1)
        q.take(0.2, lambda x: True, 1)       # serves rid 3
        q.offer(r, 0.3)                      # retry re-admission
        assert [x.rid for x in q.take(0.4, lambda x: True, 8)] == [4, 3]


class TestShedDepthSamples:
    def test_shed_arrival_records_depth_sample(self):
        """Backpressure instants are visible: a shed arrival samples the
        depth counter pinned at capacity."""
        q = AdmissionQueue(capacity=2)
        q.offer(req(0), 0.1)
        q.offer(req(1), 0.2)
        assert not q.offer(req(2), 0.3)
        assert q.depth_samples == [(0.0, 0), (0.1, 1), (0.2, 2), (0.3, 2)]
