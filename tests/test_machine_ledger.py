import pytest

from repro.machine.ledger import Ledger, OpRecord


def rec(**kw):
    base = dict(
        device=0, stream="compute", kind="gemm", name="S2M",
        start=0.0, duration=1.0, flops=10.0, mops=5.0,
    )
    base.update(kw)
    return OpRecord(**base)


class TestOpRecord:
    def test_end(self):
        assert rec(start=1.0, duration=2.0).end == pytest.approx(3.0)

    def test_frozen(self):
        r = rec()
        for field in ("start", "uid", "waits", "region"):
            with pytest.raises(AttributeError):
                setattr(r, field, 5.0)

    def test_repr_names_every_field(self):
        assert repr(rec()) == (
            "OpRecord(device=0, stream='compute', kind='gemm', name='S2M', "
            "start=0.0, duration=1.0, flops=10.0, mops=5.0, comm_bytes=0.0, "
            "peer=-1, uid=-1, reads=(), writes=(), waits=(), region='')")

    def test_replace_builds_a_new_record(self):
        r = rec()
        s = r._replace(uid=7, waits=(3,))
        assert (s.uid, s.waits, s.name) == (7, (3,), "S2M")
        assert (r.uid, r.waits) == (-1, ())

    def test_interval(self):
        assert rec(start=1.0, duration=0.5).interval() == (1.0, 1.5)

    def test_stamp_matches_append(self):
        """The engine's one-call path stores what append would."""
        fields = (1, "comm", "comm", "x", 1.0, 2.0, 0.0, 0.0, 8.0, 0,
                  ((1, "a"),), ((0, "b"),), (0,), "r/s")
        a, b = Ledger(), Ledger()
        a.append(rec())
        b.append(rec())
        assert b.stamp(*fields) == a.append(OpRecord(*fields[:10], -1,
                                                     *fields[10:])) == 1
        assert list(a) == list(b) and type(list(b)[1]) is OpRecord
        assert a.fingerprint() == b.fingerprint()
        assert b.stamp(*fields) == 2

    def test_fingerprint_bytes_unchanged(self):
        """Hashes the repr of each record's field tuple; the digest is
        the one the frozen-dataclass record gave."""
        l = Ledger()
        l.append(rec())
        l.append(OpRecord(1, "comm", "comm", "x", 1.0, 2.0, comm_bytes=8.0,
                          peer=0, reads=((1, "a"),), waits=(0,),
                          region="r/s"))
        assert l.fingerprint() == (
            "46d52a6064dac5f4b8a20c60a4527311b441ea91e7a276629014618a0e390a75")


class TestLedger:
    def test_append_and_len(self):
        l = Ledger()
        l.append(rec())
        l.append(rec(name="S2T"))
        assert len(l) == 2

    def test_rejects_unknown_kind(self):
        l = Ledger()
        with pytest.raises(ValueError):
            l.append(rec(kind="teleport"))

    def test_filters(self):
        l = Ledger()
        l.append(rec(device=0, name="a"))
        l.append(rec(device=1, name="a", kind="comm"))
        l.append(rec(device=1, name="b", stream="comm"))
        assert len(l.records(device=1)) == 2
        assert len(l.records(kind="comm")) == 1
        assert len(l.records(name="a")) == 2
        assert len(l.records(stream="comm")) == 1
        assert len(l.records(device=1, name="a")) == 1

    def test_total(self):
        l = Ledger()
        l.append(rec(flops=3.0))
        l.append(rec(flops=4.0))
        assert l.total("flops") == pytest.approx(7.0)

    def test_time_by_name(self):
        l = Ledger()
        l.append(rec(name="a", duration=1.0))
        l.append(rec(name="a", duration=2.0))
        l.append(rec(name="b", duration=5.0))
        t = l.time_by_name()
        assert t["a"] == pytest.approx(3.0)
        assert t["b"] == pytest.approx(5.0)

    def test_flops_and_mops_by_name(self):
        l = Ledger()
        l.append(rec(name="a", flops=1.0, mops=2.0))
        l.append(rec(name="a", flops=1.0, mops=2.0))
        assert l.flops_by_name()["a"] == pytest.approx(2.0)
        assert l.mops_by_name()["a"] == pytest.approx(4.0)

    def test_comm_bytes_by_name_skips_zero(self):
        l = Ledger()
        l.append(rec(name="x"))
        l.append(rec(name="halo", kind="comm", comm_bytes=100.0))
        assert "x" not in l.comm_bytes_by_name()
        assert l.comm_bytes_by_name()["halo"] == pytest.approx(100.0)

    def test_launch_count_excludes_comm(self):
        l = Ledger()
        l.append(rec())
        l.append(rec(kind="comm"))
        l.append(rec(kind="host"))
        assert l.launch_count() == 1
        assert l.launch_count(compute_only=False) == 3

    def test_span(self):
        l = Ledger()
        assert l.span() == (0.0, 0.0)
        l.append(rec(start=1.0, duration=1.0))
        l.append(rec(start=0.5, duration=0.2))
        assert l.span() == (0.5, 2.0)

    def test_merge(self):
        a, b = Ledger(), Ledger()
        a.append(rec())
        b.append(rec())
        a.merge(b)
        assert len(a) == 2


class TestLedgerHardening:
    def test_append_returns_monotone_uids(self):
        l = Ledger()
        assert l.append(rec()) == 0
        assert l.append(rec()) == 1
        assert [r.uid for r in l] == [0, 1]

    def test_by_uid(self):
        l = Ledger()
        u = l.append(rec(name="S2T"))
        assert l.by_uid(u).name == "S2T"
        with pytest.raises(KeyError):
            l.by_uid(99)

    def test_rejects_empty_name(self):
        l = Ledger()
        with pytest.raises(ValueError, match="name"):
            l.append(rec(name=""))

    def test_rejects_non_finite_timing(self):
        l = Ledger()
        with pytest.raises(ValueError, match="finite"):
            l.append(rec(start=float("nan")))
        with pytest.raises(ValueError, match="finite"):
            l.append(rec(duration=float("inf")))

    def test_rejects_negative_duration(self):
        l = Ledger()
        with pytest.raises(ValueError, match="negative"):
            l.append(rec(duration=-1.0))
        assert len(l) == 0

    def test_merge_shifts_uids_and_waits(self):
        a, b = Ledger(), Ledger()
        a.append(rec())
        a.append(rec())
        u = b.append(rec(name="x"))
        b.append(rec(name="y", waits=(u,)))
        a.merge(b)
        recs = list(a)
        assert [r.uid for r in recs] == [0, 1, 2, 3]
        assert recs[3].waits == (2,)  # still points at "x" after the shift

    def test_merged_uids_resolve(self):
        a, b = Ledger(), Ledger()
        a.append(rec())
        b.append(rec(name="x"))
        a.merge(b)
        assert a.by_uid(1).name == "x"

    def test_merge_preserves_wait_event_references(self):
        """After the uid shift, every wait still names its original producer."""
        a, b = Ledger(), Ledger()
        a.append(rec(name="a0"))
        a.append(rec(name="a1", start=1.0, waits=(0,)))
        up = b.append(rec(name="producer", device=1, writes=((1, "buf"),)))
        b.append(rec(name="consumer", device=1, start=1.0,
                     waits=(up,), reads=((1, "buf"),)))
        a.merge(b)
        consumer = next(r for r in a if r.name == "consumer")
        assert [a.by_uid(w).name for w in consumer.waits] == ["producer"]

    def test_merge_keeps_hazard_analysis_identical(self):
        """Merging disjoint-device runs is invisible to the sanitizer.

        Regression for the uid shift: a stale (unshifted) wait would
        either dangle (a defect) or drop the ordering edge and turn the
        overlapped buffer reuse below into a reported RAW hazard.
        """
        from repro.analysis.hazards import find_hazards, happens_before

        def run_on(device):
            l = Ledger()
            u = l.append(rec(name="w", device=device, start=0.0,
                             duration=1.0, writes=((device, "buf"),)))
            l.append(rec(name="r", device=device, stream="comm", kind="comm",
                         start=1.0, duration=1.0, waits=(u,),
                         comm_bytes=8.0, reads=((device, "buf"),)))
            return l

        a, b = run_on(0), run_on(1)
        pre_a, pre_b = find_hazards(a), find_hazards(b)
        assert pre_a.ok and pre_b.ok
        n_edges = len(happens_before(a)) + len(happens_before(b))

        a.merge(b)
        post = find_hazards(a)
        assert post.ok, post.render()
        assert post.num_ops == pre_a.num_ops + pre_b.num_ops
        # devices are disjoint, so the merged graph is exactly the union
        assert len(happens_before(a)) == n_edges

    def test_merge_without_shift_would_be_caught(self):
        """The same schedule with a forged stale wait is NOT race-free —
        i.e. the previous test's pass depends on the shift being right."""
        from repro.analysis.hazards import find_hazards

        l = Ledger()
        l.append(rec(name="w", device=1, start=0.0, duration=1.0,
                     writes=((1, "buf"),)))
        # overlapped read with a wait pointing at a nonexistent uid —
        # what a broken merge would produce
        l.append(rec(name="r", device=1, stream="comm", kind="comm",
                     start=0.5, duration=1.0, waits=(99,),
                     comm_bytes=8.0, reads=((1, "buf"),)))
        rep = find_hazards(l)
        assert not rep.ok

    def test_merge_carries_region(self):
        a, b = Ledger(), Ledger()
        b.append(rec(region="fmm/S2M"))
        a.merge(b)
        assert list(a)[0].region == "fmm/S2M"
