"""The repro.comm subsystem: plans, tuning, issue paths, and the joins.

Covers the contract the refactor rests on: ``bulk`` is bit-for-bit the
legacy collective model, message plans are hazard-free and byte-
conserving, the model-driven selector exhibits the textbook algorithm
crossovers, and the comm_log/metrics join closes the measured-vs-model
loop.
"""

import json
import re

import pytest

from repro import comm
from repro.analysis.hazards import find_hazards
from repro.analysis.lint import lint_source
from repro.analysis.plancheck import PlanCheckError
from repro.cli import main
from repro.comm import algorithm_table, build_plan, choose_algorithm, predict_time
from repro.core.api import default_params
from repro.core.distributed import FmmFftDistributed
from repro.core.plan import FmmFftPlan
from repro.dfft.fft1d import Distributed1DFFT
from repro.machine import topology as topo
from repro.machine.cluster import VirtualCluster
from repro.machine.multinode import multinode_p100, routed_multinode_p100
from repro.machine.spec import (
    NVLINK_P100_LINK,
    P100,
    ClusterSpec,
    preset,
)
from repro.obs import build_trace, compute_metrics, validate_trace
from repro.pipelines import simulate
from repro.util.validation import ParameterError

PAYLOAD = 1 << 20  # 1 MiB per device


def ring8_spec() -> ClusterSpec:
    """8 P100s on a bare NVLink ring (non-neighbours fall back to PCIe)."""
    return ClusterSpec(
        device=P100, num_devices=8,
        graph=topo.ring(8, NVLINK_P100_LINK),
        name="ring8", collective_overhead=240e-6,
    )


# ---------------------------------------------------------------------------
# plans: structure and conservation
# ---------------------------------------------------------------------------

class TestPlans:
    @pytest.mark.parametrize("algo", ["direct", "ring", "bruck"])
    def test_alltoall_wire_bytes_conserved(self, algo):
        spec = preset("8xP100")
        plan = build_plan(spec, "alltoall", float(PAYLOAD), algo)
        # every algorithm moves at least the G x payload wire minimum;
        # direct moves exactly it (no relaying)
        assert plan.wire_bytes() >= 8 * PAYLOAD - 1e-6
        if algo == "direct":
            assert plan.wire_bytes() == pytest.approx(8 * PAYLOAD)

    @pytest.mark.parametrize("algo", ["direct", "ring", "bruck"])
    def test_allgather_every_device_gets_every_block(self, algo):
        spec = preset("8xP100")
        plan = build_plan(spec, "allgather", float(PAYLOAD), algo,
                          writes=("buf",))
        got = {g: set() for g in range(8)}
        for rnd in plan.rounds:
            for m in rnd:
                for w in m.writes:
                    if "#b" in w:
                        got[m.dst].add(w.split("#b")[-1].split("#")[0])
        for g in range(8):
            assert len(got[g]) == 7, (algo, g, got[g])

    def test_bruck_is_log_rounds(self):
        spec = preset("8xP100")
        assert len(build_plan(spec, "alltoall", 1e6, "bruck").rounds) == 3
        assert len(build_plan(spec, "alltoall", 1e6, "ring").rounds) == 7
        assert len(build_plan(spec, "alltoall", 1e6, "direct").rounds) == 7

    def test_hier_requires_multinode(self):
        with pytest.raises(ParameterError):
            build_plan(preset("8xP100"), "alltoall", 1e6, "hier")
        with pytest.raises(ParameterError):
            build_plan(preset("8xP100"), "alltoall", 1e6, "hier2")

    def test_hier2_one_exchange_per_node_pair(self):
        spec = multinode_p100(4, gpus_per_node=4)
        plan = build_plan(spec, "alltoall", float(PAYLOAD), "hier2")
        node_of = spec.graph.graph["node_of"]
        inter = [(node_of[m.src], node_of[m.dst])
                 for rnd in plan.rounds for m in rnd
                 if node_of[m.src] != node_of[m.dst]]
        # exactly one inter-node message per ordered node pair
        assert sorted(inter) == sorted(
            (i, j) for i in range(4) for j in range(4) if i != j)
        # the NIC injection duty is spread across each node's devices,
        # not funneled through one leader
        senders_per_node = {}
        for rnd in plan.rounds:
            for m in rnd:
                if node_of[m.src] != node_of[m.dst]:
                    senders_per_node.setdefault(node_of[m.src],
                                                set()).add(m.src)
        assert all(len(s) >= 3 for s in senders_per_node.values())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            build_plan(preset("8xP100"), "alltoall", 1e6, "nccl")
        cl = VirtualCluster(preset("2xP100"), execute=False)
        with pytest.raises(ParameterError):
            comm.alltoall(cl, 1e6, "t", writes=["b"], algorithm="nccl")


# ---------------------------------------------------------------------------
# tuning: cost-model crossovers
# ---------------------------------------------------------------------------

class TestTuning:
    def test_ring_beats_bruck_for_large_on_ring_topology(self):
        spec = ring8_spec()
        big = 64e6
        assert predict_time(spec, "allgather", big, "ring") < predict_time(
            spec, "allgather", big, "bruck"
        )

    def test_bruck_beats_ring_for_small_messages(self):
        spec = ring8_spec()
        small = 4096.0
        assert predict_time(spec, "allgather", small, "bruck") < predict_time(
            spec, "allgather", small, "ring"
        )

    def test_crossover_holds_in_simulated_wall_time(self):
        # the model's ordering is realized by the issued schedules too
        spec = ring8_spec()
        times = {}
        for payload in (4096.0, 64e6):
            for algo in ("ring", "bruck"):
                cl = VirtualCluster(spec, execute=False)
                comm.allgather(cl, payload, "ag", writes=["buf"],
                               algorithm=algo)
                times[payload, algo] = cl.wall_time()
        assert times[4096.0, "bruck"] < times[4096.0, "ring"]
        assert times[64e6, "ring"] < times[64e6, "bruck"]

    def test_choose_algorithm_is_argmin(self):
        spec = preset("8xP100")
        for kind in ("alltoall", "allgather"):
            best = choose_algorithm(spec, kind, float(PAYLOAD))
            preds = {a: predict_time(spec, kind, float(PAYLOAD), a)
                     for a in ("direct", "ring", "bruck")}
            assert best == min(preds, key=preds.get)

    @pytest.mark.parametrize("spec", [
        preset("2xP100"), preset("8xP100"), multinode_p100(2, gpus_per_node=4),
    ], ids=lambda s: s.name)
    def test_algorithm_table_winner_is_argmin(self, spec):
        rows = algorithm_table(spec)
        for r in rows:
            preds = r["predictions"]
            assert preds[r["best"]] == pytest.approx(min(preds.values())), r
            assert r["speedup_vs_bulk"] == pytest.approx(
                r["bulk"] / preds[r["best"]]), r
            assert choose_algorithm(spec, r["kind"], r["payload_bytes"]) == (
                r["best"]), r
        # small collectives dodge the bulk barrier + overhead by a wide
        # margin on every topology (the point of the message plans)
        small = [r for r in rows if r["payload_bytes"] <= 32768]
        assert small and all(r["speedup_vs_bulk"] > 1.5 for r in small)

    def test_predict_matches_plan_time(self):
        spec = preset("8xP100")
        for algo in ("direct", "ring", "bruck"):
            plan = build_plan(spec, "alltoall", float(PAYLOAD), algo)
            assert predict_time(spec, "alltoall", float(PAYLOAD), algo) == (
                pytest.approx(plan.time)
            )


    def test_every_candidate_wins_somewhere(self):
        """The evidence behind ``candidate_algorithms``: over a reduced
        grid of the sweep tabulated in docs/COMM.md, every plan ``auto``
        builds and prices for a kind is the cheapest in at least one
        cell — and the one it no longer prices for an all-to-all
        (``hier``) never is."""
        ring4 = ClusterSpec(device=P100, num_devices=4,
                            graph=topo.ring(4, NVLINK_P100_LINK), name="ring4")
        beds = [
            preset("2xP100"), preset("8xP100"), ring4,
            multinode_p100(2, gpus_per_node=4),
            routed_multinode_p100(2, gpus_per_node=8, radix=36,
                                  oversubscription=2.0),
            routed_multinode_p100(4, gpus_per_node=4, radix=8,
                                  oversubscription=2.0),
            routed_multinode_p100(8, gpus_per_node=2, radix=4,
                                  oversubscription=4.0),
        ]
        sizes = [64.0 * 8 ** k for k in range(8)]  # 64 B .. 128 MiB
        for kind in ("alltoall", "allgather"):
            priced, winners = set(), set()
            for spec in beds:
                cands = comm.candidate_algorithms(spec, kind)
                priced.update(cands)
                for size in sizes:
                    best = choose_algorithm(spec, kind, size)
                    assert best in cands
                    winners.add(best)
                    if kind == "alltoall" and "hier2" in cands:
                        assert predict_time(spec, kind, size, "hier") > (
                            predict_time(spec, kind, size, best))
            assert winners == priced, (kind, priced - winners)
        multi = beds[3]
        assert "hier" not in comm.candidate_algorithms(multi, "alltoall")
        assert "hier" in comm.candidate_algorithms(multi, "allgather")


# ---------------------------------------------------------------------------
# the door: bad values are ParameterErrors naming the value
# ---------------------------------------------------------------------------

class TestEntryPointValidation:
    @pytest.mark.parametrize("payload", [float("nan"), -5.0, float("inf")])
    @pytest.mark.parametrize("entry", [
        "predict_time", "choose_algorithm", "build_plan", "alltoall_auto",
        "algorithm_table"])
    def test_refused_payload_never_poisons_the_verdict_cache(self, entry,
                                                             payload):
        from repro.analysis.plancheck import _VERDICTS, clear_verdicts

        spec = preset("8xP100")
        clear_verdicts()
        fresh = {a: predict_time(spec, "alltoall", float(PAYLOAD), a)
                 for a in ("direct", "ring", "bruck")}
        clear_verdicts()
        calls = {
            "predict_time": lambda: predict_time(spec, "alltoall", payload,
                                                 "ring"),
            "choose_algorithm": lambda: choose_algorithm(spec, "alltoall",
                                                         payload),
            "build_plan": lambda: build_plan(spec, "alltoall", payload, "ring"),
            "alltoall_auto": lambda: comm.alltoall(
                VirtualCluster(spec, execute=False), payload, "t",
                writes=["b"], algorithm="auto"),
            "algorithm_table": lambda: comm.algorithm_table(
                spec, sizes=(payload,)),
        }
        with pytest.raises(ParameterError, match="payload must be finite") as e:
            calls[entry]()
        assert not isinstance(e.value, PlanCheckError)
        assert repr(payload) in str(e.value)
        assert not _VERDICTS  # nothing was built, so nothing was certified
        # the good call right after: same answer as on a fresh process
        for a, t in fresh.items():
            assert predict_time(spec, "alltoall", float(PAYLOAD), a) == t

    @pytest.mark.parametrize("call, message", [
        (lambda cl: comm.alltoall(cl, 1e6, "t", writes=["b"], chunks=2.0),
         "chunks must be an int >= 1, got 2.0"),
        (lambda cl: comm.alltoall(cl, 1e6, "t", writes=["b"], chunks=0),
         "chunks must be an int >= 1, got 0"),
        (lambda cl: predict_time(cl.spec, "alltoall", 1e6, "ring", chunks=2.5),
         "chunks must be an int >= 1, got 2.5"),
        (lambda cl: comm.halo_exchange(
            cl, 8.0, "h", "s", "hb",
            after=[cl.host_op(0, "producer", writes=["s"])]),
         "after must be empty or hold G=8 entries, got 1"),
        (lambda cl: comm.grouped_alltoall(cl, 1e6, "g", groups=[["a", "b"]]),
         "group members must be device ids, got 'a'"),
    ], ids=["alltoall-chunks-float", "alltoall-chunks-zero",
            "predict-chunks-float", "halo-after-short", "group-member-str"])
    def test_bad_arguments_are_parameter_errors(self, call, message):
        cl = VirtualCluster(preset("8xP100"), execute=False)
        with pytest.raises(ParameterError, match=re.escape(message)):
            call(cl)
        assert len(cl.ledger) <= 1  # nothing issued past the producer


# ---------------------------------------------------------------------------
# bulk back-compat: the legacy model, bit for bit
# ---------------------------------------------------------------------------

def _record_key(r):
    return (r.device, r.stream, r.kind, r.name, r.start, r.duration,
            r.comm_bytes, r.peer, r.reads, r.writes)


class TestBulkBackCompat:
    def test_bulk_alltoall_identical_to_raw_collective(self):
        spec = preset("8xP100")
        cl_raw = VirtualCluster(spec, execute=False)
        cl_raw.alltoall(float(PAYLOAD), name="t",
                        reads=["src"], writes=["dst"])
        cl_new = VirtualCluster(spec, execute=False)
        comm.alltoall(cl_new, float(PAYLOAD), "t",
                      reads=["src"], writes=["dst"], algorithm="bulk")
        assert [_record_key(r) for r in cl_new.ledger] == (
            [_record_key(r) for r in cl_raw.ledger]
        )

    def test_bulk_allgather_identical_to_raw_collective(self):
        spec = preset("2xP100")
        cl_raw = VirtualCluster(spec, execute=False)
        cl_raw.allgather(float(PAYLOAD), "g", reads=["src"], writes=["dst"])
        cl_new = VirtualCluster(spec, execute=False)
        comm.allgather(cl_new, float(PAYLOAD), "g",
                       reads=["src"], writes=["dst"], algorithm="bulk")
        assert [_record_key(r) for r in cl_new.ledger] == (
            [_record_key(r) for r in cl_raw.ledger]
        )

    def test_default_pipeline_is_bulk(self):
        # the comm_algorithm knob defaults to the legacy model
        spec = preset("2xP100")
        cl_a = VirtualCluster(spec, execute=False)
        Distributed1DFFT(1 << 16, cl_a, dtype="complex128").run()
        cl_b = VirtualCluster(spec, execute=False)
        Distributed1DFFT(1 << 16, cl_b, dtype="complex128",
                         comm_algorithm="bulk").run()
        assert [_record_key(r) for r in cl_a.ledger] == (
            [_record_key(r) for r in cl_b.ledger]
        )


# ---------------------------------------------------------------------------
# byte accounting and self-sends (the satellite fixes)
# ---------------------------------------------------------------------------

class TestAccounting:
    def test_total_comm_bytes_algorithm_independent(self):
        # per-device payload convention: summing comm_bytes never
        # double-counts, so bulk and direct agree on the ledger total
        spec = preset("8xP100")
        totals = {}
        for algo in ("bulk", "direct"):
            cl = VirtualCluster(spec, execute=False)
            comm.alltoall(cl, float(PAYLOAD), "t",
                          reads=["s"], writes=["d"], algorithm=algo)
            totals[algo] = sum(r.comm_bytes for r in cl.ledger)
        assert totals["direct"] == pytest.approx(totals["bulk"])

    def test_self_send_records_zero_cost_op_with_declares(self):
        cl = VirtualCluster(preset("2xP100"), execute=False)
        ev = comm.sendrecv(cl, 1, 1, 4096.0, "copy",
                           reads=["a"], writes=["b"])
        assert ev.time == 0.0
        (r,) = list(cl.ledger)
        assert r.duration == 0.0
        assert r.comm_bytes == 0.0
        assert r.peer == 1
        assert r.reads == ((1, "a"),)
        assert r.writes == ((1, "b"),)

    def test_self_send_orders_after_dependencies(self):
        cl = VirtualCluster(preset("2xP100"), execute=False)
        ev0 = cl.launch(1, "k", "copy", flops=0.0, mops=1e6,
                        dtype="complex128", reads=["a"], writes=["a"])
        ev = comm.sendrecv(cl, 1, 1, 4096.0, "copy", after=[ev0],
                           reads=["a"], writes=["b"])
        assert ev.time == pytest.approx(ev0.time)
        assert find_hazards(cl.ledger).ok


# ---------------------------------------------------------------------------
# end to end: auto beats bulk on the DGX-1, hazard-free, valid trace
# ---------------------------------------------------------------------------

class TestEndToEnd:
    @pytest.fixture(scope="class")
    def dgx1_runs(self):
        spec = preset("8xP100")
        N = 1 << 20
        out = {}
        for algo in ("bulk", "auto"):
            cl = VirtualCluster(spec, execute=False)
            plan = FmmFftPlan.create(N=N, G=8, dtype="complex128",
                                     build_operators=False,
                                     **default_params(N))
            FmmFftDistributed(plan, cl, comm_algorithm=algo).run()
            out[algo] = cl
        return spec, out

    def test_auto_beats_bulk_fmmfft(self, dgx1_runs):
        _, runs = dgx1_runs
        assert runs["auto"].wall_time() < runs["bulk"].wall_time()

    def test_auto_beats_bulk_fft1d(self):
        bulk, auto = (simulate("fft1d", 1 << 20, preset("8xP100"),
                               comm_algorithm=algo).wall_time()
                      for algo in ("bulk", "auto"))
        assert auto < bulk

    def test_auto_schedule_is_hazard_free(self, dgx1_runs):
        _, runs = dgx1_runs
        report = find_hazards(runs["auto"].ledger)
        assert report.ok, report.render()

    def test_auto_trace_is_valid_perfetto(self, dgx1_runs):
        spec, runs = dgx1_runs
        doc = build_trace(runs["auto"].ledger, spec)
        assert validate_trace(doc) == []

    def test_comm_join_bulk_ratio_is_one(self, dgx1_runs):
        spec, runs = dgx1_runs
        cl = runs["bulk"]
        rep = compute_metrics(cl.ledger, spec, comm_log=cl.comm_log)
        assert rep.comm
        bulk = [c for c in rep.comm if c.algorithm == "bulk"]
        assert bulk
        for c in bulk:
            assert c.ratio == pytest.approx(1.0)
        for c in rep.comm:  # halos/plans: within the balance envelope
            assert 0.0 < c.ratio <= 1.0 + 1e-9
        assert rep.to_json()["comm_join"]

    def test_execute_mode_correct_under_plans(self):
        # the fn-at-issue contract survives the per-message decomposition
        import numpy as np

        spec = preset("2xP100")
        N = 1 << 12
        rng = np.random.default_rng(7)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for algo in ("direct", "ring", "bruck"):
            cl = VirtualCluster(spec, execute=True)
            y = Distributed1DFFT(N, cl, dtype="complex128",
                                 comm_algorithm=algo).run(x)
            ref = np.fft.fft(x)  # lint: allow-np-fft
            err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
            assert err < 1e-12, (algo, err)

    def test_execute_mode_correct_under_hier2(self):
        import numpy as np

        spec = multinode_p100(2, gpus_per_node=2)
        N = 1 << 12
        rng = np.random.default_rng(11)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for algo in ("hier", "hier2"):
            cl = VirtualCluster(spec, execute=True)
            y = Distributed1DFFT(N, cl, dtype="complex128",
                                 comm_algorithm=algo).run(x)
            ref = np.fft.fft(x)  # lint: allow-np-fft
            err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
            assert err < 1e-12, (algo, err)
            report = find_hazards(cl.ledger)
            assert report.ok, report.render()

    def test_hier2_schedule_hazard_free_on_routed_fabric(self):
        spec = routed_multinode_p100(4, gpus_per_node=2, radix=4)
        cl = VirtualCluster(spec, execute=False)
        evs = comm.alltoall(cl, float(PAYLOAD), "x", reads=["s"],
                            writes=["d"], algorithm="hier2")
        comm.allgather(cl, float(PAYLOAD), "g", after=evs, reads=["d"],
                       writes=["gath"], algorithm="hier2")
        report = find_hazards(cl.ledger)
        assert report.ok, report.render()
        assert cl.wall_time() > 0.0

    def test_hier2_fmmfft_hazard_free_on_routed_fabric(self):
        cl = simulate("fmmfft", 1 << 20, routed_multinode_p100(4, 4, radix=8),
                      comm_algorithm="hier2")
        assert len(cl.ledger) == 992
        assert any(c["algorithm"] == "hier2" for c in cl.comm_log)
        report = find_hazards(cl.ledger)
        assert report.ok, report.render()


class TestGroupedAlltoall:
    def test_members_exchange_and_outsiders_idle(self):
        spec = multinode_p100(2, gpus_per_node=4)
        cl = VirtualCluster(spec, execute=False)
        groups = [[0, 4], [1, 5], [2, 6]]  # device 3 and 7 sit out
        evs = comm.grouped_alltoall(cl, float(PAYLOAD), "px",
                                    groups=groups, reads=["s"], writes=["d"])
        assert len(evs) == 8
        touched = {r.device for r in cl.ledger}
        assert 3 not in touched and 7 not in touched
        report = find_hazards(cl.ledger)
        assert report.ok, report.render()
        # every pair inside a group exchanged the full per-peer share
        total = sum(r.comm_bytes for r in cl.ledger)
        assert total == pytest.approx(len(groups) * 2 * PAYLOAD)

    def test_merged_rounds_price_nic_contention(self):
        # three concurrent cross-node pair exchanges share each node's
        # NIC, so the merged issue is slower than one pair alone
        spec = multinode_p100(2, gpus_per_node=4)
        cl_lone = VirtualCluster(spec, execute=False)
        comm.grouped_alltoall(cl_lone, float(PAYLOAD), "px",
                              groups=[[0, 4]], reads=["s"], writes=["d"])
        cl_merged = VirtualCluster(spec, execute=False)
        comm.grouped_alltoall(cl_merged, float(PAYLOAD), "px",
                              groups=[[0, 4], [1, 5], [2, 6]],
                              reads=["s"], writes=["d"])
        assert cl_merged.wall_time() > 1.5 * cl_lone.wall_time()

    def test_overlapping_groups_rejected(self):
        cl = VirtualCluster(preset("8xP100"), execute=False)
        with pytest.raises(ParameterError):
            comm.grouped_alltoall(cl, 1e6, "px", groups=[[0, 1], [1, 2]],
                                  writes=["d"])


# ---------------------------------------------------------------------------
# the raw-comm lint rule
# ---------------------------------------------------------------------------

HDR = "from __future__ import annotations\n"


def rules(src, path):
    return [i.rule for i in lint_source(path, src)]


class TestRawCommLint:
    def test_raw_collective_flagged_in_pipeline(self):
        src = HDR + "def f(cl):\n    cl.alltoall(1.0, 't', reads=[], writes=[])\n"
        assert rules(src, "src/repro/dfft/x.py") == ["raw-comm"]

    def test_comm_receiver_ok_in_pipeline(self):
        src = HDR + ("def f(cl):\n"
                     "    comm.alltoall(cl, 1.0, 't', reads=[], writes=[])\n")
        assert rules(src, "src/repro/dfft/x.py") == []

    def test_raw_sendrecv_flagged_in_fmm(self):
        src = HDR + ("def f(cl):\n"
                     "    cl.sendrecv(0, 1, 8.0, 'm', reads=[], writes=[])\n")
        assert rules(src, "src/repro/fmm/x.py") == ["raw-comm"]

    def test_outside_pipelines_not_flagged(self):
        src = HDR + "def f(cl):\n    cl.alltoall(1.0, 't', reads=[], writes=[])\n"
        assert rules(src, "src/repro/util/x.py") == []

    def test_collective_internal_flagged_everywhere_else(self):
        src = HDR + "def f(cl):\n    cl._collective('t', 1.0)\n"
        assert rules(src, "src/repro/util/x.py") == ["raw-comm"]
        assert rules(src, "src/repro/machine/x.py") == []
        assert rules(src, "src/repro/comm/x.py") == []

    def test_pragma_waives(self):
        src = HDR + ("def f(cl):\n"
                     "    cl.alltoall(1.0, 't', reads=[], writes=[])"
                     "  # lint: allow-raw-comm\n")
        assert rules(src, "src/repro/dfft/x.py") == []


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------

class TestCommCli:
    def test_comm_table(self, capsys):
        assert main(["comm", "--testbed", "8xP100"]) == 0
        out = capsys.readouterr().out
        assert "bruck" in out and "vs bulk" in out

    def test_comm_table_json(self, capsys, tmp_path):
        path = tmp_path / "comm.json"
        assert main(["comm", "--testbed", "2xP100", "--json", str(path)]) == 0
        rows = json.loads(path.read_text())
        assert rows and all("predictions" in r and "best" in r for r in rows)

    def test_metrics_comm_flag(self, capsys):
        assert main(["metrics", "--pipeline", "fft1d", "--n", "2^16",
                     "--system", "8xP100", "--comm", "auto"]) == 0
        out = capsys.readouterr().out
        assert "Comm measured vs plan model" in out

    def test_analyze_comm_flag_sanitizes(self, capsys):
        assert main(["analyze", "--pipeline", "fft1d", "--n", "2^16",
                     "--system", "8xP100", "--comm", "bruck",
                     "--sanitize"]) == 0
