"""The ``engine-site`` lint rule: one engine owns the simulated timeline.

IR graphs come from the capture layer (the engine's tape and
``repro.ir``); ledger records and stream-clock writes come from
``repro.machine`` alone; and the engine never imports the IR.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import RULES, lint_source

HEADER = "from __future__ import annotations\n"


def _rules(path, src):
    return [i.rule for i in lint_source(path, HEADER + src)]


class TestIrCaptureSite:
    def test_node_construction_outside_ir_flagged(self):
        src = "n = IRNode(op='launch', name='x')\n"
        assert "engine-site" in _rules("src/repro/serve/hack.py", src)

    def test_graph_construction_outside_ir_flagged(self):
        src = "g = IRGraph([], {})\n"
        assert "engine-site" in _rules("src/repro/core/hack.py", src)

    def test_attribute_construction_flagged(self):
        src = "import repro.ir.graph as irg\ng = irg.IRGraph([], {})\n"
        assert "engine-site" in _rules("src/repro/dfft/hack.py", src)

    def test_inside_repro_ir_allowed(self):
        src = "n = IRNode(op='launch', name='x')\ng = IRGraph([n], {})\n"
        assert "engine-site" not in _rules("src/repro/ir/fuse.py", src)

    def test_name_reference_without_call_allowed(self):
        src = "from repro.ir import IRGraph\n\n\ndef f(g: IRGraph):\n    return g\n"
        assert "engine-site" not in _rules("src/repro/serve/ok.py", src)

    def test_waiver_suppresses(self):
        src = "n = IRNode(op='launch')  # lint: allow-engine-site\n"
        assert "engine-site" not in _rules("src/repro/serve/hack.py", src)

    def test_rule_is_registered_and_waivable(self):
        assert "engine-site" in RULES

    def test_misspelled_waiver_reported(self):
        src = "n = IRNode(op='launch')  # lint: allow-engine-sight\n"
        rules = _rules("src/repro/serve/hack.py", src)
        assert "engine-site" in rules  # the typo waives nothing
        assert "unknown-waiver" in rules


class TestEngineSite:
    def test_tape_may_build_nodes(self):
        src = "n = IRNode(op='launch', name='x')\n"
        assert "engine-site" not in _rules("src/repro/machine/tape.py", src)

    def test_oprecord_outside_machine_flagged(self):
        src = "r = OpRecord(device=0, stream='s', kind='copy', name='x')\n"
        assert "engine-site" in _rules("src/repro/ir/executor.py", src)
        assert "engine-site" in _rules("src/repro/comm/api.py", src)
        src = "import repro.machine.ledger as L\nr = L.OpRecord()\n"
        assert "engine-site" in _rules("src/repro/serve/hack.py", src)

    def test_oprecord_inside_machine_allowed(self):
        src = "r = OpRecord(device=0, stream='s', kind='copy', name='x')\n"
        assert "engine-site" not in _rules("src/repro/machine/cluster.py", src)

    def test_clock_write_outside_machine_flagged(self):
        for stmt in ("st.clock = 1.0\n", "end = tx.clock = rx.clock = t\n",
                     "st.clock += dur\n"):
            assert "engine-site" in _rules("src/repro/ir/executor.py", stmt)
            assert "engine-site" not in _rules(
                "src/repro/machine/cluster.py", stmt)

    def test_clock_read_allowed(self):
        src = "t = max(st.clock, other.clock)\n"
        assert "engine-site" not in _rules("src/repro/comm/api.py", src)

    def test_machine_must_not_import_ir(self):
        for src in ("from repro.ir.graph import IRGraph\n",
                    "import repro.ir\n", "from repro import ir\n"):
            assert "engine-site" in _rules("src/repro/machine/cluster.py", src)
            assert "engine-site" not in _rules("src/repro/serve/x.py", src)
        ok = "from repro.machine.tape import IRNode\n"
        assert "engine-site" not in _rules("src/repro/machine/cluster.py", ok)

    def test_clock_write_waiver(self):
        src = "st.clock = 1.0  # lint: allow-engine-site\n"
        assert _rules("src/repro/ir/executor.py", src) == []
        elsewhere = "st.clock = 1.0\n# lint: allow-engine-site\n"
        assert _rules("src/repro/ir/executor.py", elsewhere) == ["engine-site"]

    def test_rule_count_unchanged(self):
        # engine-site replaced ir-capture-site one for one; launch-trig
        # (the per-op twiddle rule) is the thirteenth
        assert len(RULES) == 13 and "ir-capture-site" not in RULES

    def test_seeded_mutant_only_this_rule_catches(self):
        """A hand-advanced clock planted in the real replay loop."""
        path = Path(__file__).resolve().parents[1] / "src/repro/ir/executor.py"
        source = path.read_text()
        assert lint_source(str(path), source) == []
        anchor = "            ends.append(end)\n"
        assert anchor in source
        mutant = source.replace(
            anchor, anchor + "            self.cluster.devices[0].stream("
            "'compute').clock = end\n")
        assert [i.rule for i in lint_source(str(path), mutant)] == [
            "engine-site"]
