"""Execution traces: nvprof-style ASCII profiles.

Figure 2 of the paper is an nvprof timeline showing yellow (comm) bars
and compute kernels per GPU.  :meth:`ExecutionTrace.render_profile`
reproduces that view: one row per (device, stream), time flowing left to
right, comm ops drawn with ``~`` and compute ops with per-stage letters.
"""

from __future__ import annotations

from collections import defaultdict

from repro.machine.ledger import Ledger
from repro.machine.spec import ClusterSpec
from repro.util.table import format_time


class ExecutionTrace:
    """A read-only view over a run's ledger with rendering helpers."""

    def __init__(self, ledger: Ledger, spec: ClusterSpec):
        self.ledger = ledger
        self.spec = spec

    def wall_time(self) -> float:
        start, end = self.ledger.span()
        return end - start

    def hazards(self) -> "HazardReport":
        """Run the hazard sanitizer over this trace's ledger.

        Returns the :class:`~repro.analysis.hazards.HazardReport`; call
        ``.raise_if_any()`` on it for strict mode.  Imported lazily to
        keep the machine package free of an analysis dependency.
        """
        from repro.analysis.hazards import find_hazards

        return find_hazards(self.ledger)

    # -- rendering -------------------------------------------------------

    def render_profile(self, width: int = 100, devices: list[int] | None = None) -> str:
        """ASCII timeline: one row per (device, stream).

        Compute ops print the first letter of their stage name (uppercase),
        comm ops print ``~``.  Overlapping comm under compute — the
        paper's key qualitative observation — is directly visible as
        ``~`` runs aligned under kernel runs.
        """
        start, end = self.ledger.span()
        span = max(end - start, 1e-30)
        rows: dict[tuple[int, str], list] = defaultdict(list)
        for r in self.ledger:
            rows[(r.device, r.stream)].append(r)
        if devices is not None:
            rows = {k: v for k, v in rows.items() if k[0] in devices}
        lines = [f"profile: {self.spec.name}, wall {format_time(span)}"]
        legend: dict[str, str] = {}
        for (dev, stream) in sorted(rows):
            line = [" "] * width
            for r in rows[(dev, stream)]:
                c0 = int(width * (r.start - start) / span)
                c1 = int(width * (r.end - start) / span)
                c1 = max(c1, c0 + 1)
                ch = "~" if r.kind == "comm" else (r.name[:1].upper() or "?")
                if r.kind != "comm":
                    legend.setdefault(ch, r.name)
                for c in range(c0, min(c1, width)):
                    line[c] = ch
            lines.append(f"dev{dev}:{stream:<8}|{''.join(line)}|")
        if legend:
            lines.append(
                "legend: ~=comm  "
                + "  ".join(f"{ch}={name}" for ch, name in sorted(legend.items()))
            )
        return "\n".join(lines)

    def compute_time(self, device: int | None = None) -> float:
        """Total duration of non-comm ops (summed, not unioned)."""
        return sum(
            r.duration for r in self.ledger.records(device=device) if r.kind != "comm"
        )

    def comm_time(self, device: int | None = None) -> float:
        """Total duration of comm ops (summed, not unioned)."""
        return sum(
            r.duration for r in self.ledger.records(device=device) if r.kind == "comm"
        )
