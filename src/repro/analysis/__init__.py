"""Static and dynamic analyses over the reproduction.

Three legs:

- :mod:`repro.analysis.hazards` — a TSan-style hazard sanitizer for the
  virtual cluster.  It rebuilds the happens-before graph of a recorded
  run (stream program order + event wait edges) and proves the
  paper's overlap claims race-free: any pair of ops that touch the same
  buffer, overlap in simulated time, and have no ordering edge is a
  RAW/WAR/WAW hazard the real CUDA code could hit.
- :mod:`repro.analysis.plancheck` — a static plan verifier that
  certifies a :class:`~repro.comm.plans.CommPlan` *before* any op runs:
  deadlock-freedom (send/recv matching, round-dependency cycles),
  payload-matrix conservation (every logical block delivered exactly
  once) and buffer liveness (no dangling staging reads, no dead
  stores).  Wired into ``build_plan`` behind a fingerprint-keyed
  verdict cache; swept from ``repro verify``.
- :mod:`repro.analysis.lint` — repo-specific AST lint rules enforcing
  the numeric discipline the kernels depend on (dtype hygiene, declared
  launch data-flow, no stray ``np.fft``, no wall clocks or unseeded
  randomness, no mutable defaults, no bare ``except``, postponed
  annotations).

All three report through one schema, :mod:`repro.analysis.findings`,
so CI annotates lint, sanitizer, and verifier output from a single
JSON document.
"""

from __future__ import annotations

from repro.analysis.findings import (
    Finding,
    findings_doc,
    from_hazards,
    from_lint,
    load_findings,
    write_findings,
)
from repro.analysis.hazards import (
    Hazard,
    HazardError,
    HazardReport,
    find_hazards,
    happens_before,
)
from repro.analysis.lint import LintIssue, lint_file, lint_paths
from repro.analysis.plancheck import (
    PlanCertificate,
    PlanCheckError,
    certify_plan,
    check_plan,
    clear_verdicts,
    verify_matrix,
)

__all__ = [
    "Finding",
    "Hazard",
    "HazardError",
    "HazardReport",
    "LintIssue",
    "PlanCertificate",
    "PlanCheckError",
    "certify_plan",
    "check_plan",
    "clear_verdicts",
    "find_hazards",
    "findings_doc",
    "from_hazards",
    "from_lint",
    "happens_before",
    "lint_file",
    "lint_paths",
    "load_findings",
    "verify_matrix",
    "write_findings",
]
