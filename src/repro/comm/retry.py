"""The comm layer's fault-handling contract (see ``docs/FAULTS.md``).

The policy is applied by the engine's issue halves, so it is defined
beside them in :mod:`repro.machine.retry`; this module keeps the
historical import path.
"""

from __future__ import annotations

from repro.machine.retry import (  # noqa: F401 - re-exported
    DEFAULT_RETRY,
    CommFailure,
    RetryPolicy,
)
