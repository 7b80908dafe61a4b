"""Retry policy for communication under injected faults.

When a :class:`~repro.faults.FaultInjector` is installed on the cluster,
every message (and every bulk collective) attempt can fail transiently.
The engine's issue halves then charge a *timed-out attempt* to the
ledger — a zero-byte ``<stage>!fail`` record of duration
:attr:`RetryPolicy.timeout` on the same engines the real transfer would
occupy — wait out an exponential backoff with seeded jitter, and try
again.  A budget per comm-layer call bounds the total failed attempts;
exhausting it (or hitting a permanent fault such as device loss) raises
:class:`CommFailure`, which the serve layer catches to re-enqueue the
batch.  The policy lives beside the engine that applies it;
:mod:`repro.comm` re-exports the three names.

Jitter is *stateless*: a hash of (seed, stage name, attempt index)
rather than a consumed generator, so a shared policy object replays
bit-identically no matter how many runs it has seen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.util.validation import ParameterError


class CommFailure(RuntimeError):
    """A collective could not complete.

    Attributes
    ----------
    time:
        Simulated time at which the failure was established (budget
        exhausted or permanent fault detected).
    permanent:
        True for non-retryable causes (device loss) — retrying the same
        schedule cannot succeed; False when the retry budget ran out.
    """

    def __init__(self, message: str, time: float = 0.0, permanent: bool = False):
        super().__init__(message)
        self.time = time
        self.permanent = permanent


def _unit(*keys) -> float:
    """Deterministic uniform [0, 1) from a hash of the keys."""
    h = hashlib.sha256(repr(keys).encode()).digest()
    return int.from_bytes(h[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / backoff / budget knobs for comm retries.

    Attributes
    ----------
    timeout:
        Simulated seconds a failed attempt occupies the comm engines
        before the failure is detected (the ``!fail`` record duration).
    backoff:
        Base delay before the first retry.
    backoff_factor:
        Multiplier per subsequent retry (exponential backoff).
    max_backoff:
        Cap on the exponential delay (before jitter).
    jitter:
        Jitter fraction in [0, 1]: each delay is stretched by up to
        ``jitter * delay``, deterministically per (seed, stage, attempt).
    budget:
        Failed attempts tolerated per comm-layer call (one ``comm_log``
        entry) before the call raises :class:`CommFailure`.
    seed:
        Jitter seed.
    """

    timeout: float = 250e-6
    backoff: float = 50e-6
    backoff_factor: float = 2.0
    max_backoff: float = 2e-3
    jitter: float = 0.25
    budget: int = 8
    seed: int = 0

    def __post_init__(self):
        for attr in ("timeout", "backoff", "max_backoff"):
            if getattr(self, attr) <= 0.0:
                raise ParameterError(f"{attr} must be > 0, got {getattr(self, attr)!r}")
        if self.backoff_factor < 1.0:
            raise ParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ParameterError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget!r}")

    def delay(self, name: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based) of a stage."""
        base = min(self.backoff * self.backoff_factor**attempt, self.max_backoff)
        return base * (1.0 + self.jitter * _unit(self.seed, name, attempt))


#: policy used when a cluster has faults installed but no explicit policy
DEFAULT_RETRY = RetryPolicy()
