"""Transform requests and synthetic open-loop workloads.

A :class:`TransformRequest` is the unit of work the serving layer
admits, batches, and schedules: one 1D FMM-FFT of a given size and
precision, stamped with its (simulated) arrival time and a deadline
class.  :func:`synthetic_workload` generates the Poisson-arrival /
size-mix traffic the ``repro serve`` CLI and the serving tests drive —
the open-loop model under which throughput and tail latency are
meaningful (a closed loop would self-throttle and hide queueing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.bitmath import is_pow2
from repro.util.validation import ParameterError, complex_dtype_for

#: admissible deadline classes, in scheduling-priority order
DEADLINE_CLASSES = ("interactive", "batch")

#: default arrival-to-completion latency target per class, seconds.
#: Finishing later counts as a deadline miss in :class:`ServeReport`,
#: and a request already past its target is shed rather than retried
#: when its batch fails (see docs/FAULTS.md).
DEADLINE_TARGETS = {"interactive": 10e-3, "batch": 100e-3}


def count_by_class(classes) -> dict[str, int]:
    """How many of ``classes`` (deadline-class names) fall in each class."""
    counts = dict.fromkeys(DEADLINE_CLASSES, 0)
    for c in classes:
        counts[c] += 1
    return counts


@dataclass(frozen=True)
class TransformRequest:
    """One FMM-FFT to serve.

    Attributes
    ----------
    rid:
        Caller-unique request id (stable across replays — determinism
        tests compare ledgers keyed by it).
    N:
        Transform size (power of two).
    dtype:
        Working precision, complex64 or complex128.
    arrival:
        Simulated arrival time in seconds (>= 0).
    deadline:
        ``"interactive"`` requests are scheduled ahead of ``"batch"``
        requests; within a class, admission order is FIFO.
    x:
        Optional length-N payload.  When the service runs with numerics
        enabled, outputs are computed host-side via
        :func:`repro.core.single.fmmfft_batched`; timing-only services
        ignore it.
    """

    rid: int
    N: int
    dtype: str = "complex128"
    arrival: float = 0.0
    deadline: str = "batch"
    x: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not is_pow2(self.N):
            raise ParameterError(f"request size must be a power of two, got {self.N}")
        if np.dtype(self.dtype).kind != "c":
            raise ParameterError(
                f"dtype must be complex64/complex128, got {self.dtype!r}"
            )
        if not 0.0 <= self.arrival < math.inf:
            raise ParameterError(
                f"arrival must be finite and >= 0, got {self.arrival}")
        if self.deadline not in DEADLINE_CLASSES:
            raise ParameterError(
                f"deadline must be one of {DEADLINE_CLASSES}, got {self.deadline!r}"
            )
        if self.x is not None and np.asarray(self.x).shape != (self.N,):
            raise ParameterError(
                f"payload must have shape ({self.N},), got {np.asarray(self.x).shape}"
            )


@dataclass(frozen=True)
class CompletedRequest:
    """Outcome of one served request (the stats layer's raw material)."""

    request: TransformRequest
    batch_id: int
    batch_size: int
    release: float
    finish: float

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queueing + planning + execution)."""
        return self.finish - self.request.arrival


def synthetic_workload(
    num_requests: int,
    rate: float,
    sizes: dict[int, float] | None = None,
    dtype: str = "complex128",
    interactive_fraction: float = 0.25,
    seed: int = 0,
    with_payloads: bool = False,
) -> list[TransformRequest]:
    """Generate an open-loop Poisson workload.

    Parameters
    ----------
    num_requests:
        Number of requests to generate.
    rate:
        Offered load in requests/second; interarrival gaps are
        exponential with mean ``1/rate``.
    sizes:
        Size mix as ``{N: weight}`` (weights need not be normalized);
        default is a 3:2:1 mix of 2^16 / 2^17 / 2^18.
    dtype:
        Working precision of every request.
    interactive_fraction:
        Probability a request is deadline class ``"interactive"``.
    seed:
        PRNG seed — workloads are bit-reproducible per seed.
    with_payloads:
        Attach random complex payload vectors (needed for
        numerics-enabled serving; costly at large N).
    """
    if num_requests < 1:
        raise ParameterError(f"num_requests must be >= 1, got {num_requests}")
    if not rate > 0.0:
        raise ParameterError(f"rate must be > 0, got {rate}")
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ParameterError(
            f"interactive_fraction must be in [0, 1], got {interactive_fraction}"
        )
    if sizes is None:
        sizes = {1 << 16: 3.0, 1 << 17: 2.0, 1 << 18: 1.0}
    for n in sizes:
        if not is_pow2(n):
            raise ParameterError(f"size-mix entries must be powers of two, got {n}")
    ns = sorted(sizes)
    w = np.array([sizes[n] for n in ns], dtype=np.float64)
    if not np.all(w > 0):
        raise ParameterError("size-mix weights must be positive")
    w /= w.sum()

    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    arrivals = np.cumsum(gaps)
    picks = rng.choice(len(ns), size=num_requests, p=w)
    interactive = rng.random(num_requests) < interactive_fraction
    out: list[TransformRequest] = []
    for i in range(num_requests):
        n = ns[picks[i]]
        x = None
        if with_payloads:
            x = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ).astype(complex_dtype_for(dtype))
        out.append(
            TransformRequest(
                rid=i, N=n, dtype=dtype, arrival=float(arrivals[i]),
                deadline="interactive" if interactive[i] else "batch", x=x,
            )
        )
    return out
