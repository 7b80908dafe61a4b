"""Operation ledger: the simulator's profiling record.

Every launch/copy/message the :class:`~repro.machine.cluster.VirtualCluster`
issues appends one :class:`OpRecord`.  The ledger is the single source of
truth for "measured" results: Figure 2's profile, Figure 4's per-kernel
time fractions, Figure 5's efficiency ratios, and the cross-checks
between simulated counts and the Section 5 closed-form model all read
from it.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from typing import Iterator, NamedTuple


#: op kinds with distinct costing rules in the engine
KINDS = ("gemm", "batched_gemm", "gemv", "custom", "fft", "copy", "comm", "host")

#: :meth:`Ledger.stamp`'s constructor: ``OpRecord._make`` unchecked
_new_record = tuple.__new__


class OpRecord(NamedTuple):
    """One simulated operation: an immutable named tuple, since one is
    built per simulated op (by :meth:`Ledger.stamp` on the engine's
    path) and a tuple is the cheapest object Python builds.

    Attributes
    ----------
    device:
        Executing device id (for comm ops, the sender).
    stream:
        Stream name on the device ('compute', 'comm', ...).
    kind:
        One of :data:`KINDS`.
    name:
        Stage label ('S2M', 'M2L-B', 'transpose1', ...).
    start, duration:
        Simulated seconds.
    flops:
        Real floating-point operations performed.
    mops:
        Bytes moved through device memory.
    comm_bytes:
        Bytes this record's device injects into the interconnect (comm
        ops only).  P2P transfers record the full message once, on the
        source; collectives record the per-device payload on every
        participant, so a collective's ledger total is G x payload and
        summing ``comm_bytes`` never double-counts a byte.  Self-sends
        (local copies) record 0.0.
    peer:
        Receiving device id for point-to-point comm, else -1.
    uid:
        Ledger-unique operation id, assigned on append (or preserved
        when already >= 0).  Events reference their producing op by uid,
        which is what the hazard sanitizer's happens-before graph is
        built from.
    reads, writes:
        Declared buffer access sets as ``(device, buffer)`` pairs.
        Sub-resources use ``"buf#part"`` naming; a whole-buffer access
        conflicts with any of its parts.  Empty for legacy records.
    waits:
        Uids of the ops whose completion events this op waited on (its
        explicit cross-stream dependency edges).
    region:
        Hierarchical pipeline-stage path (``"fmmfft/fmm"``) stamped by
        the engine from the active ``cluster.region(...)`` scopes.
        Empty for ops issued outside any region.  Metrics roll up by
        this path, so stage accounting survives renames of individual
        kernels (see :mod:`repro.obs`).
    """

    device: int
    stream: str
    kind: str
    name: str
    start: float
    duration: float
    flops: float = 0.0
    mops: float = 0.0
    comm_bytes: float = 0.0
    peer: int = -1
    uid: int = -1
    reads: tuple = ()
    writes: tuple = ()
    waits: tuple = ()
    region: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def interval(self) -> tuple[float, float]:
        """The op's simulated occupancy interval ``[start, end]``."""
        return (self.start, self.end)


class Ledger:
    """Append-only list of :class:`OpRecord` with aggregation helpers.

    ``append`` validates records (known kind, finite non-negative
    timing) and assigns each a ledger-unique ``uid`` so events and
    dependency declarations stay attributable.
    """

    def __init__(self) -> None:
        self._records: list[OpRecord] = []
        self._next_uid = 0

    def append(self, rec: OpRecord) -> int:
        """Validate, uid-stamp, and store a record; returns its uid."""
        if rec.kind not in KINDS:
            raise ValueError(f"unknown op kind {rec.kind!r}")
        if not rec.name:
            raise ValueError("op records need a non-empty stage name")
        if not (math.isfinite(rec.start) and math.isfinite(rec.duration)):
            raise ValueError(
                f"op {rec.name!r} has non-finite timing "
                f"(start={rec.start!r}, duration={rec.duration!r})"
            )
        if rec.duration < 0.0:
            raise ValueError(
                f"op {rec.name!r} has negative duration {rec.duration!r}"
            )
        if rec.uid < 0:
            rec = rec._replace(uid=self._next_uid)
        self._next_uid = max(self._next_uid, rec.uid) + 1
        self._records.append(rec)
        return rec.uid

    def stamp(self, device, stream, kind, name, start, duration, flops,
              mops, comm_bytes, peer, reads, writes, waits, region) -> int:
        """Build a record with the next uid and store it; returns the uid.

        The engine's one call per simulated op (the issue halves of
        :class:`~repro.machine.cluster.VirtualCluster`, eager and
        replayed alike): the pricing halves have already validated what
        :meth:`append` checks, and the tuple is built with no keywords."""
        uid = self._next_uid
        self._next_uid = uid + 1
        self._records.append(_new_record(OpRecord, (
            device, stream, kind, name, start, duration, flops, mops,
            comm_bytes, peer, uid, reads, writes, waits, region)))
        return uid

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self._records)

    def records(
        self,
        device: int | None = None,
        kind: str | None = None,
        name: str | None = None,
        stream: str | None = None,
    ) -> list[OpRecord]:
        """Filter records by any combination of fields."""
        out = []
        for r in self._records:
            if device is not None and r.device != device:
                continue
            if kind is not None and r.kind != kind:
                continue
            if name is not None and r.name != name:
                continue
            if stream is not None and r.stream != stream:
                continue
            out.append(r)
        return out

    # -- aggregates ----------------------------------------------------

    def total(self, field_name: str, **filters) -> float:
        """Sum a numeric field over filtered records."""
        return sum(getattr(r, field_name) for r in self.records(**filters))

    def time_by_name(self, device: int | None = None) -> dict[str, float]:
        """Total duration per stage name (summed over devices/streams)."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.records(device=device):
            acc[r.name] += r.duration
        return dict(acc)

    def flops_by_name(self, device: int | None = None) -> dict[str, float]:
        """Total flops per stage name."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.records(device=device):
            acc[r.name] += r.flops
        return dict(acc)

    def mops_by_name(self, device: int | None = None) -> dict[str, float]:
        """Total memory bytes per stage name."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.records(device=device):
            acc[r.name] += r.mops
        return dict(acc)

    def time_by_region(self, device: int | None = None) -> dict[str, float]:
        """Total duration per region path (``""`` for unregioned ops)."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.records(device=device):
            acc[r.region] += r.duration
        return dict(acc)

    def comm_bytes_by_name(self, device: int | None = None) -> dict[str, float]:
        """Total interconnect bytes per stage name."""
        acc: dict[str, float] = defaultdict(float)
        for r in self.records(device=device):
            if r.comm_bytes:
                acc[r.name] += r.comm_bytes
        return dict(acc)

    def launch_count(self, device: int | None = None, compute_only: bool = True) -> int:
        """Number of kernel launches (excluding comm/host by default)."""
        n = 0
        for r in self.records(device=device):
            if compute_only and r.kind in ("comm", "host"):
                continue
            n += 1
        return n

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all records.

        An empty ledger has a defined span of ``(0.0, 0.0)`` — callers
        (profile rendering, wall-time deltas) need not special-case it.
        """
        if not self._records:
            return (0.0, 0.0)
        return (
            min(r.start for r in self._records),
            max(r.end for r in self._records),
        )

    def fingerprint(self) -> str:
        """Order-sensitive content hash over every field of every record.

        Two runs with equal fingerprints issued the same ops with the
        same timings, dependencies, and declares, in the same order —
        the replay-determinism check used by chaos runs (same seed ⇒
        same fingerprint) and the zero-fault twin test (injector
        installed but silent ⇒ fingerprint equals the seed ledger's).
        Floats are hashed via ``repr`` so the check is bit-exact.
        """
        h = hashlib.sha256()
        for r in self._records:
            h.update(repr(tuple(r)).encode())
        return h.hexdigest()

    def by_uid(self, uid: int) -> OpRecord:
        """Look up a record by its uid (linear scan; diagnostics only)."""
        for r in self._records:
            if r.uid == uid:
                return r
        raise KeyError(f"no op with uid {uid}")

    def merge(self, other: "Ledger") -> None:
        """Append all records from another ledger (multi-phase runs).

        Uids (and the ``waits`` references among them) are shifted past
        this ledger's counter so merged records stay unique and their
        dependency edges stay internally consistent.
        """
        shift = self._next_uid
        for r in other._records:
            self._records.append(r._replace(
                uid=r.uid + shift if r.uid >= 0 else r.uid,
                waits=tuple(w + shift for w in r.waits)))
        self._next_uid += other._next_uid
