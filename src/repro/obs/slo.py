"""Windowed SLO evaluation with multi-window burn-rate alerts.

The serve tier's objective is availability against the deadline
targets: the fraction of a class's requests that finished within their
target (a request shed on retry is a miss).  :func:`slo_timeline` reads
a finished run's outcomes in time order and, at each, takes that
fraction over two rolling windows of simulated time — the SRE
multi-window pattern scaled down to millisecond traces — as a **burn
rate**: miss fraction over the error budget (``1 - objective``).  Burn
≥ ``burn_threshold`` in *both* windows trips an alert, which clears
when the short window recovers.  A serve run's timeline is part of its
:func:`repro.obs.fold.fold_run`: the burn samples and transitions become
the ``slo.*`` telemetry series, and the alerts land on the serve
Perfetto track and in the ``serve-run`` JSON document.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass

from repro.util.validation import ParameterError


@dataclass(frozen=True)
class SloObjective:
    """Availability objective + alerting windows for one deadline class.

    Attributes
    ----------
    availability:
        Target fraction of completions inside the deadline (error
        budget is ``1 - availability``).
    short_window, long_window:
        Rolling windows in simulated seconds; the long window must not
        be shorter than the short one.
    burn_threshold:
        Burn rate both windows must reach to trigger an alert.
    """

    availability: float = 0.9
    short_window: float = 5e-3
    long_window: float = 25e-3
    burn_threshold: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.availability < 1.0:
            raise ParameterError(
                f"availability must be in (0, 1), got {self.availability!r}"
            )
        if self.short_window <= 0.0 or self.long_window < self.short_window:
            raise ParameterError(
                "windows must satisfy 0 < short <= long, got "
                f"({self.short_window!r}, {self.long_window!r})"
            )
        if self.burn_threshold <= 0.0:
            raise ParameterError(
                f"burn_threshold must be > 0, got {self.burn_threshold!r}"
            )


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate alert transition (trigger or clear)."""

    time: float
    deadline_class: str
    kind: str  # "trigger" | "clear"
    short_burn: float
    long_burn: float


def burn_rate(misses: int, n: int, objective: SloObjective) -> float:
    """Burn of a window holding ``n`` outcomes, ``misses`` of them
    misses: the miss fraction over the error budget (0.0 when empty)."""
    return (misses / n) / (1.0 - objective.availability) if n else 0.0


@dataclass(frozen=True)
class SloTimeline:
    """The objectives' burn rates and alerts over one finished run."""

    objectives: dict[str, SloObjective]
    #: per class, ``(time, short burn, long burn)`` at each of its outcomes
    burns: dict[str, list[tuple[float, float, float]]]
    #: trigger/clear transitions in time order
    alerts: list[SloAlert]

    def active(self, cls: str) -> bool:
        """True when the class's alert was still firing at the end."""
        kinds = [a.kind for a in self.alerts if a.deadline_class == cls]
        return bool(kinds) and kinds[-1] == "trigger"

    def to_json(self) -> dict:
        """JSON-ready objectives + alert timeline for the serve-run doc."""
        return {
            "objectives": {cls: asdict(o) for cls, o in self.objectives.items()},
            "alerts": [asdict(a) for a in self.alerts],
        }


def slo_timeline(outcomes, objectives: dict[str, SloObjective] | None = None
                 ) -> SloTimeline:
    """Evaluate the objectives over ``(time, deadline class, in target)``
    outcomes, taken in time order (a stable sort: ties keep their given
    order), whatever order they are given in.

    At each outcome, a window holds the class's outcomes so far that are
    newer than ``time - window``.  Classes missing from ``objectives``
    get the default :class:`SloObjective`.
    """
    # local import: serve.scheduler imports this module, so pulling
    # serve.request at module scope would close an import cycle
    from repro.serve.request import DEADLINE_CLASSES

    objs = {cls: (objectives or {}).get(cls, SloObjective())
            for cls in DEADLINE_CLASSES}
    times: dict[str, list[float]] = {cls: [] for cls in objs}
    misses: dict[str, list[int]] = {cls: [0] for cls in objs}
    burns: dict[str, list] = {cls: [] for cls in objs}
    alerts: list[SloAlert] = []
    active = {cls: False for cls in objs}
    for t, cls, ok in sorted(outcomes, key=lambda o: o[0]):
        obj, ts, ms = objs[cls], times[cls], misses[cls]
        ts.append(t)
        ms.append(ms[-1] + (not ok))
        short, long_ = (burn_rate(ms[-1] - ms[lo], len(ts) - lo, obj)
                        for lo in (bisect_right(ts, t - obj.short_window),
                                   bisect_right(ts, t - obj.long_window)))
        burns[cls].append((t, short, long_))
        if not active[cls] and (short >= obj.burn_threshold
                                and long_ >= obj.burn_threshold):
            active[cls] = True
            alerts.append(SloAlert(t, cls, "trigger", short, long_))
        elif active[cls] and short < obj.burn_threshold:
            active[cls] = False
            alerts.append(SloAlert(t, cls, "clear", short, long_))
    return SloTimeline(objs, burns, alerts)
