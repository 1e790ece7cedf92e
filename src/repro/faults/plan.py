"""Fault plans: validated, time-sorted schedules of fault events.

A :class:`FaultPlan` is pure data — it carries no simulator state, so the
same plan can be installed on any cluster and replayed exactly.  Plans are
built either from a declarative scenario spec (a list of small dicts, see
:meth:`FaultPlan.from_scenario`) or sampled from a seeded
:class:`repro.faults.model.FaultModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

#: A disk stops responding; with ``duration`` it comes back by itself,
#: without one it stays dead until an explicit ``disk_recover``.
DISK_FAIL = "disk_fail"
#: A previously failed disk returns to service.
DISK_RECOVER = "disk_recover"
#: A disk serves at ``factor``-times its nominal service time for
#: ``duration`` seconds (transient degradation: vibration, firmware GC,
#: a rebuilding neighbour...).
DISK_SLOW = "disk_slow"
#: A filer crashes for ``duration`` seconds: its disks stop serving and
#: its link goes dark until the restart.
FILER_CRASH = "filer_crash"
#: The client link to one filer gains ``extra_s`` one-way latency for
#: ``duration`` seconds.
LINK_DEGRADE = "link_degrade"

KINDS = (DISK_FAIL, DISK_RECOVER, DISK_SLOW, FILER_CRASH, LINK_DEGRADE)

#: Which spec keys each kind accepts beyond ``at``/``fault``/its target.
_KIND_PARAMS = {
    DISK_FAIL: {"disk", "duration"},
    DISK_RECOVER: {"disk"},
    DISK_SLOW: {"disk", "duration", "factor"},
    FILER_CRASH: {"filer", "duration"},
    LINK_DEGRADE: {"filer", "duration", "extra_s"},
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    t:
        Simulated time (seconds from access start) the fault fires.
    kind:
        One of the module-level kind constants.
    disk / filer:
        The target (exactly one is set, depending on the kind).
    duration:
        Window length for transient faults; ``None`` on a ``disk_fail``
        means permanent (until an explicit recover), and is invalid for
        the other windowed kinds.
    factor:
        Service-time multiplier for ``disk_slow`` (>= 1).
    extra_s:
        Added one-way latency for ``link_degrade`` (> 0).
    """

    t: float
    kind: str
    disk: Optional[int] = None
    filer: Optional[int] = None
    duration: Optional[float] = None
    factor: Optional[float] = None
    extra_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if not (isinstance(self.t, (int, float)) and math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"fault time must be finite and non-negative, got {self.t!r}")
        needs_disk = self.kind in (DISK_FAIL, DISK_RECOVER, DISK_SLOW)
        if needs_disk:
            if self.disk is None or self.filer is not None:
                raise ValueError(f"{self.kind} targets a disk (got disk={self.disk}, filer={self.filer})")
            if int(self.disk) < 0:
                raise ValueError(f"disk id must be non-negative, got {self.disk}")
        else:
            if self.filer is None or self.disk is not None:
                raise ValueError(f"{self.kind} targets a filer (got disk={self.disk}, filer={self.filer})")
            if int(self.filer) < 0:
                raise ValueError(f"filer id must be non-negative, got {self.filer}")
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration > 0
        ):
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        if self.kind in (DISK_SLOW, FILER_CRASH, LINK_DEGRADE) and self.duration is None:
            raise ValueError(f"{self.kind} requires a duration")
        if self.kind == DISK_SLOW:
            if self.factor is None or not math.isfinite(self.factor) or self.factor < 1.0:
                raise ValueError(f"disk_slow needs factor >= 1, got {self.factor!r}")
        elif self.factor is not None:
            raise ValueError(f"factor is only valid for {DISK_SLOW}")
        if self.kind == LINK_DEGRADE:
            if self.extra_s is None or not math.isfinite(self.extra_s) or self.extra_s <= 0:
                raise ValueError(f"link_degrade needs extra_s > 0, got {self.extra_s!r}")
        elif self.extra_s is not None:
            raise ValueError(f"extra_s is only valid for {LINK_DEGRADE}")

    @property
    def end(self) -> Optional[float]:
        """Window end for transient faults, ``None`` for open-ended ones."""
        return None if self.duration is None else self.t + self.duration

    def describe(self) -> dict:
        """Canonical JSON-able form (used by scenario round-trips/goldens)."""
        out: dict = {"at": self.t, "fault": self.kind}
        for key in ("disk", "filer", "duration", "factor", "extra_s"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


class FaultPlan:
    """An immutable, time-sorted sequence of :class:`FaultEvent`.

    Sorting is by (time, kind, target) so plans built from the same events
    in any order compare — and replay — identically.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        evts = sorted(
            events,
            key=lambda e: (e.t, e.kind, -1 if e.disk is None else e.disk,
                           -1 if e.filer is None else e.filer),
        )
        self._events: tuple[FaultEvent, ...] = tuple(evts)
        self._validate_pairing()

    def _validate_pairing(self) -> None:
        """Recovery of a disk that never failed is a spec bug — reject it."""
        down: set[int] = set()
        for ev in self._events:
            if ev.kind == DISK_FAIL:
                disk = int(ev.disk)  # type: ignore[arg-type]
                if disk in down:
                    raise ValueError(f"disk {disk} fails at t={ev.t} while already failed")
                if ev.duration is None:
                    down.add(disk)
            elif ev.kind == DISK_RECOVER:
                disk = int(ev.disk)  # type: ignore[arg-type]
                if disk not in down:
                    raise ValueError(
                        f"disk {disk} recovers at t={ev.t} without a preceding "
                        f"open-ended disk_fail"
                    )
                down.discard(disk)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_scenario(cls, spec: Sequence[Mapping]) -> "FaultPlan":
        """Build a plan from the declarative scenario spec.

        ``spec`` is a list of dicts, each with ``at`` (seconds), ``fault``
        (a kind name) and the kind's parameters, e.g.::

            FaultPlan.from_scenario([
                {"at": 0.5, "fault": "disk_fail", "disk": 3},
                {"at": 2.0, "fault": "disk_recover", "disk": 3},
                {"at": 0.2, "fault": "disk_slow", "disk": 7,
                 "factor": 4.0, "duration": 1.5},
                {"at": 1.0, "fault": "filer_crash", "filer": 0, "duration": 0.5},
                {"at": 0.0, "fault": "link_degrade", "filer": 1,
                 "extra_s": 0.05, "duration": 2.0},
            ])

        The spec is JSON-serialisable; :meth:`describe` round-trips it.
        """
        events = []
        for i, entry in enumerate(spec):
            entry = dict(entry)
            try:
                t = float(entry.pop("at"))
                kind = str(entry.pop("fault"))
            except KeyError as exc:
                raise ValueError(f"scenario entry {i} is missing {exc}") from None
            allowed = _KIND_PARAMS.get(kind)
            if allowed is None:
                raise ValueError(f"scenario entry {i}: unknown fault kind {kind!r}")
            unknown = set(entry) - allowed
            if unknown:
                raise ValueError(
                    f"scenario entry {i} ({kind}): unexpected keys {sorted(unknown)}"
                )
            events.append(FaultEvent(t=t, kind=kind, **entry))
        return cls(events)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan (installing it must perturb nothing)."""
        return cls(())

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    @property
    def is_empty(self) -> bool:
        return not self._events

    def describe(self) -> list[dict]:
        """The canonical scenario spec (JSON-able; round-trips exactly)."""
        return [e.describe() for e in self._events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self._events)} events)"
