"""Layer contracts: the four policy protocols and their exchange types.

Every policy object is **stateless**: per-access state lives in the
tracker / stream / run structures the pipeline creates, never on the
policy instance (lint rule SIM007).  One policy instance is therefore
safely shared across schemes, trials and threads of experimentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.accesscore.result import AccessConfig, AccessResult
    from repro.accesscore.trackers import CompletionTracker
    from repro.cluster.metadata import FileRecord
    from repro.core.base import SchemeBase
    from repro.core.policy.compose import SchemeSpec


@dataclass(frozen=True)
class PlacementSpec:
    """A provisioned layout: per-disk stored queues plus metadata."""

    placement: list  # stored block ids per disk index
    coding: dict  # the FileRecord coding descriptor
    extra: dict = field(default_factory=dict)  # FileRecord extras (graph, stripes)


@dataclass(frozen=True)
class ReadPlan:
    """What one read will request — produced by the fault reaction layer.

    ``extra`` seeds the result's ``extra`` dict (e.g. ``degraded``);
    ``tracker_args`` parameterises the completion policy's tracker (e.g.
    RAID-5's failed position).
    """

    disk_ids: Sequence[int]
    placement: list
    extra: dict = field(default_factory=dict)
    tracker_args: dict = field(default_factory=dict)


@runtime_checkable
class PlacementPolicy(Protocol):
    """Where blocks live; also how the adaptive dispatcher sees the layout."""

    def plan(self, cfg: "AccessConfig", n_disks: int, trial: int) -> PlacementSpec:
        """Provision a balanced layout for ``n_disks`` disks."""
        ...

    def adaptive_units(
        self, cfg: "AccessConfig", record: "FileRecord"
    ) -> tuple[list[list[int]], dict[int, set[int]]]:
        """(round-1 unit ids per disk index, unit id -> holder disk indexes).

        Units are what the adaptive dispatcher requests, steals and feeds
        to the completion tracker: original block ids for replicated
        layouts (any holder can serve them), stored coded ids for coded
        layouts (a single holder each — stealing degenerates gracefully).
        """
        ...


class DispatchPolicy(Protocol):
    """How the requests go out and arrivals are consumed."""

    def read(
        self,
        scheme: "SchemeBase",
        spec: "SchemeSpec",
        record: "FileRecord",
        plan: ReadPlan,
        trial: int,
    ) -> "AccessResult": ...


class CompletionPolicy(Protocol):
    """When the access can finish, and what decode tail that implies."""

    #: Whether the result's ``extra`` carries ``arrival_order`` (the
    #: data-path API replays real decoding with it).
    wants_order: bool

    def tracker(
        self, scheme: "SchemeBase", record: "FileRecord", plan: ReadPlan
    ) -> "CompletionTracker":
        """A fresh per-access tracker."""
        ...

    def finish(
        self, scheme: "SchemeBase", tracker: "CompletionTracker", t_fill: float
    ) -> tuple[float, float]:
        """(access completion time, cancel time) for fill time ``t_fill``."""
        ...

    def extras(
        self,
        scheme: "SchemeBase",
        tracker: "CompletionTracker",
        t_fill: float,
        t_done: float,
    ) -> dict:
        """Completion-specific result extras (decode tails, overheads)."""
        ...

    def trace(self, tracer, tracker, t_fill: float, t_done: float, consumed: int) -> None:
        """Completion-specific trace events (e.g. the decode-tail span)."""
        ...


class FaultReaction(Protocol):
    """What mid-operation faults do to the access."""

    def plan_read(self, scheme: "SchemeBase", record: "FileRecord"):
        """A :class:`ReadPlan` — or a finished :class:`AccessResult` when
        the reaction already knows the read's fate (RAID-5's unrecoverable
        double failure)."""
        ...

    def on_stall(
        self, scheme: "SchemeBase", streams: list, trial: int, file_name: str,
        t_fill: float,
    ):
        """Second-round streams after a stalled read, or ``None``."""
        ...

    def annotate(
        self, scheme: "SchemeBase", record: "FileRecord", extra: dict,
        t_done: float, t0: float,
    ) -> None:
        """Post-access bookkeeping on the result extras (repair flags)."""
        ...


class WritePolicy(Protocol):
    """How a write commits blocks and registers the resulting record."""

    def write(
        self, scheme: "SchemeBase", spec: "SchemeSpec", file_name: str, trial: int
    ) -> "AccessResult": ...
