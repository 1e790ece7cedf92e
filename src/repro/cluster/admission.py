"""Admission control at storage servers (§5.4).

Two mechanisms from the dissertation:

* **Capacity-based (CAC)** — first-come-first-admitted until the server's
  concurrency capacity is exhausted; later flows are refused (the client
  retries elsewhere or queues).
* **Priority-based** — higher-priority flows may preempt admitted
  lower-priority ones, RFC 2751/2815 style.

Admission decisions consider estimated storage throughput, ongoing
accesses and the size of the new request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

_flow_ids = count()


@dataclass
class Flow:
    """An admitted (or requesting) access stream."""

    nbytes: int
    priority: int = 0
    flow_id: int = field(default_factory=lambda: next(_flow_ids))


class AdmissionController:
    """Base admission controller: admits everything (controller disabled)."""

    def __init__(self) -> None:
        self.admitted: dict[int, Flow] = {}
        self.refused = 0

    @property
    def active_flows(self) -> int:
        return len(self.admitted)

    def request(self, flow: Flow) -> bool:
        """Try to admit ``flow``; True on success."""
        self.admitted[flow.flow_id] = flow
        return True

    def release(self, flow: Flow) -> None:
        self.admitted.pop(flow.flow_id, None)


class CapacityAdmission(AdmissionController):
    """First-come-first-admitted up to ``capacity`` concurrent flows.

    Sharing one disk among many concurrent large accesses collapses its
    throughput (rotation + seeking between streams, §5.4); capping
    concurrency protects aggregate throughput.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity

    def request(self, flow: Flow) -> bool:
        if len(self.admitted) >= self.capacity:
            self.refused += 1
            return False
        self.admitted[flow.flow_id] = flow
        return True


class PriorityAdmission(CapacityAdmission):
    """Capacity admission where higher priority (smaller value) preempts.

    When full, a new flow strictly more urgent than the least-urgent
    admitted flow evicts it; the evicted flow id is recorded in
    :attr:`preempted` so the caller can reroute it.
    """

    def __init__(self, capacity: int = 4) -> None:
        super().__init__(capacity)
        self.preempted: list[int] = []

    def request(self, flow: Flow) -> bool:
        if len(self.admitted) < self.capacity:
            self.admitted[flow.flow_id] = flow
            return True
        victim = max(self.admitted.values(), key=lambda f: f.priority)
        if flow.priority < victim.priority:
            del self.admitted[victim.flow_id]
            self.preempted.append(victim.flow_id)
            self.admitted[flow.flow_id] = flow
            return True
        self.refused += 1
        return False


def effective_disk_share(concurrent_flows: int, interference: float = 0.35) -> float:
    """Aggregate-throughput model for disk sharing (§5.4).

    Each additional concurrent large stream costs seek/rotation switches:
    with n flows the disk delivers ``1 / (1 + interference * (n - 1))`` of
    its exclusive-access throughput, split across the flows.  Used by the
    admission-control ablation experiment.
    """
    if concurrent_flows < 1:
        raise ValueError("need at least one flow")
    return 1.0 / (1.0 + interference * (concurrent_flows - 1))


def pick_admitted_server(
    controllers: list[AdmissionController], flow: Flow, preferred: Optional[int] = None
) -> Optional[int]:
    """Admit ``flow`` at the preferred server or the least-loaded alternative.

    Returns the admitting server index, or ``None`` if every controller
    refused.
    """
    order = sorted(
        range(len(controllers)),
        key=lambda i: (i != preferred, controllers[i].active_flows),
    )
    for i in order:
        if controllers[i].request(flow):
            return i
    return None
