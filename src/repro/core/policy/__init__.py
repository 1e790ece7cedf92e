"""repro.core.policy: the layered scheme decomposition.

The paper's schemes differ along orthogonal axes; this package makes each
axis a small, *stateless* policy object (SIM007 enforces the
statelessness) and :mod:`repro.core.pipeline` runs any composition:

* :mod:`~repro.core.policy.placement` — where coded/replicated blocks live
  (rotated replicas, RAID-0 being one copy; mirrored stripes, parity
  stripes, rateless LT, Reed-Solomon words and regenerating stripes);
* :mod:`~repro.core.policy.dispatch` — how requests go out (speculative
  one-shot vs. adaptive multi-round with work stealing);
* :mod:`~repro.core.policy.completion` — when the client has enough
  (replica coverage, LT decode, code-stripe fill, parity reconstruction)
  and what decode tail that implies;
* :mod:`~repro.core.policy.reaction` — what mid-operation faults do to the
  access (nothing, re-speculation + repair flagging, degraded parity
  planning);
* :mod:`~repro.core.policy.write` — how writes commit (uniform, uniform
  with encode overlap, speculative rateless);
* :mod:`~repro.core.policy.compose` — the :data:`COMPOSITIONS` registry
  binding names ("raid0", "robustore", "lt+adaptive", ...) to
  :class:`SchemeSpec` tuples.
"""

from repro.core.policy.base import (
    CompletionPolicy,
    DispatchPolicy,
    FaultReaction,
    PlacementPolicy,
    PlacementSpec,
    ReadPlan,
    WritePolicy,
)
from repro.core.policy.compose import COMPOSITIONS, SchemeSpec

__all__ = [
    "COMPOSITIONS",
    "CompletionPolicy",
    "DispatchPolicy",
    "FaultReaction",
    "PlacementPolicy",
    "PlacementSpec",
    "ReadPlan",
    "SchemeSpec",
    "WritePolicy",
]
