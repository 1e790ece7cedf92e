"""The composition registry: scheme name -> (placement, dispatch, ...).

Every scheme the harness can run is one :class:`SchemeSpec` — a frozen
tuple of the five policy layers plus a redundancy override for schemes
that ignore the configured degree.  The paper's seven schemes are the first
seven entries; the remaining entries are new cross-products that exist
*because* the layers compose — see ``docs/architecture.md`` for the
recipe.

Policies are stateless (lint rule SIM007), so the singletons below are
shared freely across compositions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy.base import (
    CompletionPolicy,
    DispatchPolicy,
    FaultReaction,
    PlacementPolicy,
    WritePolicy,
)
from repro.core.policy.completion import (
    AllBlocksCompletion,
    CoverageCompletion,
    GroupedRSCompletion,
    LTDecodeCompletion,
    ParityCompletion,
    RegenCompletion,
)
from repro.core.policy.dispatch import AdaptiveDispatch, SpeculativeDispatch
from repro.core.policy.placement import (
    GroupedRSPlacement,
    MirroredStripePlacement,
    ParityStripePlacement,
    RatelessCodedPlacement,
    RegeneratingMBRPlacement,
    RegeneratingMSRPlacement,
    RotatedReplicaPlacement,
    StripedPlacement,
)
from repro.core.policy.reaction import (
    AbortOnLoss,
    DegradedParityRead,
    EmergentFailover,
    PassiveReaction,
    Respeculate,
)
from repro.core.policy.write import (
    EncodeOverlapWrite,
    SpeculativeRatelessWrite,
    UniformWrite,
)


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme as a composition of the five policy layers."""

    name: str
    placement: PlacementPolicy
    dispatch: DispatchPolicy
    completion: CompletionPolicy
    reaction: FaultReaction
    write: WritePolicy
    #: Redundancy forced onto the access config (RAID-0 always runs at 0).
    redundancy_override: float | None = None


_STRIPED = StripedPlacement()
_ROTATED = RotatedReplicaPlacement()
_MIRRORED = MirroredStripePlacement()
_PARITY = ParityStripePlacement()
_RATELESS = RatelessCodedPlacement()
_GROUPED_RS = GroupedRSPlacement()
_REGEN_MSR = RegeneratingMSRPlacement()
_REGEN_MBR = RegeneratingMBRPlacement()

_SPECULATIVE = SpeculativeDispatch()
_ADAPTIVE = AdaptiveDispatch()

_ALL_BLOCKS = AllBlocksCompletion()
_COVERAGE = CoverageCompletion()
_LT_DECODE = LTDecodeCompletion()
_RS_FILL = GroupedRSCompletion()
_REGEN_FILL = RegenCompletion()
_PARITY_FILL = ParityCompletion()

_ABORT = AbortOnLoss()
_FAILOVER = EmergentFailover()
_RESPECULATE = Respeculate()
_DEGRADED = DegradedParityRead()
_PASSIVE = PassiveReaction()

_UNIFORM = UniformWrite()
_ENCODE_OVERLAP = EncodeOverlapWrite()
_SPEC_WRITE = SpeculativeRatelessWrite()

#: The paper's schemes (first seven) and the new cross-products the
#: layered decomposition unlocks.
COMPOSITIONS: dict[str, SchemeSpec] = {
    # RAID-0 (§6.2.1): no redundancy, so a read waits for every block and
    # is gated by the slowest disk — the baseline every figure compares.
    "raid0": SchemeSpec(
        "raid0", _STRIPED, _SPECULATIVE, _ALL_BLOCKS, _ABORT, _UNIFORM,
        redundancy_override=0.0,
    ),
    # RRAID-S: replica r of block i on disk (i + r) mod H; one speculative
    # round, cancel on first-copy coverage (~200% I/O overhead).
    "rraid-s": SchemeSpec(
        "rraid-s", _ROTATED, _SPECULATIVE, _COVERAGE, _FAILOVER, _UNIFORM,
    ),
    # RRAID-A: the same placement; an idle disk steals half a laggard's
    # remaining work, one round trip per hand-off (Fig 6-12).
    "rraid-a": SchemeSpec(
        "rraid-a", _ROTATED, _ADAPTIVE, _COVERAGE, _FAILOVER, _UNIFORM,
    ),
    # RobuSTore (the contribution): LT-coded blocks, one speculative round
    # cancelled at decode (§4.3.3), speculative rateless writes (§4.3.2).
    "robustore": SchemeSpec(
        "robustore", _RATELESS, _SPECULATIVE, _LT_DECODE, _RESPECULATE, _SPEC_WRITE,
    ),
    # RAID-5 (Fig 2-2): rotating parity; one failed disk reads degraded,
    # more than one is unrecoverable.
    "raid5": SchemeSpec(
        "raid5", _PARITY, _SPECULATIVE, _PARITY_FILL, _DEGRADED, _UNIFORM,
    ),
    # RAID-0+1 (Fig 2-2): two mirrored stripe sets; a block's copies share
    # a stripe position, so one slow disk pair pins both mirrors.
    "raid0+1": SchemeSpec(
        "raid0+1", _MIRRORED, _SPECULATIVE, _COVERAGE, _FAILOVER, _UNIFORM,
    ),
    # RobuSTore-RS (§5.2.1 ablation): speculation over Reed-Solomon words
    # of 32 originals; pays an RS decode tail and the slowest group's skew.
    "robustore-rs": SchemeSpec(
        "robustore-rs", _GROUPED_RS, _SPECULATIVE, _RS_FILL, _PASSIVE, _ENCODE_OVERLAP,
    ),
    # -- new cross-products ----------------------------------------------------
    # LT-coded layout under the adaptive engine: single-holder units mean
    # no steals, so this isolates what speculation's cancel-at-decode buys.
    "lt+adaptive": SchemeSpec(
        "lt+adaptive", _RATELESS, _ADAPTIVE, _LT_DECODE, _RESPECULATE, _SPEC_WRITE,
    ),
    # Mirrored stripes under the adaptive engine: set-B disks start idle
    # and immediately steal from struggling set-A partners — genuine
    # cross-mirror work stealing the monoliths could not express.
    "mirror+adaptive": SchemeSpec(
        "mirror+adaptive", _MIRRORED, _ADAPTIVE, _COVERAGE, _FAILOVER, _UNIFORM,
    ),
    # Grouped RS under the adaptive engine: the group-skew cost without
    # speculation's wasted transfers.
    "rs+adaptive": SchemeSpec(
        "rs+adaptive", _GROUPED_RS, _ADAPTIVE, _RS_FILL, _PASSIVE, _ENCODE_OVERLAP,
    ),
    # Regenerating codes (repro.rebuild): product-matrix stripes whose
    # node repair reads d*beta blocks from helpers instead of a whole
    # stripe.  MSR matches RS storage overhead exactly — the ext_repair
    # experiment compares their repair economies at equal cost.
    "regen-msr": SchemeSpec(
        "regen-msr", _REGEN_MSR, _SPECULATIVE, _REGEN_FILL, _RESPECULATE, _UNIFORM,
    ),
    "regen-mbr": SchemeSpec(
        "regen-mbr", _REGEN_MBR, _SPECULATIVE, _REGEN_FILL, _RESPECULATE, _UNIFORM,
    ),
}
