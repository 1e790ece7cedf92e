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
    CoverageCompletion,
    LTDecodeCompletion,
    ParityCompletion,
    StripeCompletion,
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
)
from repro.core.policy.reaction import (
    DegradedParityRead,
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
    #: Redundancy forced onto the access config (RAID-0 always runs at 0);
    #: :class:`~repro.core.pipeline.PolicyScheme` applies it on construction.
    redundancy_override: float | None = None


_ROTATED = RotatedReplicaPlacement()
_MIRRORED = MirroredStripePlacement()
_PARITY = ParityStripePlacement()
_RATELESS = RatelessCodedPlacement()
_GROUPED_RS = GroupedRSPlacement()
_REGEN_MSR = RegeneratingMSRPlacement()
_REGEN_MBR = RegeneratingMBRPlacement()

_SPECULATIVE = SpeculativeDispatch()
_ADAPTIVE = AdaptiveDispatch()

_COVERAGE = CoverageCompletion()
_LT_DECODE = LTDecodeCompletion()
_RS_FILL = StripeCompletion("group", "k")
_REGEN_FILL = StripeCompletion("regen_nodes", "nodes")
_PARITY_FILL = ParityCompletion()

_RESPECULATE = Respeculate()
_DEGRADED = DegradedParityRead()
_PASSIVE = PassiveReaction()

_UNIFORM = UniformWrite()
_ENCODE_OVERLAP = EncodeOverlapWrite()
_SPEC_WRITE = SpeculativeRatelessWrite()

#: The paper's schemes (first seven) and the new cross-products the
#: layered decomposition unlocks.
COMPOSITIONS: dict[str, SchemeSpec] = {
    # RAID-0 (§6.2.1): rotated replication at D = 0, i.e. block i on disk
    # i mod H.  No redundancy, so a read waits for every block and is gated
    # by the slowest disk — the baseline every figure compares.  Nothing
    # to re-request: any lost block leaves the access incomplete (latency
    # inf) because the tracker never finishes.
    "raid0": SchemeSpec(
        "raid0", _ROTATED, _SPECULATIVE, _COVERAGE, _PASSIVE, _UNIFORM,
        redundancy_override=0.0,
    ),
    # RRAID-S: replica r of block i on disk (i + r) mod H; one speculative
    # round, cancel on first-copy coverage (~200% I/O overhead).  Failover
    # falls out of speculation: every replica is already requested, so a
    # failed disk's blocks arrive from their mirrors, and the access only
    # fails when *all* copies of some block sit on failed disks.
    "rraid-s": SchemeSpec(
        "rraid-s", _ROTATED, _SPECULATIVE, _COVERAGE, _PASSIVE, _UNIFORM,
    ),
    # RRAID-A: the same placement; an idle disk steals half a laggard's
    # remaining work, one round trip per hand-off (Fig 6-12).
    "rraid-a": SchemeSpec(
        "rraid-a", _ROTATED, _ADAPTIVE, _COVERAGE, _PASSIVE, _UNIFORM,
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
    # a stripe position, so one slow disk pair pins both mirrors.  Failover
    # is speculation's, as for RRAID-S.
    "raid0+1": SchemeSpec(
        "raid0+1", _MIRRORED, _SPECULATIVE, _COVERAGE, _PASSIVE, _UNIFORM,
    ),
    # RobuSTore-RS (§5.2.1 ablation): speculation over Reed-Solomon words
    # of 32 originals, each a code stripe at alpha = 1, d = k; pays an RS
    # decode tail and the slowest group's skew.
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
        "mirror+adaptive", _MIRRORED, _ADAPTIVE, _COVERAGE, _PASSIVE, _UNIFORM,
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
