"""The storage schemes and client-facing API (the paper's contribution).

Every scheme is a composition of the :mod:`repro.core.policy` layers
(placement x dispatch x completion x fault-reaction x write), run by the
engine-agnostic pipeline in :mod:`repro.core.pipeline`.  The paper's
schemes, as compared in Chapter 6:

* ``raid0`` — plain striping, zero redundancy.
* ``rraid-s`` — rotated replication + speculative access.
* ``rraid-a`` — rotated replication + adaptive multi-round access.
* ``robustore`` — LT-coded redundancy + speculative access (the paper's
  contribution).

:data:`repro.core.policy.compose.COMPOSITIONS` documents each
composition; :func:`repro.core.pipeline.scheme_class` builds the class
for any of them.  :mod:`repro.core.api` wraps the schemes in the
open/read/write/close interface of §4.3.1.
"""

from repro.accesscore.result import AccessResult
from repro.core.pipeline import PolicyScheme, scheme_class
from repro.core.policy.compose import COMPOSITIONS

#: The paper's four schemes plus the Fig 2-2 background baselines and the
#: §5.2.1 Reed-Solomon ablation.  Further cross-products (``lt+adaptive``,
#: ``regen-msr``, ...) are in :data:`COMPOSITIONS`, reached via
#: :func:`scheme_class`.
SCHEMES = {
    name: scheme_class(name)
    for name in (
        "raid0",
        "rraid-s",
        "rraid-a",
        "robustore",
        "raid5",
        "raid0+1",
        "robustore-rs",
    )
}

__all__ = [
    "AccessResult",
    "COMPOSITIONS",
    "PolicyScheme",
    "SCHEMES",
    "scheme_class",
]
