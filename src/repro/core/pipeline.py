"""The engine-agnostic access pipeline: one scheme class for any composition.

A :class:`PolicyScheme` binds a :class:`~repro.core.policy.compose.SchemeSpec`
to the :class:`~repro.core.base.SchemeBase` machinery and delegates every
access to the composition's layers:

* ``prepare`` — placement policy provisions the balanced layout;
* ``write`` — write policy commits it (uniform / encode-overlap /
  speculative rateless);
* ``read`` — fault reaction plans the read (or short-circuits it), then
  the dispatch policy runs it against the completion policy's tracker.

No scheme needs a hand-written class: :func:`scheme_class` synthesizes
one per registry entry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import ClassVar

from repro.accesscore.result import AccessConfig, AccessResult
from repro.cluster.metadata import FileRecord
from repro.core.base import SchemeBase
from repro.core.policy.compose import COMPOSITIONS, SchemeSpec

__all__ = ["PolicyScheme", "run_access", "scheme_class"]


class PolicyScheme(SchemeBase):
    """A storage scheme assembled from the policy layers."""

    spec: ClassVar[SchemeSpec]

    def prepare(self, file_name: str, trial: int) -> FileRecord:
        disks = self.select_disks(trial)
        pspec = self.spec.placement.plan(self.config, len(disks), trial)
        return self._register(
            file_name, disks, pspec.placement, coding=pspec.coding, extra=pspec.extra
        )

    def write(self, file_name: str, trial: int) -> AccessResult:
        return self.spec.write.write(self, self.spec, file_name, trial)

    def read(self, file_name: str, trial: int) -> AccessResult:
        record = self._record(file_name)
        plan = self.spec.reaction.plan_read(self, record)
        if isinstance(plan, AccessResult):
            return plan  # fate sealed before any disk was touched
        return self.spec.dispatch.read(self, self.spec, record, plan, trial)


#: Classes synthesized so far, keyed by composition name.
_SYNTHESIZED: dict[str, type[PolicyScheme]] = {}


def scheme_class(name: str) -> type[PolicyScheme]:
    """The scheme class for composition ``name``, built once and cached.

    Raises ``ValueError`` for names not in
    :data:`~repro.core.policy.compose.COMPOSITIONS`.
    """
    cached = _SYNTHESIZED.get(name)
    if cached is not None:
        return cached
    spec = COMPOSITIONS.get(name)
    if spec is None:
        raise ValueError(f"unknown scheme {name!r}")
    cls = type(
        f"Composed[{name}]",
        (PolicyScheme,),
        {
            "name": name,
            "spec": spec,
            "__doc__": f"Synthesized composition {name!r} (see COMPOSITIONS).",
        },
    )
    _SYNTHESIZED[name] = cls
    return cls


def run_access(cls: type[PolicyScheme], access: AccessConfig) -> AccessConfig:
    """The access config ``cls`` runs at: its composition's redundancy
    override (RAID-0 pins 0.0) replaces the configured redundancy."""
    override = cls.spec.redundancy_override
    return access if override is None else replace(access, redundancy=override)
