"""Erasure-coding stack.

Implements the codes the dissertation's evaluation runs, plus the
regenerating codes behind the repair experiments:

* :mod:`repro.coding.lt` — LT codes with the dissertation's improvements
  (pseudo-random uniform coverage, guaranteed decodability, lazy XOR),
  the workhorse of RobuSTore (§5.2).
* :mod:`repro.coding.reed_solomon` — systematic Reed-Solomon over GF(256),
  the optimal-code baseline (Table 5-1).
* :mod:`repro.coding.parity` — single-parity code (RAID-5 style).
* :mod:`repro.coding.replication` — replication as a degenerate code.
* :mod:`repro.coding.peeling` — the incremental belief-propagation decoder.
* :mod:`repro.coding.analysis` — Appendix A closed-form reassembly analysis.
* :mod:`repro.coding.regenerating` — exact product-matrix regenerating
  codes at the MSR/MBR points of the storage–repair-bandwidth tradeoff.
"""

from repro.coding.lt import ImprovedLTCode, LTCode, LTGraph
from repro.coding.parity import ParityCode
from repro.coding.peeling import PeelingDecoder
from repro.coding.reed_solomon import ReedSolomonCode
from repro.coding.regenerating import (
    ProductMatrixMBR,
    ProductMatrixMSR,
    mbr_point,
    msr_point,
    product_matrix_code,
)
from repro.coding.replication import ReplicationCode
from repro.coding.soliton import ideal_soliton, robust_soliton

__all__ = [
    "ImprovedLTCode",
    "LTCode",
    "LTGraph",
    "ParityCode",
    "PeelingDecoder",
    "ProductMatrixMBR",
    "ProductMatrixMSR",
    "ReedSolomonCode",
    "ReplicationCode",
    "ideal_soliton",
    "mbr_point",
    "msr_point",
    "product_matrix_code",
    "robust_soliton",
]
