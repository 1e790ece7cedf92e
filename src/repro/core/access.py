"""``MB`` under its original import path.

The access machinery lives in :mod:`repro.accesscore`; import from there.
This module remains only because the end-to-end benchmark workloads
(``benchmarks/e2e/workloads.py``) still import ``MB`` from here.
"""

from repro.accesscore.routing import MB

__all__ = ["MB"]
