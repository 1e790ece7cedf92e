"""repro — a full reproduction of RobuSTore (Xia, UCSD 2006 / MSST'06).

Subpackages
-----------
``repro.sim``
    Generator-based discrete-event simulation kernel.
``repro.coding``
    Erasure codes: LT (with the dissertation's improvements), Reed-Solomon,
    parity, replication, regenerating codes, plus closed-form analysis.
``repro.disk``
    DiskSim-like block-level hard-drive model and workload generators.
``repro.net``
    Fixed-RTT network links.
``repro.cluster``
    Filers, filesystem caches, metadata, admission control.
``repro.core``
    The four storage schemes (RAID-0, RRAID-S, RRAID-A, RobuSTore) and the
    client-facing file API.
``repro.metrics``
    Bandwidth / latency-variation / I/O-overhead metrics.
``repro.experiments``
    Harness regenerating every table and figure of the evaluation chapter.
``repro.obs``
    Event tracing: spans/counters on the simulated clock, Chrome trace
    export, aggregated trace reports.
``repro.lint``
    Simulator-aware static analysis (rules SIM001-SIM007, SIM011 and
    SIM012) enforcing the determinism conventions; the runtime
    complement is the DES causality sanitizer in ``repro.sim``
    (``REPRO_SANITIZE=1``).
"""

__version__ = "1.0.0"
