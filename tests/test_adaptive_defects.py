"""ROADMAP item 3's adaptive-read defects (a), (b) and (d), pinned.

Each strict xfail asserts what a correct read does and fails on the code
as it stands, so the change that fixes the defects must remove the
markers (``strict=True`` turns an unexpected pass into a failure):

* (a) the closed form strands units on a dead disk: a thief whose
  single-block hand-off from a live victim is rejected never decides
  again, so ``rraid-a`` returns ``inf`` on a recoverable plan;
* (b) the event engine's ``AdaptiveClient.fetch`` counts a steal as a
  failed try, so a unit stolen by a dead thief cannot return to its
  original holder, and ``mirror+adaptive`` returns ``inf``;
* (d) adaptive reads pass only round-1 cache hits to ``record_read``, so
  blocks served from disk never enter the filer cache and a second read
  of the same file gets no hits.

The passing tests beside them show each repro is live: the same plan
finishes on the other engine, and speculative reads do warm the cache.
"""

import numpy as np
import pytest

from repro.accesscore.events import event_read
from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core.pipeline import run_access, scheme_class
from repro.experiments.harness import TrialPlan, run_scheme
from repro.sim.rng import RngHub

_ENGINES = pytest.mark.parametrize("engine", ["closed", "event"])


def _defect(letter: str):
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"ROADMAP item 3, defect ({letter}): remove this marker with the fix",
    )


def _dead_disk_latencies(scheme: str, engine: str) -> list[float]:
    """Six 32 MB reads over 8 of 12 disks, one disk dead from the start."""
    plan = TrialPlan(
        access=AccessConfig(data_bytes=32 * MB, n_disks=8),
        pool=12, trials=6, seed=7, failed_disks=1, engine=engine,
    )
    return [r.latency_s for r in run_scheme(plan, scheme)]


def _two_reads(name: str, engine: str) -> list:
    """Read one prepared file twice on trial 0 through 256 MB filer caches."""
    cls = scheme_class(name)
    cfg = run_access(cls, AccessConfig(data_bytes=32 * MB, n_disks=12))
    cluster = Cluster(n_disks=12, fs_cache_bytes=256 * MB, cache_line_bytes=cfg.block_bytes)
    hub = RngHub(0)
    scheme = cls(cluster, cfg, hub=hub)
    cluster.redraw_disk_states(hub.fresh("env", name, 0))
    scheme.prepare("f", 0)
    if engine == "event":
        return [event_read(scheme, "f", trial=0).result for _ in range(2)]
    return [scheme.read("f", 0) for _ in range(2)]


def test_dead_disk_plans_are_recoverable():
    """Each engine finishes the plan the other engine strands."""
    assert np.isfinite(_dead_disk_latencies("rraid-a", "event")).all()
    assert np.isfinite(_dead_disk_latencies("mirror+adaptive", "closed")).all()


@_defect("a")
def test_closed_form_rraid_a_survives_a_dead_disk():
    assert np.isfinite(_dead_disk_latencies("rraid-a", "closed")).all()


@_defect("b")
def test_event_mirror_adaptive_survives_a_dead_disk():
    assert np.isfinite(_dead_disk_latencies("mirror+adaptive", "event")).all()


@_ENGINES
@pytest.mark.parametrize("name", ["raid0", "rraid-s"])
def test_speculative_reread_hits_the_filer_cache(name, engine):
    first, second = _two_reads(name, engine)
    assert first.cache_hits == 0
    assert second.cache_hits > 0


@_ENGINES
@_defect("d")
def test_adaptive_reread_hits_the_filer_cache(engine):
    _, second = _two_reads("rraid-a", engine)
    assert second.cache_hits > 0
