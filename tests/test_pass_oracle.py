"""Differential oracle: the closed form's array pass against its per-disk loops.

``tests/_pass_ref.py`` keeps the closed-form access paths as they ran one
disk at a time: a one-disk service model per disk (per-draw ``sqrt`` seek
arithmetic, one ``cumsum`` per queue), the read's per-disk serve and
cancel loops, the uniform write's loop, and RobuSTore's speculative
write with its per-disk supply and commit loops.  The array pass serves
every disk of an access with one :class:`BlockService`.  Hypothesis draws
accesses over heterogeneous and fractional-``p_seq`` layouts, zero-block
and statically failed disks, background loads (some understated, so the
fixed point takes extension draws), disk and link fault timelines,
filer caches with resident blocks and the tracer on and off, runs them
on two identically built clusters, and every observable must match:

* each disk's stream: block ids, cache mask, completions, arrivals;
* the served, network and disk-block counts and the cache hits;
* every link's byte counter, every filer's disk bytes and cache (LRU
  order, hits and misses);
* the tracer's spans, instants, samples, counters and byte ledger;
* the final state of every generator handed out.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.timeline import finalize_read, serve_read_queues, simulate_uniform_write
from repro.cluster.server import Cluster
from repro.core.pipeline import scheme_class
from repro.core.policy.write import SpeculativeRatelessWrite
from repro.disk import service
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService, served_before
from repro.disk.workload import InDiskLayout
from repro.faults.plan import (
    DISK_FAIL,
    DISK_SLOW,
    FILER_CRASH,
    LINK_DEGRADE,
    FaultEvent,
    FaultPlan,
)
from repro.faults.timeline import DiskTimeline
from repro.obs import Tracer
from repro.sim.rng import RngHub
from tests._pass_ref import (
    ReferenceRatelessWrite,
    ReferenceService,
    reference_finalize_read,
    reference_serve_read_queues,
    reference_served_before,
    reference_simulate_uniform_write,
)
from tests.test_service_fixed_point import _Understated

KB = 1 << 10
MB = 1 << 20
FILE = "f"
#: The sampler's chunk size: small ones split an access's disks into many
#: chunks, the default keeps them in one.
CHUNKS = st.sampled_from([1, 64, 2048, service.CHUNK_EVENTS])


@st.composite
def environments(draw):
    """A cluster recipe: pool, layouts, loads, failures, faults, caches."""
    n_disks = draw(st.integers(2, 12))
    env = {
        "n_disks": n_disks,
        "per_filer": draw(st.sampled_from([1, 2, 4])),
        "rtt": draw(st.sampled_from([0.0, 0.001, 0.01])),
        "seed": draw(st.integers(0, 2**16)),
        "layout": draw(
            st.sampled_from(
                [None, None, InDiskLayout(64, 0.5), InDiskLayout(8, 0.0), InDiskLayout(1024, 1.0)]
            )
        ),
        "zone": draw(st.sampled_from([None, 0, 3])),
        "background": draw(
            st.dictionaries(
                st.integers(0, n_disks - 1), st.sampled_from([0.006, 0.02, 0.2]), max_size=n_disks
            )
        ),
        "understated": draw(st.sets(st.integers(0, n_disks - 1), max_size=3)),
        "failed": draw(st.sets(st.integers(0, n_disks - 1), max_size=2)),
        "cache_lines": draw(st.sampled_from([0, 0, 8, 64])),
        "tracer": draw(st.sampled_from([None, "on", "detail"])),
        "bgphase": draw(st.booleans()),
    }
    faults, failing = [], set()
    if draw(st.booleans()):
        n_filers = -(-n_disks // env["per_filer"])
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from([DISK_FAIL, DISK_SLOW, FILER_CRASH, LINK_DEGRADE]))
            t = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]))
            disk = draw(st.integers(0, n_disks - 1))
            if kind == DISK_FAIL and disk not in failing:  # one fail-stop per disk
                failing.add(disk)
                faults.append(FaultEvent(
                    t, kind, disk=disk, duration=draw(st.sampled_from([None, 0.05, 0.5]))
                ))
            elif kind in (DISK_FAIL, DISK_SLOW):
                faults.append(FaultEvent(
                    t, DISK_SLOW, disk=disk, duration=0.3,
                    factor=draw(st.sampled_from([1.5, 4.0])),
                ))
            elif kind == FILER_CRASH:
                faults.append(FaultEvent(
                    t, kind, filer=draw(st.integers(0, n_filers - 1)), duration=0.1
                ))
            else:
                faults.append(FaultEvent(
                    t, kind, filer=draw(st.integers(0, n_filers - 1)), duration=0.4,
                    extra_s=0.02,
                ))
    env["faults"] = faults
    return env


def build(env, block_bytes: int) -> Cluster:
    """A cluster from ``env``; a second call builds an identical twin."""
    cluster = Cluster(
        n_disks=env["n_disks"],
        disks_per_filer=env["per_filer"],
        rtt_s=env["rtt"],
        fs_cache_bytes=env["cache_lines"] * block_bytes,
        cache_line_bytes=block_bytes,
        tracer={None: None, "on": Tracer(), "detail": Tracer(detail=True)}[env["tracer"]],
    )
    cluster.redraw_disk_states(
        np.random.default_rng(env["seed"]),
        layout=env["layout"],
        background_intervals=env["background"],
        fixed_zone=env["zone"],
        failed_disks=env["failed"],
    )
    for d in env["understated"]:
        # Only a random layout: a sequential stream's repositioning on top
        # of the understated load would saturate the drive for good.
        if cluster.disk_state(d).layout.p_sequential == 0.0:
            cluster.disk_state(d).background = _Understated(0.008)
    if env["faults"]:
        cluster.install_faults(FaultPlan(env["faults"]))
    return cluster


class Streams:
    """A seeded per-disk stream factory that remembers what it handed out."""

    def __init__(self, seed: int, bgphase: bool) -> None:
        self.seed = seed
        self.given: dict = {}
        if bgphase:
            self.phase_rng_for = lambda d: self._hand(("phase", d), 1)

    def _hand(self, key, family: int):
        rng = np.random.default_rng([self.seed, key[1], family])
        self.given[key] = rng
        return rng

    def __call__(self, disk_id: int):
        return self._hand(("svc", disk_id), 0)


def assert_same_generators(a: Streams, b: Streams) -> None:
    assert a.given.keys() == b.given.keys()
    for key in a.given:
        assert a.given[key].bit_generator.state == b.given[key].bit_generator.state, key


def assert_same_clusters(a: Cluster, b: Cluster) -> None:
    for fa, fb in zip(a.filers, b.filers):
        assert fa.link.bytes_sent == fb.link.bytes_sent
        assert fa.disk_bytes_read == fb.disk_bytes_read
        if fa.cache is not None:
            assert fa.cache._sets == fb.cache._sets
            assert (fa.cache.hits, fa.cache.misses) == (fb.cache.hits, fb.cache.misses)
    if a.tracer.enabled:
        ta, tb = a.tracer, b.tracer
        assert ta.spans == tb.spans
        assert ta.instants == tb.instants
        assert ta.counter_samples == tb.counter_samples
        assert list(ta.counters.items()) == list(tb.counters.items())
        assert list(ta.bytes_ledger.items()) == list(tb.bytes_ledger.items())


@st.composite
def accesses(draw, n_disks: int):
    """Disks (distinct, random order) and each one's queue of block ids;
    queues may be empty and may repeat another disk's ids."""
    disks = draw(st.permutations(range(n_disks)))[: draw(st.integers(1, n_disks))]
    queues = [
        draw(st.lists(st.integers(0, 40), max_size=draw(st.sampled_from([0, 3, 9]))))
        for _ in disks
    ]
    return disks, queues


def _warm(cluster, queues, disks, block_bytes, fraction) -> None:
    """Make a share of the queued blocks cache-resident."""
    for d, q in zip(disks, queues):
        resident = q[: int(len(q) * fraction)]
        cluster.filer_of_disk(d).record_write(FILE, resident, block_bytes)


@settings(max_examples=150, deadline=None)
@given(
    env=environments(),
    data=st.data(),
    block_bytes=st.sampled_from([64 * KB, MB]),
    t_send=st.sampled_from([0.0, 0.005, 0.3]),
    warm=st.sampled_from([0.0, 0.5, 1.0]),
    cancel=st.sampled_from([0.0, 0.3, 0.7, 1.0, "inf"]),
    chunk=CHUNKS,
)
def test_read_pass_matches_per_disk_loops(env, data, block_bytes, t_send, warm, cancel, chunk):
    disks, queues = data.draw(accesses(env["n_disks"]))
    a, b = build(env, block_bytes), build(env, block_bytes)
    for cluster in (a, b):
        _warm(cluster, queues, disks, block_bytes, warm)
    rng_a, rng_b = Streams(env["seed"], env["bgphase"]), Streams(env["seed"], env["bgphase"])
    with mock.patch.object(service, "CHUNK_EVENTS", chunk):
        got = serve_read_queues(a, disks, queues, block_bytes, t_send, rng_a, FILE)
    want = reference_serve_read_queues(b, disks, queues, block_bytes, t_send, rng_b, FILE)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.disk_id == w.disk_id and g.one_way_s == w.one_way_s
        assert g.block_ids.dtype == w.block_ids.dtype
        for field in ("block_ids", "cached", "completions", "arrivals"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field
    assert_same_generators(rng_a, rng_b)

    # Cancel somewhere in the arrival timeline (or never).
    arrivals = np.concatenate([s.arrivals for s in want])
    finite = np.sort(arrivals[np.isfinite(arrivals)])
    if cancel == "inf":
        t_done = np.inf
    elif finite.size:
        t_done = float(finite[int(cancel * (finite.size - 1))])
    else:
        t_done = t_send
    assert finalize_read(got, a, t_done, block_bytes, FILE) == reference_finalize_read(
        want, b, t_done, block_bytes, FILE
    )
    assert_same_clusters(a, b)


@settings(max_examples=100, deadline=None)
@given(
    env=environments(),
    data=st.data(),
    block_bytes=st.sampled_from([64 * KB, MB]),
    t_send=st.sampled_from([0.0, 0.3]),
    chunk=CHUNKS,
)
def test_uniform_write_pass_matches_per_disk_loop(env, data, block_bytes, t_send, chunk):
    disks, queues = data.draw(accesses(env["n_disks"]))
    a, b = build(env, block_bytes), build(env, block_bytes)
    rng_a, rng_b = Streams(env["seed"], env["bgphase"]), Streams(env["seed"], env["bgphase"])
    with mock.patch.object(service, "CHUNK_EVENTS", chunk):
        got = simulate_uniform_write(a, disks, queues, block_bytes, t_send, rng_a, FILE)
    want = reference_simulate_uniform_write(b, disks, queues, block_bytes, t_send, rng_b, FILE)
    assert got == want
    assert_same_generators(rng_a, rng_b)
    assert_same_clusters(a, b)


class Recording:
    """Wrap a scheme's service-stream factory to keep what it hands out."""

    def __init__(self, scheme) -> None:
        self.given: dict = {}
        inner = scheme.service_rng_factory

        def factory(trial, phase, disk_ids):
            rng_for = inner(trial, phase, disk_ids)

            def hand(d):
                self.given[("svc", d)] = rng = rng_for(d)
                return rng

            def hand_phase(d):
                self.given[("phase", d)] = rng = rng_for.phase_rng_for(d)
                return rng

            hand.phase_rng_for = hand_phase
            return hand

        scheme.service_rng_factory = factory


def _outcome(policy, scheme, trial):
    try:
        return policy.write(scheme, scheme.spec, FILE, trial)
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    env=environments(),
    data=st.data(),
    data_mb=st.sampled_from([4, 16]),
    trial=st.integers(0, 3),
    chunk=CHUNKS,
)
def test_rateless_write_pass_matches_per_disk_loops(env, data, data_mb, trial, chunk):
    n_disks = data.draw(st.integers(1, env["n_disks"]))
    cls = scheme_class("robustore")
    config = AccessConfig(data_bytes=data_mb * MB, block_bytes=MB, n_disks=n_disks)
    a, b = build(env, MB), build(env, MB)
    scheme_a = cls(a, config, hub=RngHub(env["seed"]))
    scheme_b = cls(b, config, hub=RngHub(env["seed"]))
    rec_a, rec_b = Recording(scheme_a), Recording(scheme_b)
    with mock.patch.object(service, "CHUNK_EVENTS", chunk):
        got = _outcome(SpeculativeRatelessWrite(), scheme_a, trial)
    want = _outcome(ReferenceRatelessWrite(), scheme_b, trial)
    if isinstance(want, AccessResult):
        assert got.to_jsonable() == want.to_jsonable()
        if np.isfinite(want.latency_s):
            assert scheme_a._record(FILE).placement == scheme_b._record(FILE).placement
    else:
        assert got == want
    assert rec_a.given.keys() == rec_b.given.keys()
    for key in rec_a.given:
        assert rec_a.given[key].bit_generator.state == rec_b.given[key].bit_generator.state
    assert_same_clusters(a, b)


# -------------------------------------------------------- the one-disk model


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    bf=st.sampled_from([8, 64, 256, 1024]),
    p_seq=st.sampled_from([0.0, 0.5, 1.0]),
    # One block is the case where a reduction over a (draw x block) grid
    # collapses to one axis and numpy would sum it pairwise.
    n=st.sampled_from([0, 1, 1, 2, 5, 12]),
    interval=st.sampled_from([None, 0.006, 0.05, "understated"]),
    failed=st.booleans(),
    faulted=st.booleans(),
    start=st.sampled_from([0.0, 0.4]),
)
def test_one_disk_model_matches_the_reference(seed, bf, p_seq, n, interval, failed, faulted, start):
    """The adaptive read's runs and ``EventDrive`` use the one-disk model:
    :meth:`BlockService.completions` with ``counts=None``."""
    if interval == "understated":
        background, p_seq = _Understated(0.008), 0.0
    else:
        background = None if interval is None else BackgroundLoad(interval)
    timeline = DiskTimeline(slow=[(0.5, 2.5, 3.0)], down=[(3.0, 3.4)]) if faulted else None
    models = [
        cls(
            DiskMechanics(), InDiskLayout(bf, p_seq), 870, np.random.default_rng(seed),
            background, failed, timeline, np.random.default_rng([seed, 1]),
        )
        for cls in (BlockService, ReferenceService)
    ]
    got, want = (m.serve(n, MB, start) for m in models)
    assert np.array_equal(got, want)
    assert models[0].rngs[0].bit_generator.state == models[1].rng.bit_generator.state
    assert models[0].phase_rngs[0].bit_generator.state == models[1].phase_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(st.floats(0, 10), st.just(np.inf)), max_size=6
        ).map(lambda c: np.sort(np.array(c, dtype=np.float64))),
        max_size=5,
    ),
    st.one_of(st.floats(0, 10), st.just(np.inf)),
)
def test_served_before_matches_the_reference(queues, t_cancel):
    for c in queues:
        assert served_before(c, t_cancel) == reference_served_before(c, t_cancel)
