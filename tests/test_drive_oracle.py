"""Differential oracle: the drive's request path against its reference.

``tests/_drive_ref.py`` keeps the request path :class:`DiskDrive` had
before the scalar rewrite and the move onto kernel callbacks: numpy zone
lookups, a fair-share queue that scans one list for the first request of
the class whose turn it is, a ``done`` event for every request, an
``AnyOf`` race between each service and a fail-stop, and a service loop
and background stream that are generator processes, with every hop a
scheduled event and one scalar LBA draw per background request.
:class:`DiskDrive` keeps one FIFO per class, gives background requests no
``done`` event, draws background LBAs in chunks and runs its loop and
stream on callbacks: the wake after a service timeout, and an idle
drive's wake-up after a background arrival, run in line when nothing else
is due at that instant.  Both paths must serve the same request at every
step and dispatch the events results depend on in the same order, so
hypothesis drives identical seeded scripts through both drives and every
observable must match: each foreground request's ``done`` value, the
service order (request and start time), ``served_requests``,
``served_bytes``, ``busy_time`` and ``queue.cancelled_total``.

Script steps fall on a coarse time grid, with "same instant" and
"one zero-delay hop later" as explicit waits, so fail, recover, submit
and service completions collide as often as the grid allows.  A
background stream with its phase pinned to 0 puts its arrivals on that
grid too.  The same-instant cases the hops exist for are also pinned as
plain tests, since a random script hits them only now and then.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.mechanics import DiskMechanics
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment
from tests._drive_ref import ReferenceDrive
from tests.test_sim_core import DispatchCounter

#: Three zones over 30 cylinders: requests cross zone boundaries often.
GEOMETRY = DiskGeometry([Zone(0, 9, 64), Zone(10, 19, 48), Zone(20, 29, 32)], heads=2)
#: Waits between script steps: same instant, one zero-delay hop, or time
#: (same-instant steps weighted up, so collisions are common).
WAITS = st.sampled_from(["now", "now", "hop", "hop", 0.0625, 0.125, 0.25])
ACTIONS = st.one_of(
    st.tuples(st.just("fg"), st.integers(0, GEOMETRY.total_sectors - 64), st.integers(1, 64)),
    st.tuples(st.just("bg"), st.integers(0, GEOMETRY.total_sectors - 64), st.integers(1, 64)),
    st.tuples(st.just("cancel"), st.integers(0, 1)),
    st.tuples(st.just("fail")),
    st.tuples(st.just("recover")),
    # A transient fault: fail and recover at one instant, which aborts the
    # service in flight while the drive accepts new work at once.
    st.tuples(st.just("restart")),
    st.tuples(st.just("slow"), st.sampled_from([1.0, 1.5, 2.0])),
)
SCRIPTS = st.lists(st.tuples(WAITS, ACTIONS), min_size=20, max_size=60)


class OnGrid:
    """A background stream's rng whose phase draw is 0.0, so its arrivals
    fall on the script's time grid; its LBAs come from a seeded
    generator."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def random(self) -> float:
        return 0.0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def quantized_service(seed: int):
    """Service times on a 1/16 s grid, drawn in service order."""
    rng = np.random.default_rng(seed)
    return lambda req: 0.0625 * int(rng.integers(1, 5))


def run(drive_cls, script, *, seed, service_fn=None, background=None, on_grid=False):
    """Run ``script`` on a fresh ``drive_cls``; return every observable.

    ``service_fn(seed)``, when given, builds the drive's
    ``service_time_fn``; otherwise the drive times requests from its
    mechanics and a seeded rng.  ``background`` is the interval of an
    attached background stream, whose arrivals start at 0 when
    ``on_grid`` and at a random phase otherwise.
    """
    env = Environment()
    if service_fn is not None:
        drive = drive_cls(
            env, DiskMechanics(geometry=GEOMETRY), service_time_fn=service_fn(seed)
        )
    else:
        drive = drive_cls(
            env, DiskMechanics(geometry=GEOMETRY), np.random.default_rng(seed)
        )
    if background is not None:
        rng = (OnGrid if on_grid else np.random.default_rng)(seed + 1)
        drive.attach_background(BackgroundWorkload(
            background, rng, extent_sectors=GEOMETRY.total_sectors,
        ))
    served = []
    pop = drive.queue.pop

    def recording_pop():
        req = pop()
        served.append((req.tag, req.lba, req.sectors, env.now))
        return req

    drive.queue.pop = recording_pop
    foreground = []

    def play():
        for i, (wait, action) in enumerate(script):
            if wait == "hop":
                yield env.timeout(0)
            elif wait != "now":
                yield env.timeout(wait)
            kind = action[0]
            if kind in ("fg", "bg"):
                req = drive.submit(DiskRequest(
                    lba=action[1], sectors=action[2], tag=(kind, i),
                    is_background=kind == "bg",
                ))
                if kind == "fg":
                    foreground.append(req)
            elif kind == "cancel":
                drive.cancel(lambda r, p=action[1]: r.tag[0] == "fg" and r.tag[1] % 2 == p)
            elif kind == "fail":
                drive.fail()
            elif kind == "restart":
                drive.fail()
                drive.recover()
            elif kind == "recover":
                drive.recover()
            else:
                drive.set_slow(action[1])

    env.process(play())
    env.run(until=sum(w for w, _ in script if not isinstance(w, str)) + 4.0)
    return {
        "done": [(r.tag, r.done.value if r.done.triggered else "pending") for r in foreground],
        "served": served,
        "served_requests": drive.served_requests,
        "served_bytes": drive.served_bytes,
        "busy_time": drive.busy_time,
        "cancelled_total": drive.queue.cancelled_total,
    }


def assert_same(script, **kw):
    got = run(DiskDrive, script, **kw)
    assert got == run(ReferenceDrive, script, **kw)
    return got


@settings(deadline=None, max_examples=150)
@given(script=SCRIPTS, seed=st.integers(0, 2**16),
       background=st.sampled_from([None, 0.0625, 0.25]))
def test_fair_queue_with_service_fn_and_background(script, seed, background):
    assert_same(script, seed=seed, service_fn=quantized_service, background=background)


@settings(deadline=None, max_examples=100)
@given(script=SCRIPTS, seed=st.integers(0, 2**16),
       background=st.sampled_from([None, 0.125]))
def test_sector_level_drives(script, seed, background):
    assert_same(script, seed=seed, background=background)


@settings(deadline=None, max_examples=150)
@given(script=SCRIPTS, seed=st.integers(0, 2**16),
       background=st.sampled_from([0.0625, 0.125, 0.25]), sector_level=st.booleans())
def test_background_arrivals_on_the_script_grid(script, seed, background, sector_level):
    """Arrivals land on the instants of submits, cancels, fails, restarts
    and (with quantized service) completions."""
    assert_same(script, seed=seed, background=background, on_grid=True,
                service_fn=None if sector_level else quantized_service)


def test_same_instant_fail_recover_submit():
    """A fail, a recover and a foreground submit at one instant, then a
    background submit one zero-delay hop later.

    The abort reaches the service loop two dispatches after ``fail``, as
    a completion does when another event is due at its instant, so the
    hop's background request is queued first and the fair queue, whose
    turn it is, serves it before the foreground request: 0.25 (fail) +
    0.25 + 0.5.  Waking the loop one dispatch after ``fail`` would serve
    the foreground request at once (0.75).
    """
    services = {"fg": 0.5, "bg": 0.25}
    script = [
        ("now", ("fg", 0, 8)),
        (0.25, ("fail",)),
        ("now", ("recover",)),
        ("now", ("fg", 64, 8)),
        ("hop", ("bg", 128, 8)),
    ]
    got = assert_same(script, seed=0, service_fn=lambda seed: lambda r: services[r.tag[0]])
    assert got["done"] == [(("fg", 0), float("inf")), (("fg", 3), 1.0)]
    assert got["busy_time"] == 1.0


@pytest.mark.parametrize("script, background, served", [
    # The timeout of the first request's service (0.5 s) pops at 0.5
    # with the script's fail due after it at the same instant: the fail
    # flushes the queued background request before the loop wakes.
    ([("now", ("fg", 0, 8)), ("hop", ("bg", 64, 8)), (0.5, ("fail",))], None,
     [(("fg", 0), 0, 8, 0.0)]),
    # The stream's first arrival pops at 0 with the script's hop due
    # after it: the fail there flushes the arrival's request before the
    # idle drive wakes, and the foreground request is served instead.
    ([("hop", ("fail",)), ("now", ("recover",)), ("now", ("fg", 0, 8))], 0.25,
     [(("fg", 2), 0, 8, 0.0)]),
], ids=["timeout-wake", "arrival-wakeup"])
def test_hop_waits_for_an_event_due_at_its_instant(script, background, served):
    """Each hop that may run in line stays an event while the kernel holds
    another event at its instant."""
    got = assert_same(script, seed=0, background=background, on_grid=True,
                      service_fn=lambda seed: lambda r: 0.5 if r.tag[0] == "fg" else 0.125)
    assert got["served"][:1] == served and got["done"][0][1] == 0.5


def test_background_request_costs_two_dispatches():
    """A drive that serves only its background stream dispatches two
    kernel events per request, the arrival and the service timeout: the
    idle drive's wake-up and the wake after the timeout run in line."""
    env = Environment()
    dispatched = DispatchCounter(env)
    drive = DiskDrive(env, DiskMechanics(geometry=GEOMETRY), service_time_fn=lambda r: 0.0625)
    drive.attach_background(BackgroundWorkload(
        0.25, OnGrid(0), extent_sectors=GEOMETRY.total_sectors,
    ))
    env.run(until=1.125)
    assert drive.served_requests == 5  # arrivals at 0, 0.25, ..., 1.0
    # Plus the drive's and the stream's start events and the run's stop.
    assert dispatched.count == 2 * 5 + 3


def test_background_requests_get_no_done_event():
    env = Environment()
    drive = DiskDrive(env, DiskMechanics(), service_time_fn=lambda r: 0.01)
    bg = drive.submit(DiskRequest(lba=0, sectors=8, is_background=True))
    fg = drive.submit(DiskRequest(lba=0, sectors=8))
    env.run()
    assert bg.done is None
    assert fg.done.value == 0.01  # the fair queue serves foreground first
    assert drive.served_requests == 2 and drive.busy_time == 0.02


def test_drive_needs_an_rng_or_a_service_fn():
    with pytest.raises(ValueError):
        DiskDrive(Environment(), DiskMechanics())
