"""The background fixed point's convergence test against ``np.allclose``.

``BlockService.completions`` iterates the foreground completion times
until they settle.  It used to ask ``np.allclose(c_new, c, rtol=0,
atol=1e-12)``; it now asks :func:`repro.disk.service.settled`, the same
elementwise test without ``allclose``'s set-up.  The loop as it was is
kept below as the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService, settled
from repro.disk.workload import InDiskLayout
from repro.faults.timeline import DiskTimeline

ATOL = 1e-12
ABOVE = float(np.nextafter(ATOL, np.inf))

#: Pairs whose difference is exactly the tolerance or the float above it.
_BOUNDARY = [
    (0.0, ATOL),
    (ATOL, 0.0),
    (0.0, -ATOL),
    (-0.0, ATOL),
    (ATOL, 2 * ATOL),
    (2 * ATOL, ATOL),
    (0.0, ABOVE),
    (-ABOVE, 0.0),
    (ABOVE, 2 * ABOVE),
]
_SPECIAL = [0.0, -0.0, ATOL, -ATOL, ABOVE, 1.0, 5e-324, np.inf, -np.inf, np.nan]


@st.composite
def _pair(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_BOUNDARY))
    a = draw(st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3), st.floats()))
    how = draw(st.sampled_from(["same", "+atol", "-atol", "+above", "-above", "any"]))
    if how == "same":
        return a, a
    if how == "any":
        return a, draw(st.one_of(st.sampled_from(_SPECIAL), st.floats()))
    step = {"+atol": ATOL, "-atol": -ATOL, "+above": ABOVE, "-above": -ABOVE}[how]
    return a, a + step


@settings(max_examples=500, deadline=None)
@given(st.lists(_pair(), max_size=12))
def test_settled_is_allclose(pairs):
    new = np.array([p[0] for p in pairs], dtype=np.float64)
    old = np.array([p[1] for p in pairs], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        got = settled(new, old)
    assert got == np.allclose(new, old, rtol=0, atol=ATOL)
    assert isinstance(got, bool)


def test_settled_edges():
    assert settled(np.array([0.0]), np.array([ATOL]))
    assert not settled(np.array([0.0]), np.array([ABOVE]))
    with np.errstate(invalid="ignore"):
        assert settled(np.array([np.inf, -np.inf]), np.array([np.inf, -np.inf]))
        assert not settled(np.array([np.inf]), np.array([-np.inf]))
        assert not settled(np.array([np.nan]), np.array([np.nan]))
    assert settled(np.empty(0), np.empty(0))


# ------------------------------------------------------------ the loop as it was


def completions_before(svc: BlockService, services, start: float) -> np.ndarray:
    """``BlockService.completions`` of a one-disk model with ``np.clip``
    and ``np.allclose``."""
    (layout,), (spt,), (rng,), (bg,) = svc.layouts, svc.spts, svc.rngs, svc.backgrounds
    (failed,), (timeline,), (phase_rng,) = svc.failed, svc.timelines, svc.phase_rngs

    def warp(c):
        return c if timeline is None else timeline.warp(c, start)

    services = np.asarray(services, dtype=np.float64)
    if failed:
        return np.full(services.size, np.inf)
    s_cum = services.cumsum()
    s_cum += start
    if bg is None or services.size == 0:
        return warp(s_cum)
    pen = layout.p_sequential * svc.mechanics.mean_positioning_time()
    per_bg = bg.mean_service(svc.mechanics, spt) + pen
    interval = max(bg.interval_s, per_bg / (1.0 - svc.MIN_FOREGROUND_SHARE))
    eff_util = per_bg / interval
    phase_rng = phase_rng if phase_rng is not None else rng
    phase = start + phase_rng.random() * interval

    horizon = float(s_cum[-1] - start) / max(1e-3, 1.0 - eff_util)
    est = int((horizon / interval) * 1.5 + 16)
    bg_draws = bg.sample_services(est, svc.mechanics, spt, rng)
    b_cum = np.concatenate([[0.0], np.cumsum(bg_draws)])

    c = s_cum.copy()
    for _ in range(500):
        j = np.floor((c - phase) / interval).astype(np.int64) + 1
        np.clip(j, 0, None, out=j)
        if j[-1] >= b_cum.size - 1:
            more = bg.sample_services(
                int(j[-1] - b_cum.size + 2 + 64), svc.mechanics, spt, rng
            )
            b_cum = np.concatenate([b_cum, b_cum[-1] + np.cumsum(more)])
        c_new = s_cum + b_cum[j] + j * pen
        if np.allclose(c_new, c, rtol=0, atol=1e-12):
            c = c_new
            break
        c = c_new
    return warp(c)


def _twin_services(
    seed: int, timeline, layout=None, background=None
) -> tuple[BlockService, BlockService, int, float]:
    """Two identically seeded services, a block count and a start time.
    ``layout`` and ``background`` replace the drawn ones when given."""
    draw = np.random.default_rng(10_000 + seed)
    layout_drawn = InDiskLayout(int(draw.choice([8, 64, 256, 1024])), float(draw.uniform()))
    spt = int(draw.integers(500, 1000))
    background_drawn = BackgroundLoad(float(draw.uniform(0.004, 0.2)))
    layout = layout or layout_drawn
    background = background or background_drawn
    twins = tuple(
        BlockService(
            DiskMechanics(),
            layout,
            spt,
            np.random.default_rng(seed),
            background=background,
            timeline=timeline,
            phase_rng=np.random.default_rng([seed, 1]),
        )
        for _ in range(2)
    )
    return twins[0], twins[1], int(draw.integers(1, 80)), float(draw.uniform(0, 5))


def _timeline(seed: int):
    if seed % 3 == 0:
        return None
    if seed % 3 == 1:
        return DiskTimeline(slow=[(0.5, 2.5, 3.0)], down=[(3.0, 3.4)])
    return DiskTimeline(slow=[(1.0, 4.0, 1.5)], down=[(2.0, np.inf)])


def test_completions_match_the_allclose_loop_over_seeds():
    faulted = 0
    for seed in range(300):
        timeline = _timeline(seed)
        faulted += timeline is not None
        new, old, n, start = _twin_services(seed, timeline)
        services = new.block_service_times(n, 1 << 20)
        assert np.array_equal(services, old.block_service_times(n, 1 << 20))
        got = new.completions(services, start)
        want = completions_before(old, services, start)
        assert np.array_equal(got, want), seed
        # Both loops consumed the same draws, so the streams stay aligned.
        assert new.rngs[0].bit_generator.state == old.rngs[0].bit_generator.state
        assert new.phase_rngs[0].bit_generator.state == old.phase_rngs[0].bit_generator.state
    assert faulted == 200


def test_completions_match_under_a_saturating_background():
    # A 4 ms interval over-saturates the drive, so the fairness floor sets
    # the admission interval.
    for seed in range(40):
        new, old, _, _ = _twin_services(seed, None, background=BackgroundLoad(0.004))
        services = np.full(200, 0.02)
        got = new.completions(services, 1.0)
        assert np.array_equal(got, completions_before(old, services, 1.0)), seed


class _Understated(BackgroundLoad):
    """Claims a tenth of its mean service, so the up-front draw falls
    short and the fixed point takes extension draws."""

    def mean_service(self, mechanics, spt):
        return super().mean_service(mechanics, spt) / 10


def test_completions_match_when_the_draws_run_short(monkeypatch):
    calls = []
    sample = _Understated.sample_services

    def counted(self, n, *args):
        calls.append(n)
        return sample(self, n, *args)

    monkeypatch.setattr(_Understated, "sample_services", counted)
    for seed in range(40):
        new, old, n, start = _twin_services(
            seed, _timeline(seed), InDiskLayout(256, 0.0), _Understated(0.008)
        )
        services = np.full(n + 40, 0.01)
        calls.clear()
        got = new.completions(services, start)
        assert len(calls) > 1, seed
        assert np.array_equal(got, completions_before(old, services, start)), seed
        assert new.rngs[0].bit_generator.state == old.rngs[0].bit_generator.state
