"""The solved background fixed point at the edges of its search.

``BlockService.completions`` finds each block's count of background
arrivals with one ``searchsorted`` over the arrivals' running-maximum
slack, taken :data:`repro.disk.service.SLACK_MARGIN_S` below the block's
start, then confirms it with the iteration's own arithmetic.  A block
that starts exactly on a slack value, or one float beside it, is where
the search's rounding and the iteration's disagree most; these tests put
single-block queues there and compare every value and both generators'
states with :func:`completions_before`, the loop the search replaced.
"""

import numpy as np
import pytest

from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import InDiskLayout
from tests.test_service_fixed_point import completions_before

SPT = 700
#: Background arrivals whose slack the starts sit on.  A queue's up-front
#: draw may be shorter; a longer draw's running sum begins with it.
AHEAD = 100


def _service(seed: int, layout: InDiskLayout, background: BackgroundLoad) -> BlockService:
    return BlockService(
        DiskMechanics(),
        layout,
        SPT,
        np.random.default_rng(seed),
        background=background,
        phase_rng=np.random.default_rng([seed, 1]),
    )


def _slack_starts(seed: int, layout: InDiskLayout, background: BackgroundLoad) -> np.ndarray:
    """Each running-maximum slack value a fresh model's search compares
    a block's start with, and its two float neighbours."""
    svc = _service(seed, layout, background)
    mech = svc.mechanics
    pen = layout.p_sequential * mech.mean_positioning_time()
    per_bg = background.mean_service(mech, SPT) + pen
    interval = max(background.interval_s, per_bg / (1.0 - svc.MIN_FOREGROUND_SHARE))
    # A queue starting at 0.0 draws its phase, then its services, as here.
    phase = 0.0 + svc.phase_rngs[0].random() * interval
    draws = background.sample_services(AHEAD, mech, SPT, svc.rngs[0])
    b_cum = np.concatenate([[0.0], np.cumsum(draws)])
    slack = np.arange(b_cum.size) * (interval - pen)
    slack += phase
    slack -= b_cum
    edges = np.unique(np.maximum.accumulate(slack))
    edges = edges[edges > 0.0]
    return np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])


# 4 ms over-saturates the drive, so the fairness floor sets the interval.
@pytest.mark.parametrize("interval", [0.004, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("p_seq", [0.0, 0.5, 1.0])
def test_starts_on_the_slack_match_the_loop(interval, p_seq):
    layout, background = InDiskLayout(64, p_seq), BackgroundLoad(interval)
    checked = 0
    for seed in range(2):
        for start in _slack_starts(seed, layout, background):
            new = _service(seed, layout, background)
            old = _service(seed, layout, background)
            services = np.array([start])
            got = new.completions(services, 0.0)
            want = completions_before(old, services, 0.0)
            assert np.array_equal(got, want), (seed, float(start))
            assert new.rngs[0].bit_generator.state == old.rngs[0].bit_generator.state
            assert new.phase_rngs[0].bit_generator.state == old.phase_rngs[0].bit_generator.state
            checked += 1
    assert checked > 50
