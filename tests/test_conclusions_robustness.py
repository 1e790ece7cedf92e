"""Seed-sensitivity: the paper's qualitative conclusions must not depend
on one lucky random seed."""

import numpy as np
import pytest

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.experiments.harness import TrialPlan, run_point

CFG = AccessConfig(data_bytes=256 * MB, block_bytes=1 * MB, n_disks=64, redundancy=3.0)


@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_headline_orderings_hold_across_seeds(seed):
    point = run_point(
        TrialPlan(access=CFG, mode="read", trials=6, seed=seed),
        schemes=("raid0", "rraid-s", "robustore"),
    )
    bw = {name: s.bandwidth_mbps for name, s in point.items()}
    # RobuSTore wins big; replication sits between; RAID-0 is gated by the
    # slowest disk.
    assert bw["robustore"] > 2 * bw["rraid-s"] > 2 * bw["raid0"]
    # I/O-overhead signatures.
    assert point["raid0"].io_overhead == 0.0
    assert point["rraid-s"].io_overhead > 0.5
    assert 0.2 < point["robustore"].io_overhead < 1.0
    # RobuSTore's latency variation stays a small fraction of its latency.
    robo = point["robustore"]
    assert robo.latency_std_s < 0.5 * robo.latency_mean_s


@pytest.mark.parametrize("seed", [7, 77])
def test_write_conclusions_hold_across_seeds(seed):
    point = run_point(
        TrialPlan(access=CFG, mode="write", trials=5, seed=seed),
        schemes=("raid0", "rraid-s", "robustore"),
    )
    bw = {name: s.bandwidth_mbps for name, s in point.items()}
    assert bw["robustore"] > 2 * bw["raid0"] > 2 * bw["rraid-s"]
    # Write I/O overhead ~= redundancy for everyone who writes redundantly.
    assert point["rraid-s"].io_overhead == pytest.approx(3.0, abs=0.05)
    assert point["robustore"].io_overhead == pytest.approx(3.0, abs=0.35)
