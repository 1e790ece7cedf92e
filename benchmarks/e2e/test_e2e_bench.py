"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import child
import layertrace
import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _bindings():
    """Every class attribute and module global bound to a listed entry point."""
    found = {}
    for targets in layertrace.LAYERS.values():
        for t in targets:
            target = t[0] if isinstance(t, tuple) else t
            owner, name = layertrace.resolve(target)
            fn = vars(owner)[name]
            found[(id(owner), name)] = (vars(owner), name, fn)
            for mod in list(sys.modules.values()):
                ns = getattr(mod, "__dict__", None)
                if not isinstance(ns, dict):
                    continue
                for key, value in list(ns.items()):
                    if value is fn:
                        found[(id(ns), key)] = (ns, key, fn)
    return found


def test_install_uninstall_restores_every_alias():
    before = _bindings()
    # An alias outside the defining module: ``from ... import serve_read_queues``.
    dispatch = vars(sys.modules["repro.core.policy.dispatch"])
    assert (id(dispatch), "serve_read_queues") in before
    tr = layertrace.LayerTracer()
    with tr:
        for ns, key, original in before.values():
            assert ns[key] is not original, key
    for ns, key, original in before.values():
        assert ns[key] is original, key


def _payload(wl, cell):
    out = wl.run(cell, 0, trials=1)
    return json.dumps(wl.payload(cell, out), sort_keys=True)


class SmallServe(workloads.ServeOpen):
    n_clients = 1_000


@pytest.mark.parametrize("wl", [
    workloads.WORKLOADS["grid_read"],
    workloads.WORKLOADS["event_storm"],
    workloads.WORKLOADS["raw_cached"],
    SmallServe(),
], ids=lambda w: w.name)
def test_traced_digest_equals_untraced(wl):
    cell = wl.cells()[-1]
    untraced = _payload(wl, cell)
    tr = layertrace.LayerTracer()
    with tr:
        traced = _payload(wl, cell)
    assert traced == untraced
    calls = dict(zip(tr.layers, tr.calls))
    if wl.name == "serve_open":
        assert calls["serve.replay"] == 1 and calls["serve.slo"] == 1_000
    else:
        assert calls["experiments.harness"] == 2  # run_scheme + one trial
    assert (calls["sim.kernel"] > 0) == (wl.name == "event_storm")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_spans():
    clock = FakeClock()
    layers = {"outer": (), "middle": (), "inner": ()}
    tr = layertrace.LayerTracer(layers, clock=clock)
    tr.probe_ns = 5

    def work(ns):
        clock.now += ns

    def inner():
        work(10)

    def middle():
        work(20)
        w_inner()
        work(30)
        w_inner()

    def outer():
        work(100)
        w_middle()
        work(1)

    w_inner = tr.wrap(inner, 2)
    w_middle = tr.wrap(middle, 1)
    tr.wrap(outer, 0)()
    # inner: 2 x 10.  middle: 70 - 20 - 2 probes.  outer: 171 - 70 - 1 probe.
    assert tr.self_ns[:3] == [96, 40, 20]
    assert tr.calls[:3] == [1, 1, 2]
    by_id = {s[3]: s for s in tr.spans}
    outer_span = next(s for s in tr.spans if s[0] == 0)
    assert outer_span[4] == -1
    for li, t0, t1, sid, parent, cell, trial in tr.spans:
        if li:
            assert by_id[parent][0] == li - 1
            assert by_id[parent][1] <= t0 <= t1 <= by_id[parent][2]


def test_calibrated_probe_cost_is_positive_and_small():
    tr = layertrace.LayerTracer({"x": ()})
    cost = tr.calibrate(n=2_000, repeats=3)
    assert 0 < cost < 100_000
    assert tr.calls == [0, 0] and not tr.spans


BASE = {"median": 100.0, "samples": [98.0, 99.0, 100.0, 101.0, 102.0]}


@pytest.mark.parametrize("better,samples,verdict", [
    ("higher", [99.0, 100.0, 101.0, 100.5, 99.5], "pass"),
    ("higher", [85.0, 86.0, 85.5, 86.5, 85.2], "fail"),
    ("lower", [115.0, 116.0, 115.5, 116.5, 115.2], "fail"),
    ("lower", [85.0, 86.0, 85.5, 86.5, 85.2], "better"),
    ("higher", [60.0, 100.0, 80.0, 120.0, 70.0], "unresolved"),
    ("higher", [110.0, 150.0, 130.0, 170.0, 120.0], "better"),
])
def test_gate_bound_and_unresolved(better, samples, verdict):
    assert run.judge(better, 0.10, BASE, samples) == verdict


def test_metric_names_and_counts():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_are_the_listed_ones():
    tr = layertrace.LayerTracer()

    class FakePass:
        raw_s = norm_s = wall_s = 1.0
        ops = 10

    wl = workloads.WORKLOADS["grid_read"]
    layers = child.layer_metrics(tr, wl, [FakePass()], FakePass(), [250e-6])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    res = {"ops_per_s": [1.0], "setup_s": [1.0], "rss_mb": [1.0]}
    assert set(run.end_to_end(res)) == {m["name"] for m in SPEC["end_to_end"]}
