"""One benchmark process: the set-up probe, or one workload's measurement.

``run.py`` starts this file in a fresh interpreter, with ``REPRO_*``
removed from the environment and numeric libraries held to one thread;
it prints one JSON object as its last line of output::

    python benchmarks/e2e/child.py setup WORKLOAD --seed N --nominal-us US
    python benchmarks/e2e/child.py measure WORKLOAD --seed N --seconds S \\
        --trace 0|1 --nominal-us US [--delay LAYER:NORMALISED_NS] [--trace-file PATH]

``setup`` imports the workload's modules and runs its first cell at one
op (that is what it times), prints ``ready``, then reports the host speed
it sampled meanwhile.  ``measure`` runs one untraced warm-up pass, whose
outputs every later pass must reproduce, then timed passes until
``--seconds`` are spent; with ``--trace 1`` the timed passes run under
:class:`layertrace.LayerTracer`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import layertrace

#: Timed passes an untraced measurement makes however short ``--seconds``
#: is (its metrics are medians); a traced one makes at least one.
MIN_PASSES = 3


class Pass:
    """One pass over a workload's cells: times and canonical outputs."""

    def __init__(self, wl, seed: int, sampler, tracer=None) -> None:
        self.raw_s = self.norm_s = self.wall_s = 0.0
        self.jsons: list[str | None] = []
        for i, cell in enumerate(wl.cells()):
            if tracer is not None:
                tracer.cell, tracer.trial = i, -1
            out = None
            with sampler.timed() as span:
                try:
                    out = wl.run(cell, seed)
                except Exception:
                    traceback.print_exc()
            self.raw_s += span.raw_s
            self.norm_s += span.norm_s
            self.wall_s += span.raw_s + span.probe_s
            self.jsons.append(_cell_json(wl, cell, out))
        self.signatures = [
            None if j is None else hashlib.sha256(j.encode()).hexdigest()
            for j in self.jsons
        ]
        self.ops = wl.ops_per_cell * len(self.jsons)


def _cell_json(wl, cell, out) -> str | None:
    """Canonical JSON of a valid cell output; ``None`` if it is invalid."""
    if out is None:
        return None
    try:
        wl.check(cell, out)
    except ValueError as exc:
        print(f"{wl.name}: {exc}", file=sys.stderr)
        return None
    return json.dumps(wl.payload(cell, out), sort_keys=True)


def failed_cells(reference: Pass, p: Pass) -> int:
    """Cells of ``p`` that are invalid or differ from the reference pass."""
    return sum(
        1 for ref, sig in zip(reference.signatures, p.signatures)
        if sig is None or sig != ref
    )


def timed_passes(wl, seed, sampler, seconds, tracer=None) -> list[Pass]:
    """Passes until the next one would overrun ``seconds``."""
    passes: list[Pass] = []
    least = MIN_PASSES if tracer is None else 1
    start = time.perf_counter()
    while True:
        passes.append(Pass(wl, seed, sampler, tracer))
        elapsed = time.perf_counter() - start
        if len(passes) >= least and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def layer_metrics(tr, wl, traced: list, untraced, probes: list[float]) -> dict:
    """Per-layer shares, calls and work ratios of the traced passes."""
    n = len(traced)
    total_calls = sum(tr.calls[:-1])
    # Host-speed probes fire inside spans, so shares are of wall time.
    traced_ns = sum(p.wall_s for p in traced) * 1e9 - total_calls * tr.probe_ns
    out: dict[str, float] = {}
    for li, layer in enumerate(tr.layers):
        calls, self_ns = tr.calls[li], tr.self_ns[li]
        out[f"{layer}.share"] = self_ns / traced_ns
        out[f"{layer}.calls"] = calls / n
        out[f"{layer}.us_per_call"] = self_ns / calls / 1e3 if calls else 0.0
    c = tr.counters
    trials = wl.trials_per_pass * n

    def ratio(num, den):
        return num / den if den else 0.0

    def self_us(layer):
        return tr.self_ns[tr.layers.index(layer)] / 1e3

    out.update({
        "sim.rng.streams_per_trial": ratio(out["sim.rng.calls"] * n, trials),
        "disk.service.blocks_per_call": ratio(
            c["disk.service.blocks"], c["disk.service.sample_calls"]),
        "disk.service.us_per_block": ratio(
            self_us("disk.service"), c["disk.service.blocks"]),
        "sim.kernel.events_per_trial": ratio(out["sim.kernel.calls"] * n, trials),
        "sim.kernel.us_per_event": out["sim.kernel.us_per_call"],
        "accesscore.consume.us_per_arrival": ratio(
            self_us("accesscore.consume"), c["accesscore.consume.arrivals"]),
        "serve.replay.us_per_request": ratio(
            self_us("serve.replay"), c["serve.replay.requests"]),
        "core.dispatch.handoffs_per_trial": ratio(c["core.dispatch.handoffs"], trials),
        "core.dispatch.useful_block_ratio": ratio(
            c["core.dispatch.blocks_received"], c["core.dispatch.disk_blocks"]),
        "trace.overhead": statistics.median(p.norm_s for p in traced) / untraced.norm_s - 1,
        "trace.unattributed_share": 1 - sum(
            out[f"{layer}.share"] for layer in tr.layers),
        "trace.probe_ns": tr.probe_ns,
        "host.probe_us": statistics.median(probes) * 1e6,
        "host.raw_ops_per_s": untraced.ops / untraced.raw_s,
    })
    return out


def chrome_trace(tr, workload: str) -> dict:
    """The kept spans as Chrome trace-event JSON (``chrome://tracing``)."""
    base = min((s[1] for s in tr.spans), default=0)
    events = [
        {
            "name": tr.layers[li], "cat": tr.layers[li].split(".")[0], "ph": "X",
            "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3, "pid": 1, "tid": 1,
            "args": {"id": sid, "parent": pid, "cell": cell, "trial": trial},
        }
        for li, t0, t1, sid, pid, cell, trial in tr.spans
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload, "span_cap_per_layer": layertrace.SPAN_CAP},
    }


def measure(args, sampler) -> dict:
    from repro.sim.rng import stable_digest
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    warm = Pass(wl, args.seed, sampler)
    digest = None if None in warm.jsons else stable_digest(
        "[" + ", ".join(warm.jsons) + "]")
    result: dict = {"workload": wl.name, "seed": args.seed, "digest": digest,
                    "params": wl.params()}
    delay = None
    if args.delay:
        # The delay is given in host-normalised ns; busy-waiting is in wall ns.
        layer, _, ns = args.delay.partition(":")
        wall_ns = float(ns) * warm.raw_s / warm.norm_s
        delay = layertrace.LayerTracer({layer: layertrace.LAYERS[layer]},
                                       record=False, delay_ns=int(wall_ns))
        delay.install()
    try:
        if args.trace:
            untraced = Pass(wl, args.seed, sampler)
            tr = layertrace.LayerTracer()
            tr.calibrate()
            n0 = len(sampler.samples)
            with tr:
                passes = timed_passes(wl, args.seed, sampler,
                                      args.seconds - untraced.raw_s, tr)
            result["layers"] = layer_metrics(tr, wl, passes, untraced,
                                             sampler.samples[n0:])
            passes.append(untraced)
            if args.trace_file:
                path = Path(args.trace_file)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(chrome_trace(tr, wl.name)))
        else:
            passes = timed_passes(wl, args.seed, sampler, args.seconds)
    finally:
        if delay is not None:
            delay.uninstall()
    failed = [failed_cells(warm, p) for p in passes]
    result.update({
        "ops_per_s": [p.ops / p.norm_s for p in passes if not args.trace],
        "raw_ops_per_s": [p.ops / p.raw_s for p in passes],
        "probe_us": statistics.median(sampler.samples) * 1e6,
        "pass_norm_s": [p.norm_s for p in passes],
        "cells_attempted": len(warm.jsons) * (len(passes) + 1),
        "cells_failed": sum(failed) + warm.signatures.count(None),
        "ops_attempted": sum(p.ops for p in passes),
        "ops_failed": wl.ops_per_cell * sum(failed),
        "rss_mb": retained_rss_mb(),
    })
    return result


def retained_rss_mb() -> float:
    """Resident memory after a full collection: what the process keeps.

    Peak RSS is not used: transient arrays whose size depends on the
    seed's draws move it by up to 70% from seed to seed.
    """
    gc.collect()
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def setup(args, sampler) -> dict:
    with sampler.timed() as span:
        workloads = importlib.import_module("workloads")
        workloads.WORKLOADS[args.workload].setup(args.seed)
    print("ready", flush=True)
    return {"probe_s": span.probe_s, "speed": span.norm_s / span.raw_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nominal-us", type=float, required=True)
    parser.add_argument("--delay", default=None, metavar="LAYER:NS")
    parser.add_argument("--trace-file", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    sampler = hostspeed.HostSampler(args.nominal_us * 1e-6)
    try:
        result = (setup if args.mode == "setup" else measure)(args, sampler)
    finally:
        sampler.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
