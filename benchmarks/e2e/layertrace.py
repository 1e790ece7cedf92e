"""Outside-in layer tracing: time each layer's public entry points.

:class:`LayerTracer` rebinds every listed callable, from benchmark code
only, to a timing wrapper: the class attribute for a method, and every
module-global alias (``from x import f``) for a function.  ``uninstall``
puts the original objects back.  Nothing under ``src/`` changes, and the
simulation's results do not depend on whether the wrappers are installed.

Each wrapped call is a span (layer, start, end, parent, cell, trial);
``cell`` plus ``trial`` identify the request.  A layer's *self* time is
its spans' durations minus the time their child spans cover, and the
wrapper's own calibrated cost (:attr:`LayerTracer.probe_ns`) is charged
to nobody: it is subtracted from the parent and from the pass time.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import defaultdict

#: Spans kept per layer for the trace file; aggregates count every call.
SPAN_CAP = 50_000


def _blocks_sampled(counters, args, kwargs, result) -> None:
    counters["disk.service.sample_calls"] += 1
    counters["disk.service.blocks"] += len(result)


def _arrivals(counters, args, kwargs, result) -> None:
    counters["accesscore.consume.arrivals"] += len(args[1])


def _dispatch_read(counters, args, kwargs, result) -> None:
    counters["core.dispatch.handoffs"] += max(result.rounds - 1, 0)
    counters["core.dispatch.blocks_received"] += result.blocks_received
    counters["core.dispatch.disk_blocks"] += result.disk_blocks


def _requests(counters, args, kwargs, result) -> None:
    counters["serve.replay.requests"] += result.offered


#: Layer -> public entry points, as ``"module:Qualified.name"``.  A hook
#: (``counters, args, kwargs, result``) records a work count at the
#: boundary where the work happens.
LAYERS: dict[str, tuple] = {
    "sim.rng": ("repro.sim.rng:RngHub.fresh", "repro.sim.rng:RngHub.stream"),
    "disk.service": (
        ("repro.disk.service:BlockService.block_service_times", _blocks_sampled),
        "repro.disk.service:BlockService.completions",
    ),
    "disk.drive": (
        "repro.disk.drive:DiskDrive.submit",
        "repro.disk.drive:DiskDrive.cancel",
        "repro.disk.geometry:DiskGeometry.zone_index_of_lba",
        "repro.disk.geometry:DiskGeometry.cylinder_of_lba",
        "repro.disk.geometry:DiskGeometry.spt_of_lba",
        "repro.disk.geometry:DiskGeometry.locate",
        "repro.disk.geometry:DiskGeometry.track_crossings",
    ),
    "sim.kernel": ("repro.sim.core:Environment.step",),
    "accesscore.events": (
        "repro.accesscore.events:event_read",
        "repro.accesscore.events:event_write",
    ),
    "core.dispatch": (
        ("repro.core.policy.dispatch:SpeculativeDispatch.read", _dispatch_read),
        ("repro.core.policy.dispatch:AdaptiveDispatch.read", _dispatch_read),
    ),
    "core.read": ("repro.core.pipeline:PolicyScheme.read",),
    "core.placement": ("repro.core.pipeline:PolicyScheme.prepare",),
    "core.write": ("repro.core.pipeline:PolicyScheme.write",),
    "accesscore.queues": (
        "repro.accesscore.timeline:serve_read_queues",
        "repro.accesscore.timeline:simulate_uniform_write",
    ),
    "accesscore.consume": (
        "repro.accesscore.timeline:merged_arrival_order",
        ("repro.accesscore.timeline:consume_sorted_arrivals", _arrivals),
    ),
    "accesscore.epilogue": ("repro.accesscore.timeline:read_epilogue",),
    "cluster.state": (
        "repro.cluster.server:Cluster.redraw_disk_states",
        "repro.cluster.server:Cluster.block_service",
    ),
    "cluster.fscache": (
        "repro.cluster.filer:Filer.age_cache",
        "repro.cluster.filer:Filer.cached_blocks",
        "repro.cluster.filer:Filer.record_read",
        "repro.cluster.filer:Filer.record_write",
    ),
    "cluster.metadata": (
        "repro.cluster.metadata:MetadataServer.commit",
        "repro.cluster.metadata:MetadataServer.lookup",
        "repro.cluster.metadata_distributed:DistributedMetadataServer.lookup",
    ),
    "faults": (
        "repro.faults.model:FaultModel.sample_plan",
        "repro.cluster.server:Cluster.install_faults",
        "repro.faults.timeline:DiskTimeline.warp",
    ),
    "serve.workload": ("repro.serve.workload:generate",),
    "serve.calibrate": ("repro.serve.service:StorageService.calibrate",),
    "serve.replay": (("repro.serve.service:StorageService.run", _requests),),
    "serve.ring": (
        "repro.serve.ring:FilePlacer.lookup",
        "repro.serve.ring:FilePlacer.place",
    ),
    "serve.slo": (
        "repro.serve.slo:SloTracker.admit",
        "repro.serve.slo:SloTracker.reject",
    ),
    "experiments.harness": (
        "repro.experiments.harness:run_scheme",
        "repro.experiments.harness:_run_trial",
    ),
}

#: The entry point whose ``trial`` argument (position 5) tags child spans.
TRIAL_ENTRY = "repro.experiments.harness:_run_trial"


def resolve(target: str):
    """``(owner, attribute name)`` of ``"module:Qualified.name"``."""
    module, _, qual = target.partition(":")
    owner = importlib.import_module(module)
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerTracer:
    """Wrap the listed entry points; aggregate calls and self time per layer.

    ``record=False`` installs wrappers that only busy-wait (``delay_ns``
    per call), the ``--inject-delay`` mode that proves the gate can fail.
    """

    def __init__(self, layers: dict[str, tuple] = LAYERS, record: bool = True,
                 delay_ns: int = 0, clock=time.perf_counter_ns) -> None:
        self.layers = list(layers)
        self.clock = clock
        self._targets = [
            (li, *(t if isinstance(t, tuple) else (t, None)))
            for li, name in enumerate(self.layers)
            for t in layers[name]
        ]
        self.record = record
        self.delay_ns = int(delay_ns)
        n = len(self.layers) + 1  # last slot: the probe calibration
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.kept = [0] * n
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.stack: list[list[int]] = []
        self.next_id = 0
        self.cell = -1
        self.trial = -1
        self.probe_ns = 0.0
        self._patches: list[tuple] = []  # (class or globals, key, original, new)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, li: int, hook=None, enter=None):
        """A timing wrapper around ``fn`` charging layer ``li``."""
        clock = self.clock
        if not self.record:
            delay = self.delay_ns

            def delayed(*args, **kwargs):
                end = clock() + delay
                while clock() < end:
                    pass
                return fn(*args, **kwargs)

            return delayed
        tr = self
        stack, self_ns, calls, kept = self.stack, self.self_ns, self.calls, self.kept
        spans = self.spans
        counters = self.counters

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(tr, args)
            frame = [0, tr.next_id]
            tr.next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[li] += dur - frame[0]
                calls[li] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += dur + tr.probe_ns
                    pid = parent[1]
                else:
                    pid = -1
                if kept[li] < SPAN_CAP:
                    kept[li] += 1
                    spans.append((li, t0, t1, frame[1], pid, tr.cell, tr.trial))
            return result

        return wrapper

    def calibrate(self, n: int = 20_000, repeats: int = 5) -> float:
        """Measure the wrapper's cost per call (ns) on a nested no-op."""
        li = len(self.layers)
        clock = self.clock

        def noop():
            return None

        inner = self.wrap(noop, li)

        def raw_loop():
            for _ in range(n):
                noop()

        def wrapped_loop():
            for _ in range(n):
                inner()

        outer_raw, outer_wrapped = self.wrap(raw_loop, li), self.wrap(wrapped_loop, li)
        costs = []
        for _ in range(repeats):
            t0 = clock()
            outer_raw()
            t1 = clock()
            outer_wrapped()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / n)
        costs.sort()
        self.probe_ns = max(costs[len(costs) // 2], 0.0)
        self.self_ns[li] = self.calls[li] = self.kept[li] = 0
        self.spans.clear()
        self.next_id = 0
        return self.probe_ns

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        """Rebind every listed entry point and its module-global aliases."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for li, target, hook in self._targets:
            owner, name = resolve(target)
            fn = vars(owner)[name]
            if not isinstance(fn, types.FunctionType):
                raise TypeError(f"{target} is not a plain function or method")
            wrapper = self.wrap(fn, li, hook, _tag_trial if target == TRIAL_ENTRY else None)
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._patches.append((owner, name, fn, wrapper))
                setattr(owner, name, wrapper)
        self._rebind_globals(wrappers)

    def uninstall(self) -> None:
        """Restore every rebound name, including aliases taken since install."""
        for container, key, original, _ in reversed(self._patches):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        late = {id(new): (new, original) for _, _, original, new in self._patches}
        self._rebind_globals(late)
        self._patches.clear()

    def _rebind_globals(self, mapping: dict) -> None:
        """Replace every module global ``is old`` by ``new`` (``id(old) -> (old, new)``)."""
        for ns in _module_namespaces():
            for key, value in list(ns.items()):
                hit = mapping.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, key, value, hit[1]))
                    ns[key] = hit[1]

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _tag_trial(tr: LayerTracer, args) -> None:
    tr.trial = int(args[5])


def _module_namespaces():
    """Globals of every loaded module (benchmark modules included)."""
    for mod in list(sys.modules.values()):
        ns = getattr(mod, "__dict__", None)
        if isinstance(ns, dict):
            yield ns
