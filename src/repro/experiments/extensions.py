"""Further extension experiments.

* ``ext_update`` — §4.3.4 update-access amplification: coded blocks
  rewritten per modified original block, versus the optimal-code worst
  case (rewrite almost everything).
* ``ext_parallel_coding`` — §7.3: encode throughput vs worker threads.
* ``ext_qos_admission`` — Appendix B + §5.4 wired together: QoS-priority
  flows negotiating admission at capacity-limited servers.
"""

from __future__ import annotations

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.admission import Flow, PriorityAdmission, pick_admitted_server
from repro.cluster.server import Cluster
from repro.coding.lt import ImprovedLTCode
from repro.coding.parallel import encode_throughput
from repro.core import SCHEMES
from repro.core.update import update_access, update_amplification
from repro.metrics.reporting import Table
from repro.sim.rng import RngHub


def ext_update(ks=(128, 256, 1024), expansion: int = 4, seed: int = 0) -> Table:
    """Coded blocks touched per single-block update, across word lengths.

    The dissertation's example: K=1024, N=4096 -> ~20 coded blocks, about
    0.5% of the encoded data; an optimal code would touch ~all N-K parity
    blocks.
    """
    rows = []
    for k in ks:
        cfg = AccessConfig(
            data_bytes=k * MB, block_bytes=1 * MB,
            n_disks=min(64, k), redundancy=float(expansion - 1),
        )
        cluster = Cluster(n_disks=128)
        hub = RngHub(seed)
        scheme = SCHEMES["robustore"](cluster, cfg, hub=hub)
        cluster.redraw_disk_states(hub.fresh("env", k))
        scheme.prepare("f", 0)
        amp = update_amplification(scheme, "f")
        result = update_access(scheme, "f", [0], trial=1)
        rows.append(
            {
                "K": k,
                "N": cfg.n_coded,
                "blocks_rewritten": round(amp, 1),
                "fraction_%": round(100 * amp / cfg.n_coded, 2),
                "optimal_code_%": round(100 * (cfg.n_coded - k) / cfg.n_coded, 1),
                "update_lat_s": round(result.latency_s, 3),
            }
        )
    return Table("Extension: update-access amplification (§4.3.4)", rows)


def ext_parallel_coding(
    k: int = 256, block_kb: int = 256, workers=(1, 2, 4), seed: int = 0
) -> Table:
    """Encode throughput vs thread count (numpy XOR releases the GIL)."""
    rng = np.random.default_rng(seed)
    code = ImprovedLTCode(k, c=1.0, delta=0.5)
    graph = code.build_graph(4 * k, rng)
    rows = []
    base = None
    for w in workers:
        thr = encode_throughput(code, graph, block_kb << 10, w, rng)
        base = base or thr
        rows.append(
            {
                "workers": w,
                "encode_MBps": round(thr / MB, 1),
                "speedup": round(thr / base, 2),
            }
        )
    return Table("Extension: parallel LT encoding throughput (§7.3)", rows)


def ext_failures(
    failure_counts=(0, 1, 2, 4, 8, 16), data_mb: int = 256, trials: int = 8, seed: int = 0
) -> Table:
    """Read success rate and bandwidth as disks fail outright.

    Erasure-coded redundancy reads around erased disks (any sufficient
    subset decodes); RAID-0 dies with the first failed disk it selected,
    and replication dies once all copies of any block are gone.
    """
    from repro.experiments.harness import TrialPlan, run_cells

    cfg = AccessConfig(
        data_bytes=data_mb * MB, block_bytes=1 * MB, n_disks=64, redundancy=3.0
    )
    schemes = ("raid0", "rraid-s", "robustore")
    batches = iter(run_cells(
        (TrialPlan(access=cfg, mode="read", trials=trials, seed=seed, failed_disks=nf),
         scheme)
        for scheme in schemes
        for nf in failure_counts
    ))
    rows = []
    for scheme in schemes:
        for nf in failure_counts:
            results = next(batches)
            ok = [r for r in results if np.isfinite(r.latency_s)]
            bw = (
                float(np.mean([r.bandwidth_bps for r in ok])) / MB if ok else 0.0
            )
            rows.append(
                {
                    "scheme": scheme,
                    "failed_disks": nf,
                    "success_%": round(100 * len(ok) / len(results)),
                    "bw_MBps": round(bw, 1),
                }
            )
    return Table("Extension: reads under disk failures (§5.3.1 reliability)", rows)


def ext_qos_admission(
    n_servers: int = 4, capacity: int = 2, offered: int = 16, seed: int = 0
) -> Table:
    """Flows with mixed priorities negotiate admission across servers.

    High-priority (interactive) flows should land on their preferred
    servers; surplus low-priority (batch) flows spill over or are refused
    — the Appendix B negotiation running on §5.4 controllers.
    """
    rng = np.random.default_rng(seed)
    controllers = [PriorityAdmission(capacity) for _ in range(n_servers)]
    counts = {
        label: {"offered": 0, "admitted": 0, "refused": 0}
        for label in ("interactive", "batch")
    }
    preferred_hits = 0
    for i in range(offered):
        label = "interactive" if i % 3 == 0 else "batch"
        flow = Flow(nbytes=1 * MB, priority=0 if label == "interactive" else 5)
        preferred = int(rng.integers(0, n_servers))
        server = pick_admitted_server(controllers, flow, preferred=preferred)
        counts[label]["offered"] += 1
        if server is None:
            counts[label]["refused"] += 1
        else:
            counts[label]["admitted"] += 1
            if server == preferred:
                preferred_hits += 1
    rows = [{"class": label, **stats} for label, stats in counts.items()]
    rows.append(
        {"class": "preferred-hits", "offered": "", "admitted": preferred_hits, "refused": ""}
    )
    return Table("Extension: QoS-priority admission at capacity-limited servers", rows)


def ext_baselines(data_mb: int = 512, trials: int = 10, seed: int = 0) -> Table:
    """All six schemes at the baseline point (adds RAID-5, RAID-0+1)."""
    from repro.experiments.harness import TrialPlan, run_point

    cfg = AccessConfig(
        data_bytes=data_mb * MB, block_bytes=1 * MB, n_disks=64, redundancy=3.0
    )
    plan = TrialPlan(access=cfg, mode="read", trials=trials, seed=seed)
    point = run_point(
        plan, ("raid0", "raid5", "raid0+1", "rraid-s", "rraid-a", "robustore")
    )
    rows = []
    for name, s in point.items():
        rows.append(
            {
                "scheme": name,
                "bw_MBps": round(s.bandwidth_mbps, 1),
                "lat_std_s": round(s.latency_std_s, 2),
                "io_ovh": round(s.io_overhead, 2),
            }
        )
    return Table("Extension: RobuSTore vs the full RAID family (1 access point)", rows)


def ext_wan_regime(
    nic_mbps: float = 10.0, data_mb: int = 128, trials: int = 6, seed: int = 0
) -> Table:
    """Reproduce the related-work crossover.

    Collins & Plank (DSN'05) found Reed-Solomon beats LDPC-family codes in
    slow shared WANs (<10 MB/s, small N): there the client NIC is the
    bottleneck, so LT's ~40-50% reception overhead costs real transfer
    time while RS's decode hides behind the trickling arrivals.  The
    dissertation's rebuttal is the fast-network regime (abl_code_choice),
    where the quadratic RS decode dominates instead.  Both regimes run
    here from the same simulator.
    """
    from repro.experiments.harness import TrialPlan, run_cells
    from repro.metrics.stats import summarize

    networks = (("fast lambda (inf)", float("inf")), (f"WAN {nic_mbps} MB/s", nic_mbps * MB))
    schemes = ("robustore", "robustore-rs")
    plans = [
        TrialPlan(
            access=AccessConfig(
                data_bytes=data_mb * MB,
                block_bytes=1 * MB,
                n_disks=64,
                redundancy=3.0,
                client_bandwidth_bps=nic,
            ),
            mode="read",
            trials=trials,
            seed=seed,
        )
        for _label, nic in networks
    ]
    batches = iter(run_cells((plan, name) for plan in plans for name in schemes))
    rows = []
    for label, _nic in networks:
        for name in schemes:
            s = summarize(next(batches))
            rows.append(
                {
                    "network": label,
                    "scheme": name,
                    "bw_MBps": round(s.bandwidth_mbps, 1),
                    "lat_s": round(s.latency_mean_s, 2),
                }
            )
    return Table("Extension: slow shared-WAN regime (Collins & Plank, §2.3)", rows)


# ``ext_repair`` moved to :mod:`repro.experiments.repair_experiment`: the
# single-scheme rebuild-time sweep grew into the coding-family x
# rebuild-scheduler repair-economy grid.
