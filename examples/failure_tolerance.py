"""Failure tolerance: reads while disks are dying, then rebuilding.

Erasure-coded symmetric redundancy means *any* sufficient subset of coded
blocks reconstructs the data (§4.1.1) — so RobuSTore reads sail past dead
disks that stop RAID-0 cold and that replication only survives while some
copy of every block remains.  Afterwards, the repair subsystem restores
the lost redundancy onto the survivors (§5.3.1 disaster recovery).

Run:  python examples/failure_tolerance.py
"""

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.cluster.server import Cluster
from repro.core import SCHEMES
from repro.core.repair import repair_file
from repro.experiments.extensions import ext_failures
from repro.sim.rng import RngHub


def main() -> None:
    result = ext_failures(failure_counts=(0, 2, 8, 16), data_mb=256, trials=6)
    print(result.text())
    by = {(r["scheme"], r["failed_disks"]): r for r in result.rows}
    print()
    r16 = by[("robustore", 16)]
    print(
        f"with 16 of 128 disks dead, RobuSTore still succeeds "
        f"{r16['success_%']}% of the time at {r16['bw_MBps']} MB/s, while "
        f"RAID-0 succeeds {by[('raid0', 16)]['success_%']}% of the time."
    )

    # --- and then the system heals itself -------------------------------
    print("\nrebuilding the lost redundancy (repair subsystem):")
    cluster = Cluster(n_disks=32)
    hub = RngHub(99)
    scheme = SCHEMES["robustore"](
        cluster,
        AccessConfig(data_bytes=128 * MB, n_disks=16, redundancy=3.0),
        hub=hub,
    )
    cluster.redraw_disk_states(hub.fresh("env", 0))
    record = scheme.prepare("dataset", 0)
    dead = {record.disk_ids[0], record.disk_ids[1]}
    cluster.redraw_disk_states(hub.fresh("env", 0), failed_disks=dead)
    report = repair_file(scheme, "dataset", trial=1)
    print(
        f"  2 disks lost {report.blocks_lost} coded blocks; reconstruction "
        f"read took {report.read_s:.2f} s, fresh rateless "
        f"replacements written to {report.disks_touched} survivors in "
        f"{report.write_s:.2f} s."
    )
    after = scheme.read("dataset", 2)
    print(f"  post-repair read: {after.bandwidth_mbps:.0f} MB/s ✔")


if __name__ == "__main__":
    main()
