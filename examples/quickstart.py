"""Quickstart: store and retrieve a file through the RobuSTore client.

Demonstrates the §4.3.1 interface end to end on a simulated 128-disk
cluster: the data is really LT-encoded, speculatively written (leaving an
unbalanced placement), then reconstructed from the blocks that happen to
arrive first — while the simulation reports the latency and bandwidth a
real client would have observed.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.core.api import RobuStoreClient


def main() -> None:
    client = RobuStoreClient(
        config=AccessConfig(
            data_bytes=64 * MB,   # adjusted per write below
            block_bytes=1 * MB,
            n_disks=32,
            redundancy=3.0,       # 3x coded redundancy (the paper baseline)
        ),
        seed=2024,
    )

    payload = np.random.default_rng(0).integers(0, 256, 24 * MB, np.uint8).tobytes()
    print(f"writing {len(payload) // MB} MB through the speculative writer...")
    with client.open("dataset/genome-tile-17", "w") as f:
        res = f.write(payload)
    print(
        f"  write: {res.bandwidth_mbps:7.1f} MB/s, "
        f"{res.disk_blocks} coded blocks committed "
        f"(target {res.extra['target_blocks']}, overshoot {res.extra['overshoot']})"
    )
    record = client.metadata.lookup("dataset/genome-tile-17")
    counts = [len(p) for p in record.placement]
    print(f"  placement is unbalanced: {min(counts)}..{max(counts)} blocks per disk")

    print("reading it back speculatively...")
    with client.open("dataset/genome-tile-17", "r") as f:
        data, res = f.read()
    assert data == payload, "byte-exact reconstruction failed!"
    print(
        f"  read:  {res.bandwidth_mbps:7.1f} MB/s, latency {res.latency_s:.3f} s, "
        f"reception overhead {res.extra['reception_overhead']:.2f}, "
        f"I/O overhead {res.io_overhead:+.2f}"
    )
    print("  data verified byte-exact after out-of-order partial retrieval ✔")


if __name__ == "__main__":
    main()
