"""Erasure-code playground: compare the code families RobuSTore weighs.

Encodes the same data with replication, parity, Reed-Solomon and
(improved) LT codes, then reports rate, reconstruction flexibility and
measured coding throughput — the Chapter 2/5 design-space tour that led
the dissertation to pick LT codes.

Run:  python examples/codes_playground.py
"""

import time

import numpy as np

from repro.coding import (
    ImprovedLTCode,
    ParityCode,
    PeelingDecoder,
    ReedSolomonCode,
    ReplicationCode,
)
from repro.coding.xorblocks import random_blocks
from repro.metrics.reporting import format_table

MB = 1 << 20


def main() -> None:
    rng = np.random.default_rng(0)
    k, block_len = 64, 256 << 10  # 16 MB of data
    data = random_blocks(rng, k, block_len)
    rows = []

    # Replication (4 copies).
    rep = ReplicationCode(k, replicas=4)
    t0 = time.perf_counter()
    coded = rep.encode(data)
    t_enc = time.perf_counter() - t0
    order = rng.permutation(rep.n)
    needed = rep.blocks_needed(order)
    rows.append(_row("replication x4", rep.rate, t_enc, k, block_len, needed, k))

    # Single parity.
    par = ParityCode(k)
    t0 = time.perf_counter()
    par.encode(data)
    t_enc = time.perf_counter() - t0
    rows.append(_row("parity (RAID-5)", par.rate, t_enc, k, block_len, k, k))

    # Reed-Solomon (optimal, any K of N).
    rs = ReedSolomonCode(k, 2 * k)
    t0 = time.perf_counter()
    rs_coded = rs.encode(data)
    t_enc = time.perf_counter() - t0
    ids = rng.choice(rs.n, size=k, replace=False)
    assert np.array_equal(rs.decode(ids, rs_coded[ids]), data)
    rows.append(_row("Reed-Solomon", rs.rate, t_enc, k, block_len, k, k))

    # Improved LT (the RobuSTore choice) with measured reception overhead.
    lt = ImprovedLTCode(k, c=1.0, delta=0.5)
    lt_graph = lt.build_graph(4 * k, rng)
    t0 = time.perf_counter()
    lt_coded = lt.encode(data, lt_graph)
    t_enc = time.perf_counter() - t0
    dec = PeelingDecoder(lt_graph, block_len=block_len)
    for cid in rng.permutation(lt_graph.n):
        dec.add(int(cid), lt_coded[cid])
        if dec.is_complete:
            break
    assert np.array_equal(dec.get_data(), data)
    rows.append(
        _row("LT (improved)", 0.25, t_enc, k, block_len, dec.blocks_used, k)
    )

    print(format_table("Erasure-code design space (16 MB, K=64)", rows))
    print(
        "\nLT wins for RobuSTore: rateless (flexible redundancy), XOR-only"
        "\n(high throughput), long code words — at ~40-50% reception overhead."
    )


def _row(name, rate, t_enc, k, block_len, needed, k_opt):
    return {
        "code": name,
        "rate": round(rate, 3),
        "enc MB/s": round(k * block_len / MB / max(t_enc, 1e-9), 1),
        "blocks needed": needed,
        "optimal": k_opt,
    }


if __name__ == "__main__":
    main()
