"""Golden regression: the repair economy under the pinned storm seed.

``ext_repair`` runs every (coding family x rebuild scheduler) cell under
one seeded 2-kill storm; the golden file pins each cell's full ledger row
— helper bytes, bytes moved, degraded-read counts, p99 inflation — plus
the per-scheme bytes-per-failure the regenerating-code literature orders.
Any drift in the storm sampler, the repair passes, the trigger rule or
the service model diffs here; regenerate deliberately with
``PYTHONPATH=src python -m tests.make_golden``.
"""

import json
import pathlib

from repro.experiments.repair_experiment import ext_repair

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_repair.json"


def build_repair_reference() -> dict:
    """Exactly the run the golden file was generated from."""
    result = ext_repair(trials=4)
    return {
        "rows": result.rows,
        "summaries": result.summaries,
        "bytes_per_failure": result.bytes_per_failure,
    }


def test_repair_golden_matches():
    assert GOLDEN.exists(), (
        "golden file missing; run PYTHONPATH=src python -m tests.make_golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert build_repair_reference() == golden


def test_repair_economy_ordering():
    """The headline result, independent of pinned-number drift.

    At equal storage overhead, per-node regenerating repair moves
    strictly fewer helper bytes per disk failure than RS group
    reconstruction, which moves strictly fewer than LT's whole-object
    re-read; MBR undercuts MSR by trading capacity for repair bandwidth.
    """
    ref = build_repair_reference()
    bpf = ref["bytes_per_failure"]
    assert bpf["regen-mbr"] < bpf["regen-msr"] < bpf["robustore-rs"]
    assert bpf["robustore-rs"] < bpf["robustore"]

    rows = {(r["scheme"], r["policy"]): r for r in ref["rows"]}
    schemes = sorted({s for s, _ in rows})
    for name in schemes:
        # Scheduling moves *when* repair bytes flow, never how many:
        # every policy's ledger converges to the same totals after the
        # end-of-horizon drain.
        moved = {rows[(name, p)]["moved_MB"] for p in ("eager", "lazy", "batched")}
        assert len(moved) == 1
        # Eager repairs everything inline; lazy's absolute floor defers
        # everything to the drain and pays for it in degraded reads.
        assert rows[(name, "eager")]["drained"] == 0
        assert rows[(name, "lazy")]["inline"] == 0
        assert rows[(name, "lazy")]["drained"] > 0
        assert (
            rows[(name, "lazy")]["degr_reads"]
            > rows[(name, "eager")]["degr_reads"]
        )


def test_regenerating_repair_is_sublinear_in_lost_bytes():
    """Read amplification: MBR reads ~1 MB per lost MB, MSR ~d/alpha, RS a
    full group word per loss, LT the whole object."""
    ref = build_repair_reference()
    amp = {r["scheme"]: r["read_amp"] for r in ref["rows"] if r["policy"] == "eager"}
    assert amp["regen-mbr"] <= 1.1
    assert amp["regen-msr"] <= 2.1
    assert amp["robustore-rs"] > amp["regen-msr"]
    assert amp["robustore"] > amp["robustore-rs"]
