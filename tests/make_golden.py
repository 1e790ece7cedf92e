"""Regenerate the golden files under tests/data after a deliberate change.

Usage::

    PYTHONPATH=src python -m tests.make_golden

Writes:

* ``golden_trace.json`` — the tracer's Chrome export format
  (:func:`tests.test_obs_tracer.build_reference_tracer`);
* ``golden_faults.json`` — per-scheme results under the reference fault
  storm (:func:`tests.test_faults_golden.build_fault_reference`);
* ``golden_schemes.json`` — every scheme's full ``AccessResult`` across
  read/write/raw x {no faults, storm}
  (:func:`tests.test_golden_schemes.build_scheme_reference`);
* ``golden_repair.json`` — the repair-economy grid under the pinned
  storm seed (:func:`tests.test_repair_golden.build_repair_reference`);
* ``golden_events.json`` — the event-driven engine's full results across
  every composition (:func:`tests.test_reference_engine.build_event_reference`).
"""

import json
import pathlib

from tests.test_faults_golden import build_fault_reference
from tests.test_golden_schemes import build_scheme_reference
from tests.test_obs_tracer import build_reference_tracer
from tests.test_reference_engine import build_event_reference
from tests.test_repair_golden import build_repair_reference

if __name__ == "__main__":
    data = pathlib.Path(__file__).parent / "data"
    data.mkdir(exist_ok=True)

    path = data / "golden_trace.json"
    path.write_text(
        json.dumps(build_reference_tracer().to_chrome(), indent=1) + "\n"
    )
    print(f"wrote {path}")

    path = data / "golden_faults.json"
    path.write_text(json.dumps(build_fault_reference(), indent=1) + "\n")
    print(f"wrote {path}")

    path = data / "golden_schemes.json"
    path.write_text(json.dumps(build_scheme_reference(), indent=1) + "\n")
    print(f"wrote {path}")

    path = data / "golden_repair.json"
    path.write_text(json.dumps(build_repair_reference(), indent=1) + "\n")
    print(f"wrote {path}")

    path = data / "golden_events.json"
    path.write_text(json.dumps(build_event_reference(), indent=1) + "\n")
    print(f"wrote {path}")
