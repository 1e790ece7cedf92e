"""The examples must run end-to-end (they double as integration tests)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=None):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "byte-exact" in out
    assert "unbalanced" in out


def test_scheme_shootout(capsys):
    run_example("scheme_shootout.py", ["3"])
    out = capsys.readouterr().out
    assert "robustore" in out
    assert "RobuSTore vs RAID-0" in out


def test_qos_planning(capsys):
    run_example("qos_planning.py")
    out = capsys.readouterr().out
    assert "planned:" in out
    assert "simulated:" in out


def test_codes_playground(capsys):
    run_example("codes_playground.py")
    out = capsys.readouterr().out
    for code in ("replication x4", "parity (RAID-5)", "Reed-Solomon", "LT (improved)"):
        assert code in out


def test_failure_tolerance(capsys):
    run_example("failure_tolerance.py")
    out = capsys.readouterr().out
    assert "RobuSTore still succeeds" in out
    assert "post-repair read" in out


def test_shared_cluster(capsys):
    run_example("shared_cluster.py", ["2"])
    out = capsys.readouterr().out
    assert "concurrent clients" in out
    assert "robustore" in out
