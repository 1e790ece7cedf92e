"""Tests for the whole-program lint layer (SIM011-SIM012).

Fixture trees are built under ``tmp_path`` with a real ``repro`` package
root, so module naming, corpus expansion and cross-module resolution run
exactly as they do on the shipped tree.  Ends with self-checks that the
shipped tree passes the whole-program rules.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.lint import Severity, lint_paths
from repro.lint.engine import iter_py_files
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``files`` (relative path -> source) under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


#: Wall clock laundered through a two-hop call chain in another package.
LAUNDERED = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/util/__init__.py": "",
    "src/repro/util/helpers.py": (
        "import time\n"
        "\n"
        "\n"
        "def _now():\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return _now()\n"
    ),
    "src/repro/core/mod.py": (
        "from repro.util.helpers import stamp\n"
        "\n"
        "\n"
        "def record_event():\n"
        "    return stamp()\n"
    ),
}


# ---------------------------------------------------------------------------
# a sink is reported where it lives


def test_laundered_sink_is_reported_where_it_lives(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    # The full-tree lint reports the wall-clock read at the sink itself.
    findings = lint_paths([tmp_path / "src"])
    assert [(f.rule, Path(f.path).name, f.line) for f in findings] == [
        ("SIM001", "helpers.py", 5)
    ]
    # A sub-package lint sees no sink that lives outside it: the caller in
    # core/ is clean, and the whole-program rules add nothing.
    assert lint_paths([tmp_path / "src" / "repro" / "core"]) == []


def test_project_findings_stay_inside_the_linted_set(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/dead.py": "def f():\n    return 1\n\n\n__all__ = ['f']\n",
            "src/repro/pkg/live.py": "def g():\n    return 2\n\n\n__all__ = ['g']\n",
        },
    )
    pkg = tmp_path / "src" / "repro" / "pkg"
    # dead.py is pulled into the corpus but was not asked about: its dead
    # export may not be reported against it.
    findings = lint_paths([pkg / "live.py"], ["SIM012"])
    assert [Path(f.path).name for f in findings] == ["live.py"]
    assert {Path(f.path).name for f in lint_paths([pkg], ["SIM012"])} == {
        "dead.py",
        "live.py",
    }


# ---------------------------------------------------------------------------
# SIM011 — RngHub stream discipline

RNG_FIXTURE = (
    "STREAMS = {\n"
    "    'disk': 2,\n"
    "    'bg': (3, 4),\n"
    "}\n"
    "\n"
    "\n"
    "class RngHub:\n"
    "    def stream(self, *key):\n"
    "        return key\n"
    "\n"
    "    def fresh(self, *key):\n"
    "        return key\n"
)


def _sim011_tree(tmp_path, caller_source):
    return _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/rng.py": RNG_FIXTURE,
            "src/repro/core/__init__.py": "",
            "src/repro/core/streams.py": caller_source,
        },
    )


def test_sim011_flags_typo_arity_and_computed_names(tmp_path):
    _sim011_tree(
        tmp_path,
        "def draw(hub, disk_id, name):\n"
        "    bad_name = hub.stream('dsik', disk_id)\n"
        "    bad_arity = hub.stream('bg', disk_id)\n"
        "    computed = hub.fresh(name, disk_id)\n"
        "    return bad_name, bad_arity, computed\n",
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"]
    )
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert any("unknown stream name 'dsik'" in m for m in messages)
    assert any("has 2 part(s)" in m and "3 or 4" in m for m in messages)
    assert any("must be a string literal" in m for m in messages)


def test_sim011_accepts_declared_names_and_arities(tmp_path):
    _sim011_tree(
        tmp_path,
        "def draw(hub, disk_id, trial):\n"
        "    a = hub.stream('disk', disk_id)\n"
        "    b = hub.stream('bg', disk_id, trial)\n"
        "    c = hub.fresh('bg', disk_id, trial, 99)\n"
        "    return a, b, c\n",
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"]
    )
    assert findings == []


def test_sim011_covers_accesscore_refsvc_stream(tmp_path):
    """The event engine's ``refsvc`` stream obeys the declared arity."""
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/rng.py": (
                "STREAMS = {\n"
                "    'refsvc': 4,\n"
                "}\n"
                "\n"
                "\n"
                "class RngHub:\n"
                "    def fresh(self, *key):\n"
                "        return key\n"
            ),
            "src/repro/accesscore/__init__.py": "",
            "src/repro/accesscore/events.py": (
                "def rngs(hub, name, trial, disk_id):\n"
                "    ok = hub.fresh('refsvc', name, trial, disk_id)\n"
                "    short = hub.fresh('refsvc', disk_id)\n"
                "    typo = hub.fresh('refsrv', name, trial, disk_id)\n"
                "    return ok, short, typo\n"
            ),
        },
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "accesscore" / "events.py"], ["SIM011"]
    )
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("has 2 part(s)" in m for m in messages)
    assert any("unknown stream name 'refsrv'" in m for m in messages)


def test_sim011_silent_without_a_streams_registry(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/streams.py": (
                "def draw(hub):\n    return hub.stream('anything', 1, 2, 3)\n"
            ),
        },
    )
    findings = lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM011"])
    assert findings == []


# ---------------------------------------------------------------------------
# SIM012 — dead/drifted exports


def test_sim012_flags_dead_and_drifted_exports(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/metricsish/__init__.py": (
                "def used():\n    return 1\n"
                "\n"
                "\n"
                "def dead():\n    return 2\n"
                "\n"
                "\n"
                "__all__ = ['used', 'dead', 'ghost']\n"
            ),
            "tests/test_consumer.py": (
                "from repro.metricsish import used\n\nassert used() == 1\n"
            ),
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert all(f.severity is Severity.WARNING for f in findings)
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any(
        "'dead'" in m
        and "imported by no file of this run's corpus" in m
        and "dead export" in m
        for m in messages
    )
    assert any("'ghost'" in m and "drifted" in m for m in messages)
    assert not any("'used'" in m for m in messages)


def test_sim012_credits_use_through_reexport_facade(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.impl import thing\n\n__all__ = ['thing']\n"
            ),
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            # Consumer imports from the *defining* submodule, not the facade.
            "tests/test_consumer.py": "from repro.pkg.impl import thing\n",
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert findings == []


def test_sim012_module_getattr_is_not_drift(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/lazy/__init__.py": (
                "def __getattr__(name):\n"
                "    if name == 'late':\n"
                "        return 42\n"
                "    raise AttributeError(name)\n"
                "\n"
                "\n"
                "__all__ = ['late']\n"
            ),
            "tests/test_consumer.py": "from repro.lazy import late\n",
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert findings == []


# ---------------------------------------------------------------------------
# engine plumbing: dedupe, scoping metadata, JSON v2


def test_iter_py_files_dedupes_overlapping_path_arguments(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text("x = 1\n")
    # Directory + a file inside it + the file again: one result.
    files = list(iter_py_files([tmp_path, target, str(target)]))
    assert files == [target]


def test_overlapping_paths_lint_each_finding_once(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/mod.py": "import time\nt = time.time()\n",
        },
    )
    mod = tmp_path / "src" / "repro" / "core" / "mod.py"
    findings = lint_paths([tmp_path / "src", mod], ["SIM001"])
    assert len(findings) == 1


def test_list_rules_shows_scope_and_whole_program(tmp_path):
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    listing = out.getvalue()
    assert "SIM007" in listing and "repro/core/policy" in listing
    assert "SIM011" in listing and "whole-program" in listing


def test_cli_json_v2_envelope_and_rule_timings(tmp_path):
    target = tmp_path / "src" / "repro" / "core"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nt = time.time()\n")
    out = io.StringIO()
    code = main([str(tmp_path), "--format", "json"], out=out)
    assert code == 1
    report = json.loads(out.getvalue())
    assert report["version"] == 2
    assert report["counts"]["error"] >= 1
    assert report["files_checked"] == 1
    assert "SIM001" in report["rules"]
    for timing in report["rules"].values():
        assert isinstance(timing["seconds"], float) and timing["seconds"] >= 0.0


# ---------------------------------------------------------------------------
# the shipped tree passes the whole-program rules


def test_repo_self_check_sim011_clean():
    findings = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"], ["SIM011"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_self_check_sim012_no_dead_exports():
    findings = lint_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        ["SIM012"],
    )
    assert findings == [], "\n".join(f.render() for f in findings)
