"""Tests for the repro.lint static-analysis framework.

One positive (violating) and one negative (clean) fixture per rule
SIM001-SIM007, pragma suppression, the JSON report schema, CLI exit
codes — and a self-check that the shipped tree lints clean.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.lint import Severity, all_rules, lint_paths, lint_source
from repro.lint.cli import JSON_VERSION, main

#: Fixture path inside the simulator's hot packages (SIM001/002/004 scope).
HOT = "src/repro/core/fixture.py"
#: Fixture path outside the repro package (rules scoped to src/repro skip it).
OUTSIDE = "scripts/fixture.py"

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(source: str, path: str = HOT) -> list[str]:
    return [f.rule for f in lint_source(source, path)]


# ---------------------------------------------------------------------------
# registry basics


def test_all_rules_registered():
    rules = all_rules()
    for rule_id in (
        "SIM001", "SIM002", "SIM003", "SIM004",
        "SIM005", "SIM006", "SIM007",
    ):
        assert rule_id in rules
        assert rules[rule_id].summary
    assert "SIM008" not in rules and "SIM009" not in rules


# ---------------------------------------------------------------------------
# SIM001 — wall clock and OS entropy


def test_sim001_flags_time_time():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert rules_of(src) == ["SIM001"]


def test_sim001_flags_datetime_now_and_from_import():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert rules_of(src) == ["SIM001"]
    src2 = "from time import monotonic\nt = monotonic()\n"
    assert rules_of(src2) == ["SIM001"]


def test_sim001_clean_and_out_of_scope():
    # perf_counter is allowed: real encode/decode throughput measurement.
    clean = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert rules_of(clean) == []
    # Outside src/repro the rule does not apply.
    assert rules_of("import time\nt = time.time()\n", OUTSIDE) == []


#: One fixture per wall-clock / OS-entropy sink family of
#: ``repro.lint.taint.classify_sink``.
SINK_FAMILIES = {
    "time": "import time\nt = time.time()\n",
    "pid": "import os\np = os.getpid()\n",
    "uuid": "import uuid\nu = uuid.uuid4()\n",
    "secrets": "import secrets\nt = secrets.token_hex()\n",
    "system-random": "import random\nr = random.SystemRandom()\n",
    "unseeded-rng": "import numpy as np\nr = np.random.default_rng()\n",
}


@pytest.mark.parametrize("package", ["core", "exec", "serve", "obs"])
@pytest.mark.parametrize("family", sorted(SINK_FAMILIES))
def test_sim001_flags_every_sink_family_in_every_package(family, package):
    path = f"src/repro/{package}/fixture.py"
    assert "SIM001" in rules_of(SINK_FAMILIES[family], path)
    assert "SIM001" not in rules_of(SINK_FAMILIES[family], OUTSIDE)
    assert rules_of("import time\nt = time.perf_counter()\n", path) == []


# ---------------------------------------------------------------------------
# SIM002 — global RNG


def test_sim002_flags_global_numpy_and_stdlib():
    assert rules_of("import numpy as np\nx = np.random.rand(4)\n") == ["SIM002"]
    assert rules_of("import random\nx = random.randint(0, 9)\n") == ["SIM002"]
    assert rules_of("from random import shuffle\nshuffle(deck)\n") == ["SIM002"]


def test_sim002_flags_unseeded_default_rng():
    src = "import numpy as np\nr = np.random.default_rng()\n"
    assert rules_of(src, OUTSIDE) == ["SIM002"]
    # Inside src/repro the OS-entropy seed is SIM001's concern as well.
    assert sorted(rules_of(src)) == ["SIM001", "SIM002"]


def test_sim002_flags_hash_derived_seed():
    src = "import numpy as np\nr = np.random.default_rng(abs(hash(key)) % 2**31)\n"
    findings = lint_source(src, HOT)
    assert [f.rule for f in findings] == ["SIM002"]
    assert "PYTHONHASHSEED" in findings[0].message


def test_sim002_allows_injected_generators():
    clean = (
        "import numpy as np\n"
        "from repro.sim.rng import RngHub, stable_seed\n"
        "r1 = np.random.default_rng(7)\n"
        "r2 = RngHub(3).stream('disk', 0)\n"
        "r3 = np.random.default_rng(stable_seed('bg', 4))\n"
        "def f(rng: np.random.Generator):\n"
        "    return rng.random()\n"
    )
    assert rules_of(clean) == []


# ---------------------------------------------------------------------------
# SIM003 — float equality on simulated time


def test_sim003_flags_now_equality():
    src = "def f(env, deadline):\n    return env.now == deadline\n"
    assert rules_of(src) == ["SIM003"]
    src2 = "def f(env, t0):\n    if env.now != t0:\n        return 1\n"
    assert rules_of(src2) == ["SIM003"]


def test_sim003_allows_ordered_comparison():
    src = "def f(env, deadline):\n    return env.now >= deadline\n"
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# SIM004 — tracer guard


def test_sim004_flags_unguarded_tracer_call():
    src = "def f(tracer):\n    tracer.count('hits')\n"
    assert rules_of(src) == ["SIM004"]
    src2 = "class C:\n    def f(self):\n        self.tracer.span('a', 'b', 0, 1)\n"
    assert rules_of(src2) == ["SIM004"]


def test_sim004_accepts_both_guard_idioms():
    block = "def f(tracer):\n    if tracer.enabled:\n        tracer.count('hits')\n"
    early = (
        "def f(tracer):\n"
        "    if not tracer.enabled:\n"
        "        return\n"
        "    tracer.count('hits')\n"
    )
    assert rules_of(block) == []
    assert rules_of(early) == []


def test_sim004_scope_is_hot_packages_only():
    src = "def f(tracer):\n    tracer.count('hits')\n"
    assert rules_of(src, "src/repro/obs/fixture.py") == []


# ---------------------------------------------------------------------------
# SIM005 — mutable defaults


def test_sim005_flags_mutable_defaults():
    assert rules_of("def f(a=[]):\n    return a\n", OUTSIDE) == ["SIM005"]
    assert rules_of("def f(*, b={}):\n    return b\n", OUTSIDE) == ["SIM005"]
    assert rules_of("def f(c=set()):\n    return c\n", OUTSIDE) == ["SIM005"]


def test_sim005_allows_none_default():
    src = "def f(a=None):\n    return [] if a is None else a\n"
    assert rules_of(src, OUTSIDE) == []


# ---------------------------------------------------------------------------
# SIM006 — swallowed Interrupt


def test_sim006_flags_swallowed_interrupt():
    src = (
        "def proc(env):\n"
        "    try:\n"
        "        yield env.timeout(5)\n"
        "    except Interrupt:\n"
        "        pass\n"
    )
    assert rules_of(src, OUTSIDE) == ["SIM006"]


def test_sim006_allows_handling_or_reraise():
    handled = (
        "def proc(env):\n"
        "    try:\n"
        "        yield env.timeout(5)\n"
        "    except Interrupt as intr:\n"
        "        log(intr.cause)\n"
    )
    reraised = (
        "def proc(env):\n"
        "    try:\n"
        "        yield env.timeout(5)\n"
        "    except Interrupt:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    non_generator = (
        "def not_a_process(env):\n"
        "    try:\n"
        "        run(env)\n"
        "    except Interrupt:\n"
        "        pass\n"
    )
    assert rules_of(handled, OUTSIDE) == []
    assert rules_of(reraised, OUTSIDE) == []
    assert rules_of(non_generator, OUTSIDE) == []


# ---------------------------------------------------------------------------
# SIM007 — policy statelessness

#: Fixture path inside the policy package (SIM007 scope).
POLICY = "src/repro/core/policy/fixture.py"


def test_sim007_flags_instance_write_outside_init():
    src = (
        "class SpeculativeDispatch:\n"
        "    def read(self, scheme):\n"
        "        self.rounds = 2\n"
        "        return scheme\n"
    )
    findings = lint_source(src, POLICY)
    assert [f.rule for f in findings] == ["SIM007"]
    assert "stateless" in findings[0].message
    aug = "class P:\n    def plan(self):\n        self.calls += 1\n"
    assert rules_of(aug, POLICY) == ["SIM007"]
    deleted = "class P:\n    def plan(self):\n        del self.cache\n"
    assert rules_of(deleted, POLICY) == ["SIM007"]


def test_sim007_allows_init_locals_and_foreign_state():
    clean = (
        "class GroupedRSPlacement:\n"
        "    def __init__(self, group):\n"
        "        self.group = group\n"
        "    def plan(self, scheme, tracker):\n"
        "        total = self.group * 2\n"
        "        tracker.fill_times = []\n"  # trackers are stateful by design
        "        scheme.failed_writes = 1\n"  # scheme instances own their state
        "        return total\n"
        "    @staticmethod\n"
        "    def layout(k, h):\n"
        "        rows = {}\n"
        "        rows[0] = k + h\n"
        "        return rows\n"
    )
    assert rules_of(clean, POLICY) == []


def test_sim007_scope_is_policy_package_only():
    src = "class C:\n    def f(self):\n        self.x = 1\n"
    assert rules_of(src, HOT) == []
    assert rules_of(src, OUTSIDE) == []


# ---------------------------------------------------------------------------
# SIM001 in the execution engine and the serving simulation: job payloads,
# cache keys and serving cells must reproduce from their seed alone.  The
# ``sim008``/``sim009`` test names refer to the exec/serve contracts the
# retired per-package rules of those ids guarded.

#: Fixture paths inside the execution engine and the serving package.
EXEC = "src/repro/exec/fixture.py"
SERVE = "src/repro/serve/fixture.py"


def test_sim008_flags_pid_and_uuid_sources():
    src = "import os\n\ndef key_salt():\n    return os.getpid()\n"
    findings = lint_source(src, EXEC)
    assert [f.rule for f in findings] == ["SIM001"]
    assert "reproduce from the seed" in findings[0].message
    assert rules_of("import uuid\njob_id = uuid.uuid4()\n", EXEC) == ["SIM001"]
    assert rules_of("from os import getpid\np = getpid()\n", EXEC) == ["SIM001"]


def test_sim008_flags_wall_clock_in_exec():
    # One determinism rule: a wall-clock read is reported once.
    assert rules_of("import time\nstamp = time.time()\n", EXEC) == ["SIM001"]


def test_sim008_allows_perf_counter_and_deterministic_uuids():
    clean = (
        "import time\n"
        "import uuid\n"
        "def wall(fn):\n"
        "    t0 = time.perf_counter()\n"
        "    fn()\n"
        "    return time.perf_counter() - t0\n"
        "def content_id(ns, name):\n"
        "    return uuid.uuid5(ns, name)\n"
    )
    assert rules_of(clean, EXEC) == []


def test_sim009_flags_unseeded_rng_constructors():
    src = "import numpy as np\nr = np.random.default_rng()\n"
    findings = lint_source(src, SERVE)
    assert sorted(f.rule for f in findings) == ["SIM001", "SIM002"]
    assert any("entropy" in f.message for f in findings)
    src2 = "import random\nr = random.Random()\n"
    assert rules_of(src2, SERVE) == ["SIM001"]
    src3 = "from numpy.random import default_rng\nr = default_rng()\n"
    assert "SIM001" in rules_of(src3, SERVE)


def test_sim009_flags_global_state_rng():
    # Global RNG state is SIM002's, in serve as everywhere else.
    assert rules_of("import random\nx = random.random()\n", SERVE) == ["SIM002"]
    assert rules_of("import numpy as np\nx = np.random.rand(3)\n", SERVE) == [
        "SIM002",
    ]
    assert rules_of("from random import shuffle\nshuffle(deck)\n", SERVE) == [
        "SIM002",
    ]


def test_sim009_flags_wall_clock_pid_uuid():
    for src in (
        "import time\nt = time.time()\n",
        "import os\np = os.getpid()\n",
        "import uuid\nu = uuid.uuid4()\n",
        "import secrets\nt = secrets.token_hex()\n",
    ):
        assert rules_of(src, SERVE) == ["SIM001"]


def test_sim009_allows_seeded_and_hub_derived_rng():
    clean = (
        "import numpy as np\n"
        "from repro.sim.rng import RngHub\n"
        "def gen(seed):\n"
        "    hub = RngHub(seed)\n"
        "    rng = hub.stream('serve', 'sizes')\n"
        "    explicit = np.random.default_rng(42)\n"
        "    return rng.random(4), explicit.random(4)\n"
    )
    assert rules_of(clean, SERVE) == []


# ---------------------------------------------------------------------------
# pragmas


def test_pragma_suppresses_single_rule_on_line():
    src = "import time\nt = time.time()  # lint: disable=SIM001 -- calibration\n"
    assert rules_of(src) == []


def test_pragma_only_applies_to_its_line():
    src = (
        "import time\n"
        "a = time.time()  # lint: disable=SIM001\n"
        "b = time.time()\n"
    )
    findings = lint_source(src, HOT)
    assert [(f.rule, f.line) for f in findings] == [("SIM001", 3)]


def test_pragma_disable_all_and_multiple_ids():
    src = "import time\nt = time.time()  # lint: disable=all\n"
    assert rules_of(src) == []
    src2 = "def f(a=[], b=time.time()):  # lint: disable=SIM001,SIM005\n    return a\n"
    assert rules_of("import time\n" + src2) == []


# ---------------------------------------------------------------------------
# findings, syntax errors, severities


def test_finding_carries_location_and_severity():
    src = "import time\n\n\nt = time.time()\n"
    (finding,) = lint_source(src, HOT)
    assert finding.line == 4
    assert finding.severity is Severity.ERROR
    assert finding.path == HOT
    assert "SIM001" in finding.render() and ":4:" in finding.render()


def test_syntax_error_is_reported_not_raised():
    (finding,) = lint_source("def broken(:\n", HOT)
    assert finding.rule == "SYNTAX"
    assert finding.severity is Severity.ERROR


# ---------------------------------------------------------------------------
# CLI: JSON schema and exit codes


def _run_cli(tmp_path, source, extra_args=()):
    target = tmp_path / "src" / "repro" / "core"
    target.mkdir(parents=True, exist_ok=True)
    (target / "mod.py").write_text(source)
    out = io.StringIO()
    code = main([str(tmp_path), *extra_args], out=out)
    return code, out.getvalue()


def test_cli_json_schema_and_exit_code(tmp_path):
    code, output = _run_cli(
        tmp_path, "import time\nt = time.time()\n", ("--format", "json")
    )
    assert code == 1
    report = json.loads(output)
    assert report["version"] == JSON_VERSION
    assert report["counts"] == {"error": 1, "warning": 0}
    assert report["files_checked"] == 1
    (entry,) = report["findings"]
    assert set(entry) == {"rule", "severity", "path", "line", "col", "message"}
    assert entry["rule"] == "SIM001"
    assert entry["severity"] == "error"
    assert entry["line"] == 2


def test_cli_clean_tree_exits_zero(tmp_path):
    code, output = _run_cli(tmp_path, "x = 1\n", ("--format", "json"))
    assert code == 0
    assert json.loads(output)["findings"] == []


def test_cli_select_runs_only_requested_rules(tmp_path):
    code, output = _run_cli(
        tmp_path,
        "import time\nt = time.time()\ndef f(a=[]):\n    return a\n",
        ("--format", "json", "--select", "SIM005"),
    )
    assert code == 1
    rules = [f["rule"] for f in json.loads(output)["findings"]]
    assert rules == ["SIM005"]


def test_cli_unknown_rule_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run_cli(tmp_path, "x = 1\n", ("--select", "NOPE"))
    assert exc.value.code == 2


def test_cli_list_rules():
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    assert "SIM001" in out.getvalue() and "SIM006" in out.getvalue()
    assert "SIM008" not in out.getvalue() and "SIM009" not in out.getvalue()


# ---------------------------------------------------------------------------
# the shipped tree is clean


def test_repo_lints_clean():
    findings = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)
