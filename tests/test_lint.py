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
        "SIM005", "SIM007",
    ):
        assert rule_id in rules
        assert rules[rule_id].summary
    for retired in ("SIM006", "SIM008", "SIM009", "SIM010"):
        assert retired not in rules


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
#: ``repro.lint.rules_sim.classify_sink``: SIM001 owns these.
SINK_FAMILIES = {
    "time": "import time\nt = time.time()\n",
    "pid": "import os\np = os.getpid()\n",
    "uuid": "import uuid\nu = uuid.uuid4()\n",
    "secrets": "import secrets\nt = secrets.token_hex()\n",
    "system-random": "import random\nr = random.SystemRandom()\n",
}

#: One fixture per RNG sink family of ``classify_sink``: SIM002 owns these,
#: in every file.
RNG_FAMILIES = {
    "np-global": "import numpy as np\nx = np.random.rand(4)\n",
    "stdlib-global": "import random\nx = random.randint(0, 9)\n",
    "from-import-global": "from random import shuffle\nshuffle(deck)\n",
    "default-rng": "import numpy as np\nr = np.random.default_rng()\n",
    "random-state": "import numpy as np\nr = np.random.RandomState()\n",
    "seed-sequence": "import numpy as np\ns = np.random.SeedSequence()\n",
    "stdlib-random": "import random\nr = random.Random()\n",
    "hash-seed": "import numpy as np\nr = np.random.default_rng(hash(key))\n",
}

#: Where the RNG families are linted: four packages and outside ``src/repro``.
RNG_PATHS = {
    **{pkg: f"src/repro/{pkg}/fixture.py" for pkg in ("core", "exec", "serve", "obs")},
    "outside": OUTSIDE,
}


@pytest.mark.parametrize("package", ["core", "exec", "serve", "obs"])
@pytest.mark.parametrize("family", sorted(SINK_FAMILIES))
def test_sim001_flags_every_sink_family_in_every_package(family, package):
    path = f"src/repro/{package}/fixture.py"
    assert rules_of(SINK_FAMILIES[family], path) == ["SIM001"]
    assert "SIM001" not in rules_of(SINK_FAMILIES[family], OUTSIDE)
    assert rules_of("import time\nt = time.perf_counter()\n", path) == []


@pytest.mark.parametrize("where", sorted(RNG_PATHS))
@pytest.mark.parametrize("family", sorted(RNG_FAMILIES))
def test_sim002_alone_flags_every_rng_family_everywhere(family, where):
    assert rules_of(RNG_FAMILIES[family], RNG_PATHS[where]) == ["SIM002"]


def test_every_sink_family_yields_one_finding_per_line():
    # Wall clock, entropy, global RNG, an unseeded generator and a hash()
    # seed; the global seed() call with a hash() seed is still one finding.
    lines = [
        "import datetime, numpy as np, os, random, secrets, time, uuid",
        "from numpy.random import default_rng",
        "a = time.time()",
        "b = datetime.datetime.now()",
        "c = os.getpid()",
        "d = uuid.uuid4()",
        "e = secrets.token_hex()",
        "f = random.SystemRandom()",
        "g = np.random.rand(4)",
        "h = random.shuffle(deck)",
        "i = default_rng()",
        "j = np.random.seed(hash(key))",
        "k = random.Random(abs(hash(key)))",
    ]
    findings = lint_source("\n".join(lines) + "\n", HOT)
    assert [f.line for f in findings] == list(range(3, len(lines) + 1))
    owners = [f.rule for f in findings]
    assert owners == ["SIM001"] * 6 + ["SIM002"] * 5


# ---------------------------------------------------------------------------
# SIM002 — global RNG


def test_sim002_flags_global_numpy_and_stdlib():
    assert rules_of("import numpy as np\nx = np.random.rand(4)\n") == ["SIM002"]
    assert rules_of("import random\nx = random.randint(0, 9)\n") == ["SIM002"]
    assert rules_of("from random import shuffle\nshuffle(deck)\n") == ["SIM002"]


def test_sim002_flags_unseeded_default_rng():
    src = "import numpy as np\nr = np.random.default_rng()\n"
    assert rules_of(src, OUTSIDE) == ["SIM002"]
    # An unseeded generator is SIM002's alone, inside src/repro too.
    findings = lint_source(src, HOT)
    assert [f.rule for f in findings] == ["SIM002"]
    assert "without a seed" in findings[0].message


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


@pytest.mark.parametrize("package", ["accesscore", "sim", "faults"])
def test_sim004_covers_the_access_core_kernel_and_faults(package):
    path = f"src/repro/{package}/fixture.py"
    src = "def f(tracer):\n    tracer.count('hits')\n"
    assert rules_of(src, path) == ["SIM004"]


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
    # Unseeded constructors are SIM002's: reported once, with the reason.
    src = "import numpy as np\nr = np.random.default_rng()\n"
    findings = lint_source(src, SERVE)
    assert [f.rule for f in findings] == ["SIM002"]
    assert "OS entropy" in findings[0].message
    src2 = "import random\nr = random.Random()\n"
    assert rules_of(src2, SERVE) == ["SIM002"]
    src3 = "from numpy.random import default_rng\nr = default_rng()\n"
    assert rules_of(src3, SERVE) == ["SIM002"]


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


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    """A mistyped path must not pass the lint by linting nothing there."""
    missing = tmp_path / "no_such_dir"
    with pytest.raises(SystemExit) as exc:
        _run_cli(tmp_path, "x = 1\n", (str(missing),))
    assert exc.value.code == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_list_rules():
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    assert "SIM001" in out.getvalue() and "SIM007" in out.getvalue()
    for retired in ("SIM006", "SIM008", "SIM009", "SIM010"):
        assert retired not in out.getvalue()


# ---------------------------------------------------------------------------
# SIM011 — the batched stream call (whole-program rule: needs a package tree)

#: A minimal registry: the batched call's id vector is the last key part.
BATCH_REGISTRY = (
    "STREAMS = {'svc': (3, 5), 'refsvc': 4}\n"
    "\n"
    "\n"
    "class RngHub:\n"
    "    def fresh_batch(self, *key):\n"
    "        return list(key[-1])\n"
)


def _sim011_batch_findings(tmp_path, caller: str):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/sim/__init__.py": "",
        "src/repro/sim/rng.py": BATCH_REGISTRY,
        "src/repro/core/__init__.py": "",
        "src/repro/core/streams.py": caller,
    }
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return lint_paths([tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"])


def test_sim011_flags_misspelled_batched_stream(tmp_path):
    findings = _sim011_batch_findings(
        tmp_path,
        "def rngs(hub, name, trial, ids):\n"
        "    return hub.fresh_batch('refsrv', name, trial, ids)\n",
    )
    assert len(findings) == 1
    assert "unknown stream name 'refsrv'" in findings[0].message


def test_sim011_flags_batched_arity_counting_the_id_vector(tmp_path):
    findings = _sim011_batch_findings(
        tmp_path,
        "def rngs(hub, name, trial, phase, ids):\n"
        "    short = hub.fresh_batch('refsvc', name, ids)\n"
        "    long = hub.fresh_batch('refsvc', name, trial, phase, ids)\n"
        "    return short, long\n",
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "'refsvc' key has 3 part(s)" in messages[0]
    assert "'refsvc' key has 5 part(s)" in messages[1]


def test_sim011_flags_computed_batched_name_and_accepts_declared_shapes(tmp_path):
    findings = _sim011_batch_findings(
        tmp_path,
        "def rngs(hub, name, trial, phase, ids, family):\n"
        "    svc = hub.fresh_batch('svc', name, trial, phase, ids)\n"
        "    ref = hub.fresh_batch('refsvc', name, trial, ids)\n"
        "    computed = hub.fresh_batch(family, name, trial, ids)\n"
        "    return svc, ref, computed\n",
    )
    assert [f.line for f in findings] == [4]
    assert "hub.fresh_batch(...) stream name must be a string literal" in findings[0].message


# ---------------------------------------------------------------------------
# the shipped tree is clean


def test_repo_lints_clean():
    findings = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)
