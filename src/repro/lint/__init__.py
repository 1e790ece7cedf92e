"""repro.lint: simulator-aware static analysis for the RobuSTore codebase.

The whole evaluation rests on the simulator being deterministic and
causally sound: no wall-clock reads, no global RNG state, zero-cost
tracing, and a DES timeline that only moves forward.  ``repro.lint``
enforces those conventions with a small AST-based rule engine:

* ``python -m repro.lint src/ tests/`` runs every registered rule and
  exits non-zero on error-severity findings.
* ``# lint: disable=RULE`` on the offending line suppresses a finding
  (add a short justification in the same comment).
* Rules are registered with :func:`repro.lint.engine.rule` so new
  conventions can be enforced with a single function.  File rules see
  one :class:`FileContext` at a time; project rules (``project=True``)
  see a whole-program :class:`repro.lint.project.ProjectContext` with
  import/call graphs, enabling interprocedural checks (SIM010-SIM012).
* Findings are cached under ``.repro-cache/lint/`` keyed by rule set
  and file contents; unchanged repeat runs replay instantly.

See ``docs/static_analysis.md`` for each rule's rationale.  The runtime
complement to the static pass is the DES sanitizer
(``REPRO_SANITIZE=1`` / ``Environment(sanitize=True)``) in
:mod:`repro.sim.core`.
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    Severity,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    rule,
    run_lint,
)

# Importing the rule modules registers the built-in rules.
from repro.lint import (  # noqa: F401  (registration side effect)
    rules_policy,
    rules_project,
    rules_py,
    rules_sim,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rule",
    "run_lint",
]
