"""Static analysis for Aceso plans, artifacts, and the codebase itself.

Two tiers share one typed-diagnostics core (:mod:`repro.lint.diagnostics`):

* **Tier A** (domain): collect-all analyzers over in-memory
  ``ParallelConfig``/``OpGraph``/``ClusterSpec`` triples
  (:mod:`repro.lint.config_rules`), admission analysis of
  ``PlanRequest``s before a worker is spawned
  (:mod:`repro.lint.requests`), and linting of every on-disk JSON
  artifact the planner reads or writes — plans, plan-cache entries,
  search checkpoints, request journals, telemetry run logs
  (:mod:`repro.lint.artifacts`).
* **Tier B** (codebase): stdlib-``ast`` rules over ``src/repro``
  enforcing the repo's determinism and telemetry contracts
  (:mod:`repro.lint.codebase`).
* **Tier C** (flow): a module-level call graph plus intraprocedural
  taint interpretation (:mod:`repro.lint.flow`) powering the
  determinism-taint, concurrency-discipline, and resource-lifecycle
  rule packs (:mod:`repro.lint.flow_rules`, codes ACE92x/93x/94x).

The ``repro-lint`` CLI (:mod:`repro.lint.cli`) fronts all tiers and
adds SARIF export (:mod:`repro.lint.sarif`) and new-findings-only
gating against a committed baseline (:mod:`repro.lint.baseline`).
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "artifacts": (
        "lint_artifact_path", "lint_checkpoint_file",
        "lint_churn_timeline_file", "lint_journal_file",
        "lint_plan_cache_file", "lint_plan_file", "lint_run_log_file",
    ),
    "baseline": ("apply_baseline", "load_baseline", "write_baseline"),
    "codebase": ("analyze_source", "analyze_tree"),
    "config_rules": (
        "analyze_config", "analyze_memory", "analyze_structure",
    ),
    "diagnostics": (
        "CODES", "Diagnostic", "ERROR", "WARNING", "max_severity", "sort_key",
        "sorted_diagnostics",
    ),
    "flow_rules": (
        "analyze_flow_paths", "analyze_flow_source", "analyze_flow_tree",
    ),
    "requests": ("analyze_request",),
    "sarif": ("to_sarif",),
})
