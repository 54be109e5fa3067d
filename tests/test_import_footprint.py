"""A plan request imports only the modules it runs.

Every package ``__init__`` exports lazily (:mod:`repro.exports`), so a
fresh process that plans one request, or boots the CLI, must not have
compiled the subsystems a plan never touches.  Each case runs in its own
interpreter, because the test process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages and modules no plan request and no CLI boot may import.
NEVER = (
    "repro.analysis",
    "repro.baselines",
    "repro.runtime",
    "repro.faults",
    "repro.elastic",
    "repro.arena",
    "repro.numrt",
    "repro.service.fleet",
    "repro.service.chaos",
    "repro.core.mcmc",
    "repro.core.bandit",
    "repro.lint.flow",
    "repro.lint.flow_rules",
    "repro.lint.artifacts",
    "repro.lint.codebase",
)

PLAN = """
from repro.service import PlanRequest, plan_request
plan_request(PlanRequest(model="gpt-4l", gpus=8, iterations=1))
"""

CLI = """
import repro.cli
"""

SERVING_FRONT = """
import repro.service.fleet
import repro.service.httpd
from repro.service import InProcessReplica
"""


def _loaded(code: str, also=()) -> list:
    """The ``repro`` modules, and those of ``also`` that are loaded, a
    fresh interpreter holds after ``code``."""
    probe = code + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(
            m for m in sys.modules
            if m == "repro" or m.startswith("repro.") or m in {tuple(also)!r}
        )))
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _offenders(loaded: list, banned) -> list:
    return sorted(
        m for m in loaded
        if any(m == b or m.startswith(b + ".") for b in banned)
    )


def test_plan_request_imports_only_the_plan_path():
    loaded = _loaded(PLAN)
    banned = NEVER + ("repro.service.daemon", "repro.service.httpd")
    offenders = _offenders(loaded, banned)
    assert not offenders, (
        f"{len(loaded)} repro modules loaded; off the plan path: "
        f"{offenders}"
    )


def test_cli_import_skips_subsystems_no_boot_runs():
    loaded = _loaded(CLI)
    offenders = _offenders(loaded, NEVER)
    assert not offenders, (
        f"{len(loaded)} repro modules loaded; not needed to boot: "
        f"{offenders}"
    )


def test_serving_front_skips_the_chaos_harness_and_urllib():
    loaded = _loaded(SERVING_FRONT, also=("urllib.request",))
    offenders = _offenders(loaded, ("repro.service.chaos", "urllib.request"))
    assert not offenders, (
        f"{len(loaded)} modules loaded; not needed to serve: {offenders}"
    )
