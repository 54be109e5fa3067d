"""``repro-search`` output is pinned: ``--json`` payloads and text lines.

Each case runs the CLI in a fresh directory (relative ``--output`` and
``--checkpoint`` paths keep the payloads free of temp paths) on the
serial path, the worker-pool path and the checkpoint/resume path, and
compares what it printed with ``fixtures/search_cli_outputs.json``.
Only the search timings differ between runs, so they are masked.

Regenerate the fixture (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from repro.cli import search_main

FIXTURE = Path(__file__).parent / "fixtures" / "search_cli_outputs.json"

_BASE = ["--model", "gpt-2l", "--gpus", "4", "--iterations", "2",
         "--stage-counts", "1", "2", "--quiet"]

#: Cases run in order in one directory: the resume case restores the
#: checkpoint the case before it wrote.
CASES = [
    _BASE + ["--output", "plan.json"],
    ["--model", "gpt-3l", "--gpus", "2", "--iterations", "8",
     "--seed", "3", "--strategy", "mcmc",
     "--strategy-arg", "initial_temperature=0.5", "--quiet"],
    _BASE + ["--workers", "2", "--timeout-per-count", "600"],
    _BASE + ["--checkpoint", "ck.json"],
    _BASE + ["--checkpoint", "ck.json", "--resume"],
]

_TIMING_KEYS = ("search_seconds_parallel", "search_seconds_wall")
_TIMING_TEXT = re.compile(r"search cost [0-9.]+s")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = search_main(argv)
    assert code == 0, argv
    return out.getvalue()


def _masked_json(text):
    payload = json.loads(text)
    for key in _TIMING_KEYS:
        payload[key] = "<timing>"
    return payload


def _masked_text(text):
    return _TIMING_TEXT.sub("search cost <timing>s", text).splitlines()


def run_cases(workdir):
    """Every case's masked ``--json`` payload and text lines."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        return [
            {
                "argv": argv,
                "json": _masked_json(_run(argv + ["--json"])),
                "text": _masked_text(_run(argv)),
            }
            for argv in CASES
        ]
    finally:
        os.chdir(old)


def test_search_output_matches_fixture(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert [case["argv"] for case in expected] == CASES
    for got, want in zip(run_cases(tmp_path), expected):
        assert got == want, got["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        FIXTURE.write_text(
            json.dumps(run_cases(workdir), indent=1) + "\n"
        )
    sys.exit(0)
