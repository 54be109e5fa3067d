"""Atomic JSON artifact writes shared by every persistence site.

Every JSON document the planner leaves on disk — plan-cache entries,
request journals, a search checkpoint's first line, tournament
reports — goes through :func:`write_json_atomic`: encode
the payload as compact JSON with the C encoder, write it to a temp
file in the destination directory in one ``write``, then
``os.replace`` onto the final name (``fsync`` is deliberately skipped:
these are resumable caches, not databases).  A crash mid-write leaves
the previous file or a stray ``.tmp`` orphan, never a torn document.
A checkpoint's later records are appended instead
(:mod:`repro.core.checkpoint`): a rename onto an existing file can
stall for tens of ms, and a torn append loses only its own record.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union


def write_json_atomic(
    path: Union[str, Path],
    payload: object,
    *,
    sort_keys: bool = False,
) -> Path:
    """Atomically serialize ``payload`` as compact JSON at ``path``.

    The payload is encoded before any temp file exists, so an
    unserializable payload raises without touching the directory.  The
    temp file lives in the destination directory so the final
    ``os.replace`` stays on one filesystem (rename atomicity).  The
    parent directory is created when missing.  On any failure the temp
    file is removed and the previous ``path`` contents are untouched.
    Returns ``path`` as a :class:`~pathlib.Path`.
    """
    path = Path(path)
    text = json.dumps(payload, sort_keys=sort_keys) + "\n"
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path
