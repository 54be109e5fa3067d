"""Crash-safe checkpointing of the stage-count search driver.

The paper's pitch — search cheap enough to re-run whenever the cluster
changes — only holds if an interrupted search doesn't lose its work.
A :class:`SearchCheckpoint` persists, as JSON, everything needed to
resume ``search_all_stage_counts`` bit-exactly: per-stage-count best and
top-k configurations (via :mod:`repro.parallel.serialization`), estimate
counts, and structured failure records.  A completed count is never
searched again, so its dedup set is not stored: a record with any key
:func:`_result_from_dict` does not read fails the schema (``ACE322``),
and the checkpoint is quarantined like any other invalid one.

The file is an append-only log.  :meth:`SearchCheckpoint.save` writes
the whole document atomically once, when the search starts; each
completed (or finally-failed) stage count then appends one line,
``{"completed": {"<count>": result}}`` or ``{"failure": {...}}``, in
one ``write``.  Nothing on disk is re-encoded or renamed over (a rename
onto an existing file can stall tens of ms).  The loader and
``repro-lint`` read it back through
:func:`repro.lint.artifacts.fold_checkpoint`; a torn final line is
dropped (``ACE324``), and a resume compacts such a file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..ioutil import write_json_atomic
from ..lint.diagnostics import ArtifactError
from ..parallel.serialization import config_from_dict, config_to_dict

#: Format marker so future layout changes stay loadable.
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(ArtifactError):
    """A checkpoint file fails its schema (``ACE32x``) or belongs to
    another search."""


def _result_to_dict(result) -> dict:
    """Serialize a :class:`repro.core.search.SearchResult`."""
    return {
        "best_config": config_to_dict(result.best_config),
        "best_objective": result.best_objective,
        "top_configs": [
            {"objective": objective, "config": config_to_dict(config)}
            for objective, config in result.top_configs
        ],
        "num_estimates": result.num_estimates,
        "elapsed_seconds": result.elapsed_seconds,
        "converged": result.converged,
    }


def _result_from_dict(data: dict, perf_model):
    """Rebuild a ``SearchResult``; the report is re-derived from the
    (deterministic) performance model, everything else is stored."""
    from .search import SearchResult
    from .trace import SearchTrace

    best_config = config_from_dict(data["best_config"])
    return SearchResult(
        best_config=best_config,
        best_objective=float(data["best_objective"]),
        best_report=perf_model.estimate(best_config),
        trace=SearchTrace(),
        top_configs=[
            (float(entry["objective"]), config_from_dict(entry["config"]))
            for entry in data["top_configs"]
        ],
        num_estimates=data["num_estimates"],
        elapsed_seconds=float(data["elapsed_seconds"]),
        converged=data["converged"],
    )


@dataclass
class SearchCheckpoint:
    """Mutable on-disk state of one ``search_all_stage_counts`` run."""

    stage_counts: List[int]
    budget_kwargs: dict
    context: dict = field(default_factory=dict)
    completed: Dict[int, dict] = field(default_factory=dict)
    failures: List[dict] = field(default_factory=list)
    path: Optional[Path] = None
    #: Loaded from a file whose torn final record was dropped.
    torn: bool = field(default=False, compare=False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def new(
        cls,
        stage_counts,
        budget_kwargs: dict,
        context: dict,
        path: Union[str, Path],
    ) -> "SearchCheckpoint":
        return cls(
            stage_counts=list(stage_counts),
            budget_kwargs=dict(budget_kwargs),
            context=dict(context),
            path=Path(path),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SearchCheckpoint":
        """Read a checkpoint; raises :class:`CheckpointError` unless the
        file passes the checkpoint schema checker (``ACE32x``)."""
        from ..lint import artifacts as schema

        data = schema.load_artifact(
            path, "ACE320", schema.check_checkpoint, CheckpointError,
            schema.fold_checkpoint,
        )
        return cls(
            stage_counts=data["stage_counts"],
            budget_kwargs=data["budget_kwargs"],
            context=data.get("context", {}),
            completed={
                int(count): payload
                for count, payload in data.get("completed", {}).items()
            },
            failures=data.get("failures", []),
            path=Path(path),
            torn=schema.TORN_RECORD in data,
        )

    @classmethod
    def load_or_quarantine(
        cls, path: Union[str, Path]
    ) -> Optional["SearchCheckpoint"]:
        """Load a checkpoint, quarantining an unreadable file.

        A crash mid-append tears only the final record, which the
        load drops; this resume then compacts the file with one
        :meth:`save` so the next append does not land after the torn
        line.  Disk-full, a torn document or plain bit rot fail the
        load instead.  A resume must not die on such a file: the
        corrupt checkpoint is moved aside to ``<path>.corrupt``
        (preserved for post-mortems), a ``checkpoint.corrupt``
        telemetry event is emitted, and ``None`` is returned so the
        caller starts a fresh search.  A missing file also returns
        ``None`` (nothing to quarantine).
        """
        from ..telemetry import WARNING, get_bus
        from ..telemetry.events import CHECKPOINT_CORRUPT

        path = Path(path)
        if not path.exists():
            return None
        try:
            checkpoint = cls.load(path)
        except CheckpointError as exc:
            quarantine = path.with_name(path.name + ".corrupt")
            quarantined = True
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantined = False
            get_bus().emit(
                CHECKPOINT_CORRUPT,
                source="checkpoint",
                level=WARNING,
                path=str(path),
                quarantined_to=str(quarantine) if quarantined else None,
                error=str(exc),
            )
            return None
        if checkpoint.torn:
            checkpoint.save()
        return checkpoint

    def save(self) -> None:
        """Write the whole document atomically (temp file + rename), so
        a crash mid-write never corrupts the previous checkpoint."""
        if self.path is None:
            raise CheckpointError("checkpoint has no path to save to")
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "stage_counts": self.stage_counts,
            "budget_kwargs": self.budget_kwargs,
            "context": self.context,
            "completed": {
                str(count): data for count, data in self.completed.items()
            },
            "failures": self.failures,
        }
        write_json_atomic(self.path, payload)

    # ------------------------------------------------------------------
    # compatibility
    # ------------------------------------------------------------------
    def ensure_compatible(
        self, stage_counts, budget_kwargs: dict, context: dict
    ) -> None:
        """Refuse to resume into a different search problem."""
        if self.budget_kwargs != dict(budget_kwargs):
            raise CheckpointError(
                f"checkpoint budget {self.budget_kwargs} does not match "
                f"requested budget {dict(budget_kwargs)}"
            )
        for key, value in context.items():
            stored = self.context.get(key)
            if stored != value:
                raise CheckpointError(
                    f"checkpoint {key}={stored!r} does not match the "
                    f"current search ({value!r})"
                )
        unknown = sorted(set(self.completed) - set(stage_counts))
        if unknown:
            raise CheckpointError(
                f"checkpoint contains stage counts {unknown} absent from "
                f"the requested {sorted(stage_counts)}"
            )

    # ------------------------------------------------------------------
    # recording / restoring
    # ------------------------------------------------------------------
    def record_run(self, run) -> None:
        """Store one completed ``StageCountResult`` and append it."""
        result = _result_to_dict(run.result)
        self._record({"completed": {str(run.num_stages): result}})

    def record_failure(self, failure) -> None:
        """Store one final ``SearchFailure`` and append it."""
        self._record({"failure": {
            "num_stages": failure.num_stages,
            "error": failure.error,
            "attempts": failure.attempts,
        }})

    def _record(self, record: dict) -> None:
        """Apply ``record`` exactly as a load folds it (a later record
        for a count supersedes an earlier one; a success drops that
        count's failure), then append it as one line in one ``write``.
        The line starts with its newline, so it never joins a line on
        disk.  With no document on disk yet, :meth:`save` writes all."""
        from ..lint.artifacts import fold_record

        state = {"failures": self.failures}
        fold_record(state, record)
        self.failures = state["failures"]
        for count, result in state.get("completed", {}).items():
            self.completed[int(count)] = result
        if self.path is None or not self.path.exists():
            return self.save()
        with open(self.path, "ab", buffering=0) as handle:
            handle.write(("\n" + json.dumps(record)).encode())

    def restore_runs(self, perf_model) -> list:
        """Rebuild the completed ``StageCountResult`` list, count order."""
        from .search import StageCountResult

        return [
            StageCountResult(
                num_stages=count,
                result=_result_from_dict(self.completed[count], perf_model),
            )
            for count in sorted(self.completed)
        ]
