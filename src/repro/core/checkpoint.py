"""Crash-safe checkpointing of the stage-count search driver.

The paper's pitch — search cheap enough to re-run whenever the cluster
changes — only holds if an interrupted search doesn't lose its work.
A :class:`SearchCheckpoint` persists, as JSON, everything needed to
resume ``search_all_stage_counts`` bit-exactly: per-stage-count best and
top-k configurations (via :mod:`repro.parallel.serialization`), visited
signatures, estimate counts, and structured failure records.
``visited_signatures`` holds the hex ``ParallelConfig.cache_key()`` of
each visited configuration, the key the search deduplicates on (not
``signature()``); a resume restores it verbatim and never compares it
with live configurations.  The file
is rewritten atomically after every completed (or finally-failed) stage
count, so a crash between writes costs at most one stage count of work.
"""

from __future__ import annotations

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
        "visited_signatures": sorted(result.visited_signatures),
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
        visited_signatures=tuple(data["visited_signatures"]),
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
        from ..lint.artifacts import check_checkpoint, load_artifact

        data = load_artifact(path, "ACE320", check_checkpoint, CheckpointError)
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
        )

    @classmethod
    def load_or_quarantine(
        cls, path: Union[str, Path]
    ) -> Optional["SearchCheckpoint"]:
        """Load a checkpoint, quarantining an unreadable file.

        Atomic rename protects a checkpoint against crashes mid-write,
        but not against disk-full, a kill mid-write of an *older*
        non-atomic copy, or plain bit rot.  A resume must not die on
        such a file: the corrupt checkpoint is moved aside to
        ``<path>.corrupt`` (preserved for post-mortems), a
        ``checkpoint.corrupt`` telemetry event is emitted, and ``None``
        is returned so the caller starts a fresh search.  A missing
        file also returns ``None`` (nothing to quarantine).
        """
        from ..telemetry import WARNING, get_bus
        from ..telemetry.events import CHECKPOINT_CORRUPT

        path = Path(path)
        if not path.exists():
            return None
        try:
            return cls.load(path)
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

    def save(self) -> None:
        """Atomic write (temp file + rename) so a crash mid-write never
        corrupts the previous checkpoint."""
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
        """Store one completed ``StageCountResult`` and persist."""
        self.completed[run.num_stages] = _result_to_dict(run.result)
        # A later success supersedes any earlier failure record.
        self.failures = [
            f for f in self.failures if f.get("num_stages") != run.num_stages
        ]
        self.save()

    def record_failure(self, failure) -> None:
        """Store one final ``SearchFailure`` and persist."""
        self.failures = [
            f
            for f in self.failures
            if f.get("num_stages") != failure.num_stages
        ]
        self.failures.append(
            {
                "num_stages": failure.num_stages,
                "error": failure.error,
                "attempts": failure.attempts,
            }
        )
        self.save()

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
