"""Plan serialization: save and reload parallel configurations.

A searched plan is a deployment artifact — it outlives the process that
found it (the paper's shared-cluster motivation) — so it must round-trip
through JSON losslessly, including the semantic signature used for
deduplication and executor-noise seeding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .config import ParallelConfig
from .stage import StageConfig

#: Format marker so future layout changes can stay loadable.
FORMAT_VERSION = 1


def config_to_dict(config: ParallelConfig) -> dict:
    """Plain-python representation of a configuration."""
    return {
        "format_version": FORMAT_VERSION,
        "microbatch_size": config.microbatch_size,
        "stages": [
            {
                "start": stage.start,
                "end": stage.end,
                "num_devices": stage.num_devices,
                "tp": stage.tp.tolist(),
                "dp": stage.dp.tolist(),
                "tp_dim": stage.tp_dim.tolist(),
                "recompute": stage.recompute.tolist(),
            }
            for stage in config.stages
        ],
    }


def config_from_dict(data: dict, location: str = "plan") -> ParallelConfig:
    """Inverse of :func:`config_to_dict`; raises ``ArtifactError``
    (``ACE30x``) unless ``data`` passes the plan schema checker."""
    from ..lint.artifacts import check_plan
    from ..lint.diagnostics import require_valid

    require_valid(check_plan(data, location))
    stages = [
        StageConfig(
            start=s["start"],
            end=s["end"],
            num_devices=s["num_devices"],
            tp=np.asarray(s["tp"], dtype=np.int64),
            dp=np.asarray(s["dp"], dtype=np.int64),
            tp_dim=np.asarray(s["tp_dim"], dtype=np.int64),
            recompute=np.asarray(s["recompute"], dtype=bool),
        )
        for s in data["stages"]
    ]
    return ParallelConfig(
        stages=stages, microbatch_size=data["microbatch_size"]
    )


def save_config(config: ParallelConfig, path: Union[str, Path]) -> None:
    """Write a plan to a JSON file."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: Union[str, Path]) -> ParallelConfig:
    """Read a plan from a JSON file (raises ``ArtifactError``)."""
    from ..lint.artifacts import load_artifact

    return config_from_dict(load_artifact(path, "ACE301"), str(path))
