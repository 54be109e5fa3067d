"""Pinned answers of the three baseline planners.

Alpa, the DP solver and the Megatron grid all price op spans and build
uniform stages from the same substrate (``baselines/partition.py``).
These fingerprints hold every answer they report bit-for-bit on three
settings, so a refactor of that substrate cannot move Exp#1–#4's
baseline columns unnoticed.  A full table is pinned as a digest of its
rows (name and objective as a float hex); :func:`_rows` prints them for
a diff when a digest moves.
"""

import hashlib

import pytest

from repro.baselines import (
    DPSolverOptions,
    alpa_search,
    dp_solve,
    megatron_grid_search,
)
from repro.cluster import paper_cluster
from repro.ir.models import build_model
from repro.perfmodel import build_perf_model

from conftest import (
    make_activation_heavy_gpt,
    make_tight_cluster,
    make_tiny_gpt,
)


def _setting(name):
    if name == "tiny@4":
        return make_tiny_gpt(), paper_cluster(4), None
    if name == "heavy@tight4":
        return make_activation_heavy_gpt(), make_tight_cluster(), None
    # One microbatch size keeps the 8-GPU DP table small.
    return (
        build_model("gpt-4l"), paper_cluster(8),
        DPSolverOptions(microbatch_sizes=[4]),
    )


def _rows(table):
    rows = []
    for key, objective in table:
        if not isinstance(key, str):  # a MegatronPlan
            key = (
                f"tp={key.tp} dp={key.dp} pp={key.pp} "
                f"b={key.microbatch_per_gpu} rc={key.recompute}"
            )
        rows.append(f"{key} {objective.hex()}")
    return rows


def _digest(table):
    text = "\n".join(_rows(table)).encode()
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def _best(result):
    signature = result.best_config.signature() if result.best_config else None
    return result.best_objective.hex(), signature


PINS = {
    "tiny@4": {
        "alpa": (
            420, "0x1.2ebc6a7ef9db4p+5", 30, "db804e97c662ad7f",
            ("0x1.4acfc856003e4p-11", "cab761120a35908c30d9825bf25c8748"),
        ),
        "dp": (
            "0x1.d20e000000000p+16", 83244,
            ("0x1.670795d095abfp-11", "1a1905d5e6a067eb024c5a1c64742c72"),
        ),
        "megatron": (
            58, "b75fd943498cbd61",
            ("0x1.4acfc856003e4p-11", "cab761120a35908c30d9825bf25c8748"),
        ),
    },
    "heavy@tight4": {
        "alpa": (
            728, "0x1.065f06f694467p+6", 21, "14cba8239089bc2c",
            ("0x1.fa1ce65e86636p-9", "8ed5981ee3e0de3682735a86a1674117"),
        ),
        "dp": (
            "0x1.9ed8000000000p+17", 128478,
            ("0x1.3577cba7e11bep-8", "e9e6e5e94f8b7c983e828117115a2b1f"),
        ),
        "megatron": (
            60, "a87672be87613852",
            ("0x1.5621c1e8f12ecp-9", "9b971cece04c62ec72e48b6dbd41f9e1"),
        ),
    },
    "gpt-4l@8": {
        "alpa": (
            686, "0x1.ee780346dc5d8p+5", 24, "768ca7ae4033050d",
            ("0x1.6a4f907f1dc35p-3", "7db0c14adbde40274ddc841355fd1248"),
        ),
        "dp": (
            "0x1.9fca890000000p+26", 98540,
            ("0x1.94dcc3432e4e4p-3", "f5f1fbde5a691e9e316dbbd4b6518ee4"),
        ),
        "megatron": (
            100, "0e976b9939a71625",
            ("0x1.686efe8fd653bp-3", "e78f0e23abaf96d602ca71937a285fb9"),
        ),
    },
}


@pytest.fixture(scope="module", params=sorted(PINS))
def answers(request):
    graph, cluster, dp_options = _setting(request.param)
    perf_model = build_perf_model(graph, cluster)
    return request.param, (
        alpa_search(graph, cluster, perf_model),
        dp_solve(graph, cluster, perf_model, options=dp_options),
        megatron_grid_search(graph, cluster, perf_model),
    )


def test_alpa_answers_pinned(answers):
    name, (alpa, _, _) = answers
    assert (
        alpa.compilations, alpa.simulated_search_seconds.hex(),
        alpa.evaluated_plans, _digest(alpa.table), _best(alpa),
    ) == PINS[name]["alpa"], _rows(alpa.table)


def test_dp_answers_pinned(answers):
    name, (_, dp, _) = answers
    assert (
        dp.explored_configs.hex(), dp.table_evaluations, _best(dp),
    ) == PINS[name]["dp"]


def test_megatron_answers_pinned(answers):
    name, (_, _, megatron) = answers
    assert (
        megatron.evaluated, _digest(megatron.table), _best(megatron),
    ) == PINS[name]["megatron"], _rows(megatron.table)
