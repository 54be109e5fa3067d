"""Microbenchmark: estimator throughput and the multiprocess driver.

Quantifies the perf claims of the incremental-estimation and telemetry
work:

* **estimates/sec** — costing search-style candidates (one dirty stage
  per candidate) with the per-stage cost cache warm vs the cold path
  that re-costs every stage (the pre-refactor behaviour), on a 48- and
  a 1000-layer GPT chain.
* **depth slope** — cold and warm seconds per estimate on gpt-Nl for
  N in ``DEPTHS``: how a candidate's cost grows with model depth
  (Exp#3's 1,000-layer claim), plus the microseconds a fresh one-stage
  config pays outside the estimator: its base digest (``identity_us``)
  and its structure check (``check_us``).  Recorded only, with no gate.
* **recompute probes** — microseconds per recompute probe that misses
  the whole-config cache, which is all a failed probe costs: building
  the variant and estimating it (``with_recompute`` + ``estimate``) vs
  calling a ``PerfModel.recompute_probe`` set up beforehand, which
  prices only the probed stage's Eq. 1, plus the microseconds of one
  probe setup, on a gpt3-350m 8-stage stage and gpt-1000l 2- and
  8-stage stages.  Recorded only, with no gate.
* **telemetry off vs on** — the same warm path with the bus inactive
  (no sinks: the production search default) vs actively emitting
  per-estimate events into a ring buffer.  The inactive path is the
  zero-overhead contract of ``repro.telemetry``.
* **search wall-clock** — ``search_all_stage_counts`` serial vs the
  persistent worker pool at 2 and 4 requested workers (capped at the
  usable cores), which must return the identical best configuration.

Results are emitted to ``benchmarks/results/BENCH_perfmodel.json`` so
later PRs can track the estimator's perf trajectory.
"""

import gc
import json
import os
import time
import timeit

import numpy as np

from repro.cluster import paper_cluster
from repro.core import search_all_stage_counts
from repro.core.pool import usable_cores
from repro.ir.models import build_model
from repro.lint.config_rules import _op_check_hits
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.telemetry import RingBufferSink, TelemetryBus, using_bus

from common import RESULTS_DIR, emit, print_header, print_table

BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_perfmodel.json")

#: Candidate estimates per timing run (distinct configs, so every one
#: misses the whole-config cache like fresh search candidates do).
NUM_CANDIDATES = 200

#: Layer counts of the gpt-Nl models the depth section times.
DEPTHS = (250, 500, 1000, 2000)


def _setup(model_name, num_gpus=8, stages=8):
    graph = build_model(model_name)
    cluster = paper_cluster(num_gpus)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    base = balanced_config(graph, cluster, stages)
    return graph, cluster, database, base


def _candidates(base, count):
    """Distinct search-style candidates: one dirty stage each."""
    variants = []
    num_stages = base.num_stages
    for i in range(count):
        stage_index = i % num_stages
        child = base.mutated_copy([stage_index])
        stage = child.stages[stage_index]
        stage.recompute[(i // num_stages) % stage.num_ops] = True
        variants.append(child)
    return variants


def _timed(run, variants):
    """``(rate, seconds)`` of ``run(variants)``.

    As in timeit, the cyclic GC is off while timing: its collections
    land at deterministic allocation counts, so one column could absorb
    every pause and read as a systematic slowdown.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        run(variants)
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    return len(variants) / elapsed, elapsed


def _rate(model, variants):
    # A scored candidate's cost as the search pays it: the estimate
    # plus the objective's read of its verdict and iteration time.
    return _timed(lambda configs: [model.objective(c) for c in configs],
                  variants)


def _estimate_rates(model_name):
    graph, cluster, database, base = _setup(model_name)
    variants = _candidates(base, NUM_CANDIDATES)

    cold_model = PerfModel(graph, cluster, database, stage_cache_size=0)
    cold_rate, cold_s = _rate(cold_model, variants)

    warm_model = PerfModel(graph, cluster, database)
    warm_model.estimate(base)  # prime the stage cache
    warm_rate, warm_s = _rate(warm_model, variants)
    info = warm_model.cache_info()
    return {
        "model": model_name,
        "num_ops": graph.num_ops,
        "candidates": NUM_CANDIDATES,
        "cold_estimates_per_s": cold_rate,
        "warm_estimates_per_s": warm_rate,
        "speedup": warm_rate / cold_rate,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "stage_cache_hits": info["num_stage_hits"],
        "stage_cache_misses": info["num_stage_costs"],
    }


def test_estimates_per_second():
    """Warm stage cache must beat full re-costing, >=3x at 1000 layers."""
    print_header("PerfModel estimates/sec: cold vs warm stage cache")
    rows, results = [], []
    for model_name in ("gpt-48l", "gpt-1000l"):
        out = _estimate_rates(model_name)
        results.append(out)
        rows.append([
            model_name,
            out["num_ops"],
            f"{out['cold_estimates_per_s']:.0f}",
            f"{out['warm_estimates_per_s']:.0f}",
            f"{out['speedup']:.1f}x",
        ])
    print_table(
        ["model", "ops", "cold est/s", "warm est/s", "speedup"], rows
    )
    _merge_json({"estimates": results})
    deep = next(r for r in results if r["model"] == "gpt-1000l")
    assert deep["speedup"] >= 3.0, deep
    for out in results:
        assert out["warm_estimates_per_s"] > out["cold_estimates_per_s"]


def _fresh_stage_us(model_name):
    """``(identity_us, check_us)``: best-of microseconds for the base
    digest and the structure check of a fresh one-stage config."""
    graph = build_model(model_name)
    cluster = paper_cluster(8)
    config = balanced_config(graph, cluster, 1)
    stage = config.stages[0]

    def identity():
        stage._invalidate_signature()  # a fresh stage's first hash
        stage.base_digest()

    def check():
        _op_check_hits([stage], config.microbatch_size, graph, cluster)

    return tuple(
        min(timeit.repeat(run, number=50, repeat=7)) / 50 * 1e6
        for run in (identity, check)
    )


def test_depth_slope():
    """Seconds per estimate against depth, cold and warm, and a fresh
    stage's identity and check microseconds (no gate)."""
    print_header("PerfModel seconds per estimate vs depth")
    rows, results = [], []
    for layers in DEPTHS:
        out = _estimate_rates(f"gpt-{layers}l")
        cold = out["cold_seconds"] / out["candidates"]
        warm = out["warm_seconds"] / out["candidates"]
        identity_us, check_us = _fresh_stage_us(out["model"])
        results.append({
            "model": out["model"],
            "layers": layers,
            "num_ops": out["num_ops"],
            "candidates": out["candidates"],
            "cold_seconds_per_estimate": cold,
            "warm_seconds_per_estimate": warm,
            "identity_us": identity_us,
            "check_us": check_us,
        })
        rows.append([
            out["model"], out["num_ops"],
            f"{cold * 1e6:.0f}", f"{warm * 1e6:.0f}",
            f"{identity_us:.0f}", f"{check_us:.0f}",
        ])
    print_table(["model", "ops", "cold us/est", "warm us/est",
                 "identity us", "check us"], rows)
    _merge_json({"depth": results})


#: Recompute probes per timing run (distinct masks, so every one misses
#: the whole-config cache), and timing runs per path (best kept).
NUM_PROBES = 200
PROBE_REPEATS = 5


def _probe_us(graph, cluster, database, stages, stage_index=0):
    """Best-of microseconds per config-cache-missing probe of one stage:
    building and estimating each variant (``built_us``) vs calling a
    ``PerfModel.recompute_probe`` already set up (``probe_us``), plus
    the microseconds of one setup (``setup_us``), which a greedy call
    pays once for all its probes.  Each run starts from a fresh model
    primed with the parent's estimate, so the stage's base sits in the
    base LRU as it does after the search estimates a parent."""
    config = balanced_config(graph, cluster, stages)
    rng = np.random.default_rng(0)
    num_ops = config.stages[stage_index].num_ops
    masks = [rng.random(num_ops) < 0.5 for _ in range(NUM_PROBES)]

    def built(model, eq1):
        def run(_):
            for mask in masks:
                variant = config.with_recompute(stage_index, mask)
                model.estimate(variant).peak_memories[stage_index]
        return run

    def probe(model, eq1):
        probe = model.recompute_probe(config, stage_index, eq1)

        def run(_):
            for mask in masks:
                probe(mask)
        return run

    def setup(model, eq1):
        def run(_):
            for _ in masks:
                model.recompute_probe(config, stage_index, eq1)
        return run

    best = {}
    for _ in range(PROBE_REPEATS):
        for name, make in (("built_us", built), ("probe_us", probe),
                           ("setup_us", setup)):
            model = PerfModel(graph, cluster, database)
            eq1 = model.estimate(config).eq1()
            seconds = _timed(make(model, eq1), masks)[1]
            best[name] = min(best.get(name, seconds), seconds)
    return {
        "stages": stages,
        "stage_index": stage_index,
        "num_ops": num_ops,
        "probes": NUM_PROBES,
        **{name: s / NUM_PROBES * 1e6 for name, s in best.items()},
    }


def test_recompute_probe():
    """Microseconds per probe that misses the config cache: building
    and estimating the variant vs pricing its stage's Eq. 1 with a
    probe already set up, and per probe setup (no gate)."""
    print_header("Recompute probe: built config vs Eq. 1 probe")
    rows, results = [], []
    for model_name, stage_counts in (("gpt3-350m", (8,)),
                                     ("gpt-1000l", (2, 8))):
        graph, cluster, database, _ = _setup(model_name)
        for stages in stage_counts:
            out = {"model": model_name,
                   **_probe_us(graph, cluster, database, stages)}
            results.append(out)
            rows.append([
                model_name, stages, out["num_ops"],
                f"{out['built_us']:.0f}", f"{out['probe_us']:.0f}",
                f"{out['setup_us']:.1f}",
            ])
    print_table(["model", "stages", "stage ops", "built us", "probe us",
                 "setup us"], rows)
    _merge_json({"probe": results})


def test_telemetry_overhead():
    """Inactive-bus estimates must track the plain warm rate (<=5%).

    Off and on batches interleave so machine drift hits both modes
    equally; the recorded overhead is what attaching a sink costs, and
    the assertion guards the contract that *not* attaching one costs
    nothing the warm-cache rate can feel.
    """
    print_header("PerfModel estimates/sec: telemetry off vs on")
    graph, cluster, database, base = _setup("gpt-48l")
    batch = 20
    num_batches = NUM_CANDIDATES // batch
    variants = _candidates(base, 3 * NUM_CANDIDATES)

    # base = the untouched process-default bus; off = an explicitly
    # installed sinkless bus (the same inactive fast path); on = a bus
    # actively recording every estimate into a ring buffer.
    models = [
        PerfModel(graph, cluster, database) for _ in range(3)
    ]
    for model in models:
        model.estimate(base)
    off_bus = TelemetryBus()
    on_bus = TelemetryBus()
    ring = on_bus.add_sink(RingBufferSink())
    seconds = [0.0, 0.0, 0.0]
    for i in range(num_batches):
        chunk = variants[3 * i * batch:3 * (i + 1) * batch]
        seconds[0] += _rate(models[0], chunk[:batch])[1]
        with using_bus(off_bus):
            seconds[1] += _rate(models[1], chunk[batch:2 * batch])[1]
        with using_bus(on_bus):
            seconds[2] += _rate(models[2], chunk[2 * batch:])[1]
    base_rate, off_rate, on_rate = (
        NUM_CANDIDATES / s for s in seconds
    )
    print_table(
        ["mode", "est/s", "events"],
        [
            ["baseline", f"{base_rate:.0f}", "0"],
            ["telemetry off", f"{off_rate:.0f}", "0"],
            ["telemetry on", f"{on_rate:.0f}", str(len(ring))],
        ],
    )
    emit(
        f"inactive-bus overhead: {seconds[1] / seconds[0] - 1.0:+.1%}, "
        f"active-sink overhead: {seconds[2] / seconds[0] - 1.0:+.1%}"
    )
    _merge_json({
        "telemetry": {
            "model": "gpt-48l",
            "candidates": NUM_CANDIDATES,
            "baseline_estimates_per_s": base_rate,
            "off_estimates_per_s": off_rate,
            "on_estimates_per_s": on_rate,
            "inactive_overhead": seconds[1] / seconds[0] - 1.0,
            "active_overhead": seconds[2] / seconds[0] - 1.0,
        }
    })
    assert len(ring) > 0  # the on-mode really emitted
    # disabled telemetry must stay within noise of the plain warm rate
    assert off_rate >= 0.95 * base_rate, (off_rate, base_rate)


def test_search_serial_vs_workers():
    """The persistent pool beats serial wall-clock, identical answer.

    The wall-clock comparison needs real cores, and the driver caps
    the pool at the usable core count (``usable_cores``): a request for
    4 workers runs at most that many processes, and on a single-core
    machine every run is serial.  There the bench records the timings
    at every worker count (and the core count, so the JSON is
    interpretable) but only enforces result identity.
    """
    print_header("search_all_stage_counts: serial vs worker pool")
    graph = build_model("gpt3-350m")
    cluster = paper_cluster(8)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    budget = {"max_iterations": 10}
    outcomes = {}
    for workers in (1, 2, 4):
        model = PerfModel(graph, cluster, database)
        outcomes[workers] = search_all_stage_counts(
            graph, cluster, model,
            budget_per_count=budget, workers=workers,
        )
    serial = outcomes[1]
    cores = usable_cores()
    rows = [
        [
            "serial" if workers == 1 else f"workers={workers}",
            f"{outcome.wall_seconds:.2f}s",
            f"{serial.wall_seconds / outcome.wall_seconds:.2f}x",
            f"{outcome.best.best_objective:.4f}",
        ]
        for workers, outcome in sorted(outcomes.items())
    ]
    print_table(
        ["driver", "wall-clock", "speedup", "best objective"], rows
    )
    emit(
        f"pool speedup at 4 workers: "
        f"{serial.wall_seconds / outcomes[4].wall_seconds:.2f}x "
        f"on {cores} usable core(s)"
    )
    _merge_json({
        "search": {
            "model": "gpt3-350m",
            "gpus": 8,
            "stage_counts": [r.num_stages for r in serial.runs],
            "iterations_per_count": budget["max_iterations"],
            "usable_cores": cores,
            "serial_wall_seconds": serial.wall_seconds,
            "workers2_wall_seconds": outcomes[2].wall_seconds,
            "workers4_wall_seconds": outcomes[4].wall_seconds,
            "speedup_workers2": (
                serial.wall_seconds / outcomes[2].wall_seconds
            ),
            "speedup_workers4": (
                serial.wall_seconds / outcomes[4].wall_seconds
            ),
            "best_identical": all(
                outcome.best.best_config.signature()
                == serial.best.best_config.signature()
                for outcome in outcomes.values()
            ),
        }
    })
    for outcome in outcomes.values():
        assert (
            outcome.best.best_config.signature()
            == serial.best.best_config.signature()
        )
        assert outcome.best.best_objective == serial.best.best_objective
    if cores >= 2:
        assert outcomes[4].wall_seconds < serial.wall_seconds


def _merge_json(fragment):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            payload = json.load(handle)
    payload.update(fragment)
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
    emit(f"(written to {BENCH_JSON})")
