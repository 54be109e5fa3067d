"""The planner's layers as the benchmark traces them.

:data:`TIMED` lists every patch point: the layer name used in the
per-layer metrics, the module and qualified name of the function or
method, and whether each call keeps a span.  Coarse layers (a request,
the stage-count driver, the search loop, multi-hop, fine-tune, the
daemon's submit and cache) keep spans; hot leaves are aggregated only.

:func:`install` patches them all into a :class:`~tracer.Tracer`, plus
untimed hooks that count outcomes where the work happens (estimator
counters, admission waits, search and pool results).
:func:`per_layer_metrics` turns a merged trace into the ``per_layer``
metrics of ``BENCHMARK.json``; the end-to-end metric and workload each
one should move are listed in README.md.
"""

from __future__ import annotations

import functools
import statistics
from typing import Callable, Dict, List, Optional

from tracer import Tracer, clock


def _fingerprint_of(index: int) -> Callable:
    return lambda args: args[index].fingerprint()


def _arg(index: int) -> Callable:
    return lambda args: args[index]


#: ``(layer, module, qualname, span, rid)``; a layer may list several
#: methods.  Each layer reports ``<layer>.calls`` and ``<layer>.self_s``.
TIMED = [
    ("service.planner", "repro.service.planner", "plan_request",
     True, _fingerprint_of(0)),
    ("ir.build_model", "repro.ir.models.registry", "build_model",
     False, None),
    ("profiling.profile", "repro.profiling.profiler",
     "SimulatedProfiler.profile", False, None),
    ("core.search.driver", "repro.core.search", "search_all_stage_counts",
     True, None),
    ("core.pool.schedule", "repro.core.search", "_run_counts_in_pool",
     True, None),
    ("core.pool.spawn", "repro.core.pool", "WorkerPool.spawn", False, None),
    ("core.search.run", "repro.core.search", "AcesoSearch.run", True, None),
    ("core.multihop.search", "repro.core.multihop",
     "MultiHopSearcher.search", True, None),
    ("core.finetune", "repro.core.finetune", "finetune", True, None),
    ("core.bottleneck.rank_bottlenecks", "repro.core.bottleneck",
     "rank_bottlenecks", False, None),
    ("core.ranking.candidate_groups", "repro.core.ranking",
     "candidate_groups", False, None),
    ("core.apply.apply_primitive", "repro.core.apply", "apply_primitive",
     False, None),
    ("core.arguments.tune_recompute", "repro.core.arguments",
     "tune_recompute", False, None),
    ("parallel.validation.validate_config", "repro.parallel.validation",
     "validate_config", False, None),
    ("parallel.config.mutated_copy", "repro.parallel.config",
     "ParallelConfig.mutated_copy", False, None),
    ("parallel.config.signature", "repro.parallel.config",
     "ParallelConfig.signature", False, None),
    ("parallel.config.cache_key", "repro.parallel.config",
     "ParallelConfig.cache_key", False, None),
    ("perfmodel.estimate", "repro.perfmodel.model", "PerfModel.estimate",
     False, None),
    ("perfmodel.stage_cost", "repro.perfmodel.model",
     "PerfModel._cost_stage_uncached", False, None),
    ("perfmodel.estimate_batch", "repro.perfmodel.model",
     "PerfModel.estimate_batch", False, None),
    ("perfmodel.objective", "repro.perfmodel.model", "PerfModel.objective",
     False, None),
    ("perfmodel.objective_batch", "repro.perfmodel.model",
     "PerfModel.objective_batch", False, None),
    ("core.dedup.visited", "repro.core.dedup", "VisitedSet.add",
     False, None),
    ("core.dedup.visited", "repro.core.dedup", "VisitedSet.__contains__",
     False, None),
    ("core.dedup.unexplored", "repro.core.dedup", "UnexploredPool.put",
     False, None),
    ("core.dedup.unexplored", "repro.core.dedup", "UnexploredPool.remove",
     False, None),
    ("core.dedup.unexplored", "repro.core.dedup", "UnexploredPool.pop_best",
     False, None),
    ("service.daemon.submit", "repro.service.daemon", "PlannerDaemon.submit",
     True, _fingerprint_of(1)),
    ("service.cache.get", "repro.service.cache", "PlanCache.get",
     True, _arg(1)),
    ("service.cache.put", "repro.service.cache", "PlanCache.put",
     True, _arg(1)),
    ("service.cache.invalidate", "repro.service.cache",
     "PlanCache.invalidate", True, None),
    ("ioutil.write_json_atomic", "repro.ioutil", "write_json_atomic",
     False, None),
    ("core.checkpoint.save", "repro.core.checkpoint", "SearchCheckpoint.save",
     False, None),
]

#: The stage-count pool's worker loop: entered in each forked worker,
#: where it resets the inherited tracer and dumps its own on exit.
POOL_WORKER = ("core.pool.worker", "repro.core.pool", "_pool_worker_main")

#: Layers whose self time is the search's own bookkeeping rather than a
#: named layer: with the root, the share ``trace.unattributed_share``
#: reports (ROADMAP's "at least 95% attributed" gate).
UNATTRIBUTED = ("root", "core.search.driver", "core.search.run")


def install(tracer: Tracer, dump_dir) -> None:
    """Patch every layer and hook into the imported ``repro`` package.

    ``dump_dir`` receives the snapshots of forked pool workers.
    """
    after = {
        "core.search.driver": _driver_outcome(tracer),
        "core.search.run": _run_outcome(tracer),
        "core.apply.apply_primitive": (
            lambda args, result: tracer.add(
                "core.apply.candidates", len(result))
        ),
        "perfmodel.estimate_batch": (
            lambda args, result: tracer.add(
                "perfmodel.estimate_batch.configs", len(args[1]))
        ),
        "service.daemon.submit": _submit_outcome,
        "service.cache.get": _cache_get_outcome(tracer),
    }
    hits = {
        "VisitedSet.add": lambda result: result is False,
        "VisitedSet.__contains__": lambda result: result is True,
    }
    for layer, module, qualname, span, rid in TIMED:
        hook = after.get(layer)
        if qualname in hits:
            hook = _visited_outcome(tracer, hits[qualname])
        tracer.patch(layer, module, qualname, span=span, rid=rid, after=hook)

    layer, module, qualname = POOL_WORKER
    tracer.patch(layer, module, qualname,
                 make=_pool_worker_entry(tracer, layer, dump_dir))
    tracer.patch(
        "perfmodel.counters", "repro.perfmodel.model", "PerfModel.__init__",
        make=lambda init: tracer.hook(init, _track_counters(tracer)),
    )
    tracer.patch(
        "service.admission", "repro.service.admission",
        "AdmissionController.submit",
        make=lambda submit: tracer.hook(
            submit, lambda args, item: tracer.stamp(item)),
    )
    tracer.patch(
        "service.admission", "repro.service.admission",
        "AdmissionController.next",
        make=lambda next_: tracer.hook(next_, _dequeued(tracer)),
    )


def _pool_worker_entry(tracer: Tracer, layer: str, dump_dir):
    def make(original):
        timed = tracer.wrap(layer, original, span=True)

        @functools.wraps(original)
        def entry(*args, **kwargs):
            tracer.reset()
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.dump(dump_dir)

        return entry

    return make


def _track_counters(tracer: Tracer):
    """Read every estimator's public counters when the trace is taken."""

    def track(args, _result) -> None:
        counters = args[0].counters
        tracer.gauges.append(lambda: {
            f"perfmodel.{name}": value
            for name, value in counters.snapshot().items()
        })

    return track


def _driver_outcome(tracer: Tracer):
    def outcome(args, result) -> None:
        elapsed = [run.result.elapsed_seconds for run in result.runs]
        workers = max(1, result.workers)
        # The critical path: the slowest count when counts run in
        # parallel (§4.3), all of them one after another when serial.
        critical = max(elapsed, default=0.0) if workers > 1 else sum(elapsed)
        tracer.add("core.pool.forks", result.pool_forks)
        tracer.add("core.pool.tasks", result.pool_tasks)
        tracer.add("core.pool.busy_s", sum(elapsed))
        tracer.add("core.pool.capacity_s", result.wall_seconds * workers)
        tracer.add("core.pool.driver_overhead_s",
                   result.wall_seconds - critical)

    return outcome


def _run_outcome(tracer: Tracer):
    def outcome(args, result) -> None:
        records = result.trace.records
        tracer.add("core.search.iterations", len(records))
        tracer.add("core.search.improving",
                   sum(1 for record in records if record.improved))
        tracer.add("core.search.estimates", result.num_estimates)
        tracer.add("core.search.seconds", result.elapsed_seconds)

    return outcome


def _visited_outcome(tracer: Tracer, is_hit: Callable[[object], bool]):
    def outcome(args, result) -> None:
        if is_hit(result):
            tracer.add("core.dedup.visited.hits")

    return outcome


def _submit_outcome(args, response) -> dict:
    return {
        "request_id": response.request_id,
        "status": response.status,
        "cached": response.cached,
        "coalesced": response.coalesced,
    }


def _cache_get_outcome(tracer: Tracer):
    def outcome(args, entry) -> dict:
        if entry is not None:
            tracer.add("service.cache.hits")
        return {"hit": entry is not None}

    return outcome


def _dequeued(tracer: Tracer):
    def outcome(args, item) -> None:
        if item is None:
            return
        start = tracer.waited(item)
        if start is None:
            return
        end = clock()
        tracer.sample("service.admission.wait_s", end - start)
        tracer.add_span("service.admission.wait", start, end,
                        getattr(item, "fingerprint", None))

    return outcome


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _layer(trace: dict, layer: str) -> list:
    return trace["layers"].get(layer, [0, 0.0, 0.0])


def _count(trace: dict, name: str) -> float:
    return trace["counts"].get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _http_self_ms(trace: dict, ctx: dict) -> float:
    """Client latency minus the daemon's ``submit``, per request id."""
    submit = {
        span["request_id"]: span["end"] - span["start"]
        for span in trace["spans"]
        if span["name"] == "service.daemon.submit" and "request_id" in span
    }
    client = ctx.get("client_latency", {})
    return _median_ms([
        latency - submit[request_id]
        for request_id, latency in client.items()
        if request_id in submit
    ])


def _unattributed_share(trace: dict, ctx: dict) -> float:
    numerator = sum(_layer(trace, layer)[1] for layer in UNATTRIBUTED)
    root = _layer(trace, "root")[2]
    # The daemon has no root span and its threads overlap, so there the
    # base is the time spent planning instead of the traced wall time.
    base = root if root else _layer(trace, "service.planner")[2]
    return _ratio(numerator, base)


def _metric_table() -> List[tuple]:
    """``(name, unit, better, needs, per_request, value(trace, ctx))``.

    ``needs`` names the patch points the value comes from;
    ``per_request`` values are divided by the traced plan requests.
    """
    table = []
    layers = []
    for layer, *_ in TIMED + [POOL_WORKER]:
        if layer not in layers:
            layers.append(layer)
    for layer in layers:
        table.append((f"{layer}.calls", "count", "lower", (layer,), True,
                      lambda t, c, layer=layer: _layer(t, layer)[0]))
        table.append((f"{layer}.self_s", "s", "lower", (layer,), True,
                      lambda t, c, layer=layer: _layer(t, layer)[1]))

    def count(name):
        return lambda t, c: _count(t, name)

    table += [
        ("core.apply.candidates", "count", "lower",
         ("core.apply.apply_primitive",), True,
         count("core.apply.candidates")),
        ("perfmodel.estimate_batch.configs", "count", "lower",
         ("perfmodel.estimate_batch",), True,
         count("perfmodel.estimate_batch.configs")),
        ("perfmodel.estimates", "count", "lower", ("perfmodel.counters",),
         True, count("perfmodel.estimates")),
        ("perfmodel.stage_costs", "count", "lower", ("perfmodel.counters",),
         True, count("perfmodel.stage_costs")),
        ("perfmodel.stage_hit_ratio", "ratio", "higher",
         ("perfmodel.counters",), False,
         lambda t, c: _ratio(
             _count(t, "perfmodel.stage_hits"),
             _count(t, "perfmodel.stage_hits")
             + _count(t, "perfmodel.stage_costs"))),
        ("perfmodel.report_hit_ratio", "ratio", "higher",
         ("perfmodel.counters",), False,
         lambda t, c: _ratio(
             _count(t, "perfmodel.config_hits"),
             _count(t, "perfmodel.config_hits")
             + _count(t, "perfmodel.estimates"))),
        ("core.dedup.visited.hit_ratio", "ratio", "higher",
         ("core.dedup.visited",), False,
         lambda t, c: _ratio(_count(t, "core.dedup.visited.hits"),
                             _layer(t, "core.dedup.visited")[0])),
        ("core.search.iterations", "count", "lower", ("core.search.run",),
         True, count("core.search.iterations")),
        ("core.search.improving_share", "ratio", "higher",
         ("core.search.run",), False,
         lambda t, c: _ratio(_count(t, "core.search.improving"),
                             _count(t, "core.search.iterations"))),
        ("core.search.estimates_per_s", "1/s", "higher",
         ("core.search.run",), False,
         lambda t, c: _ratio(_count(t, "core.search.estimates"),
                             _count(t, "core.search.seconds"))),
        ("core.pool.forks", "count", "lower", ("core.search.driver",), True,
         count("core.pool.forks")),
        ("core.pool.tasks", "count", "lower", ("core.search.driver",), True,
         count("core.pool.tasks")),
        ("core.pool.busy_share", "ratio", "higher", ("core.search.driver",),
         False,
         lambda t, c: _ratio(_count(t, "core.pool.busy_s"),
                             _count(t, "core.pool.capacity_s"))),
        ("core.pool.driver_overhead_s", "s", "lower",
         ("core.search.driver",), True,
         count("core.pool.driver_overhead_s")),
        ("service.http.self_ms.p50", "ms", "lower",
         ("service.daemon.submit",), False, _http_self_ms),
        ("service.admission.wait_s", "s", "lower", ("service.admission",),
         True,
         lambda t, c: sum(t["samples"].get("service.admission.wait_s", []))),
        ("service.admission.wait_ms.p50", "ms", "lower",
         ("service.admission",), False,
         lambda t, c: _median_ms(
             t["samples"].get("service.admission.wait_s", []))),
        ("service.cache.hit_ratio", "ratio", "higher",
         ("service.cache.get",), False,
         lambda t, c: _ratio(_count(t, "service.cache.hits"),
                             _layer(t, "service.cache.get")[0])),
        ("service.coalesce.share", "ratio", "higher", (), False,
         lambda t, c: _ratio(c.get("coalesced", 0), c.get("requests", 0))),
        ("trace.unattributed_share", "ratio", "lower", (), False,
         _unattributed_share),
        ("trace.overhead_ratio", "ratio", "lower", (), False,
         lambda t, c: _ratio(c.get("traced_plan_s", 0.0),
                             c.get("untraced_plan_s", 0.0))),
    ]
    return table


METRICS = _metric_table()


def per_layer_metrics(trace: dict, ctx: Optional[dict] = None) -> Dict[str, dict]:
    """Every per-layer metric of a merged trace, by name.

    Counts and seconds are per plan request of the traced run
    (``ctx["requests"]``), so runs of different lengths compare.
    ``ctx`` also carries what only the load generator sees: client
    latency by daemon request id, coalesced responses, and the traced
    and untraced ``plan_s``.  A metric whose patch point no longer
    exists reads ``{"value": None, "missing": True}``, never 0.
    """
    ctx = ctx or {}
    requests = ctx.get("requests") or 1
    missing = set(trace["missing"])
    metrics = {}
    for name, unit, _better, needs, per_request, value in METRICS:
        if missing.intersection(needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
            continue
        number = value(trace, ctx)
        if per_request:
            number /= requests
        metrics[name] = {"value": number, "unit": unit}
    return metrics
