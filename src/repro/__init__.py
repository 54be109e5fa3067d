"""repro — a full reproduction of *Aceso: Efficient Parallel DNN
Training through Iterative Bottleneck Alleviation* (EuroSys 2024).

Quickstart::

    from repro import build_model, paper_cluster, build_perf_model
    from repro import search_all_stage_counts, Executor

    graph = build_model("gpt3-1.3b")
    cluster = paper_cluster(4)
    perf_model = build_perf_model(graph, cluster)
    search = search_all_stage_counts(
        graph, cluster, perf_model,
        budget_per_count={"max_iterations": 25},
    )
    best = search.best.best_config
    measured = Executor(graph, cluster).run(best)
    print(best.describe(), measured.iteration_time)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.ir` — model IR + GPT-3 / T5 / Wide-ResNet builders
- :mod:`repro.cluster` — device/topology/collective hardware model
- :mod:`repro.profiling` — profile database + simulated profiler
- :mod:`repro.parallel` — configuration representation + validation
- :mod:`repro.perfmodel` — the §3.3 performance model
- :mod:`repro.core` — the Aceso search (primitives, heuristics,
  multi-hop, fine-tuning)
- :mod:`repro.baselines` — Megatron-LM grid / Alpa-style / DP / random
- :mod:`repro.runtime` — ground-truth 1F1B executor
- :mod:`repro.numrt` — numpy training runtime (semantics checks)
- :mod:`repro.faults` — deterministic fault injection
- :mod:`repro.analysis` — metrics + cross-system comparison
"""

from .exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analysis.compare": ("ComparisonResult", "compare_systems"),
    "analysis.metrics": ("tflops_per_gpu",),
    "cluster.device": ("DeviceSpec",),
    "cluster.topology": ("ClusterSpec", "paper_cluster", "single_node"),
    "core.budget": ("SearchBudget",),
    "core.search": (
        "AcesoSearch", "AcesoSearchOptions", "SearchFailedError",
        "SearchResult", "search_all_stage_counts",
    ),
    "faults.inject": ("shrink_cluster",),
    "faults.plan": ("FaultPlan",),
    "ir.graph": ("OpGraph",),
    "ir.models.registry": ("available_models", "build_model"),
    "ir.ops": ("OpSpec",),
    "parallel.config": ("ParallelConfig",),
    "parallel.initializer": ("balanced_config",),
    "parallel.stage": ("StageConfig",),
    "parallel.validation": ("ConfigError", "validate_config"),
    "perfmodel.model": ("PerfModel", "build_perf_model"),
    "perfmodel.report": ("PerfReport",),
    "profiling.database": ("ProfileDatabase",),
    "profiling.profiler": ("SimulatedProfiler",),
    "runtime.executor": ("ExecutionResult", "Executor"),
})
