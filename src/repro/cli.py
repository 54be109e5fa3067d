"""Command-line entry points.

``repro-search`` plans one request with the function behind ``/plan``
(:func:`~repro.service.planner.plan_request`) and measures the plan;
``repro-compare`` runs all three systems and prints a comparison table;
``repro-estimate`` predicts and measures a saved plan;
``repro-elastic`` samples churn timelines and drives the elastic
controller through one; ``repro-replan`` simulates a device failure and
measures warm vs. cold time-to-new-plan; ``repro-arena`` races search
strategies under one budget; ``repro-trace`` inspects the telemetry run
logs the other tools write with ``--run-log``; ``repro-serve`` and
``repro-fleet`` run the planner service.  The one-shot tools accept
``--json`` for machine-readable output, and every run wires a fresh
:class:`~repro.telemetry.TelemetryBus` from the shared ``--quiet`` /
``--log-level`` / ``--run-log`` flags, so warnings and progress reach
the console through the same event stream that lands in the run log.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from .cluster.topology import paper_cluster
from .core.search import SearchFailedError, search_all_stage_counts
from .core.searcher import available_strategies
from .ir.models.registry import available_models, build_model
from .perfmodel.model import build_perf_model
from .telemetry import (
    LEVELS_BY_NAME,
    ConsoleSink,
    JsonlSink,
    TelemetryBus,
    chrome_trace_from_events,
    chrome_trace_from_tasks,
    render_summary,
    summarize_events,
    using_bus,
    validate_run_log,
    write_chrome_trace,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help=f"model name, e.g. {available_models()[:3]} or gpt-<N>l",
    )
    parser.add_argument(
        "--gpus", type=int, default=8, help="cluster size (default 8)"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=30,
        help="search iterations per pipeline stage count (default 30)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    _add_telemetry_flags(parser)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress telemetry console output (warnings included)",
    )
    parser.add_argument(
        "--log-level",
        choices=tuple(LEVELS_BY_NAME),
        default="warning",
        help="minimum event level echoed to stderr (default warning)",
    )
    parser.add_argument(
        "--run-log",
        default=None,
        metavar="EVENTS.jsonl",
        help="append the full telemetry event stream to this JSONL "
        "file (inspect with repro-trace)",
    )


@contextmanager
def _telemetry(args) -> Iterator[TelemetryBus]:
    """Fresh per-invocation bus wired from the common CLI flags.

    Installed as the process-global bus for the duration, so every
    subsystem the command touches emits onto it; closed (flushing the
    run log) on the way out.
    """
    bus = TelemetryBus()
    if not args.quiet:
        bus.add_sink(
            ConsoleSink(min_level=LEVELS_BY_NAME[args.log_level])
        )
    if args.run_log:
        bus.add_sink(JsonlSink(args.run_log))
    try:
        with using_bus(bus):
            yield bus
    finally:
        bus.close()


def _emit_output(args, payload: dict, lines: Sequence[str]) -> None:
    """The one output path shared by every entry point.

    ``--json`` prints the machine-readable payload; otherwise the
    pre-rendered text lines.
    """
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _parse_strategy_args(pairs: Optional[Sequence[str]]) -> dict:
    """Parse repeated ``--strategy-arg KEY=VALUE`` flags.

    Values are JSON where they parse as JSON (numbers, booleans,
    ``null``) and plain strings otherwise, so
    ``--strategy-arg cooling=0.9 --strategy-arg attach_recompute=false``
    both land with the types the options dataclasses expect.
    """
    kwargs = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--strategy-arg expects KEY=VALUE, got {pair!r}"
            )
        try:
            kwargs[key] = json.loads(raw)
        except json.JSONDecodeError:
            kwargs[key] = raw
    return kwargs


def _add_strategy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        default="greedy",
        help=f"search strategy: {', '.join(available_strategies())} "
        "(default greedy — the paper's iterative bottleneck "
        "alleviation); an unknown name fails with an ACE212 diagnostic",
    )
    parser.add_argument(
        "--strategy-arg",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="strategy option override, repeatable (e.g. "
        "--strategy-arg initial_temperature=0.5); unknown keys fail "
        "with an ACE213 diagnostic",
    )


def _format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    widths: Sequence[int],
) -> List[str]:
    """Fixed-width table: first column left-aligned, rest right."""

    def render(cells: Sequence[str]) -> str:
        parts = [f"{cells[0]:<{widths[0]}}"]
        parts.extend(
            f"{cell:>{width}}"
            for cell, width in zip(cells[1:], widths[1:])
        )
        return " ".join(parts)

    header = render(headers)
    lines = [header, "-" * len(header)]
    lines.extend(render([str(c) for c in row]) for row in rows)
    return lines


def search_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-search``."""
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Aceso configuration search (iterative bottleneck "
        "alleviation)",
    )
    _add_common(parser)
    _add_strategy_flags(parser)
    parser.add_argument(
        "--stage-counts",
        type=int,
        nargs="*",
        default=None,
        help="pipeline stage counts to search (default: powers of two)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PLAN.json",
        help="save the winning plan as a JSON deployment artifact",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes searching stage counts concurrently (default 1)",
    )
    parser.add_argument(
        "--timeout-per-count",
        type=float,
        default=None,
        metavar="SECONDS",
        help="search each stage count in a worker process, killed and "
        "retried past this wall-clock limit",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="extra attempts for a crashed/hung stage count (default 1)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="persist completed stage counts to this JSON file after "
        "each one finishes",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore completed stage counts from --checkpoint instead "
        "of re-searching them",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="anytime wall-clock cutoff: stop searching at this point "
        "and report the best plan found so far (marked partial)",
    )
    parser.add_argument(
        "--worker-memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="cap each stage-count worker's address space; a runaway "
        "search fails as an OOM instead of taking the host down",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    # The flags with no request field; zero retries means "no retries".
    for flag, value, zero_ok in (
        ("--workers", args.workers, False),
        ("--max-retries", args.max_retries, True),
        ("--timeout-per-count", args.timeout_per_count, False),
        ("--worker-memory-mb", args.worker_memory_mb, False),
    ):
        if value is not None and (value < 0 or value == 0 and not zero_ok):
            parser.error(
                f"{flag} must be {'non-negative' if zero_ok else 'positive'}"
            )
    from .analysis.metrics import tflops_per_gpu
    from .core.budget import Deadline
    from .core.checkpoint import CheckpointError
    from .lint.diagnostics import ERROR
    from .lint.requests import analyze_plan_request
    from .runtime.executor import Executor
    from .service import PlanRequest, plan_request

    try:
        request = PlanRequest(
            model=args.model, gpus=args.gpus, seed=args.seed,
            stage_counts=args.stage_counts, iterations=args.iterations,
            deadline_seconds=args.deadline, strategy=args.strategy,
            strategy_kwargs=_parse_strategy_args(args.strategy_arg),
        )
    except ValueError as exc:  # ProtocolError, or a bad --strategy-arg
        parser.error(str(exc))

    deadline = Deadline(args.deadline) if args.deadline else None
    # The daemon's admission lint: a request it would reject (ACE2xx)
    # exits 2 here instead of crashing or planning the infeasible.
    invalid = [
        d for d in analyze_plan_request(request) if d.severity == ERROR
    ]
    for diagnostic in invalid:
        print(f"repro-search: {diagnostic.render()}", file=sys.stderr)
    if invalid:
        return 2
    with _telemetry(args):
        try:
            outcome = plan_request(
                request,
                deadline=deadline,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                search_workers=args.workers,
                timeout_per_count=args.timeout_per_count,
                worker_memory_mb=args.worker_memory_mb,
                max_retries=args.max_retries,
            )
        except (CheckpointError, SearchFailedError) as exc:
            print(f"repro-search: {exc}", file=sys.stderr)
            return 1
        multi = outcome.search
        best = multi.best
        graph = build_model(args.model)
        cluster = paper_cluster(args.gpus)
        run = Executor(graph, cluster, seed=args.seed).run(best.best_config)
    throughput = run.throughput(graph.global_batch_size)
    payload = {
        "model": args.model,
        "gpus": args.gpus,
        "strategy": args.strategy,
        "predicted_iteration_time": best.best_objective,
        "actual_iteration_time": run.iteration_time,
        "throughput_samples_per_s": throughput,
        "tflops_per_gpu": tflops_per_gpu(graph, throughput, args.gpus),
        "search_seconds_parallel": multi.parallel_seconds,
        "search_seconds_wall": multi.wall_seconds,
        "search_workers": multi.workers,
        "pool_forks": multi.pool_forks,
        "pool_tasks": multi.pool_tasks,
        "estimates": multi.num_estimates,
        "partial": multi.partial,
        "failures": outcome.failures,
        "config": best.best_config.describe(),
    }
    if args.output:
        from .parallel.serialization import save_config

        save_config(best.best_config, args.output)
        payload["plan_file"] = args.output
    lines = [
        f"model: {payload['model']}  cluster: {cluster.describe()}  "
        f"strategy: {args.strategy}",
        f"predicted {payload['predicted_iteration_time']:.3f}s / "
        f"measured {payload['actual_iteration_time']:.3f}s per iteration",
        f"throughput {throughput:.2f} samples/s "
        f"({payload['tflops_per_gpu']:.1f} TFLOPS/GPU)",
        f"search cost {multi.parallel_seconds:.1f}s "
        f"({multi.num_estimates} configurations estimated)",
        payload["config"],
    ]
    if multi.pool_forks:
        lines.insert(
            4,
            f"worker pool: {multi.pool_tasks} task(s) across "
            f"{multi.pool_forks} forked process(es)",
        )
    if multi.partial:
        lines.insert(
            1,
            "PARTIAL: the deadline expired before the search finished; "
            "this is the best plan found so far",
        )
    _emit_output(args, payload, lines)
    return 0


def compare_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-compare``."""
    parser = argparse.ArgumentParser(
        prog="repro-compare",
        description="Compare Megatron-LM / Alpa / Aceso on one setting",
    )
    _add_common(parser)
    args = parser.parse_args(argv)

    from .analysis.compare import compare_systems

    with _telemetry(args):
        result = compare_systems(
            args.model,
            args.gpus,
            aceso_iterations=args.iterations,
            seed=args.seed,
        )
    payload = {
        name: {
            "throughput": o.throughput,
            "tflops_per_gpu": o.tflops,
            "search_seconds": o.search_seconds,
            "oom": o.oom,
            "failed": o.failed,
        }
        for name, o in result.outcomes.items()
    }
    rows = []
    for name, outcome in result.outcomes.items():
        if outcome.failed:
            rows.append([name, "FAILED", "-", "-"])
        else:
            rows.append([
                name,
                f"{outcome.throughput:.2f}",
                f"{outcome.tflops:.1f}",
                f"{outcome.search_seconds:.1f}s",
            ])
    lines = [f"{args.model} on {args.gpus} GPUs"]
    lines.extend(_format_table(
        ["system", "samples/s", "TFLOPS", "search"],
        rows,
        [10, 10, 8, 10],
    ))
    _emit_output(args, payload, lines)
    return 0


def estimate_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-estimate``: predict + measure a saved plan."""
    parser = argparse.ArgumentParser(
        prog="repro-estimate",
        description="Evaluate a saved plan (from repro-search --output) "
        "with the performance model and the ground-truth executor",
    )
    _add_common(parser)
    parser.add_argument(
        "plan", help="path to a plan JSON written by repro-search --output"
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE.churn.json",
        help="inject the deployment faults of a churn timeline "
        "(see repro-elastic gen)",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="TRACE.json",
        help="export the measured 1F1B task timeline as a Chrome "
        "trace (open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)

    from .lint.diagnostics import ArtifactError
    from .parallel.serialization import load_config
    from .parallel.validation import validate_config
    from .runtime.executor import Executor

    graph = build_model(args.model)
    cluster = paper_cluster(args.gpus)
    try:
        config = load_config(args.plan)
    except ArtifactError as exc:
        print(
            f"repro-estimate: cannot load plan {args.plan}: {exc}",
            file=sys.stderr,
        )
        return 1
    validate_config(config, graph, cluster)
    fault_plan = None
    if args.fault_plan:
        from .elastic.timeline import ChurnTimeline
        from .faults.plan import FaultPlan

        try:
            timeline = ChurnTimeline.load(args.fault_plan)
        except ArtifactError as exc:
            print(
                f"repro-estimate: cannot load fault plan "
                f"{args.fault_plan}: {exc}",
                file=sys.stderr,
            )
            return 1
        fault_plan = FaultPlan.from_timeline(timeline, cluster)
    with _telemetry(args):
        perf_model = build_perf_model(graph, cluster, seed=args.seed)
        report = perf_model.estimate(config)
        run = Executor(graph, cluster, seed=args.seed).run(
            config,
            fault_plan=fault_plan,
            record_trace=True if args.chrome_trace else None,
        )
    payload = {
        "model": args.model,
        "gpus": args.gpus,
        "plan": args.plan,
        "predicted_iteration_time": report.iteration_time,
        "actual_iteration_time": run.iteration_time,
        "predicted_peak_memory_gb": [
            m / 2**30 for m in report.peak_memories
        ],
        "actual_peak_memory_gb": [
            m / 2**30 for m in run.stage_peak_memory
        ],
        "predicted_oom": report.is_oom,
        "actual_oom": run.oom,
        "throughput_samples_per_s": run.throughput(
            graph.global_batch_size
        ),
    }
    if fault_plan is not None:
        payload.update(
            {
                "fault_plan": args.fault_plan,
                "completed": run.completed,
                "degraded": run.degraded,
                "failure_time": run.failure_time,
                "failed_device": run.failed_device,
                "tasks_completed": run.tasks_completed,
                "tasks_total": run.tasks_total,
            }
        )
    if args.chrome_trace:
        write_chrome_trace(
            chrome_trace_from_tasks(run.tasks), args.chrome_trace
        )
        payload["chrome_trace"] = args.chrome_trace
    status = "OOM" if run.oom else "fits"
    lines = [
        config.describe(),
        f"predicted {report.iteration_time:.3f}s / measured "
        f"{run.iteration_time:.3f}s per iteration",
        "memory per stage (predicted/actual GB): "
        + ", ".join(
            f"{p:.1f}/{a:.1f}"
            for p, a in zip(
                payload["predicted_peak_memory_gb"],
                payload["actual_peak_memory_gb"],
            )
        ),
        f"deployment: {status}, "
        f"{payload['throughput_samples_per_s']:.2f} samples/s",
    ]
    if fault_plan is not None:
        if not run.completed:
            lines.append(
                f"FAULT: device {run.failed_device} failed at "
                f"t={run.failure_time:.3f}s — "
                f"{run.tasks_completed}/{run.tasks_total} tasks done"
            )
        elif run.degraded:
            lines.append(
                "FAULT: iteration completed under degraded "
                "conditions (stragglers/links)"
            )
    if args.chrome_trace:
        lines.append(
            f"task timeline written to {args.chrome_trace} "
            f"({len(run.tasks)} tasks)"
        )
    _emit_output(args, payload, lines)
    return 0 if not run.oom and run.completed else 1


def _run_controller(graph, cluster, timeline, seed, iterations):
    """Drive the elastic controller through ``timeline`` (shared by
    ``repro-elastic run`` and ``repro-replan --churn-timeline``)."""
    from .elastic import ControllerPolicy, ElasticController

    controller = ElasticController(
        graph,
        cluster,
        seed=seed,
        policy=ControllerPolicy(replan_iterations=iterations),
    )
    return controller.run(timeline)


def _controller_lines(args, run) -> List[str]:
    """Human rendering of one controller run's decision record."""
    rows = []
    for d in run.decisions:
        events = ",".join(e["kind"] for e in d.events)
        rows.append([
            f"{d.time:.1f}s",
            events[:28],
            d.action,
            d.reason,
            str(d.cluster_gpus),
            f"{d.estimated_loss:.1%}",
            f"{d.throughput:.0f}",
            "yes" if d.feasible else "NO",
        ])
    lines = [
        f"{args.model}: {len(run.decisions)} decisions, "
        f"{run.num_replans} replans, seed {run.seed}",
    ]
    lines.extend(_format_table(
        ["t", "events", "action", "reason", "gpus", "loss",
         "samples/s", "feasible"],
        rows,
        [7, 28, 9, 16, 5, 7, 10, 9],
    ))
    lines.append(
        f"final plan {run.final_config.signature()[:12]} "
        f"({'feasible' if run.final_feasible else 'infeasible'})"
    )
    return lines


def elastic_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-elastic``: churn + continuous rebalancing.

    ``gen`` samples a seeded churn timeline to a ``*.churn.json`` file;
    ``run`` drives the elastic controller through a timeline (a saved
    one, or one sampled from ``--seed``) and reports every decision.
    """
    parser = argparse.ArgumentParser(
        prog="repro-elastic",
        description="Seeded cluster churn and the elastic "
        "rebalancing controller",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "gen", help="sample a seeded churn timeline to a file"
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--nodes", type=int, default=4)
    p_gen.add_argument("--gpus-per-node", type=int, default=2)
    p_gen.add_argument("--events", type=int, default=8)
    p_gen.add_argument("--horizon", type=float, default=60.0)
    p_gen.add_argument(
        "--output",
        default=None,
        metavar="FILE.churn.json",
        help="write the timeline here (default stdout)",
    )

    p_run = sub.add_parser(
        "run", help="drive the controller through a churn timeline"
    )
    p_run.add_argument(
        "--model", default="gpt-4l",
        help="model name (default gpt-4l)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--nodes", type=int, default=4)
    p_run.add_argument("--gpus-per-node", type=int, default=2)
    p_run.add_argument(
        "--mixed",
        action="store_true",
        help="heterogeneous cluster: upgrade the upper half of the "
        "nodes to A100s",
    )
    p_run.add_argument("--events", type=int, default=8)
    p_run.add_argument("--horizon", type=float, default=60.0)
    p_run.add_argument(
        "--timeline",
        default=None,
        metavar="FILE.churn.json",
        help="replay this saved timeline instead of sampling one",
    )
    p_run.add_argument(
        "--iterations",
        type=int,
        default=6,
        help="search iterations per replan (default 6)",
    )
    p_run.add_argument(
        "--output",
        default=None,
        metavar="RUN.json",
        help="also write the full decision record here",
    )
    p_run.add_argument(
        "--json", action="store_true",
        help="emit JSON instead of text",
    )
    _add_telemetry_flags(p_run)
    args = parser.parse_args(argv)

    if args.nodes < 1 or args.gpus_per_node < 1:
        parser.error("cluster dimensions must be positive")
    if args.events < 0:
        parser.error("--events must be non-negative")
    if args.horizon <= 0:
        parser.error("--horizon must be positive")

    from .elastic import ChurnTimeline, random_churn_timeline

    if args.command != "gen" and args.timeline:
        try:
            timeline = ChurnTimeline.load(args.timeline)
        except ValueError as exc:
            print(
                f"repro-elastic: cannot load {args.timeline}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        timeline = random_churn_timeline(
            args.nodes,
            args.gpus_per_node,
            seed=args.seed,
            num_events=args.events,
            horizon_seconds=args.horizon,
        )
    if args.command == "gen":
        if args.output:
            timeline.save(args.output)
            print(
                f"repro-elastic: wrote {len(timeline.events)} events "
                f"to {args.output}"
            )
        else:
            print(json.dumps(timeline.to_dict(), indent=2))
        return 0
    if args.mixed:
        from .cluster import a100, mixed_cluster, v100

        half = args.nodes // 2
        cluster = mixed_cluster(
            [v100()] * (args.nodes - half) + [a100()] * half,
            gpus_per_node=args.gpus_per_node,
        )
    else:
        from .cluster import ClusterSpec

        cluster = ClusterSpec(
            num_nodes=args.nodes, gpus_per_node=args.gpus_per_node
        )
    graph = build_model(args.model)
    with _telemetry(args):
        run = _run_controller(
            graph, cluster, timeline, args.seed, args.iterations
        )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(run.to_dict(), indent=2)
        )
    _emit_output(args, run.to_dict(), _controller_lines(args, run))
    return 0


def replan_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-replan``: device loss → time-to-new-plan."""
    parser = argparse.ArgumentParser(
        prog="repro-replan",
        description="Simulate a device failure mid-training, shrink the "
        "cluster, and compare warm-start vs. cold-restart re-planning",
    )
    _add_common(parser)
    parser.add_argument(
        "--fail-device",
        type=int,
        default=0,
        help="device lost mid-training (default 0)",
    )
    parser.add_argument(
        "--fail-time",
        type=float,
        default=1.0,
        help="failure time in seconds into the iteration (default 1.0)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=5,
        help="surviving configurations to warm-start from (default 5)",
    )
    parser.add_argument(
        "--churn-timeline",
        default=None,
        metavar="FILE.churn.json",
        help="replay a saved churn timeline through the elastic "
        "controller instead of the single-failure comparison",
    )
    args = parser.parse_args(argv)

    from .elastic import (
        ChurnEvent,
        ChurnTimeline,
        ControllerPolicy,
        ElasticController,
    )

    if args.churn_timeline:
        try:
            timeline = ChurnTimeline.load(args.churn_timeline)
        except ValueError as exc:
            print(
                f"repro-replan: cannot load churn timeline "
                f"{args.churn_timeline}: {exc}",
                file=sys.stderr,
            )
            return 2
        cluster = paper_cluster(args.gpus)
        graph = build_model(args.model)
        with _telemetry(args):
            run = _run_controller(
                graph, cluster, timeline, args.seed, args.iterations
            )
        _emit_output(args, run.to_dict(), _controller_lines(args, run))
        return 0

    if not 0 <= args.fail_device < args.gpus:
        parser.error(
            f"--fail-device {args.fail_device} is outside the "
            f"{args.gpus}-GPU cluster"
        )
    import time

    from .faults import FaultPlan, shrink_cluster_checked
    from .runtime.executor import Executor
    from .telemetry import CallbackSink
    from .telemetry.events import PERFMODEL_FIRST_FEASIBLE

    graph = build_model(args.model)
    cluster = paper_cluster(args.gpus)
    perf_model = build_perf_model(graph, cluster, seed=args.seed)
    budget = {"max_iterations": args.iterations}
    timeline = ChurnTimeline(seed=args.seed, events=(
        ChurnEvent(args.fail_time, "device_fail", device_id=args.fail_device),
    ))
    with _telemetry(args) as bus:
        initial = search_all_stage_counts(
            graph, cluster, perf_model, budget_per_count=budget
        )
        run = Executor(graph, cluster, seed=args.seed).run(
            initial.best.best_config,
            fault_plan=FaultPlan.from_timeline(timeline, cluster),
        )
        # Warm: the controller's replan from the adapted survivors.  Its
        # fresh model reports its first feasible estimate on the bus.
        warm_feasible_at = []
        with bus.sink(CallbackSink(
            lambda event: warm_feasible_at.append(event.attrs["estimates"]),
            names=[PERFMODEL_FIRST_FEASIBLE],
        )):
            (warm,) = ElasticController(
                graph,
                cluster,
                seed=args.seed,
                policy=ControllerPolicy(
                    replan_iterations=args.iterations, measure=False
                ),
                initial_survivors=initial.top_configs(args.top_k),
            ).run(timeline).decisions
        # Cold: the full stage-count driver on the surviving cluster.
        started = time.monotonic()
        shrunk = shrink_cluster_checked(cluster, [args.fail_device])[0]
        cold_model = build_perf_model(graph, shrunk, seed=args.seed)
        cold = search_all_stage_counts(
            graph, shrunk, cold_model, budget_per_count=budget
        ).best
        cold_seconds = time.monotonic() - started

    strategies = {
        "warm": {
            "best_objective": warm.objective_after,
            "feasible": warm.feasible,
            "num_estimates": warm.num_estimates,
            "estimates_to_feasible": (
                warm_feasible_at[0] if warm_feasible_at else None
            ),
            "wall_seconds": warm.replan_seconds,
        },
        "cold": {
            "best_objective": cold.best_objective,
            "feasible": cold.is_feasible,
            "num_estimates": cold_model.num_estimates,
            "estimates_to_feasible": cold_model.first_feasible_estimate,
            "wall_seconds": cold_seconds,
        },
    }
    savings = (
        1.0 - warm.num_estimates / cold_model.num_estimates
        if cold_model.num_estimates > 0
        else 0.0
    )
    payload = {
        "model": args.model,
        "gpus": args.gpus,
        "surviving_gpus": shrunk.num_gpus,
        "failed_device": args.fail_device,
        "failure_time": run.failure_time,
        "tasks_completed": run.tasks_completed,
        "tasks_total": run.tasks_total,
        "strategies": strategies,
        "estimate_savings": savings,
    }
    if run.completed:
        # The measured iteration finished before the failure hit; the
        # device is still gone for every iteration after it.
        interruption = (
            f"device {args.fail_device} lost at t={args.fail_time:.3f}s"
        )
    else:
        interruption = (
            f"device {args.fail_device} lost at t={run.failure_time:.3f}s "
            f"({run.tasks_completed}/{run.tasks_total} tasks done)"
        )
    rows = [
        [
            name,
            f"{outcome['best_objective']:.6f}",
            str(outcome["num_estimates"]),
            str(outcome["estimates_to_feasible"] or "-"),
            f"{outcome['wall_seconds']:.2f}s",
        ]
        for name, outcome in strategies.items()
    ]
    lines = [
        f"{args.model}: {interruption}; "
        f"cluster {cluster.num_gpus} -> {shrunk.num_gpus} GPUs",
    ]
    lines.extend(_format_table(
        ["strategy", "objective", "estimates", "to-feasible", "wall"],
        rows,
        [8, 12, 10, 12, 8],
    ))
    lines.append(
        f"warm start avoided {savings:.0%} of the cold-restart estimates"
    )
    _emit_output(args, payload, lines)
    return 0


def arena_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-arena``: race strategies under one budget.

    Every entry (strategy × seed) searches the same model/cluster/stage
    count from the same initial configuration against a fresh
    performance model, under the same budget and per-entry deadline;
    the report is a ``BENCH_strategies.json``-shaped tournament record.
    """
    parser = argparse.ArgumentParser(
        prog="repro-arena",
        description="Tournament harness: race search strategies under "
        "equal budget and deadline on one setting",
    )
    parser.add_argument(
        "--model",
        required=True,
        help=f"model name, e.g. {available_models()[:3]} or gpt-<N>l",
    )
    parser.add_argument(
        "--gpus", type=int, default=8, help="cluster size (default 8)"
    )
    parser.add_argument(
        "--stage-count",
        type=int,
        default=4,
        help="pipeline stage count every entry searches (default 4)",
    )
    parser.add_argument(
        "--strategies",
        nargs="+",
        default=None,
        metavar="NAME",
        choices=available_strategies(),
        help="strategies to race (default: all registered)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        help="one tournament lane per strategy x seed (default 0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="profile-database seed shared by every lane (default 0)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=30,
        help="iteration budget per entry (default 30)",
    )
    parser.add_argument(
        "--max-estimates",
        type=int,
        default=None,
        metavar="N",
        help="race on an equal estimate budget instead of iterations "
        "(the fair cross-strategy comparison)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-entry wall-clock deadline (anytime: partial results "
        "still report)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes racing entries concurrently (default 1)",
    )
    parser.add_argument(
        "--label", default="", help="free-form tournament label"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="BENCH.json",
        help="write the full tournament record here (atomic)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    _add_telemetry_flags(parser)
    args = parser.parse_args(argv)
    if args.stage_count < 1:
        parser.error("--stage-count must be positive")
    if args.max_estimates is not None and args.max_estimates < 1:
        parser.error("--max-estimates must be positive")

    from .arena import ArenaEntry, run_tournament

    strategies = args.strategies or available_strategies()
    entries = [
        ArenaEntry(strategy=strategy, seed=seed)
        for strategy in strategies
        for seed in args.seeds
    ]
    budget = (
        {"max_estimates": args.max_estimates}
        if args.max_estimates is not None
        else {"max_iterations": args.iterations}
    )
    label = args.label or (
        f"{args.model}/gpus={args.gpus}/stages={args.stage_count}"
    )
    graph = build_model(args.model)
    cluster = paper_cluster(args.gpus)
    perf_model = build_perf_model(graph, cluster, seed=args.seed)
    with _telemetry(args):
        result = run_tournament(
            graph,
            cluster,
            perf_model.database,
            entries=entries,
            stage_count=args.stage_count,
            budget_per_entry=budget,
            deadline_seconds=args.deadline,
            workers=args.workers,
            label=label,
        )
    if args.output:
        result.write_json(args.output)
    payload = result.to_json()
    if args.output:
        payload["output"] = args.output
    rows = []
    for outcome in result.outcomes:
        if outcome.failed:
            rows.append([
                f"{outcome.strategy}#{outcome.seed}",
                "FAILED", "-", "-", "-", "-",
            ])
            continue
        rows.append([
            f"{outcome.strategy}#{outcome.seed}",
            f"{outcome.best_objective:.6f}",
            "yes" if outcome.feasible else "NO",
            str(outcome.num_estimates),
            str(outcome.estimates_to_best),
            str(outcome.iterations),
        ])
    lines = [
        f"{label}: {len(result.outcomes)} entries, "
        f"budget {result.budget}",
    ]
    lines.extend(_format_table(
        ["entry", "objective", "feasible", "estimates", "to-best",
         "iters"],
        rows,
        [14, 12, 8, 10, 8, 6],
    ))
    winner = result.winner
    if winner is not None:
        lines.append(
            f"winner: {winner.strategy}#{winner.seed} "
            f"({winner.best_objective:.6f}, "
            f"{winner.estimates_to_best} estimates to best)"
        )
    else:
        lines.append("winner: none (every entry failed)")
    if args.output:
        lines.append(f"tournament record written to {args.output}")
    _emit_output(args, payload, lines)
    return 0 if winner is not None else 1


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-trace``: inspect telemetry run logs."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize, validate, or convert a JSONL telemetry "
        "run log written by the other tools' --run-log flag",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_summary = sub.add_parser(
        "summary", help="aggregate statistics from a run log"
    )
    p_summary.add_argument("run_log", help="path to an EVENTS.jsonl file")
    p_summary.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    p_validate = sub.add_parser(
        "validate", help="schema-check every line of a run log"
    )
    p_validate.add_argument("run_log", help="path to an EVENTS.jsonl file")
    p_chrome = sub.add_parser(
        "chrome",
        help="convert runtime.task events to a Chrome trace "
        "(chrome://tracing / Perfetto)",
    )
    p_chrome.add_argument("run_log", help="path to an EVENTS.jsonl file")
    p_chrome.add_argument(
        "--output", "-o", required=True, metavar="TRACE.json"
    )
    args = parser.parse_args(argv)

    try:
        events = validate_run_log(args.run_log)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: {args.run_log}: {exc}", file=sys.stderr)
        return 1
    if args.command == "summary":
        summary = summarize_events(events)
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            for line in render_summary(summary):
                print(line)
    elif args.command == "validate":
        print(f"{args.run_log}: {len(events)} events, schema OK")
    else:
        trace = chrome_trace_from_events(events)
        write_chrome_trace(trace, args.output)
        print(
            f"wrote {args.output} "
            f"({len(trace['traceEvents'])} trace events)"
        )
    return 0


def _serve(
    argv: Optional[List[str]], *, prog: str, replicas: int, port: int
) -> int:
    """The one launcher behind ``repro-serve`` and ``repro-fleet``: boot
    N in-process planner replicas, shard them behind a
    :class:`FleetRouter`, and serve the JSON plan protocol on one port
    until SIGTERM/SIGINT.

    Then every replica drains for at most ``--drain-timeout`` seconds:
    it sheds its queue with ``retry_after`` and cancels in-flight
    deadlines, so searches checkpoint at the next iteration boundary.
    A restart on the same ``--state-dir`` (one ``replica-<i>/`` per
    replica, nothing else) re-admits the journaled requests and resumes
    their completed stage counts.
    """
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Anytime planner service: admission-controlled, "
        "self-healing planner replicas over the Aceso search, sharded "
        "by consistent hashing with failover and hedged requests",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=port,
        help=f"TCP port (0 picks a free one; default {port})",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=replicas,
        help=f"planner replicas behind the router (default {replicas})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="planner worker threads per replica (default 2)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="per-replica queued requests before 429 rejection "
        "(default 8)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="persist plans, checkpoints, and request journals here, "
        "one replica-<i>/ directory per replica (enables crash/drain "
        "recovery)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive failures before a config's breaker opens "
        "(default 3)",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="open-breaker cool-down before a half-open probe "
        "(default 30)",
    )
    parser.add_argument(
        "--search-workers",
        type=int,
        default=1,
        help="stage-count subprocesses per request (default 1)",
    )
    parser.add_argument(
        "--timeout-per-count",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any stage-count worker exceeding this",
    )
    parser.add_argument(
        "--worker-memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="address-space cap per stage-count worker",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max wait for each replica's in-flight searches to "
        "checkpoint on SIGTERM (default 30)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=128,
        help="virtual nodes per replica on the hash ring (default 128)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="transport retries per replica before failover (default 1)",
    )
    parser.add_argument(
        "--hedge-factor",
        type=float,
        default=1.5,
        help="hedge a request once its replica exceeds p99 × this "
        "(default 1.5)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the deterministic retry jitter (default 0)",
    )
    _add_telemetry_flags(parser)
    args = parser.parse_args(argv)
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.worker_memory_mb is not None and args.worker_memory_mb <= 0:
        parser.error("--worker-memory-mb must be positive")

    import signal
    import threading
    from pathlib import Path

    from .service.fleet import FleetConfig, FleetRouter, InProcessReplica
    from .service.httpd import serve

    state_root = Path(args.state_dir) if args.state_dir else None
    config = FleetConfig(
        vnodes=args.vnodes,
        retries=args.retries,
        hedge_factor=args.hedge_factor,
        seed=args.seed,
    )
    with _telemetry(args):
        fleet = {}
        for index in range(args.replicas):
            name = f"replica-{index}"
            fleet[name] = InProcessReplica(
                name,
                state_dir=state_root / name if state_root else None,
                daemon_kwargs={
                    "workers": args.workers,
                    "queue_limit": args.queue_limit,
                    "breaker_threshold": args.breaker_threshold,
                    "breaker_reset_seconds": args.breaker_reset,
                    "search_workers": args.search_workers,
                    "timeout_per_count": args.timeout_per_count,
                    "worker_memory_mb": args.worker_memory_mb,
                },
            ).start()
        router = FleetRouter(fleet, config=config).start()
        server = serve(router, host=args.host, port=args.port)

        def _handle_signal(signum, _frame):
            # serve_forever runs in this (main) thread; shutdown() must
            # come from another one or it deadlocks on its own loop.
            threading.Thread(
                target=server.shutdown, daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle_signal)
        signal.signal(signal.SIGINT, _handle_signal)
        host, bound = server.server_address[:2]
        print(
            f"{prog}: {args.replicas} replica(s) listening on "
            f"http://{host}:{bound}",
            flush=True,
        )
        try:
            server.serve_forever(poll_interval=0.2)
        finally:
            router.stop(drain_timeout=args.drain_timeout)
            server.server_close()
    return 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-serve``: the planner service, a fleet of
    one replica on port 8347 by default (``--replicas N`` for more)."""
    return _serve(argv, prog="repro-serve", replicas=1, port=8347)


def fleet_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-fleet``: the same service with two
    replicas on port 8348 by default."""
    return _serve(argv, prog="repro-fleet", replicas=2, port=8348)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(search_main())
