"""One search repeat in a fresh process (spawned by run.py).

Imports the planner, runs one untimed ``gpt-4l`` warm-up request,
prints ``{"ready": <monotonic time>, "setup_speed": ...}``, then runs
the measured ``plan_request`` and prints its result as a second JSON
line.  A speed probe (speed.py) samples the CPU from the first line of
``main`` on, in this process and in every pool worker it forks; the
workers write their samples to ``--probe-dir``.  Times are printed both
as measured (``*_wall_s``, ``*_raw_s``) and rescaled to reference speed.
With ``--trace-dir`` the layers are patched first and this process (and
any pool worker it forks) dumps its trace there.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys

import speed


def _cpu_seconds() -> float:
    """CPU of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _probe_pool_workers(probe: speed.SpeedProbe, probe_dir: str) -> None:
    """Make every forked pool worker sample its own CPU into ``probe_dir``."""
    from repro.core import pool

    original = pool._pool_worker_main

    @functools.wraps(original)
    def probed(*args, **kwargs):
        probe.start()
        try:
            return original(*args, **kwargs)
        finally:
            probe.stop()
            probe.dump(probe_dir)

    pool._pool_worker_main = probed


def main(argv=None) -> int:
    probe = speed.SpeedProbe().start()
    started = speed.clock()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--request", required=True,
                        help="PlanRequest as JSON")
    parser.add_argument("--search-workers", type=int, default=1)
    parser.add_argument("--probe-dir", required=True,
                        help="where pool workers write speed samples")
    parser.add_argument("--rid", default=None,
                        help="request id for trace spans")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, args.trace_dir)
    # Imported after patching, so this module binds the wrappers too.
    from repro.service import PlanRequest, plan_digest, plan_request

    _probe_pool_workers(probe, args.probe_dir)
    # One iteration per stage count reaches every layer of the search
    # (and its lazy imports) in 0.1 s; ten would search for 4 s.
    plan_request(PlanRequest(model="gpt-4l", gpus=8, iterations=1))
    if tracer is not None:
        tracer.reset()
        tracer.request_id = args.rid
    ready = speed.clock()
    print(json.dumps({
        "ready": ready,
        "setup_speed": speed.speed(probe.samples, started, ready),
    }), flush=True)

    request = PlanRequest.from_json(json.loads(args.request))
    cpu = _cpu_seconds()
    start = speed.clock()
    try:
        if tracer is None:
            outcome = plan_request(
                request, search_workers=args.search_workers)
        else:
            outcome = tracer.call(
                "root", plan_request, request,
                search_workers=args.search_workers)
    except Exception as exc:  # noqa: BLE001 - reported to the benchmark
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              flush=True)
        return 1
    end = speed.clock()
    cpu = _cpu_seconds() - cpu
    probe.stop()
    if tracer is not None:
        tracer.dump(args.trace_dir)
    samples = sorted(probe.samples + speed.load(args.probe_dir))
    print(json.dumps({
        "plan_s": speed.rescale(end - start, samples, start, end),
        "plan_wall_s": end - start,
        "cpu_s": speed.rescale(cpu, samples, start, end),
        "cpu_raw_s": cpu,
        "rss_mb": _peak_rss_mb(),
        "digest": plan_digest(outcome.plan),
        "objective": outcome.objective,
        "partial": outcome.partial,
        "failures": len(outcome.failures),
        "estimates": outcome.num_estimates,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
