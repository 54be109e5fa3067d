#!/usr/bin/env python3
"""End-to-end plan-request benchmark with per-layer attribution.

Suite (all four workloads; tables on stdout, results JSON with --out):

    python benchmarks/e2e/run.py [--seed N] [--sets N] [--trace] [--out F]

One workload for a fixed time; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in BENCHMARK.json:

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Plans go through the public path only: ``repro.service.plan_request``
in a fresh child process per search repeat (child.py), and a real
``repro-serve`` daemon over HTTP (serve_host.py) for serve-mixed.
Every plan is checked against reference.json.  The tracer wraps the
program's layers from outside (tracer.py, layers.py) and only in traced
runs; end-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

clock = time.monotonic

#: The search workloads: one ``plan_request`` per child process.
#: ``shuffle`` lets the seed order the stage counts in the request; the
#: pool keeps the default order because its makespan depends on dispatch
#: order (3.7 s to 6.4 s across four orders of the same request).
SEARCH = {
    "search-350m": {"model": "gpt3-350m", "search_workers": 1,
                    "shuffle": True},
    "search-350m-pool": {"model": "gpt3-350m", "search_workers": 2,
                         "shuffle": False},
    "search-1000l": {"model": "gpt-1000l", "search_workers": 1,
                     "shuffle": True},
}
SERVE = "serve-mixed"
WORKLOADS = list(SEARCH) + [SERVE]

SEARCH_GPUS = 8
STAGE_COUNTS = (1, 2, 4, 8)
SEARCH_ITERATIONS = 10
#: Search repeats per workload in one suite set (round-robin).
SUITE_REPEATS = 5

SERVE_MODELS = ("gpt-8l", "gpt-16l", "gpt-24l", "gpt-32l", "gpt3-350m",
                "t5-770m", "wresnet-500m")
SERVE_SEEDS = (0, 1, 2)
SERVE_GPUS = 4
SERVE_ITERATIONS = 3
#: /plan requests between two ``POST /invalidate {}``.
EPOCH = 60
#: 240 requests: the smallest stream whose p95 has ten samples beyond it.
MIN_EPOCHS = 4
#: Daemon boots per serve run (setup_s is their median).
SERVE_BOOTS = 3
CLIENTS = 2
#: Planner threads of the daemon.  Two concurrent searches record each
#: other's stage counts into their checkpoints (each checkpoint sink
#: listens on the process-global bus), and a checkpoint that outlives
#: its search makes the next cold search of that fingerprint resume
#: another request's plan: 3 of 240 responses differed from the
#: reference in one of four runs with two workers.  One worker keeps
#: every response correct; the GIL serialises the searches either way.
DAEMON_WORKERS = 1

#: Seconds before a child or daemon is declared hung and killed.
PROCESS_TIMEOUT = 170.0

#: ``(name, unit)`` of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("plan_cpu_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def nearest_rank(values: List[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (an observed value)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_percentile(n: int, min_beyond: int = 10,
                    ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest percentile of ``ladder`` with ``min_beyond`` samples
    above it among ``n`` (nearest rank), or None."""
    for percentile in ladder:
        if n - math.ceil(percentile / 100.0 * n) >= min_beyond:
            return percentile
    return None


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _search_request(name: str, counts) -> dict:
    return {
        "model": SEARCH[name]["model"],
        "gpus": SEARCH_GPUS,
        "stage_counts": list(counts),
        "iterations": SEARCH_ITERATIONS,
        "seed": 0,
    }


def _stage_orders(name: str, seed: int):
    """Stage-count order of each repeat: drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    while True:
        if SEARCH[name]["shuffle"]:
            yield rng.sample(STAGE_COUNTS, len(STAGE_COUNTS))
        else:
            yield list(STAGE_COUNTS)


def search_repeat(name: str, counts, rid: str, work: Path,
                  trace_dir: Optional[Path] = None) -> dict:
    """One ``plan_request`` in a fresh child: setup and plan timings."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--request", json.dumps(_search_request(name, counts)),
        "--search-workers", str(SEARCH[name]["search_workers"]),
        "--probe-dir", tempfile.mkdtemp(prefix="probe-", dir=work),
        "--rid", rid,
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    spawned = clock()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True,
            text=True, timeout=PROCESS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{name}: child timed out", "counts": list(counts)}
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2 or "error" in lines[-1]:
        detail = (lines[-1].get("error") if lines else None) or \
            proc.stderr.strip().splitlines()[-1:]
        return {"error": f"{name}: child failed: {detail}",
                "counts": list(counts)}
    result = dict(lines[-1])
    result["setup_wall_s"] = lines[0]["ready"] - spawned
    result["setup_s"] = result["setup_wall_s"] * lines[0]["setup_speed"]
    result["counts"] = list(counts)
    return result


def check_search(name: str, repeat: dict, reference: dict) -> List[str]:
    """Errors of one search repeat against the committed reference."""
    if "error" in repeat:
        return [repeat["error"]]
    expected = reference["search"][SEARCH[name]["model"]]
    errors = []
    if repeat["digest"] != expected["digest"]:
        errors.append(f"{name}: digest {repeat['digest']} != "
                      f"{expected['digest']}")
    if repeat["objective"] != expected["objective"]:
        errors.append(f"{name}: objective {repeat['objective']!r} != "
                      f"{expected['objective']!r}")
    if repeat["partial"] or repeat["failures"]:
        errors.append(f"{name}: partial plan or failed stage counts")
    return errors


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _ready(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", "/readyz")
        return conn.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class Daemon:
    """A ``repro-serve`` child process on a private state directory."""

    def __init__(self, work: Path, trace_dir: Optional[Path] = None):
        self.state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=work))
        self.log_path = self.state_dir.with_suffix(".log")
        self.probe_dir = self.state_dir.with_suffix(".probe")
        self.trace_dir = trace_dir
        self.port = _free_port()
        self.proc = None
        self.spawned = self.ready = None

    def start(self) -> "Daemon":
        command = [sys.executable, str(HERE / "serve_host.py"),
                   "--probe-dir", str(self.probe_dir)]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        command += [
            "--port", str(self.port), "--workers", str(DAEMON_WORKERS),
            "--state-dir", str(self.state_dir), "--quiet",
        ]
        self.spawned = clock()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=_child_env(), stdout=log,
                stderr=subprocess.STDOUT,
            )
        while not _ready(self.port):
            if self.proc.poll() is not None or clock() - self.spawned > 60:
                self.stop()
                raise RuntimeError(
                    f"daemon did not become ready; log: "
                    f"{self.log_path.read_text()[-2000:]}")
            time.sleep(0.005)
        self.ready = clock()
        return self

    def samples(self) -> List[speed.Sample]:
        """The daemon's speed samples (written when it has stopped)."""
        return speed.load(self.probe_dir)

    def setup_s(self) -> float:
        """Spawn to ``/readyz`` 200, at reference speed (after stop)."""
        return speed.rescale(self.ready - self.spawned, self.samples(),
                             self.spawned, self.ready)

    def cpu_seconds(self) -> float:
        """User + system CPU of the daemon so far (Linux /proc)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (Linux /proc)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_requests() -> List[dict]:
    """The 21 serve-mixed fingerprints (model x request seed)."""
    return [
        {"model": model, "gpus": SERVE_GPUS,
         "iterations": SERVE_ITERATIONS, "seed": seed}
        for model in SERVE_MODELS for seed in SERVE_SEEDS
    ]


def zipf_quotas(n: int, total: int) -> List[int]:
    """Requests per popularity rank in one epoch: Zipf (s=1), each rank
    at least once, rounded by largest remainder to ``total``."""
    harmonic = sum(1.0 / rank for rank in range(1, n + 1))
    shares = [total / (rank * harmonic) for rank in range(1, n + 1)]
    quotas = [max(1, int(share)) for share in shares]
    spare = total - sum(quotas)
    if spare < 0:
        raise ValueError(f"{total} requests cannot hold {n} Zipf ranks")
    by_remainder = sorted(range(n), key=lambda i: shares[i] - quotas[i],
                          reverse=True)
    for i in by_remainder[:spare]:
        quotas[i] += 1
    return quotas


def serve_stream(port: int, seed: int, seconds: float) -> dict:
    """Closed loop: two clients, one keep-alive connection each.

    Epochs of 60 ``/plan`` requests, separated by ``/invalidate {}``:
    each epoch holds every fingerprint (Zipf counts over a seeded
    popularity ranking) in a seeded order, so every epoch pays the same
    21 cold searches and the seed moves only order and ranking.  Epochs
    continue until at least MIN_EPOCHS and ``seconds`` have passed.
    """
    rng = random.Random(f"{SERVE}:{seed}")
    ranked = serve_requests()
    rng.shuffle(ranked)
    quotas = zipf_quotas(len(ranked), EPOCH)
    start = clock()

    def feed():
        epoch = 0
        while epoch < MIN_EPOCHS or clock() - start < seconds:
            items = [request for request, quota in zip(ranked, quotas)
                     for _ in range(quota)]
            rng.shuffle(items)
            if epoch:
                yield epoch, "/invalidate", {}
            for request in items:
                yield epoch, "/plan", request
            epoch += 1

    items = feed()
    lock = threading.Lock()
    results: List[dict] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=PROCESS_TIMEOUT)
        try:
            while True:
                with lock:
                    item = next(items, None)
                if item is None:
                    return
                epoch, path, body = item
                sent = clock()
                try:
                    conn.request("POST", path, json.dumps(body),
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    code = response.status
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    conn.close()
                    payload, code = {"error": repr(exc)}, None
                results.append({
                    "epoch": epoch, "path": path, "sent": sent,
                    "done": clock(), "code": code, "payload": payload,
                })
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"results": results, "start": start, "end": clock()}


def serve_run(work: Path, seed: int, seconds: float, *, boots: int,
              trace_dir: Optional[Path] = None) -> dict:
    """Boot the daemon ``boots`` times (setup_s) and stream at the last."""
    setups = []
    for _ in range(boots - 1):
        daemon = Daemon(work).start()
        daemon.stop()
        setups.append(daemon.setup_s())
    daemon = Daemon(work, trace_dir)
    try:
        daemon.start()
        cpu = daemon.cpu_seconds()
        stream = serve_stream(daemon.port, seed, seconds)
        stream["cpu_raw_s"] = daemon.cpu_seconds() - cpu
        stream["rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    setups.append(daemon.setup_s())
    stream["setups"] = setups
    stream["samples"] = daemon.samples()
    return stream


def check_serve(stream: dict, reference: dict) -> List[str]:
    """Errors of a stream's responses against the reference, at most
    one per response."""
    from repro.service import plan_digest

    errors = []
    for record in stream["results"]:
        payload = record["payload"]
        if record["code"] != 200:
            errors.append(f"{record['path']}: http {record['code']}: "
                          f"{payload.get('error')}")
            continue
        if record["path"] != "/plan":
            continue
        expected = reference["serve"].get(payload.get("fingerprint"))
        if payload.get("status") != "served":
            errors.append(f"/plan: status {payload.get('status')}")
        elif expected is None:
            errors.append(f"/plan: unknown fingerprint "
                          f"{payload.get('fingerprint')}")
        elif (plan_digest(payload["plan"]) != expected["digest"]
              or payload["objective"] != expected["objective"]):
            errors.append(f"/plan {payload['fingerprint']}: plan differs "
                          "from reference")
    return errors


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _metric(value: float, samples: List[float]) -> dict:
    return {"value": value, "samples": samples}


def search_metrics(repeats: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics of a run's search repeats (samples: repeats)."""
    ok = [r for r in repeats if "error" not in r]
    if not ok:
        return {}
    plan = [r["plan_s"] for r in ok]
    latency = [p * 1e3 for p in plan]
    # A run holds 3-6 repeats, so no percentile has ten beyond it, and
    # the slowest repeat alone follows the pool's dispatch race: the
    # tail is the highest percentile with one repeat beyond it.
    tail = tail_percentile(len(latency), min_beyond=1)
    p95 = nearest_rank(latency, tail / 100) if tail else max(latency)
    return {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in ok),
                           [r["setup_s"] for r in ok]),
        "plan_s": _metric(statistics.median(plan), plan),
        "plan_cpu_s": _metric(statistics.median(r["cpu_s"] for r in ok),
                              [r["cpu_s"] for r in ok]),
        "latency_p50_ms": _metric(statistics.median(latency), latency),
        "latency_p95_ms": _metric(p95, latency),
        "plans_per_s": _metric(len(ok) / sum(plan), [1 / p for p in plan]),
        "peak_rss_mb": _metric(statistics.median(r["rss_mb"] for r in ok),
                               [r["rss_mb"] for r in ok]),
    }


def _searched(record: dict) -> bool:
    payload = record["payload"]
    return not payload.get("cached") and not payload.get("coalesced")


def _answered(stream: dict) -> List[dict]:
    """The stream's /plan requests that got an HTTP 200."""
    return [r for r in stream["results"]
            if r["path"] == "/plan" and r["code"] == 200]


def _latency(record: dict) -> float:
    return record["done"] - record["sent"]


def serve_metrics(stream: dict) -> Dict[str, dict]:
    """End-to-end metrics of one stream (samples: per epoch).

    Times are rescaled to reference speed with the daemon's speed
    samples, over each request or span of requests, except
    ``latency_p50_ms``: the median request is a cache hit whose latency
    is a fixed wait for a delayed ACK, which CPU speed does not change.
    """
    plans = _answered(stream)
    if not plans:
        return {}
    samples = stream["samples"]
    scaled = {id(r): speed.rescale(_latency(r), samples, r["sent"], r["done"])
              for r in plans}
    epochs: Dict[int, list] = {}
    for record in plans:
        epochs.setdefault(record["epoch"], []).append(record)

    def per_epoch(fn):
        return [fn(records) for _, records in sorted(epochs.items())]

    def searched(records):
        cold = [scaled[id(r)] for r in records if _searched(r)]
        return statistics.median(cold) if cold else float("nan")

    def p50_ms(records):
        return statistics.median(_latency(r) for r in records) * 1e3

    def p95_ms(records):
        return nearest_rank([scaled[id(r)] for r in records], 0.95) * 1e3

    def rate(records):
        start = min(r["sent"] for r in records)
        end = max(r["done"] for r in records)
        return len(records) / speed.rescale(end - start, samples, start, end)

    cpu = speed.rescale(stream["cpu_raw_s"], samples, stream["start"],
                        stream["end"]) / len(plans)
    return {
        "setup_s": _metric(statistics.median(stream["setups"]),
                           stream["setups"]),
        "plan_s": _metric(searched(plans), per_epoch(searched)),
        "plan_cpu_s": _metric(cpu, [cpu]),
        "latency_p50_ms": _metric(p50_ms(plans), per_epoch(p50_ms)),
        "latency_p95_ms": _metric(p95_ms(plans), per_epoch(p95_ms)),
        "plans_per_s": _metric(rate(plans), per_epoch(rate)),
        "peak_rss_mb": _metric(stream["rss_mb"], [stream["rss_mb"]]),
    }


def serve_facts(stream: dict) -> dict:
    """Shares of the stream the metrics depend on."""
    plans = [r for r in stream["results"] if r["path"] == "/plan"]
    payloads = [r["payload"] for r in plans]
    wall = stream["end"] - stream["start"]
    return {
        "requests": len(plans),
        "invalidations": sum(1 for r in stream["results"]
                             if r["path"] == "/invalidate"),
        "cache_hit_share": sum(1 for p in payloads if p.get("cached"))
        / max(1, len(plans)),
        "coalesced_share": sum(1 for p in payloads if p.get("coalesced"))
        / max(1, len(plans)),
        "searched": sum(1 for r in plans if _searched(r)),
        "tail_percentile": tail_percentile(len(plans)),
        "wall_s": wall,
        "speed": speed.speed(stream["samples"], stream["start"],
                             stream["end"]),
    }


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------
def _per_layer(trace_dir: Path, ctx: dict) -> dict:
    import layers
    from tracer import load_dumps

    trace = load_dumps(trace_dir)
    return {"per_layer": layers.per_layer_metrics(trace, ctx),
            "spans": trace["spans"]}


def traced_search(untraced: List[dict], traced: List[dict],
                  trace_dir: Path) -> dict:
    """Per-layer metrics of traced repeats, paired with untraced ones."""
    return _per_layer(trace_dir, {
        "requests": sum(1 for r in traced if "error" not in r),
        "traced_plan_s": search_metrics(traced)["plan_s"]["value"],
        "untraced_plan_s": search_metrics(untraced)["plan_s"]["value"],
    })


def traced_serve(untraced: dict, traced: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of a traced stream, paired with an untraced one."""
    plans = _answered(traced)
    return _per_layer(trace_dir, {
        "requests": len(plans),
        "coalesced": sum(1 for r in plans if r["payload"].get("coalesced")),
        "client_latency": {r["payload"]["request_id"]: _latency(r)
                           for r in plans},
        "traced_plan_s": serve_metrics(traced)["plan_s"]["value"],
        "untraced_plan_s": serve_metrics(untraced)["plan_s"]["value"],
    })


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
class Run:
    """Checks and results of one invocation."""

    def __init__(self, work: Path):
        self.work = work
        self.reference = _reference()
        self.attempted = 0
        #: Attempts that failed a check; one attempt may log several errors.
        self.failed = 0
        self.errors: List[str] = []

    def trace_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="trace-", dir=self.work))

    def search(self, name: str, counts, rid: str,
               trace_dir: Optional[Path] = None) -> dict:
        repeat = search_repeat(name, counts, rid, self.work, trace_dir)
        self.attempted += 1
        errors = check_search(name, repeat, self.reference)
        self.errors += errors
        self.failed += bool(errors)
        repeat["ok"] = not errors
        return repeat

    def serve(self, seed: int, seconds: float, *, boots: int,
              trace_dir: Optional[Path] = None) -> dict:
        stream = serve_run(self.work, seed, seconds, boots=boots,
                           trace_dir=trace_dir)
        self.attempted += len(stream["results"])
        errors = check_serve(stream, self.reference)
        self.errors += errors
        self.failed += len(errors)
        return stream


def workload_run(run: Run, name: str, seed: int,
                 seconds: float) -> Dict[str, dict]:
    """End-to-end metrics of one workload run for ``seconds``."""
    if name == SERVE:
        return serve_metrics(run.serve(seed, seconds, boots=SERVE_BOOTS))
    orders = _stage_orders(name, seed)
    repeats = []
    start = clock()
    while not repeats or clock() - start < seconds:
        repeats.append(
            run.search(name, next(orders), f"repeat-{len(repeats)}"))
    return search_metrics(repeats)


def traced_run(run: Run, name: str, seed: int, seconds: float) -> dict:
    """Untraced and traced repeats (or streams) of one workload,
    interleaved, for ``seconds``: per-layer metrics and spans."""
    trace_dir = run.trace_dir()
    if name == SERVE:
        untraced = run.serve(seed, seconds / 2, boots=1)
        traced = run.serve(seed, seconds / 2, boots=1, trace_dir=trace_dir)
        result = traced_serve(untraced, traced, trace_dir)
        result["stream"] = serve_facts(traced)
        return result
    orders = _stage_orders(name, seed)
    untraced, traced = [], []
    start = clock()
    while not untraced or clock() - start < seconds:
        counts = next(orders)
        rid = f"repeat-{len(untraced)}"
        untraced.append(run.search(name, counts, rid))
        traced.append(run.search(name, counts, rid, trace_dir))
    return traced_search(untraced, traced, trace_dir)


def suite_set(run: Run, seed: int) -> dict:
    """One untraced set: search repeats round-robin, then the stream."""
    repeats: Dict[str, list] = {name: [] for name in SEARCH}
    orders = {name: _stage_orders(name, seed) for name in SEARCH}
    for index in range(SUITE_REPEATS):
        for name in SEARCH:
            repeats[name].append(
                run.search(name, next(orders[name]), f"repeat-{index}"))
    results = {}
    for name in SEARCH:
        results[name] = {
            "metrics": search_metrics(repeats[name]),
            "repeats": [{key: r.get(key) for key in (
                "counts", "setup_s", "setup_wall_s", "plan_s",
                "plan_wall_s", "cpu_s", "cpu_raw_s", "rss_mb", "digest",
                "objective", "estimates", "ok", "error")}
                for r in repeats[name]],
        }
    stream = run.serve(seed, 0.0, boots=SERVE_BOOTS)
    results[SERVE] = {"metrics": serve_metrics(stream),
                      "stream": serve_facts(stream)}
    return results


def suite_trace(run: Run, seed: int, spans_dir: Optional[Path]) -> dict:
    """One untraced and one traced repeat of each workload, interleaved."""
    results = {name: traced_run(run, name, seed, 0.0) for name in WORKLOADS}
    for name, result in results.items():
        spans = result.pop("spans")
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            _write_spans(spans_dir / f"{name}.spans.jsonl", spans)
    return results


def _write_spans(path: Path, spans: List[dict]) -> None:
    origin = min((span["start"] for span in spans), default=0.0)
    with open(path, "w") as out:
        for span in spans:
            record = dict(span)
            record["start"] = round(span["start"] - origin, 6)
            record["end"] = round(span["end"] - origin, 6)
            if "self_s" in record:
                record["self_s"] = round(record["self_s"], 6)
            out.write(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")) + "\n")


def host_facts() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "cpu": cpu,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(name: str, metrics: Dict[str, dict]) -> None:
    print(f"{name}")
    for metric, unit in END_TO_END:
        entry = metrics.get(metric)
        if entry is None:
            print(f"  {metric:16s} missing")
            continue
        q1, _, q3 = quartiles(entry["samples"])
        print(f"  {metric:16s} {_fmt(entry['value']):>12s} {unit:5s} "
              f"[q1 {_fmt(q1)}, q3 {_fmt(q3)}] n={len(entry['samples'])}")


def print_per_layer(name: str, metrics: Dict[str, dict]) -> None:
    print(f"{name} (traced)")
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {_fmt(entry['value']):>12s} {entry['unit']}")


def _last_line(run: Run, metrics: Dict[str, dict]) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end plan-request benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload for --seconds (default: "
                        "the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics (1) instead "
                        "of end-to-end ones (0)")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite: untraced sets run back to back")
    parser.add_argument("--out", type=Path, default=None,
                        help="suite: write the results JSON here (span "
                        "files go to trace/ beside it)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the finally blocks stop the
    # daemon and subprocess.run kills a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    started = clock()
    try:
        run = Run(work)
        if args.workload is not None and args.trace:
            out = traced_run(run, args.workload, args.seed,
                             args.seconds)["per_layer"]
            print_per_layer(args.workload, out)
        elif args.workload is not None:
            metrics = workload_run(run, args.workload, args.seed,
                                   args.seconds)
            print_end_to_end(args.workload, metrics)
            out = {name: {"value": metrics[name]["value"], "unit": unit}
                   for name, unit in END_TO_END if name in metrics}
        else:
            out = suite(run, args)
        for error in run.errors:
            print(f"error: {error}", file=sys.stderr)
        print(f"wall {clock() - started:.1f} s, {run.attempted} requests, "
              f"{run.failed} failed")
        print(json.dumps(_last_line(run, out)))
        return 0 if run.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def suite(run: Run, args) -> dict:
    """The whole suite; returns the flat metric dict of the last line."""
    started = clock()
    sets = []
    for _ in range(args.sets):
        sets.append(suite_set(run, args.seed))
        for name in WORKLOADS:
            print_end_to_end(name, sets[-1][name]["metrics"])
    trace = None
    if args.trace:
        spans_dir = args.out.parent / "trace" if args.out else None
        trace = suite_trace(run, args.seed, spans_dir)
        for name in WORKLOADS:
            print_per_layer(name, trace[name]["per_layer"])
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "host": host_facts(),
            "seed": args.seed,
            "wall_s": clock() - started,
            "attempted": run.attempted,
            "errors": run.errors,
            "sets": sets,
            "trace": trace,
        }, indent=1, sort_keys=True) + "\n")
    flat = {}
    if sets:
        for name in WORKLOADS:
            for metric, unit in END_TO_END:
                entry = sets[-1][name]["metrics"].get(metric)
                if entry is not None:
                    flat[f"{name}.{metric}"] = {"value": entry["value"],
                                                "unit": unit}
    if trace:
        for name in WORKLOADS:
            for metric, entry in trace[name]["per_layer"].items():
                flat[f"{name}.{metric}"] = entry
    return flat


if __name__ == "__main__":
    sys.exit(main())
