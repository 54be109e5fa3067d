"""Tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

The tracer and percentile tests are instant; the smoke tests run one
repeat of each search workload and a 20-request serve stream through
the real program (about half a minute) and check every plan against
reference.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import layers
import run
import speed
import tracer as tracer_module
from tracer import Tracer, merge

# The program under test, as run.py and its children find it.
sys.path.insert(0, str(run.SRC))

# ----------------------------------------------------------------------
# tracer arithmetic
# ----------------------------------------------------------------------
class VirtualClock:
    """Per-thread virtual time, advanced explicitly by ``work``."""

    def __init__(self):
        self.local = threading.local()

    def __call__(self) -> float:
        return getattr(self.local, "now", 0.0)

    def work(self, units: float) -> None:
        self.local.now = self() + units


def test_self_time_of_nested_calls_across_two_threads(monkeypatch):
    clock = VirtualClock()
    monkeypatch.setattr(tracer_module, "clock", clock)
    tracer = Tracer()

    def leaf():
        clock.work(3)

    traced_leaf = tracer.wrap("leaf", leaf)

    both_inside = threading.Barrier(2)

    def middle():
        clock.work(1)
        traced_leaf()
        both_inside.wait(timeout=5)  # both threads hold open spans
        traced_leaf()
        clock.work(2)

    traced_middle = tracer.wrap("middle", middle, span=True,
                                rid=lambda args: "r")

    def outer():
        clock.work(5)
        traced_middle()
        clock.work(4)

    traced_outer = tracer.wrap("outer", outer, span=True)
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()

    layers_ = tracer.snapshot()["layers"]
    # Per thread: leaf 2 x 3; middle 1 + 2 (+6 in leaves); outer 5 + 4.
    assert layers_["leaf"] == [4, 12.0, 12.0]
    assert layers_["middle"] == [2, 6.0, 18.0]
    assert layers_["outer"] == [2, 18.0, 36.0]
    spans = tracer.snapshot()["spans"]
    middles = [s for s in spans if s["name"] == "middle"]
    outers = {s["id"]: s for s in spans if s["name"] == "outer"}
    assert len(middles) == 2 and len(outers) == 2
    for span in middles:
        assert span["rid"] == "r"
        assert span["parent"] in outers
        assert outers[span["parent"]]["tid"] == span["tid"]


def test_merge_sums_processes_and_keeps_missing():
    a = {"layers": {"x": [1, 1.0, 2.0]}, "counts": {"c": 1},
         "samples": {"s": [1]}, "spans": [], "missing": ["m"]}
    b = {"layers": {"x": [2, 0.5, 0.5]}, "counts": {"c": 2},
         "samples": {"s": [2]}, "spans": [], "missing": []}
    merged = merge([a, b])
    assert merged["layers"]["x"] == [3, 1.5, 2.5]
    assert merged["counts"]["c"] == 3
    assert merged["samples"]["s"] == [1, 2]
    assert merged["missing"] == ["m"]


# ----------------------------------------------------------------------
# speed probe
# ----------------------------------------------------------------------
def test_speed_is_the_mean_of_sample_speeds_in_the_interval():
    ref = speed.REFERENCE_S
    # Full speed, then contended at half speed; one sample far outside.
    samples = [(0.0, ref), (0.01, ref), (0.02, 2 * ref), (0.03, 2 * ref),
               (5.0, 4 * ref)]
    assert speed.speed(samples, 0.0, 0.03) == pytest.approx(0.75)
    assert speed.rescale(2.0, samples, 0.0, 0.03) == pytest.approx(1.5)
    # An interval between samples takes the nearest one within MAX_GAP.
    assert speed.speed(samples, 0.024, 0.026) == pytest.approx(0.5)
    assert speed.speed(samples, 1.0, 2.0) is None
    with pytest.raises(ValueError):
        speed.rescale(1.0, samples, 1.0, 2.0)


def test_probe_samples_the_running_process(tmp_path):
    probe = speed.SpeedProbe().start()
    try:
        end = speed.clock() + 0.2
        while speed.clock() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    probe.dump(tmp_path)
    assert speed.load(tmp_path) == sorted(probe.samples)
    factor = speed.speed(probe.samples, 0.0, float("inf"))
    assert 0.1 < factor < 3


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """``fakepkg.a`` defines ``f`` and ``Box.get``; ``fakepkg.b``
    copies ``f`` with ``from .a import f``."""
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "def f():\n    return 'a'\n\n"
        "class Box:\n    def get(self):\n        return f()\n"
    )
    (package / "b.py").write_text(
        "from .a import f\n\ndef g():\n    return f()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.a
    import fakepkg.b

    yield fakepkg
    for name in ("fakepkg.b", "fakepkg.a", "fakepkg"):
        sys.modules.pop(name, None)


def test_patch_by_identity_catches_from_imports(fake_package):
    tracer = Tracer(prefix="fakepkg")
    original = fake_package.a.f
    assert tracer.patch("a.f", "fakepkg.a", "f")
    assert tracer.patch("a.box", "fakepkg.a", "Box.get")
    assert fake_package.b.f is fake_package.a.f is not original
    assert fake_package.b.g() == "a"
    assert fake_package.a.Box().get() == "a"
    calls = {k: v[0] for k, v in tracer.snapshot()["layers"].items()}
    assert calls == {"a.f": 2, "a.box": 1}
    tracer.unpatch()
    assert fake_package.b.f is original is fake_package.a.f


def test_missing_patch_points_read_missing_not_zero(fake_package):
    tracer = Tracer(prefix="fakepkg")
    assert not tracer.patch("gone", "fakepkg.a", "no_such_function")
    assert not tracer.patch("gone.too", "fakepkg.nowhere", "f")
    assert tracer.missing == ["gone", "gone.too"]

    trace = merge([{"layers": {}, "counts": {}, "samples": {},
                    "spans": [], "missing": ["core.finetune",
                                             "perfmodel.counters"]}])
    metrics = layers.per_layer_metrics(trace, {"requests": 1})
    for name in ("core.finetune.calls", "core.finetune.self_s",
                 "perfmodel.estimates", "perfmodel.stage_hit_ratio"):
        assert metrics[name]["value"] is None
        assert metrics[name]["missing"] is True
    assert metrics["core.multihop.search.calls"]["value"] == 0


def test_every_layer_exists_in_the_program():
    tracer = Tracer()
    layers.install(tracer, tempfile.mkdtemp())
    try:
        assert tracer.missing == []
    finally:
        tracer.unpatch()


# ----------------------------------------------------------------------
# statistics and workload shape
# ----------------------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(240) == 95.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) is None
    # A search run's few repeats: the second slowest.
    assert run.tail_percentile(5, min_beyond=1) == 75.0
    assert run.tail_percentile(3, min_beyond=1) == 50.0
    assert run.tail_percentile(1, min_beyond=1) is None
    values = list(range(240))
    p95 = run.nearest_rank(values, 0.95)
    assert sum(1 for v in values if v > p95) >= 10


def test_zipf_quotas_fill_each_epoch():
    quotas = run.zipf_quotas(21, run.EPOCH)
    assert sum(quotas) == run.EPOCH
    assert min(quotas) == 1
    assert quotas == sorted(quotas, reverse=True)
    with pytest.raises(ValueError):
        run.zipf_quotas(21, 21)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [entry[:3] for entry in layers.METRICS]


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(run.HERE, copy,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "search-350m", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ----------------------------------------------------------------------
# smoke runs through the real program
# ----------------------------------------------------------------------
@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(run.SEARCH))
def test_search_workload_smoke(name, work):
    counts = next(run._stage_orders(name, seed=1))
    repeat = run.search_repeat(name, counts, "smoke", work)
    assert run.check_search(name, repeat, run._reference()) == []
    assert repeat["setup_s"] > 0 and repeat["plan_s"] > 0
    # Rescaling moves a time by the CPU's speed, never by orders of
    # magnitude: the probe sampled the request and its pool workers.
    assert 0.2 < repeat["plan_s"] / repeat["plan_wall_s"] < 2


def test_traced_search_reproduces_the_plan(work):
    trace_dir = work / "trace"
    repeat = run.search_repeat("search-1000l", run.STAGE_COUNTS, "smoke",
                               work, trace_dir)
    assert run.check_search("search-1000l", repeat, run._reference()) == []
    traced = run.traced_search([repeat], [repeat], trace_dir)
    metrics = traced["per_layer"]
    assert metrics["service.planner.calls"]["value"] == 1
    assert metrics["core.finetune.calls"]["value"] > 0
    assert metrics["trace.unattributed_share"]["value"] <= 0.05
    parents = {s["name"]: s["parent"] for s in traced["spans"]}
    ids = {s["name"]: s["id"] for s in traced["spans"]}
    assert parents["service.planner"] == ids["root"]
    assert parents["core.search.driver"] == ids["service.planner"]


def test_serve_stream_smoke(work, monkeypatch):
    monkeypatch.setattr(run, "SERVE_MODELS", ("gpt-8l", "gpt-16l"))
    monkeypatch.setattr(run, "EPOCH", 20)
    monkeypatch.setattr(run, "MIN_EPOCHS", 1)
    stream = run.serve_run(work, seed=0, seconds=0.0, boots=1)
    plans = [r for r in stream["results"] if r["path"] == "/plan"]
    assert len(plans) == 20
    assert run.check_serve(stream, run._reference()) == []
    metrics = run.serve_metrics(stream)
    assert {name for name, _ in run.END_TO_END} <= set(metrics)
