"""Tests for op-level fine-tuning (§4.2)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core import finetune
from repro.core.finetune import _split_points
from repro.parallel import balanced_config, validate_config


class TestSplitPoints:
    def test_sampled_and_sorted(self):
        points = _split_points(100, 8)
        assert points == sorted(points)
        assert len(points) <= 8
        assert points[0] == 0

    def test_single_op_no_points(self):
        assert _split_points(1, 8) == []


class TestFinetune:
    def test_never_worse(self, tiny_graph, small_cluster, tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 2)
        tuned = finetune(
            config, tiny_graph, tiny_perf_model
        )
        assert (
            tiny_perf_model.objective(tuned)
            <= tiny_perf_model.objective(config)
        )
        validate_config(tuned, tiny_graph, small_cluster)

    def test_targets_specific_stage(self, tiny_graph, small_cluster,
                                    tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 2)
        tuned = finetune(
            config, tiny_graph, tiny_perf_model, stages=[0]
        )
        validate_config(tuned, tiny_graph, small_cluster)

    def test_can_flip_partition_dim(self, tiny_graph, small_cluster,
                                    tiny_perf_model):
        """With tp enabled, the dim-flip pass explores option 1 and
        keeps it only on improvement; either way the result is valid
        and not worse."""
        config = balanced_config(tiny_graph, small_cluster, 1, tp=4)
        tuned = finetune(
            config, tiny_graph, tiny_perf_model
        )
        validate_config(tuned, tiny_graph, small_cluster)
        assert (
            tiny_perf_model.objective(tuned)
            <= tiny_perf_model.objective(config)
        )

    def test_suffix_tp_tuning_preserves_validity(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        config = balanced_config(tiny_graph, small_cluster, 2,
                                 microbatch_size=4)
        tuned = finetune(
            config, tiny_graph, tiny_perf_model,
            max_split_points=4,
        )
        validate_config(tuned, tiny_graph, small_cluster)


#: Runs the partition-dimension pass on a one-stage tp=4 gpt-4l config
#: in a fresh interpreter and prints whether ``numpy.ma`` got imported.
PARTITION_PASS = textwrap.dedent("""
    import sys
    from repro.cluster import paper_cluster
    from repro.core.finetune import _tune_partition_dims
    from repro.ir.models import build_model
    from repro.parallel import balanced_config
    from repro.perfmodel import build_perf_model

    graph = build_model("gpt-4l")
    cluster = paper_cluster(4)
    model = build_perf_model(graph, cluster)
    config = balanced_config(graph, cluster, 1, tp=4)
    assert (graph.arrays.num_options > 1).any()
    objective = model.objective(config)
    assert "numpy.ma" not in sys.modules
    before = model.num_estimates
    _tune_partition_dims(config, objective, 0, graph, model)
    assert model.num_estimates > before  # the pass flipped some kind
    print("numpy.ma" in sys.modules)
""")


def test_partition_pass_stays_out_of_numpy_ma():
    """The kind loop takes its distinct kinds without ``np.unique``,
    whose 1-D path imports ``numpy.ma`` on first use in a process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", PARTITION_PASS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
