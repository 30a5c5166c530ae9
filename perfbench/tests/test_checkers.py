"""Tests of the benchmark's own checkers, generator and stub.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import gen  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402
from bundlesup.annotate import mode_label  # noqa: E402
from bundlesup.graphs import load_edge_list  # noqa: E402


def test_adjacency_and_forward_match_hand_computation():
    # path 0 - 1 - 2; with self-connections the degrees are 2, 3, 2
    a_hat = check.normalized_adjacency(3, [[0, 1], [1, 2]]).toarray()
    r6 = 1 / np.sqrt(6)
    want = np.array([[1 / 2, r6, 0], [r6, 1 / 3, r6], [0, r6, 1 / 2]])
    np.testing.assert_allclose(a_hat, want, rtol=0, atol=1e-15)

    x = np.array([[1.0], [0.0], [-1.0]])
    w1, b1 = np.array([[1.0, -1.0]]), np.array([0.0, 0.0])
    w2, b2 = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.1])
    # A X = [1/2, 0, -1/2]; relu(A X W1) = [[1/2, 0], [0, 0], [0, 1/2]]
    h = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.5]])
    z = check.gcn_logits(a_hat, x, w1, b1, w2, b2)
    np.testing.assert_allclose(z, want @ h @ w2 + b2, rtol=0, atol=1e-15)
    # node 0 leans to class 0, node 2 to class 1; node 1's logits are
    # [r6/2, r6/2 + 0.1], so it predicts class 1
    np.testing.assert_allclose(z[0], [1 / 4, 0.1], atol=1e-15)
    assert np.argmax(z, axis=1).tolist() == [0, 1, 1]
    assert check.accuracy_matches(z, [0, 1, 1], 1.0)
    assert check.accuracy_matches(z, [0, 0, 1], 2 / 3)
    assert not check.accuracy_matches(z, [0, 0, 1], 1.0)


def test_accuracy_lets_near_ties_count_either_way():
    z = np.array([[1.0, 1.0 + 1e-12], [2.0, 0.0]])
    assert check.accuracy_matches(z, [0, 0], 1.0)
    assert check.accuracy_matches(z, [0, 0], 0.5)
    assert not check.accuracy_matches(z, [1, 1], 1.0)


def test_mode_tie_rule_matches_the_program():
    rng = np.random.default_rng(0)
    for _ in range(300):
        classes = rng.integers(0, 4, size=int(rng.integers(1, 8))).tolist()
        want = mode_label(classes)
        assert gen.mode_class(classes) == want
        items = "\n".join(f"Item {k + 1}: node {k} topic class_{c}. text" for k, c in enumerate(classes))
        assert stub.reply_for(items) == f"class_{want}"
    assert gen.mode_class([3, 1, 3, 1, 5]) == 1


def test_stub_disputes_first_ask_only():
    prompt = "Item 1: node 10 topic class_4 (disputed). a\nItem 2: node 3 topic class_4. b"
    assert stub.reply_for(prompt) == "class_4 or class_0"
    assert stub.reply_for(prompt + "\n\nAnswer with exactly one category name.") == "class_4"


@pytest.mark.parametrize("spec", [gen.PartitionSpec(n=400, texts=True),
                                  gen.PartitionSpec(n=2000, n_classes=10, avg_degree=6)])
def test_generator_is_deterministic_per_seed(tmp_path, spec):
    def files(seed, sub):
        gen.write_partition(str(tmp_path / sub), spec, seed)
        return [(tmp_path / sub / f).read_bytes() for f in ("edges.txt", "embeddings.txt", "nodes.jsonl")]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_edge_list_loads_with_the_written_degrees(tmp_path):
    spec = gen.PartitionSpec(n=2000, n_classes=10, avg_degree=6)
    data = gen.write_partition(str(tmp_path), spec, 3)
    assert data.edges.shape == (6000, 2)
    assert (data.edges[:, 0] < data.edges[:, 1]).all()
    graph = load_edge_list(data.edges_path)
    want = np.bincount(data.edges.ravel(), minlength=spec.n)
    assert graph.n == spec.n and graph.num_edges == 6000
    assert np.diff(graph.indptr).tolist() == want.tolist()
    assert want.min() >= 2   # the class rings leave no node isolated


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == tracing.LAYER_METRICS


def test_self_time_subtracts_the_union_of_children():
    # b and c overlap (two threads under a); d runs inside b
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 3.0, 6.0, 0, None], ["d", 2.0, 3.0, 1, None]]
    assert tracing.self_times(spans).tolist() == [5.0, 2.0, 3.0, 1.0]
