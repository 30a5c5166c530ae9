import os
import subprocess
import sys

import numpy as np
import pytest

from bundlesup.synth import SbmConfig, gen_sbm, homophily

import reference
from reference import edge_set


def test_balanced_label_histogram():
    cfg = SbmConfig(n=120, n_classes=6, p_in=0.2, p_out=0.02, dim=8, seed=0)
    _, _, table = gen_sbm(cfg)
    counts = np.bincount(table.labels, minlength=6)
    assert counts.tolist() == [20] * 6


def test_extreme_probabilities_give_disjoint_cliques():
    cfg = SbmConfig(n=6, n_classes=2, p_in=1.0, p_out=0.0, dim=4, seed=1)
    graph, _, table = gen_sbm(cfg)
    labels = np.asarray(table.labels)
    assert graph.num_edges == 2 * 3  # two 3-cliques
    for u, v in edge_set(graph):
        assert labels[u] == labels[v]


def test_edge_count_within_binomial_bounds():
    cfg = SbmConfig(n=400, n_classes=4, p_in=0.1, p_out=0.01, dim=16, seed=7)
    graph, _, _ = gen_sbm(cfg)
    per = 400 // 4
    intra_pairs = 4 * per * (per - 1) // 2
    inter_pairs = 400 * 399 // 2 - intra_pairs
    mean = intra_pairs * 0.1 + inter_pairs * 0.01
    std = np.sqrt(intra_pairs * 0.1 * 0.9 + inter_pairs * 0.01 * 0.99)
    assert abs(graph.num_edges - mean) <= 4 * std


def test_deterministic_per_seed():
    cfg = SbmConfig(n=80, n_classes=4, p_in=0.2, p_out=0.05, dim=8, seed=11)
    g1, e1, t1 = gen_sbm(cfg)
    g2, e2, t2 = gen_sbm(cfg)
    assert edge_set(g1) == edge_set(g2)
    np.testing.assert_array_equal(e1, e2)
    assert np.array_equal(t1.labels, t2.labels)


def test_homophily_monotone_in_probability_ratio():
    homs = []
    for p_in, p_out in ((0.05, 0.05), (0.1, 0.03), (0.2, 0.01)):
        vals = []
        for seed in range(5):
            cfg = SbmConfig(n=200, n_classes=4, p_in=p_in, p_out=p_out, dim=8, seed=seed)
            graph, _, table = gen_sbm(cfg)
            vals.append(homophily(graph, table.labels))
        homs.append(np.mean(vals))
    assert homs[0] < homs[1] < homs[2]


def test_embedding_means_separated():
    cfg = SbmConfig(n=200, n_classes=4, p_in=0.2, p_out=0.02, dim=8, separation=5.0, sigma=0.5, seed=3)
    _, emb, table = gen_sbm(cfg)
    labels = np.asarray(table.labels)
    means = np.stack([emb[labels == c].mean(axis=0) for c in range(4)])
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.linalg.norm(means[a] - means[b]) > 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        SbmConfig(n=10, n_classes=3)  # not divisible
    with pytest.raises(ValueError):
        SbmConfig(p_in=1.2)  # out of range
    with pytest.raises(ValueError):
        SbmConfig(n_classes=20, dim=4)  # means do not fit


def test_heterophilic_configuration_allowed():
    cfg = SbmConfig(n=80, n_classes=4, p_in=0.01, p_out=0.2, dim=8, seed=0)
    graph, _, table = gen_sbm(cfg)
    assert homophily(graph, table.labels) < 0.3


@pytest.mark.parametrize("n, n_classes, seed", [
    (400, 20, 0), (400, 20, 1), (400, 20, 7),   # 400 is not a multiple of the 64-row block
    (128, 4, 2), (64, 2, 3),                    # whole blocks
    (10, 5, 4),                                 # less than one block
])
def test_row_blocks_equal_one_dense_draw(n, n_classes, seed):
    cfg = SbmConfig(n=n, n_classes=n_classes, dim=max(8, n_classes), seed=seed)
    g, x, t = gen_sbm(cfg)
    g_ref, x_ref, t_ref = reference.gen_sbm(cfg)
    for got, want in ((g.indptr, g_ref.indptr), (g.indices, g_ref.indices), (x, x_ref)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (t.n, t.class_names, t.texts) == (t_ref.n, t_ref.class_names, t_ref.texts)
    assert np.array_equal(t.labels, t_ref.labels)


def test_large_graph_needs_no_dense_memory():
    # the dense draw alone would take n * n * 8 bytes = 3.2 GB at n=20000
    script = (
        "import resource\n"
        "from bundlesup.synth import SbmConfig, gen_sbm\n"
        "gen_sbm(SbmConfig(n=20000))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    peak_mb = int(out.stdout.split()[-1]) / 1024   # ru_maxrss is in KiB on Linux
    assert peak_mb < 500
