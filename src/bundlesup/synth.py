"""Planted-partition benchmark graphs with Gaussian class embeddings.

Nodes split into equal-size class blocks; intra-class pairs connect with
probability p_in, inter-class pairs with p_out. Class c's embedding mean
sits at separation * e_c, with isotropic Gaussian noise of scale sigma.
The graph is a `graphs.Csr` with no data, as `Csr.from_edges` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Csr, NodeTable

_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SbmConfig:
    """Defaults are the calibrated standard benchmark: many classes so that
    proximity-blind bundles carry weak mode labels, embeddings informative
    enough to individualize nodes, moderate homophily (~0.6)."""

    n: int = 400
    n_classes: int = 20
    p_in: float = 0.30
    p_out: float = 0.01
    dim: int = 24
    separation: float = 2.5
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.n % self.n_classes != 0:
            raise ValueError("n must be a positive multiple of n_classes")
        # p_out > p_in is allowed: heterophilic graphs drive the semantic
        # sampling criterion
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.dim < self.n_classes:
            raise ValueError("dim must be >= n_classes to place the class means")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def gen_sbm(cfg: SbmConfig):
    """Returns (graph `Csr`, (n, dim) embedding array, NodeTable), deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    per = cfg.n // cfg.n_classes
    labels = np.repeat(np.arange(cfg.n_classes), per)

    graph = Csr.from_edges(cfg.n, _sbm_edges(cfg, labels, rng))

    means = np.zeros((cfg.n_classes, cfg.dim))
    means[np.arange(cfg.n_classes), np.arange(cfg.n_classes)] = cfg.separation
    x = means[labels] + rng.normal(0.0, cfg.sigma, size=(cfg.n, cfg.dim))

    table = NodeTable(
        n=cfg.n,
        class_names=[f"class_{c}" for c in range(cfg.n_classes)],
        texts=None,
        labels=labels,
    )
    return graph, x, table


def _sbm_edges(cfg: SbmConfig, labels: np.ndarray, rng) -> np.ndarray:
    """The edges (u, v), u < v, in ascending order, of one (n, n) uniform draw.

    The draw is taken in row blocks: the same stream as one (n, n) array, in
    O(_BLOCK_ROWS * n) memory. Each block keeps its edges as keys u * n + v.
    """
    keys = []
    for lo in range(0, cfg.n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, cfg.n)
        draw = rng.random((hi - lo, cfg.n))
        prob = np.where(labels[lo:hi, None] == labels[None, :], cfg.p_in, cfg.p_out)
        upper = np.arange(cfg.n) > np.arange(lo, hi)[:, None]
        keys.append(lo * cfg.n + np.flatnonzero((draw < prob) & upper))
    return np.column_stack(np.divmod(np.concatenate(keys), cfg.n))


def homophily(graph: Csr, labels) -> float:
    """Fraction of edges joining same-class endpoints."""
    if graph.num_edges == 0:
        return float("nan")
    ends = np.asarray(labels)[graph.edge_array()]
    return int(np.count_nonzero(ends[:, 0] == ends[:, 1])) / graph.num_edges
