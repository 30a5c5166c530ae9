"""Checks of the program's outputs, computed apart from the program.

The GCN forward map is re-derived from `bundlesup.gnn`'s docstring with
SciPy sparse algebra, and the normalized adjacency from the edge list;
nothing here calls into `bundlesup`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def normalized_adjacency(n: int, edges) -> sp.csr_matrix:
    """D~^-1/2 (A + I) D~^-1/2 for an undirected edge array of shape (m, 2)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    dinv = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return (dinv @ a @ dinv).tocsr()


def gcn_logits(a_hat, x, w1, b1, w2, b2) -> np.ndarray:
    """Z = A relu(A X W1 + b1) W2 + b2."""
    hidden = np.maximum(a_hat @ (x @ w1) + b1, 0.0)
    return a_hat @ (hidden @ w2) + b2


def accuracy_matches(z: np.ndarray, labels, reported: float) -> bool:
    """Reported accuracy equals argmax accuracy of `z`, up to near-tied nodes.

    A node whose two largest logits lie within TIE_TOL may count either way.
    """
    labels = np.asarray(labels)
    n = labels.size
    top2 = np.sort(z, axis=1)[:, -2:]
    near_tie = (top2[:, 1] - top2[:, 0]) <= TIE_TOL
    right = (np.argmax(z, axis=1) == labels) & ~near_tie
    lo, hi = int(right.sum()), int(right.sum() + near_tie.sum())
    got = int(round(reported * n))
    return abs(reported * n - got) < 1e-6 and lo <= got <= hi


def n_params(d: int, h: int, c: int) -> int:
    """Parameter count of the two-layer GCN: W1, b1, W2, b2."""
    return d * h + h + h * c + c


def descent_report_ok(report, n_param: int) -> None:
    """What the descent lemma guarantees for the derived step size.

    eta = 0.9 / (n_params (M + G^2)) with L = 2 n_params (M + G^2) gives the
    per-step floor 1 - eta L / 2 = 0.1; G >= 1 because dz/db2 = 1, so
    eta <= 0.9 / n_params.
    """
    require(report.monotone, "loss increased on a checked step")
    require(abs(report.decrease_floor - 0.1) < 1e-9, f"floor {report.decrease_floor} != 0.1")
    require(report.min_decrease_ratio >= report.decrease_floor, "sufficient decrease failed")
    require(report.min_grad_sq <= report.rate_bound, "rate bound failed")
    require(0.0 < report.eta <= 0.9 / n_param, f"eta {report.eta} above 0.9/n_params")
