"""The two hot kernels: CSR-sparse times dense product, and BFS hop counts."""

import numpy as np


def csr(indptr, indices, data, cols):
    """The SciPy CSR matrix of the given arrays (SciPy keeps int32 copies of
    the index arrays when the values fit)."""
    # imported here, not at the top: scipy.sparse takes ~70 ms to import,
    # which every process importing bundlesup would pay without multiplying
    from scipy.sparse import csr_matrix

    return csr_matrix((data, indices, indptr), shape=(indptr.shape[0] - 1, cols), copy=False)


def spmm(indptr, indices, data, dense, *, matrix=None):
    """CSR-sparse times dense matrix product.

    indptr/indices describe the sparsity pattern row-wise, data holds the
    nonzero values. Empty rows produce zero rows in the output. `matrix`
    may carry `csr` of the same arrays, built once by the caller.
    """
    if matrix is None:
        matrix = csr(indptr, indices, data, dense.shape[0])
    return matrix @ dense


def bfs_levels(indptr, indices, n, source, need=None):
    """Breadth-first hop counts from `source`; unreached nodes get -1.

    With `need`, the search stops after the first complete level by which
    at least `need` nodes other than `source` are reached; nodes beyond
    that level stay -1. Without it, or when the component holds fewer,
    every reachable node gets its level.
    """
    levels = np.full(n, -1, dtype=np.intp)
    levels[source] = 0
    frontier = np.array([source], dtype=np.intp)
    depth = 0
    reached = 0
    while frontier.size and (need is None or reached < need):
        depth += 1
        chunks = [indices[indptr[u]:indptr[u + 1]] for u in frontier]
        neighbors = np.unique(np.concatenate(chunks))
        frontier = neighbors[levels[neighbors] < 0]
        levels[frontier] = depth
        reached += frontier.size
    return levels
