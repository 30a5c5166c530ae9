"""The two hot kernels: CSR-sparse times dense product, and BFS hop counts."""

from itertools import chain

import numpy as np


def csr(indptr, indices, data, cols):
    """The SciPy CSR matrix of the given arrays (SciPy keeps int32 copies of
    the index arrays when the values fit)."""
    # imported here, not at the top: scipy.sparse takes ~70 ms to import,
    # which every process importing bundlesup would pay without multiplying
    from scipy.sparse import csr_matrix

    return csr_matrix((data, indices, indptr), shape=(indptr.shape[0] - 1, cols), copy=False)


def spmm(indptr, indices, data, dense, *, matrix=None, out=None):
    """CSR-sparse times dense matrix product.

    indptr/indices describe the sparsity pattern row-wise, data holds the
    nonzero values. Empty rows produce zero rows in the output. `matrix`
    may carry `csr` of the same arrays, or the dense array they describe,
    built once by the caller; the product is then `matrix @ dense`, which
    NumPy hands to BLAS for a dense array. With `out`, a C-contiguous
    float64 array of the product's shape (anything else raises a
    ValueError), the product is written there and `out` returned: bitwise
    the array `matrix @ dense` would allocate, since SciPy forms that
    product with the same `csr_matvecs` call into an array of zeros. That
    call lives in SciPy's private `_sparsetools`; where it is missing, the
    product is formed as `matrix @ dense` and copied into `out`.
    """
    if matrix is None:
        matrix = csr(indptr, indices, data, dense.shape[0])
    if out is None:
        return matrix @ dense
    rows, cols = matrix.shape
    if out.shape != (rows, dense.shape[1]) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(rows, dense.shape[1])}, "
                         f"got {out.dtype} of shape {out.shape}"
                         f"{'' if out.flags.c_contiguous else ', not C-contiguous'}")
    if isinstance(matrix, np.ndarray):
        return np.matmul(matrix, dense, out=out)
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:
        out[...] = matrix @ dense
        return out
    out.fill(0.0)
    # ravel of a C-contiguous array is a view, so the product lands in `out`
    csr_matvecs(rows, cols, dense.shape[1], matrix.indptr, matrix.indices, matrix.data,
                np.ascontiguousarray(dense, dtype=np.float64).ravel(), out.ravel())
    return out


def bfs_levels(indptr, indices, source, need=None):
    """Breadth-first hop counts from `source`, as (nodes, levels): the
    nodes reached, level by level and ascending within a level, the source
    first at level 0, and the hop count of each.

    With `need`, the search stops after the first complete level by which
    at least `need` nodes other than `source` are reached. Without it, or
    when the component holds fewer, every reachable node is returned.
    Nothing the size of the graph is allocated or scanned: the search
    keeps the nodes it reached in a set, which costs less than NumPy calls
    at the few dozen nodes a bundle's search reaches.
    """
    seen = {source}
    found = [[source]]
    while found[-1] and (need is None or len(seen) - 1 < need):
        level = set()
        for u in found[-1]:
            level.update(indices[indptr[u]:indptr[u + 1]].tolist())
        level -= seen
        seen |= level
        found.append(sorted(level))
    if not found[-1]:
        found.pop()
    levels = np.repeat(np.arange(len(found), dtype=np.intp), [len(f) for f in found])
    return np.fromiter(chain.from_iterable(found), dtype=np.intp, count=len(seen)), levels
