"""The two hot kernels: CSR-sparse times dense product, through SciPy's
compiled CSR kernels alone, and BFS hop counts."""

from functools import cache
from itertools import chain

import numpy as np


@cache
def _matvecs():
    """SciPy's compiled (csr_matvecs, csc_matvecs), looked up on the first product."""
    # imported here, not at the top: scipy.sparse takes ~70 ms to import,
    # which every process importing bundlesup would pay without multiplying
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

    return csr_matvecs, csc_matvecs


def spmm(indptr, indices, data, dense, *, shape, transpose=False, out=None):
    """CSR-sparse times dense matrix product: M @ dense, or M.T @ dense with
    `transpose`, M the `shape` matrix stored row-wise in indptr/indices/data.

    The product is written into `out`, a C-contiguous float64 array of its
    shape, zeroed first, or into a new array of zeros, and that array is
    returned. M's arrays are, unchanged, the column-wise arrays of M.T, so
    M.T @ dense runs SciPy's `csc_matvecs` on them and M @ dense its
    `csr_matvecs`, with no transpose built: row i of M.T @ dense adds the
    terms of M's column i in ascending row order, as the product with M's
    stored transpose would. The kernels check no bounds, so an operand,
    `indptr` or `out` that does not fit `shape` raises a ValueError naming
    the shapes first. These are the kernels SciPy's own sparse products
    call, so every install with `scipy.sparse` has them.
    """
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError(f"the operand must be 2-D, got shape {dense.shape}")
    rows, cols = shape
    inner, outer = (rows, cols) if transpose else (cols, rows)
    if indptr.shape != (rows + 1,):
        raise ValueError(f"indptr of a {(rows, cols)} matrix needs {rows + 1} entries, got shape {indptr.shape}")
    if dense.shape[0] != inner:
        raise ValueError(f"the operand of {_named(shape, transpose)} must be ({inner}, k), got shape {dense.shape}")
    product = (outer, dense.shape[1])
    if out is None:
        out = np.zeros(product)
    elif out.shape != product or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {product}, the product of "
                         f"{_named(shape, transpose)} and a {dense.shape} operand, got {out.dtype} of shape "
                         f"{out.shape}{'' if out.flags.c_contiguous else ', not C-contiguous'}")
    else:
        out.fill(0.0)
    # (outer, inner) is the shape of M, or of M.T stored column-wise; ravel
    # of a C-contiguous array is a view, so the product lands in `out`
    _matvecs()[transpose](outer, inner, dense.shape[1], indptr, indices, data, dense.ravel(), out.ravel())
    return out


def _named(shape, transpose) -> str:
    """The matrix an spmm error names, formatted only when raising."""
    return f"{'the transpose of ' if transpose else ''}a {tuple(shape)} matrix"


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
