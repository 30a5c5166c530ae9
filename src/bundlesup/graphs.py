"""Graphs, node tables, embeddings, and the normalized adjacency operator.

A graph stores its edges only as CSR arrays (`indptr`, `indices`);
`Graph.edge_array` lists them as pairs. `_csr` builds every CSR from its
entries, `_block_csr` cuts a block out of a stored one, and
`group_means` averages an operator's rows over groups of them.

File formats
------------
Edge list        lines "u v"; '#' starts a comment; an optional first line
                 "n <count>" pins the node count.
Node table       one JSON object per line with fields id (int), text
                 (string, optional), label (class-name string, optional).
Embedding matrix "n d" header, then n rows of d whitespace-separated floats.

Both numeric loaders parse the body in one vectorised pass (`np.loadtxt`).
A file that pass refuses (it raised or warned, the array breaks a rule of
the format, or an edge is a self-loop, which the loop warns of by line
number) is read again by the per-line loop, which alone decides its result
or its FormatError. The loop takes every token Python's `int` and `float`
take, such as "1_0". The node table is parsed per line.
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels

logger = logging.getLogger(__name__)

# the largest node count n whose n * n fits in intp: edge keys are lo * n + hi
MAX_NODES = math.isqrt(np.iinfo(np.intp).max)


class FormatError(ValueError):
    """An input file does not match its documented format."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over nodes 0..n-1.

    Edges are stored only as CSR (`indptr`, `indices`), each in the rows of
    both endpoints, every row sorted ascending. No self-loops or duplicates.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from pairs (u, v) or an (m, 2) integer array; duplicates collapse."""
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > MAX_NODES:
            raise ValueError(f"node count {n} is too large: {n} * {n} overflows the index type")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.intp)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError("edges must be pairs (u, v)")
        u, v = pairs.reshape(-1, 2).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            k = int(np.argmax(bad))   # the first offending pair in input order
            if lo[k] == hi[k]:
                raise ValueError(f"self-loop ({u[k]},{u[k]}) is not storable")
            raise ValueError(f"edge ({u[k]},{v[k]}) has an endpoint >= n={n}")
        keys = lo * n   # in place, as in _csr
        keys += hi
        keys.sort()
        # not np.unique: its first call imports numpy.ma, ~15 ms of every loader's start-up
        lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        del keys, lo, hi   # freed before _csr's own entry-sized array
        return cls(n, *_csr(n, rows, cols))

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) array of the edges (u, v) with u < v, in ascending order."""
        pairs = np.column_stack((_row_ids(self.indptr), self.indices))
        return pairs[pairs[:, 0] < pairs[:, 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.intp), np.diff(indptr))


def _csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Row-sorted CSR (indptr, indices) of the entries (rows[k], cols[k]), all distinct."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    keys = rows * n   # in place from here: one entry-sized array at a time
    keys += cols
    keys.sort()
    keys %= n
    return indptr, keys


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the stored entries of `rows` of a CSR matrix, row by row in stored order."""
    counts = indptr[rows + 1] - indptr[rows]
    return np.arange(counts.sum()) + np.repeat(indptr[rows] - np.cumsum(counts) + counts, counts)


def _block_csr(n: int, indptr, indices, data, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """CSR (indptr, indices, data) of M[rows][:, cols], M a row-sorted CSR matrix with
    n columns and `cols` ascending, so every row keeps M's ascending column order."""
    entries = _row_entries(indptr, rows)
    local = np.full(n, -1, dtype=np.intp)
    local[cols] = np.arange(cols.size)
    col = local[indices[entries]]
    keep = col >= 0
    row = np.repeat(np.arange(rows.size), indptr[rows + 1] - indptr[rows])
    out = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(row[keep], minlength=rows.size), out=out[1:])
    return out, col[keep], data[entries[keep]]


@dataclass(frozen=True)
class NodeTable:
    """Per-node texts and ground-truth labels plus the class vocabulary."""

    n: int
    class_names: list
    texts: list | None = None
    labels: np.ndarray | None = None   # given as any integer sequence, kept as a read-only intp copy

    def __post_init__(self):
        folded = [name.strip().casefold() for name in self.class_names]
        if any(not f for f in folded):
            raise ValueError("class names must be non-empty")
        if len(set(folded)) != len(folded):
            raise ValueError("class names must be distinct after case-folding")
        if self.texts is not None and len(self.texts) != self.n:
            raise ValueError("texts length differs from node count")
        if self.labels is not None:
            given = np.asarray(self.labels)
            if given.shape != (self.n,):
                raise ValueError("labels length differs from node count")
            if given.size and given.dtype.kind not in "iu":
                raise ValueError(f"labels must be integer class indices, not {given.dtype} values")
            bad = np.flatnonzero((given < 0) | (given >= len(self.class_names)))
            if bad.size:
                raise ValueError(f"label {given[bad[0]]} of node {bad[0]} is out of range")
            object.__setattr__(self, "labels", given.astype(np.intp))
            self.labels.flags.writeable = False

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _transpose(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, cols: int) -> tuple:
    """CSR (indptr, indices, data) of the transpose of a CSR matrix with `cols`
    columns; a stable sort by column keeps each of its rows ascending."""
    order = np.argsort(indices, kind="stable")
    out = np.zeros(cols + 1, dtype=np.intp)
    np.cumsum(np.bincount(indices, minlength=cols), out=out[1:])
    return out, _row_ids(indptr)[order], data[order]


class _SparseOperator:
    """`@ dense` through `kernels.spmm` on one matrix, built on the first
    product and kept: SciPy CSR, or a dense array for a `SparseRows`
    operator with many stored entries."""

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != self.shape[1]:
            raise ValueError(f"operand must be ({self.shape[1]}, k), got {dense.shape}")
        return kernels.spmm(self.indptr, self.indices, self.data, dense, matrix=self._matrix)

    @cached_property
    def _matrix(self):
        return kernels.csr(self.indptr, self.indices, self.data, self.shape[1])

    def group_means(self, offsets: np.ndarray, members: np.ndarray) -> "SparseRows":
        """P = diag(1/|B|)·B·M, M this operator and B the 0/1 matrix of the
        groups members[offsets[g]:offsets[g + 1]] of its rows: row g of P is
        the mean of M's rows of group g, so P @ Y is the groups' mean rows
        of M @ Y.

        Each entry adds its members' values of M strictly in the order
        `members` lists them, then divides the sum by the group size; the
        columns of a row ascend. A member may repeat.
        """
        sizes = np.diff(offsets)
        counts = self.indptr[members + 1] - self.indptr[members]
        entries = _row_entries(self.indptr, members)
        cols = self.shape[1]
        keys = np.repeat(np.repeat(np.arange(sizes.size), sizes), counts) * cols + self.indices[entries]
        order = np.argsort(keys, kind="stable")   # keeps member order within an entry
        keys = keys[order]
        first = np.diff(keys, prepend=-1) != 0
        sums = np.bincount(np.cumsum(first) - 1, weights=self.data[entries[order]])
        rows, cols_of = np.divmod(keys[first], cols)
        indptr = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=sizes.size), out=indptr[1:])
        return SparseRows(self.n, (sizes.size, cols), indptr, cols_of, sums / sizes[rows])


@dataclass(frozen=True)
class NormalizedAdjacency(_SparseOperator):
    """Symmetrically normalized adjacency with implicit self-connections.

    Entries are deg̃(u)^-1/2 * deg̃(v)^-1/2 on the pattern of (A + I),
    where deg̃ counts the self-connection. Stored CSR; supports `@ dense`.
    Symmetric, so `T` is the operator itself.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    @property
    def T(self) -> "NormalizedAdjacency":
        return self

    def block(self, rows, cols=None):
        """The block Â[rows][:, cols] over ascending, distinct node ids.

        `cols` defaults to N(rows): every node adjacent to a row, the row
        itself included, so the block holds every stored entry of its rows.
        Returns the operator itself when rows and columns cover every node.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if cols is None:
            reached = np.bincount(self.indices[_row_entries(self.indptr, rows)], minlength=self.n)
            cols = np.flatnonzero(reached)
        cols = np.asarray(cols, dtype=np.intp)
        if rows.size == cols.size == self.n:
            return self
        csr = _block_csr(self.n, self.indptr, self.indices, self.data, rows, cols)
        return AdjacencyBlock(self, rows, cols, *csr)


@dataclass(frozen=True)
class AdjacencyBlock(_SparseOperator):
    """The block Â[rows][:, cols] of a normalized adjacency; see `NormalizedAdjacency.block`.

    Row k is node rows[k] and column k is node cols[k]. Every row keeps Â's
    ascending column order, so a product with the block adds the same
    nonzero terms in the same order as the product with Â does. `T` is
    Â[cols][:, rows], the transpose by the symmetry of Â.
    """

    adjacency: NormalizedAdjacency = field(repr=False)
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def shape(self) -> tuple:
        return (self.rows.size, self.cols.size)

    @cached_property
    def T(self):
        # Â[cols][:, rows] is this block's transpose: Â's entries dinv[u] * dinv[v]
        # are bitwise symmetric
        return AdjacencyBlock(self.adjacency, self.cols, self.rows,
                              *_transpose(self.indptr, self.indices, self.data, self.cols.size))


# a `SparseRows` operator multiplies as a dense array when at least one
# entry in DENSE_RATIO is stored (see its docstring for the measurement)
DENSE_RATIO = 9


@dataclass(frozen=True)
class SparseRows(_SparseOperator):
    """A CSR operator onto rows of the graph's node space, such as the group
    means `group_means` builds; `n` is the graph's node count.

    The operator keeps its CSR arrays, but multiplies through a dense
    float64 array of its shape when rows·cols <= DENSE_RATIO·nnz, and
    through SciPy CSR otherwise. On small operators SciPy's per-product
    Python dispatch costs more than the arithmetic, which BLAS does on the
    dense array. DENSE_RATIO = 9 is the measured break-even: P @ Y plus
    P.T @ Y through `kernels.spmm`, median of 15 interleaved rounds
    (2 vCPUs, NumPy 2.4, SciPy 1.17; microseconds, CSR / dense):

        P shape    k    density 1/4  1/8         1/9         1/12
        100x100    5    33 / 12      20 / 11     21 / 10     16 / 10
        100x100    64   151 / 68     89 / 61     81 / 62     49 / 57
        100x400    5    110 / 42     61 / 39     63 / 45     35 / 33
        100x400    64   421 / 138    331 / 170   197 / 140   159 / 177
        100x1000   5    200 / 93     105 / 89    86 / 82     70 / 83
        100x1000   64   1203 / 466   798 / 437   514 / 431   361 / 423
        100x4333   5    866 / 658    537 / 650   419 / 658   406 / 671
        100x4333   64   7589 / 1818  2572 / 1805 2329 / 1849 2594 / 1859

    Up to 1000 columns dense wins at every shape down to density 1/9 and
    loses at 1/12 on four of six. Dense reads the whole array on every
    product, so it loses where that array is large and the operand
    narrow: at 100x4333 and k=5, below density 1/4. The two storages
    differ only by rounding. Entries are distinct (row, column) pairs, as
    `group_means` and `T` produce them.
    """

    n: int
    shape: tuple
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @property
    def stored_dense(self) -> bool:
        """Whether products run on a dense array (see the class docstring)."""
        rows, cols = self.shape
        return rows * cols <= DENSE_RATIO * self.indices.size

    @property
    def multiply_adds(self) -> int:
        """Multiply-adds of one product per operand column: nnz, or rows·cols
        when the operator is stored dense."""
        return self.shape[0] * self.shape[1] if self.stored_dense else self.indices.size

    @cached_property
    def _matrix(self):
        if not self.stored_dense:
            return kernels.csr(self.indptr, self.indices, self.data, self.shape[1])
        dense = np.zeros(self.shape)
        dense[_row_ids(self.indptr), self.indices] = self.data
        return dense

    @cached_property
    def T(self) -> "SparseRows":
        rows, cols = self.shape
        return SparseRows(self.n, (cols, rows), *_transpose(self.indptr, self.indices, self.data, cols))


def normalized_adjacency(graph: Graph) -> NormalizedAdjacency:
    """Build the normalized operator used by the graph convolution."""
    n = graph.n
    deg = np.diff(graph.indptr).astype(np.float64) + 1.0
    dinv = 1.0 / np.sqrt(deg)
    diag = np.arange(n, dtype=np.intp)
    rows = np.concatenate([_row_ids(graph.indptr), diag])
    indptr, indices = _csr(n, rows, np.concatenate([graph.indices, diag]))
    vals = dinv[_row_ids(indptr)] * dinv[indices]
    return NormalizedAdjacency(n=n, indptr=indptr, indices=indices, data=vals)


def hop_distances(graph, core: int, need: int | None = None) -> tuple:
    """Shortest-path hop counts from `core` in a `Graph` or the pattern of its
    `NormalizedAdjacency`, which give the same, as (nodes, levels) over the
    nodes reached (`kernels.bfs_levels`): `core` first at level 0, then
    level by level, ascending within a level. Unreached nodes are absent.

    With `need`, only the levels up to the first one by which `need` other
    nodes are reached are returned.
    """
    if not (0 <= core < graph.n):
        raise ValueError(f"core {core} out of range for n={graph.n}")
    return kernels.bfs_levels(graph.indptr, graph.indices, core, need)


@contextmanager
def open_text(path):
    """`path` opened as UTF-8 text; a byte that is not UTF-8 raises a FormatError
    naming the path (the decoder's own position is inside a read chunk)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_edge_list(path) -> Graph:
    """Read an undirected edge list; see the module docstring for the format.

    A node count (the header's, or the largest id + 1) above MAX_NODES
    raises a FormatError, since the edge keys n * u + v would overflow. A
    count below it that needs more memory than there is may still raise
    MemoryError.
    """
    with open_text(path) as fh:
        header_n, lineno = _edge_list_header(path, fh)
        body = fh.tell()
        pairs = _loadtxt(fh, np.intp, comments="#")
        if pairs is not None and _plain_edges(pairs, header_n):
            n = header_n if header_n is not None else int(pairs.max(initial=-1)) + 1
        else:
            fh.seek(body)
            n, pairs = _edge_lines(path, fh, lineno, header_n)
    if n > MAX_NODES:
        raise FormatError(f"{path}: node count {n} (largest id + 1) is too large to index")
    return Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])  # self-loops warned above


def _plain_edges(pairs: np.ndarray, header_n) -> bool:
    """Whether parsed edge rows need nothing of the per-line loop: two columns,
    no negative id, no id beyond the header's count or too large to count up
    to, and no self-loop (the loop warns of each with its line number)."""
    return (pairs.shape[1] == 2 and pairs.min(initial=0) >= 0
            and pairs.max(initial=-1) < (np.iinfo(np.intp).max if header_n is None else header_n)
            and bool((pairs[:, 0] != pairs[:, 1]).all()))


def _edge_list_header(path, fh) -> tuple:
    """Read an edge list's leading blank and comment lines and its optional
    "n <count>" header; returns (count or None, lines read). The handle is
    left at the first edge line."""
    lineno = 0
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            raise FormatError(f"{path}: no edges or header found")
        lineno += 1
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] != "n" or len(parts) != 2:
            fh.seek(start)
            return None, lineno - 1
        try:
            header_n = int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad node count {parts[1]!r}") from None
        if header_n < 1:
            raise FormatError(f"{path}:{lineno}: node count must be positive")
        if header_n > MAX_NODES:
            raise FormatError(f"{path}:{lineno}: node count {header_n} is too large to index")
        return header_n, lineno


def _edge_lines(path, fh, lineno: int, header_n) -> tuple:
    """Parse the edge lines after line `lineno` one by one: (n, (m, 2) pairs),
    self-loops kept and warned, or the FormatError of the first bad line."""
    us, vs = [], []
    for lineno, line in enumerate(fh, start=lineno + 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected two integers, got {body!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: expected two integers, got {body!r}") from None
        if u < 0 or v < 0:
            raise FormatError(f"{path}:{lineno}: negative node index")
        if u == v:
            logger.warning("%s:%d: skipping self-loop on node %d", path, lineno, u)
        us.append(u)
        vs.append(v)
    max_idx = max(max(us, default=-1), max(vs, default=-1))
    n = header_n if header_n is not None else max_idx + 1
    if max_idx >= n:
        raise FormatError(f"{path}: node index {max_idx} exceeds declared count {n}")
    if max_idx >= np.iinfo(np.intp).max:
        raise FormatError(f"{path}: node index {max_idx} is too large")
    return n, np.array((us, vs), dtype=np.intp).T


def _loadtxt(fh, dtype, comments):
    """The rest of `fh` as a 2-D array from one `np.loadtxt` call, or None if
    the parse raised or warned. NumPy 1.24 warns, not raises, on a float token
    in an integer column, and every version warns on an empty body. The
    warning filter is process-wide while the parse runs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(fh, dtype=dtype, comments=comments, ndmin=2)
        except (ValueError, OverflowError, Warning):
            return None


_raw_decode = json.JSONDecoder().raw_decode


def _json_record(line: str):
    """`json.loads(line)`, without its two whitespace regex scans when the
    value starts the line and only JSON whitespace follows it; any other
    line, valid or not, goes through `json.loads` itself."""
    try:
        rec, end = _raw_decode(line)
    except ValueError:
        return json.loads(line)
    return rec if not line[end:].strip(" \t\n\r") else json.loads(line)


def load_node_table(path, class_names) -> NodeTable:
    """Read a JSON-lines node table and resolve label strings to indices."""
    lookup = {name.strip().casefold(): i for i, name in enumerate(class_names)}
    texts, labels, ids = [], [], []
    any_text = False
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = _json_record(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid record: {exc}") from None
            if not isinstance(rec, dict):
                raise FormatError(f"{path}:{lineno}: record is not a JSON object")
            if "id" not in rec:
                raise FormatError(f"{path}:{lineno}: record has no id")
            if type(rec["id"]) is not int:   # bool is an int subclass
                raise FormatError(f"{path}:{lineno}: id {rec['id']!r} is not an integer")
            ids.append(rec["id"])
            if "text" in rec:
                any_text = True
                texts.append(str(rec["text"]))
            else:
                texts.append("")
            if "label" in rec and rec["label"] is not None:
                key = str(rec["label"]).strip().casefold()
                if key not in lookup:
                    raise FormatError(
                        f"{path}:{lineno}: unknown class {rec['label']!r} for id {rec['id']}"
                    )
                labels.append(lookup[key])
            else:
                labels.append(None)
    if not ids:
        raise FormatError(f"{path}: empty node table")
    if ids != list(range(len(ids))):
        raise FormatError(f"{path}: node ids must be 0..{len(ids) - 1} in order without gaps")
    have = [y is not None for y in labels]
    if any(have) and not all(have):
        missing = have.index(False)
        raise FormatError(f"{path}: label missing for id {missing} while others are labeled")
    return NodeTable(
        n=len(ids),
        class_names=list(class_names),
        texts=texts if any_text else None,
        labels=labels if all(have) else None,
    )


def load_embeddings(path) -> np.ndarray:
    """Read a text embedding matrix with an "n d" header: the finite (n, d) float64 array."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be 'n d'")
        try:
            n, d = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: header must be 'n d'") from None
        if n < 1 or d < 1:
            raise FormatError(f"{path}: header dimensions must be positive")
        body = fh.tell()
        out = _loadtxt(fh, np.float64, comments=None)
        if out is None or out.shape != (n, d) or not np.isfinite(out).all():
            fh.seek(body)
            out = _embedding_lines(path, fh, n, d)
    return out


def _embedding_lines(path, fh, n: int, d: int) -> np.ndarray:
    """Parse the rows after the header line one by one: the (n, d) matrix, or
    the FormatError of the first bad line."""
    out = np.empty((n, d), dtype=np.float64)
    row = 0
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        if row >= n:
            raise FormatError(f"{path}: expected {n} rows, found more at line {lineno}")
        parts = line.split()
        if len(parts) != d:
            raise FormatError(
                f"{path}:{lineno}: expected {d} values, got {len(parts)}"
            )
        for j, tok in enumerate(parts):
            try:
                val = float(tok)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad float {tok!r}") from None
            if not math.isfinite(val):
                raise FormatError(
                    f"{path}:{lineno}: non-finite value {tok!r} at row {row}, column {j}"
                )
            out[row, j] = val
        row += 1
    if row != n:
        raise FormatError(f"{path}: expected {n} rows, got {row}")
    return out


def save_embeddings(path, matrix: np.ndarray) -> None:
    """Write a 2-D array in the loadable text format at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
