"""Graphs, node tables, embeddings, and the one sparse type, `Csr`.

Every sparse matrix of the package is a `Csr`: a graph (its edges, with
no `data`; `Csr.edge_array` lists them as pairs), its normalized
adjacency Â, a row block of Â (`Csr.block`), and the `group_means` that
average a matrix's rows over groups of them. Each multiplies both ways,
M @ Y and M.T @ Y, on its own CSR arrays (`Csr.matmul`).

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

logger = logging.getLogger(__name__)

# the largest node count n whose n * n fits in intp: edge keys are lo * n + hi
MAX_NODES = math.isqrt(np.iinfo(np.intp).max)


class FormatError(ValueError):
    """An input file does not match its documented format."""


@dataclass(frozen=True)
class Csr:
    """A sparse matrix of a given `shape`, stored only as CSR.

    Each row keeps its stored columns ascending, and no (row, column) pair
    is stored twice. A graph is the (n, n) pattern with no `data`: every
    edge in the rows of both endpoints, no self-loop. Â, its row blocks
    and their group means hold `data`. Every product, M @ Y or M.T @ Y
    (`matmul`), runs SciPy's compiled kernels on these three arrays
    (`kernels.spmm`): no transpose and no other storage is built.
    `symmetric` marks a matrix equal to its transpose, whose transposed
    products are then its plain ones.
    """

    shape: tuple
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray | None = field(default=None, repr=False)
    symmetric: bool = False

    @classmethod
    def from_edges(cls, n: int, edges) -> "Csr":
        """The graph of pairs (u, v) or an (m, 2) integer array; duplicates collapse."""
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
        keys = lo * n   # in place, as in _pattern
        keys += hi
        keys.sort()
        # not np.unique: its first call imports numpy.ma, ~15 ms of every loader's start-up
        lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        del keys, lo, hi   # freed before _pattern's own entry-sized array
        return cls._pattern(n, rows, cols)

    @classmethod
    def _pattern(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "Csr":
        """The symmetric (n, n) pattern of the entries (rows[k], cols[k]), all
        distinct and closed under swapping row and column."""
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        keys = rows * n   # in place from here: one entry-sized array at a time
        keys += cols
        keys.sort()
        keys %= n
        return cls((n, n), indptr, keys, symmetric=True)

    @property
    def n(self) -> int:   # the node count of a graph or of Â
        return self.shape[0]

    @property
    def num_edges(self) -> int:
        """The edge count of a graph."""
        return self.indices.size // 2

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) array of a graph's edges (u, v) with u < v, in ascending order."""
        pairs = np.column_stack((self.entry_rows(), self.indices))
        return pairs[pairs[:, 0] < pairs[:, 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.intp), np.diff(self.indptr))

    def row_entries(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the stored entries of `rows`, row by row in stored order."""
        counts = self.indptr[rows + 1] - self.indptr[rows]
        return np.arange(counts.sum()) + np.repeat(self.indptr[rows] - np.cumsum(counts) + counts, counts)

    def reach(self, rows) -> np.ndarray:
        """The ascending columns stored in `rows`: in Â, N(rows), every node
        adjacent to a row, the row itself included."""
        rows = np.asarray(rows, dtype=np.intp)
        return np.flatnonzero(np.bincount(self.indices[self.row_entries(rows)], minlength=self.shape[1]))

    def block(self, rows, cols=None) -> "Csr":
        """The block M[rows][:, cols] over ascending, distinct ids.

        `cols` defaults to `reach(rows)`, so the block holds every stored
        entry of its rows. Every row keeps M's ascending column order, so a
        product with the block adds the same nonzero terms in the same
        order as the product with M does. Returns the matrix itself when
        rows and columns cover all of it. A transposed product with a block
        of Â is, bitwise, the product with the block Â[cols][:, rows], since
        Â's entries dinv[u] * dinv[v] are bitwise symmetric.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = self.reach(rows) if cols is None else np.asarray(cols, dtype=np.intp)
        if (rows.size, cols.size) == self.shape:
            return self
        entries = self.row_entries(rows)
        local = np.full(self.shape[1], -1, dtype=np.intp)
        local[cols] = np.arange(cols.size)
        col = local[self.indices[entries]]
        keep = col >= 0
        row = np.repeat(np.arange(rows.size), self.indptr[rows + 1] - self.indptr[rows])
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(row[keep], minlength=rows.size), out=indptr[1:])
        return Csr((rows.size, cols.size), indptr, col[keep], self.data[entries[keep]])

    def group_means(self, offsets: np.ndarray, members: np.ndarray) -> "Csr":
        """P = diag(1/|B|)·B·M, M this matrix and B the 0/1 matrix of the
        groups members[offsets[g]:offsets[g + 1]] of its rows: row g of P is
        the mean of M's rows of group g, so P @ Y is the groups' mean rows
        of M @ Y.

        Each entry adds its members' values of M strictly in the order
        `members` lists them, then divides the sum by the group size; the
        columns of a row ascend. A member may repeat.
        """
        sizes = np.diff(offsets)
        counts = self.indptr[members + 1] - self.indptr[members]
        entries = self.row_entries(members)
        cols = self.shape[1]
        keys = np.repeat(np.repeat(np.arange(sizes.size), sizes), counts) * cols + self.indices[entries]
        order = np.argsort(keys, kind="stable")   # keeps member order within an entry
        keys = keys[order]
        first = np.diff(keys, prepend=-1) != 0
        sums = np.bincount(np.cumsum(first) - 1, weights=self.data[entries[order]])
        rows, cols_of = np.divmod(keys[first], cols)
        indptr = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=sizes.size), out=indptr[1:])
        return Csr((sizes.size, cols), indptr, cols_of, sums / sizes[rows])

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return self.matmul(dense)

    def matmul(self, dense: np.ndarray, out: np.ndarray = None, *, transpose: bool = False) -> np.ndarray:
        """self @ dense, or self.T @ dense with `transpose`, written into
        `out` when given (`kernels.spmm`). A symmetric matrix is its own
        transpose, so its transposed product is its plain one."""
        return kernels.spmm(self.indptr, self.indices, self.data, dense, shape=self.shape,
                            transpose=transpose and not self.symmetric, out=out)


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


def normalized_adjacency(graph: Csr) -> Csr:
    """Â, the graph's symmetrically normalized adjacency with implicit
    self-connections: deg̃(u)^-1/2 * deg̃(v)^-1/2 on the pattern of (A + I),
    where deg̃ counts the self-connection."""
    n = graph.n
    deg = np.diff(graph.indptr).astype(np.float64) + 1.0
    dinv = 1.0 / np.sqrt(deg)
    diag = np.arange(n, dtype=np.intp)
    pattern = Csr._pattern(n, np.concatenate([graph.entry_rows(), diag]), np.concatenate([graph.indices, diag]))
    return replace(pattern, data=dinv[pattern.entry_rows()] * dinv[pattern.indices])


def hop_distances(graph, core: int, need: int | None = None) -> tuple:
    """Shortest-path hop counts from `core` in a graph or the pattern of its
    Â, which give the same, as (nodes, levels) over the nodes reached
    (`kernels.bfs_levels`): `core` first at level 0, then level by level,
    ascending within a level. Unreached nodes are absent.

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


def load_edge_list(path) -> Csr:
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
    return Csr.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])  # self-loops warned above


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
