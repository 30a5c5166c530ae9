import dataclasses
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bundlesup import graphs, kernels
from bundlesup.graphs import (
    Csr,
    FormatError,
    MAX_NODES,
    NodeTable,
    hop_distances,
    load_edge_list,
    load_embeddings,
    load_node_table,
    normalized_adjacency,
    save_embeddings,
)

import reference
from reference import UNREACHABLE, dense_adjacency, edge_set, hop_array


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_basic(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "0 1\n1 2\n"))
        assert g.n == 3
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_duplicates_and_reversals_collapse(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "0 1\n1 0\n0 1\n"))
        assert edge_set(g) == {(0, 1)}

    def test_self_loop_skipped_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            g = load_edge_list(_write(tmp_path, "e.txt", "2 2\n"))
        assert g.n == 3
        assert g.num_edges == 0
        assert any("self-loop" in rec.message for rec in caplog.records)

    def test_header_sets_node_count(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "n 5\n0 1\n"))
        assert g.n == 5
        assert g.degree(4) == 0

    def test_comments_ignored(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.txt", "# header comment\n0 1 # trailing\n"))
        assert edge_set(g) == {(0, 1)}

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(FormatError, match=":2:"):
            load_edge_list(_write(tmp_path, "e.txt", "0 1\n0 one\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_edge_list(_write(tmp_path, "e.txt", "\n# only a comment\n"))

    def test_index_beyond_header_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_edge_list(_write(tmp_path, "e.txt", "n 3\n0 5\n"))

    @pytest.mark.parametrize("text, big", [
        ("99999999999999999999 1\n", "99999999999999999999"),   # beyond intp: per-line loop
        ("0 1\n9223372036854775807 2\n", "9223372036854775807"),  # intp's max: n would not fit
    ])
    def test_index_too_large_to_count_names_the_path(self, tmp_path, text, big):
        path = _write(tmp_path, "e.txt", text)
        with pytest.raises(FormatError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: node index {big} is too large"


    @pytest.mark.parametrize("header", ["n 99999999999999999999", "n 9223372036854775807",
                                        f"n {MAX_NODES + 1}"])
    def test_a_header_count_whose_square_overflows_is_refused(self, tmp_path, header):
        path = _write(tmp_path, "e.txt", f"# a graph\n{header}\n0 1\n")
        with pytest.raises(FormatError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}:2: node count {header[2:]} is too large to index"

    @pytest.mark.parametrize("text", ["0 1000000000000\n", "0 1\n1000000000000 2\n3 4\n"])
    def test_an_id_whose_count_squared_overflows_is_refused(self, tmp_path, text):
        """10**12 fits in intp, but n = 10**12 + 1 nodes would need edge keys
        up to n * n and an indptr of 8 TB."""
        path = _write(tmp_path, "e.txt", text)
        with pytest.raises(FormatError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: node count 1000000000001 (largest id + 1) is too large to index"

    def test_the_largest_count_is_the_square_root_of_intp(self):
        assert MAX_NODES**2 <= np.iinfo(np.intp).max < (MAX_NODES + 1) ** 2
        with pytest.raises(ValueError, match="too large"):
            Csr.from_edges(MAX_NODES + 1, [(0, 1)])


@pytest.mark.parametrize("load, data", [
    (load_edge_list, b"n 3\n0 1\n\xff 2\n"),
    (load_edge_list, b"0 1\n" * 5000 + b"\xff 2\n"),   # past the first read chunk
    (load_embeddings, b"2 1\n0\n\xff\n"),
    (lambda path: load_node_table(path, ["a"]), b'{"id": 0, "text": "\xff"}\n'),
], ids=["edges", "edges-late", "embeddings", "nodes"])
def test_bytes_that_are_not_utf8_raise_a_format_error_naming_the_path(tmp_path, load, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"


class TestHopDistances:
    def test_triangle(self):
        g = Csr.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert hop_array(g, 0).tolist() == [0, 1, 1]

    def test_chain(self):
        g = Csr.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert hop_array(g, 0).tolist() == [0, 1, 2, 3]

    def test_unreachable_sentinel(self):
        g = Csr.from_edges(4, [(0, 1), (1, 2)])
        assert hop_array(g, 0)[3] == UNREACHABLE

    def test_core_out_of_range(self):
        g = Csr.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            hop_distances(g, 2)

    def test_edge_triangle_property(self):
        """Adjacent nodes differ by at most one hop when both are reachable."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            mask = rng.random((n, n)) < 0.15
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            g = Csr.from_edges(n, edges)
            dist = hop_array(g, int(rng.integers(n)))
            for u, v in edge_set(g):
                if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE:
                    assert abs(int(dist[u]) - int(dist[v])) <= 1


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        g = Csr.from_edges(1, [])
        a = normalized_adjacency(g)
        assert dense_adjacency(a).tolist() == [[1.0]]

    def test_two_connected_nodes(self):
        g = Csr.from_edges(2, [(0, 1)])
        np.testing.assert_allclose(dense_adjacency(normalized_adjacency(g)), 0.5 * np.ones((2, 2)))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            mask = rng.random((n, n)) < 0.2
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            dense = dense_adjacency(normalized_adjacency(Csr.from_edges(n, edges)))
            np.testing.assert_array_equal(dense, dense.T)
            vals = dense[dense != 0]
            assert (vals > 0).all() and (vals <= 1).all()

    def test_pattern_is_adjacency_plus_identity(self):
        g = Csr.from_edges(3, [(0, 1)])
        dense = dense_adjacency(normalized_adjacency(g))
        expect = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        np.testing.assert_array_equal(dense != 0, expect)

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(11)
        n = 15
        mask = rng.random((n, n)) < 0.3
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        a = normalized_adjacency(Csr.from_edges(n, edges))
        x = rng.normal(size=(n, 4))
        np.testing.assert_allclose(a @ x, dense_adjacency(a) @ x, atol=1e-12)

    def test_products_build_and_keep_nothing(self):
        """Both orientations multiply on the operator's own arrays: after
        many products the operator holds its fields and nothing else."""
        rng = np.random.default_rng(12)
        a = normalized_adjacency(Csr.from_edges(6, [(0, 1), (1, 2), (3, 4)]))
        block = a.block([1, 3])
        p = block.group_means(np.array([0, 2]), np.array([0, 1]))
        for op in (a, block, p):
            for transpose in (False, True, False):
                op.matmul(rng.normal(size=(op.shape[transpose == 0], 3)), transpose=transpose)
            assert vars(op).keys() == {f.name for f in dataclasses.fields(Csr)}

    def test_block_equals_dense_submatrix(self):
        """Â[rows][:, cols] entry for entry, each row in ascending column
        order; its transposed products are those of the transposed block;
        default columns are N(rows)."""
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 20))
            mask = rng.random((n, n)) < rng.uniform(0.0, 0.4)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            a = normalized_adjacency(Csr.from_edges(n, edges))
            dense = dense_adjacency(a)
            rows = np.flatnonzero(rng.random(n) < 0.5)
            cols = np.flatnonzero(rng.random(n) < 0.6)
            block = a.block(rows, cols)
            got = np.zeros(block.shape)
            got[np.repeat(np.arange(rows.size), np.diff(block.indptr)), block.indices] = block.data
            np.testing.assert_array_equal(got, dense[rows][:, cols])
            assert all((np.diff(block.indices[block.indptr[k]:block.indptr[k + 1]]) > 0).all()
                       for k in range(rows.size))
            x = rng.normal(size=(rows.size, 2))
            np.testing.assert_allclose(block.matmul(x, transpose=True), dense[cols][:, rows] @ x, atol=1e-15)
            field, reached = a.block(rows), np.flatnonzero(dense[rows].any(axis=0))
            np.testing.assert_array_equal(a.reach(rows), reached)
            if rows.size == reached.size == n:
                assert field is a
            else:
                np.testing.assert_array_equal(dense_adjacency(field), dense[rows][:, reached])

    def test_block_transpose_is_the_cut_of_the_swapped_nodes(self):
        """A block's transposed products are bitwise the products of the cut
        Â[cols][:, rows], since Â is bitwise symmetric."""
        rng = np.random.default_rng(16)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            mask = rng.random((n, n)) < rng.uniform(0.0, 0.4)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            a = normalized_adjacency(Csr.from_edges(n, edges))
            rows = np.flatnonzero(rng.random(n) < 0.5)
            cols = np.flatnonzero(rng.random(n) < 0.6)
            for block, used in ((a.block(rows, cols), cols), (a.block(rows), a.reach(rows))):
                if block is a:
                    continue
                cut = a.block(used, rows)
                assert cut.shape == block.shape[::-1]
                y = rng.normal(size=(rows.size, 3))
                assert block.matmul(y, transpose=True).tobytes() == (cut @ y).tobytes()

    def test_block_over_every_node_is_the_operator(self):
        a = normalized_adjacency(Csr.from_edges(4, [(0, 1), (2, 3)]))
        assert a.block(np.arange(4)) is a
        assert a.block([0, 1, 2, 3], [0, 1, 2, 3]) is a

    def test_symmetric_transposed_products_are_the_plain_ones(self):
        """Â equals its transpose, and its transposed product, which runs the
        transposed kernel, is bitwise its plain one."""
        a = normalized_adjacency(Csr.from_edges(5, [(0, 1), (1, 2), (2, 4)]))
        y = np.random.default_rng(17).normal(size=(5, 3))
        kernel = kernels.spmm(a.indptr, a.indices, a.data, y, shape=a.shape, transpose=True)
        assert a.matmul(y, transpose=True).tobytes() == (a @ y).tobytes() == kernel.tobytes()
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            mask = rng.random((n, n)) < rng.uniform(0.0, 0.3)
            a = normalized_adjacency(Csr.from_edges(n, np.argwhere(np.triu(mask, 1))))
            y = rng.normal(size=(n, 4))
            assert a.matmul(y, transpose=True).tobytes() == (a @ y).tobytes()

    def test_block_products_keep_the_whole_graph_terms(self):
        """A block row adds the same terms in the same order as Â's row, so
        block products, plain and transposed, equal the whole-graph rows
        bitwise when the dropped columns are zero rows of the operand."""
        rng = np.random.default_rng(15)
        n = 30
        mask = rng.random((n, n)) < 0.15
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        a = normalized_adjacency(Csr.from_edges(n, edges))
        rows = np.flatnonzero(rng.random(n) < 0.3)
        block, cols = a.block(rows), a.reach(rows)
        x = rng.normal(size=(n, 5))
        np.testing.assert_array_equal(block @ x[cols], (a @ x)[rows])
        d = np.zeros((n, 3))
        d[rows] = rng.normal(size=(rows.size, 3))
        np.testing.assert_array_equal(block.matmul(d[rows], transpose=True), (a @ d)[cols])

    def test_every_product_goes_through_spmm_with_four_positional_arguments(self, monkeypatch):
        """perfbench's tracer unpacks (indptr, indices, data, dense) from the
        positional arguments of every spmm call, in both orientations."""
        seen = []
        real = kernels.spmm

        def counting(*args, **kwargs):
            indptr, indices, data, dense = args
            seen.append((indptr.shape[0] - 1, indices.shape[0], dense.shape))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "spmm", counting)
        rng = np.random.default_rng(13)
        g = Csr.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        a = normalized_adjacency(g)
        block = a.block([0, 3])
        for op in (a, block):
            dense = dense_adjacency(op)
            for cols in (1, 4, 2):
                x = rng.normal(size=(op.shape[1], cols))
                np.testing.assert_allclose(op @ x, dense @ x, atol=1e-12)
                y = rng.normal(size=(op.shape[0], cols))
                np.testing.assert_allclose(op.matmul(y, transpose=True), dense.T @ y, atol=1e-12)
        assert seen == [(op.shape[0], op.indices.size, (op.shape[k], c))
                        for op in (a, block) for c in (1, 4, 2) for k in (1, 0)]


@st.composite
def grouped_fields(draw):
    """Â of a small graph whose last nodes may be isolated, rows S (every
    node, or a draw of them), and groups of S's rows, local ids into S, a
    row possibly repeating within a group and across groups."""
    n = draw(st.integers(1, 12))
    linked = n - draw(st.integers(0, n // 2))
    pairs = draw(st.lists(st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1)), max_size=3 * n))
    a_hat = normalized_adjacency(Csr.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    if draw(st.booleans()):
        rows = np.arange(n)
    else:
        rows = np.unique(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    groups = draw(st.lists(st.lists(st.integers(0, rows.size - 1), min_size=1, max_size=6), min_size=1, max_size=6))
    return a_hat, rows, groups


class TestGroupMeans:
    @settings(max_examples=300, deadline=None)
    @given(grouped_fields())
    def test_equals_the_dense_group_means_of_the_block(self, case):
        """P = `group_means` of Â[S, N(S)] is the dense diag(1/|B|)·B·Â[S, N(S)],
        B counting each listed row once per listing, each entry summed in
        listing order; its rows keep ascending columns, and its transposed
        products are those of its dense transpose."""
        a_hat, rows, groups = case
        block = a_hat.block(rows)
        offsets = np.concatenate([[0], np.cumsum([len(g) for g in groups])])
        p = block.group_means(offsets, np.concatenate(groups))
        dense = dense_adjacency(a_hat)[rows][:, np.flatnonzero(dense_adjacency(a_hat)[rows].any(axis=0))]
        want = []
        for g in groups:
            acc = dense[g[0]].copy()
            for m in g[1:]:
                acc = acc + dense[m]
            want.append(acc / len(g))
        assert p.shape == (len(groups), dense.shape[1])
        np.testing.assert_array_equal(dense_adjacency(p), np.array(want))
        b = np.zeros((len(groups), rows.size))
        for k, g in enumerate(groups):
            np.add.at(b[k], g, 1.0)
        np.testing.assert_allclose(dense_adjacency(p), (b / b.sum(axis=1, keepdims=True)) @ dense, rtol=1e-14)
        for k in range(p.shape[0]):
            assert (np.diff(p.indices[p.indptr[k]:p.indptr[k + 1]]) > 0).all()
        rng = np.random.default_rng(len(groups))
        for transpose, dense_op in ((False, dense_adjacency(p)), (True, dense_adjacency(p).T)):
            y = rng.normal(size=(dense_op.shape[1], 3))
            want = dense_op @ y
            np.testing.assert_allclose(p.matmul(y, transpose=transpose), want, rtol=1e-12, atol=1e-15)


@st.composite
def transposable_operators(draw):
    """An operator training multiplies both ways: a block Â[rows][:, cols]
    of drawn rows and columns, which may leave rows and columns empty, or
    the group means of a field's rows, members repeating."""
    a_hat, rows, groups = draw(grouped_fields())
    if draw(st.booleans()):
        n = a_hat.n
        cols = np.unique(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
        return a_hat.block(rows, cols)
    offsets = np.concatenate([[0], np.cumsum([len(g) for g in groups])])
    return a_hat.block(rows).group_means(offsets, np.concatenate(groups))


class TestTransposedProducts:
    @settings(max_examples=300, deadline=None)
    @given(transposable_operators(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_equal_the_products_of_the_built_transpose(self, op, k, seed):
        """M.T @ Y on M's own arrays is bitwise the product with M's
        transpose built as its own CSR arrays (`reference.transpose`), into
        a new array or into a given one whatever it held, and the dense
        transpose's product within 1e-12."""
        y = np.random.default_rng(seed).normal(size=(op.shape[0], k))
        built = reference.transpose(op)
        want = built @ y
        got = op.matmul(y, transpose=True)
        assert got.shape == (op.shape[1], k) and got.tobytes() == want.tobytes()
        out = np.full(got.shape, np.nan)
        assert op.matmul(y, out=out, transpose=True) is out and out.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, dense_adjacency(op).T @ y, rtol=1e-12, atol=1e-15)


@st.composite
def edge_lists(draw):
    """(n, edges) with duplicates, reversed duplicates and isolated nodes."""
    n = draw(st.integers(1, 14))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    base = draw(st.lists(pair, max_size=30)) if n > 1 else []
    dups = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    flips = draw(st.lists(st.booleans(), min_size=len(dups), max_size=len(dups)))
    extra = [(v, u) if flip else (u, v) for (u, v), flip in zip(dups, flips)]
    return n, draw(st.permutations(base + extra))


def _dense(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


class TestCsrProperties:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_from_edges_is_csr_of_dense_adjacency(self, case):
        n, edges = case
        dense = _dense(n, edges)
        canonical = {(min(u, v), max(u, v)) for u, v in edges}
        for source in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
            g = Csr.from_edges(n, source)
            np.testing.assert_array_equal(g.indptr, np.r_[0, np.cumsum(dense.sum(axis=1))])
            np.testing.assert_array_equal(g.indices, np.nonzero(dense)[1])
            assert edge_set(g) == canonical
            assert g.num_edges == len(canonical)
            assert g.edge_array().tolist() == sorted(map(list, canonical))

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_normalized_adjacency_on_pattern_of_a_plus_i(self, case):
        n, edges = case
        pattern = _dense(n, edges) | np.eye(n, dtype=bool)
        dinv = 1.0 / np.sqrt(pattern.sum(axis=1).astype(np.float64))
        r, c = np.nonzero(pattern)
        expect = np.zeros((n, n))
        expect[r, c] = dinv[r] * dinv[c]
        np.testing.assert_array_equal(dense_adjacency(normalized_adjacency(Csr.from_edges(n, edges))), expect)


class TestFromEdges:
    def test_edges_are_derived_not_stored(self):
        assert "edges" not in {f.name for f in dataclasses.fields(Csr)}

    def test_the_node_count_is_read_off_the_shape(self):
        """A graph and its Â hold no node count of their own: `n` is the
        row count, which cannot be set apart from the shape."""
        assert "n" not in {f.name for f in dataclasses.fields(Csr)}
        graph = Csr.from_edges(5, [(0, 1), (3, 4)])
        a_hat = normalized_adjacency(graph)
        assert graph.n == a_hat.n == 5 == graph.shape[0] == a_hat.shape[0]
        with pytest.raises(AttributeError):
            graph.n = 6

    def test_first_bad_pair_in_input_order_is_reported(self):
        with pytest.raises(ValueError, match=r"edge \(5,0\) has an endpoint >= n=3"):
            Csr.from_edges(3, [(0, 1), (5, 0), (2, 2)])
        with pytest.raises(ValueError, match=r"self-loop \(2,2\)"):
            Csr.from_edges(3, [(0, 1), (2, 2), (5, 0)])
        with pytest.raises(ValueError, match=r"edge \(-1,2\)"):
            Csr.from_edges(3, np.array([[-1, 2]]))

    def test_rejects_what_is_not_pairs(self):
        with pytest.raises(ValueError):
            Csr.from_edges(3, [(0, 1, 2)])


class TestNodeTable:
    def test_label_mapping(self, tmp_path):
        path = _write(
            tmp_path,
            "nodes.jsonl",
            '{"id": 0, "label": "A"}\n{"id": 1, "label": "A"}\n{"id": 2, "label": "B"}\n',
        )
        table = load_node_table(path, ["A", "B"])
        assert np.array_equal(table.labels, [0, 0, 1])

    def test_case_insensitive_label(self, tmp_path):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0, "label": "a"}\n')
        assert np.array_equal(load_node_table(path, ["A"]).labels, [0])

    def test_unknown_label_rejected(self, tmp_path):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0, "label": "Z"}\n')
        with pytest.raises(FormatError, match="unknown class"):
            load_node_table(path, ["A", "B"])

    def test_id_gap_rejected(self, tmp_path):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0}\n{"id": 2}\n')
        with pytest.raises(FormatError, match="gaps"):
            load_node_table(path, ["A"])

    def test_partial_labels_rejected(self, tmp_path):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0, "label": "A"}\n{"id": 1}\n')
        with pytest.raises(FormatError, match="missing"):
            load_node_table(path, ["A"])

    def test_texts_absent_when_no_record_has_text(self, tmp_path):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0, "label": "A"}\n')
        assert load_node_table(path, ["A"]).texts is None

    def test_class_names_must_be_distinct_after_folding(self):
        with pytest.raises(ValueError):
            NodeTable(n=0, class_names=["A", " a "])

    @pytest.mark.parametrize("labels", [[0, 1.5, 1], [0, 1.0, 1], [0, None, 1], [True, False, True],
                                        ["0", "1", "1"]])
    def test_labels_that_are_not_integers_are_refused(self, labels):
        with pytest.raises(ValueError, match="integer"):
            NodeTable(n=3, class_names=["A", "B"], labels=labels)

    @pytest.mark.parametrize("labels, message", [([0, 2, 1], "label 2 of node 1 is out of range"),
                                                 ([0, 1, -1], "label -1 of node 2 is out of range"),
                                                 ([0, 1], "length differs")])
    def test_labels_outside_the_classes_or_nodes_are_refused(self, labels, message):
        with pytest.raises(ValueError, match=message):
            NodeTable(n=3, class_names=["A", "B"], labels=labels)

    def test_labels_are_a_read_only_intp_copy(self):
        given = np.array([1, 0, 1], dtype=np.int32)
        table = NodeTable(n=3, class_names=["A", "B"], labels=given)
        assert table.labels.dtype == np.intp and np.array_equal(table.labels, given)
        with pytest.raises(ValueError, match="read-only"):
            table.labels[0] = 0
        given[0] = 0   # the caller's array stays its own
        assert table.labels[0] == 1

    @pytest.mark.parametrize("record, message", [
        ("1", "record is not a JSON object"),
        ('"xidx"', "record is not a JSON object"),
        ('{"id": 1.7}', r"id 1\.7 is not an integer"),
        ('{"id": true}', "id True is not an integer"),
    ])
    def test_a_record_without_an_integer_id_names_its_line(self, tmp_path, record, message):
        path = _write(tmp_path, "nodes.jsonl", '{"id": 0}\n' + record + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: {message}$"):
            load_node_table(path, ["A"])

    @pytest.mark.parametrize("line", [
        ' {"id": 0}\n', '{"id": 0} \t\r\n', '{"id": 0}', '{"id": 0} x\n', '{"id": 0}\x0c\n',
        '\ufeff{"id": 0}\n', '{"id": 0\n', '{"id": 0}{"id": 1}\n', '[{"id": 0}]\n',
    ])
    def test_a_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        """Each line is accepted exactly when `json.loads` accepts it, and
        refused with its message."""
        path = _write(tmp_path, "nodes.jsonl", line)
        try:
            want = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(FormatError) as got:
                load_node_table(path, ["A"])
            assert str(got.value) == f"{path}:1: invalid record: {exc}"
            return
        if isinstance(want, dict):
            assert load_node_table(path, ["A"]).n == 1
        else:
            with pytest.raises(FormatError, match="not a JSON object"):
                load_node_table(path, ["A"])


# -0.0, the smallest and largest subnormal, and the largest finite value
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max]
)


class TestEmbeddings:
    def test_basic_read(self, tmp_path):
        m = load_embeddings(_write(tmp_path, "x.txt", "2 2\n0 1\n1 0\n"))
        assert m.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert m.dtype == np.float64

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(FormatError, match="expected 3 rows"):
            load_embeddings(_write(tmp_path, "x.txt", "3 2\n0 1\n1 0\n"))

    def test_column_count_mismatch(self, tmp_path):
        with pytest.raises(FormatError, match="expected 2 values"):
            load_embeddings(_write(tmp_path, "x.txt", "1 2\n0 1 2\n"))

    def test_nan_rejected_with_position(self, tmp_path):
        with pytest.raises(FormatError, match="row 1, column 0"):
            load_embeddings(_write(tmp_path, "x.txt", "2 2\n0 1\nnan 0\n"))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5))
    def test_round_trip_full_precision(self, tmp_path, drawn):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(7, 5))
        data[0, 0] = 0.1
        data[1, 1] = 1.0 / 3.0
        data[2, 2] = 1e-300
        data[6] = drawn
        path = tmp_path / "emb.txt"
        save_embeddings(path, data)
        reloaded = load_embeddings(path)
        np.testing.assert_array_equal(reloaded, data)
        assert reloaded.tobytes() == data.tobytes()   # -0.0 keeps its sign


_SEPARATORS = [" ", "\t", "\x0c", "  ", " \t "]
_ODD_INTEGERS = ["1.0", "1_0", "+3", "\u0661", "nan", "inf", "1e400", "-0", "-1", "03", "99999999999999999999"]
_ODD_FLOATS = [
    "1.0", "1_0", "+3", "\u0661", "\u0661.5", "nan", "inf", "-inf", "1e400", "-0", "0x1p3", "1,5", "2#x",
]
_BLANKS = ["", " ", "\t", "\x0c", " \x0c\t"]
_FAULTS = st.sampled_from([0, 0, 0, 1, 1, 2, 3])   # the number of odd lines or tokens in a file


@st.composite
def edge_list_texts(draw):
    """Edge-list files: valid rows mixed with comments, blank lines, headers
    of every kind, self-loops, negative and out-of-range ids, rows of one or
    three fields and tokens that Python's int reads differently from NumPy."""
    k = draw(st.integers(1, 8))
    ident = st.integers(0, k).map(str)
    sep = st.sampled_from(_SEPARATORS)
    comment = st.sampled_from(["", "", " # trailing", "#x"])

    def row(*tokens):
        return draw(st.sampled_from(["", " ", "\t"])) + draw(sep).join(tokens) + draw(comment)

    body = []
    for _ in range(draw(st.sampled_from(range(11)))):
        u, step = draw(st.integers(0, k)), draw(st.integers(1, k))
        body.append(row(str(u), str((u + step) % (k + 1))))
    for _ in range(draw(_FAULTS)):
        kind = draw(st.sampled_from(
            ["blank", "comment", "self_loop", "negative", "beyond", "one", "three", "odd"]
        ))
        if kind == "blank":
            line = draw(st.sampled_from(_BLANKS))
        elif kind == "comment":
            line = draw(st.sampled_from(["# comment", "  # 0 1", "#"]))
        elif kind == "self_loop":
            a = draw(ident)
            line = row(a, a)
        elif kind == "negative":
            line = row("-1", draw(ident))
        elif kind == "beyond":
            line = row(draw(ident), str(k + draw(st.integers(1, 3))))
        elif kind == "one":
            line = row(draw(ident))
        elif kind == "three":
            line = row(draw(ident), draw(ident), draw(ident))
        else:
            line = row(*draw(st.permutations([draw(st.sampled_from(_ODD_INTEGERS)), draw(ident)])))
        body.insert(draw(st.integers(0, len(body))), line)
    header = draw(st.sampled_from(
        [[]] * 3 + [[f"n {k + 1}"]] * 3 + [[f"n {k}"], ["n 0"], ["n x"], ["n 1_0"], ["n"], ["n 3 4"]]
    ))
    lead = draw(st.lists(st.sampled_from(_BLANKS + ["# leading comment"]), max_size=2))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lead + header + body) + draw(st.sampled_from([end, ""]))


@st.composite
def embedding_texts(draw):
    """Embedding files: full-precision rows mixed with blank lines, short,
    long, missing and extra rows, '#' comments, odd headers and tokens that
    Python's float reads differently from NumPy or that are not finite."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        _EDGE_FLOATS.map(repr),
        st.integers(-9, 9).map(str),
    )
    rows = [[draw(value) for _ in range(d)] for _ in range(n)]
    for _ in range(draw(_FAULTS)):
        kind = draw(st.sampled_from(["token", "token", "short", "long", "comment", "extra", "drop", "blank"]))
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        if kind == "extra":
            rows.insert(i, [draw(value) for _ in range(d)])
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(_BLANKS))])
        elif not rows or not rows[i]:
            continue
        elif kind == "token":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_ODD_FLOATS))
        elif kind == "short":
            rows[i] = rows[i][:-1]
        elif kind == "long":
            rows[i] = rows[i] + [draw(value)]
        elif kind == "comment":   # the format has none
            rows[i] = rows[i] + [draw(st.sampled_from(["#", "# note", "#x"]))]
        else:
            del rows[i]
    header = draw(st.sampled_from([f"{n} {d}"] * 10 + [f"{n}\t{d}", f"{n}", f"{n} {d} 1", f"0 {d}", "a b"]))
    sep = draw(st.sampled_from(_SEPARATORS))
    lines = [header] + [sep.join(r) for r in rows] + draw(st.lists(st.sampled_from(_BLANKS), max_size=2))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(load, path, caplog):
    """What `load(path)` returns or raises, as comparable values, and the
    warnings it logs."""
    caplog.clear()
    try:
        out = load(path)
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    else:
        arrays = (out.indptr, out.indices) if isinstance(out, Csr) else (out,)
        got = (getattr(out, "n", None), [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])
    return got, [(rec.levelname, rec.getMessage()) for rec in caplog.records]


class TestLoadersAgainstPerLineReference:
    """The vectorised parse and its per-line fallback, against the per-line
    loaders of `reference`: the same arrays bitwise, or the same error and
    message, and the same warnings."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edge_list_texts())
    def test_edge_list(self, tmp_path, caplog, text):
        path = tmp_path / "e.txt"
        path.write_bytes(text.encode("utf-8"))
        with caplog.at_level("WARNING"):
            assert _outcome(load_edge_list, path, caplog) == _outcome(reference.load_edge_list, path, caplog)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(embedding_texts())
    def test_embeddings(self, tmp_path, caplog, text):
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode("utf-8"))
        with caplog.at_level("WARNING"):
            assert _outcome(load_embeddings, path, caplog) == _outcome(reference.load_embeddings, path, caplog)

    def test_clean_files_never_reach_the_per_line_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the per-line loop ran")

        monkeypatch.setattr(graphs, "_edge_lines", refuse)
        monkeypatch.setattr(graphs, "_embedding_lines", refuse)
        text = "# comment\n\nn 7\n0 1\n1\t2 # trailing\n\n3\x0c4\n+5 0\n"
        g = load_edge_list(_write(tmp_path, "e.txt", text))
        assert (g.n, edge_set(g)) == (7, {(0, 1), (1, 2), (3, 4), (0, 5)})
        g = load_edge_list(_write(tmp_path, "e.txt", "2 1\n0 3\n"))
        assert (g.n, edge_set(g)) == (4, {(1, 2), (0, 3)})
        data = np.random.default_rng(0).normal(size=(6, 3))
        data[0] = [-0.0, 5e-324, sys.float_info.max]
        save_embeddings(tmp_path / "x.txt", data)
        assert load_embeddings(tmp_path / "x.txt").tobytes() == data.tobytes()

    @pytest.mark.parametrize("name, text", [
        ("e.txt", "0 1\n2 2\n"),          # a self-loop: the loop warns with its line number
        ("e.txt", "n 3\n0 1\n1 3\n"),    # an id beyond the header's count
        ("e.txt", "n 3\n"),               # no body: NumPy warns
        ("e.txt", "0 1\n1_0 2\n"),        # a token Python's int takes and NumPy does not
        ("e.txt", "0 1\n1.0 2\n"),
        ("x.txt", "1 2\n1_0 2\n"),
        ("x.txt", "1 2\nnan 2\n"),
        ("x.txt", "2 2\n1 2\n"),          # too few rows
    ])
    def test_refused_files_go_to_the_per_line_loop(self, tmp_path, monkeypatch, name, text):
        class Refused(Exception):
            pass

        def refuse(*args):
            raise Refused

        monkeypatch.setattr(graphs, "_edge_lines", refuse)
        monkeypatch.setattr(graphs, "_embedding_lines", refuse)
        load = load_edge_list if name == "e.txt" else load_embeddings
        with pytest.raises(Refused):
            load(_write(tmp_path, name, text))
