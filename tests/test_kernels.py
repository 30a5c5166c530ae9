import builtins
import os
import subprocess
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundlesup
from bundlesup import kernels, sampling
from bundlesup.graphs import Csr
from bundlesup.sampling import SamplingBudgetError, SamplingConfig, sample_bundles

from reference import UNREACHABLE, adaptive_hop_distances, hop_array


def random_csr(rng, n, density=0.1, allow_empty_rows=True):
    mask = rng.random((n, n)) < density
    if not allow_empty_rows:
        mask[np.arange(n), rng.integers(0, n, n)] = True
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(mask)[1].astype(np.intp)
    data = rng.random(indices.size)
    return indptr, indices, data, mask


class TestSpmm:
    def test_matches_dense_matmul(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(3, 40))
            indptr, indices, data, mask = random_csr(rng, n)
            dense = rng.normal(size=(n, int(rng.integers(1, 8))))
            full = np.zeros((n, n))
            full[mask] = data
            expect = full @ dense
            got = kernels.spmm(indptr, indices, data, dense, shape=(n, n))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_empty_rows_give_zero_rows(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.intp)
        indices = np.array([0, 2], dtype=np.intp)
        data = np.array([2.0, 3.0])
        dense = np.arange(6, dtype=float).reshape(3, 2)
        out = kernels.spmm(indptr, indices, data, dense, shape=(3, 3))
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_allclose(out[1], 2.0 * dense[0] + 3.0 * dense[2])

    def test_all_empty_matrix(self):
        indptr = np.zeros(4, dtype=np.intp)
        out = kernels.spmm(indptr, np.empty(0, dtype=np.intp), np.empty(0), np.ones((3, 2)), shape=(3, 3))
        np.testing.assert_array_equal(out, 0.0)

    def test_out_holds_the_allocated_product_bitwise(self):
        """`out` receives bitwise the product SciPy's `csr_array` allocates,
        M @ dense and M.T @ dense, whatever it held before, from SciPy's
        compiled kernels and where its private `_sparsetools` is missing."""
        for transpose in (False, True):
            self._check_out_holds_the_allocated_product_bitwise(transpose)

    @staticmethod
    def _check_out_holds_the_allocated_product_bitwise(transpose):
        from scipy.sparse import csr_array

        rng = np.random.default_rng(3)
        indptr, indices, data, mask = random_csr(rng, 30, density=0.2)
        matrix = csr_array((data, indices, indptr), shape=(30, 40))
        dense = rng.normal(size=(30 if transpose else 40, 6))
        expect = (matrix.T if transpose else matrix) @ dense
        product = partial(kernels.spmm, indptr, indices, data, dense, shape=matrix.shape, transpose=transpose)
        np.testing.assert_array_equal(product(), expect)
        out = np.full(expect.shape, np.nan)
        assert product(out=out) is out
        np.testing.assert_array_equal(out, expect)
        out = np.full(expect.shape, np.nan)
        with mock.patch.dict(sys.modules, {"scipy.sparse._sparsetools": None}):
            kernels._matvecs.cache_clear()
            try:
                assert kernels._matvecs() is None
                assert product(out=out) is out
            finally:
                kernels._matvecs.cache_clear()
        np.testing.assert_array_equal(out, expect)

    def test_kernels_are_looked_up_once(self, monkeypatch):
        """After the first product, neither orientation imports anything."""
        rng = np.random.default_rng(5)
        indptr, indices, data, _ = random_csr(rng, 10, density=0.3)
        kernels.spmm(indptr, indices, data, np.ones((10, 2)), shape=(10, 10))
        imports = []
        real = builtins.__import__

        def counting(name, *args, **kwargs):
            imports.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting)
        for transpose in (False, True, False):
            kernels.spmm(indptr, indices, data, np.ones((10, 2)), shape=(10, 10), transpose=transpose)
        assert imports == []

    def test_an_out_it_cannot_write_through_is_refused(self):
        """A view that is not C-contiguous, another dtype or another shape
        raises instead of receiving a copy of the product, for M and M.T."""
        rng = np.random.default_rng(4)
        indptr, indices, data, _ = random_csr(rng, 12, density=0.3)
        dense = rng.normal(size=(12, 4))
        for transpose in (False, True):
            for out, what in [(np.zeros((12, 8))[:, ::2], "not C-contiguous"),
                              (np.zeros((4, 12)).T, "not C-contiguous"),
                              (np.zeros((12, 4), dtype=np.float32), "float32 of shape"),
                              (np.zeros((11, 4)), r"got float64 of shape \(11, 4\)")]:
                with pytest.raises(ValueError, match=r"out must be a C-contiguous float64 array of shape "
                                                     rf"\(12, 4\), .*{what}"):
                    kernels.spmm(indptr, indices, data, dense, shape=(12, 12), transpose=transpose, out=out)
                assert not out.any()

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("case", ["operand_not_2d", "operand_rows", "indptr_entries"])
    def test_arguments_that_do_not_fit_the_shape_are_refused(self, case, transpose):
        """The compiled kernels check no bounds, so an operand or an indptr
        that does not fit the matrix's shape raises a ValueError naming the
        shapes before they run; M is (12, 7), so M's inner dimension is 7
        and M.T's is 12."""
        rng = np.random.default_rng(6)
        indptr, indices, data, _ = random_csr(rng, 7, density=0.5)
        indptr = np.concatenate([indptr, np.full(5, indptr[-1])])   # 12 rows, columns 0..6
        shape = (12, 7)
        inner = 12 if transpose else 7
        dense = rng.normal(size=(inner, 3))
        if case == "operand_not_2d":
            dense, match = dense[:, 0], r"operand must be 2-D, got shape \(%d,\)" % inner
        elif case == "operand_rows":   # the other dimension, as swapped (rows, cols) would give
            dense = rng.normal(size=(19 - inner, 3))
            match = r"operand of %sa \(12, 7\) matrix must be \(%d, k\), got shape \(%d, 3\)" % (
                "the transpose of " if transpose else "", inner, 19 - inner)
        else:
            indptr, match = indptr[:-1], r"indptr of a \(12, 7\) matrix needs 13 entries, got shape \(12,\)"
        with pytest.raises(ValueError, match=match):
            kernels.spmm(indptr, indices, data, dense, shape=shape, transpose=transpose)


class TestBfs:
    def _levels_by_reference(self, adj_sets, n, src):
        from collections import deque

        levels = [-1] * n
        levels[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in sorted(adj_sets[u]):
                if levels[v] < 0:
                    levels[v] = levels[u] + 1
                    queue.append(v)
        return levels

    def test_matches_reference_bfs(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(2, 50))
            mask = rng.random((n, n)) < 0.1
            mask |= mask.T
            np.fill_diagonal(mask, False)
            adj_sets = [set(np.nonzero(mask[i])[0]) for i in range(n)]
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(mask.sum(axis=1), out=indptr[1:])
            indices = np.nonzero(mask)[1].astype(np.intp)
            src = int(rng.integers(n))
            nodes, levels = kernels.bfs_levels(indptr, indices, src)
            want = self._levels_by_reference(adj_sets, n, src)
            # level by level, ascending within a level, every reached node once
            order = sorted((lv, v) for v, lv in enumerate(want) if lv >= 0)
            assert list(zip(levels.tolist(), nodes.tolist())) == order

    def test_stops_at_first_level_with_enough_nodes(self):
        path = Csr.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert hop_array(path, 0, need=2).tolist() == [0, 1, 2, -1, -1]
        star = Csr.from_edges(6, [(0, i) for i in range(1, 6)] + [(5, 4)])
        # level 1 holds one node, level 2 four: all of level 2 is kept
        assert hop_array(star, 1, need=3).tolist() == [1, 0, 2, 2, 2, 2]

    def test_small_component_runs_to_exhaustion(self):
        g = Csr.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        assert hop_array(g, 0, need=4).tolist() == [0, 1, 2, -1, -1, -1]
        assert hop_array(g, 0, need=None).tolist() == [0, 1, 2, -1, -1, -1]


def random_graph(draw, max_n=30):
    n = draw(st.integers(2, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return Csr.from_edges(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def graph_and_core(draw):
    g = random_graph(draw)
    return g, draw(st.integers(0, g.n - 1))


def _outcome(fn):
    try:
        return [(b.id, b.core, b.members) for b in fn()]
    except SamplingBudgetError as exc:
        return str(exc)


class TestEarlyStopProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(graph_and_core(), st.integers(1, 10))
    def test_agrees_with_full_bfs_within_radius(self, gc, need):
        g, core = gc
        full = hop_array(g, core)
        got = hop_array(g, core, need)
        radius = int(got.max())
        inside = (full >= 0) & (full <= radius)
        np.testing.assert_array_equal(got[inside], full[inside])
        assert (got[~inside] == UNREACHABLE).all()
        reached = np.count_nonzero(got > 0)
        if reached < need:
            assert radius == full.max()  # the component ran out first
        else:
            assert np.count_nonzero((full > 0) & (full < radius)) < need

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data(), st.integers(2, 8), st.integers(1, 40), st.integers(0, 2**16))
    def test_topological_bundles_match_full_bfs(self, data, size, count, seed):
        g = random_graph(data.draw)
        cfg = SamplingConfig(criterion="topological", bundle_size=size, num_bundles=count,
                             seed=seed, max_resample_attempts=20)
        got = _outcome(lambda: sample_bundles(g, None, cfg))

        def whole_bfs(graph, core, need):
            # cut to the adaptive radius of `size`, whatever depth the sampler asks for
            return adaptive_hop_distances(graph, core, size)

        with mock.patch.object(sampling, "hop_distances", whole_bfs):
            expect = _outcome(lambda: sample_bundles(g, None, cfg))
        assert got == expect


def test_importing_the_package_leaves_scipy_sparse_out():
    # scipy.sparse is imported on the first product and urllib.request on the
    # first chat request, so start-up stays cheap
    src = os.path.dirname(os.path.dirname(bundlesup.__file__))
    code = ("import sys, bundlesup.pipeline, bundlesup.theorems; "
            "print([name in sys.modules for name in ('scipy.sparse', 'urllib.request')])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[False, False]"
