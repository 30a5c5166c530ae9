import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlesup import gnn
from bundlesup.graphs import Csr, normalized_adjacency
from bundlesup.losses import softmax_rows
from bundlesup.pipeline import accuracy

from reference import one_hot_rows, softmax_row


def random_instance(seed, n=12, d=4, h=5, c=3, p_edge=0.3):
    rng = np.random.default_rng(seed)
    while True:
        mask = rng.random((n, n)) < p_edge
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if edges:
            break
    a_hat = normalized_adjacency(Csr.from_edges(n, edges))
    params = gnn.init_params(d, h, c, seed)
    return a_hat, gnn.ax_ones(a_hat, rng.normal(size=(n, d))), params


class TestInit:
    def test_deterministic(self):
        a = gnn.init_params(4, 8, 3, seed=7)
        b = gnn.init_params(4, 8, 3, seed=7)
        for ta, tb in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_biases_zero(self):
        p = gnn.init_params(4, 8, 3, seed=0)
        assert not p.b1.any() and not p.b2.any()

    def test_weight_bounds(self):
        p = gnn.init_params(6, 10, 4, seed=1)
        assert np.abs(p.w1).max() <= np.sqrt(6 / (6 + 10))
        assert np.abs(p.w2).max() <= np.sqrt(6 / (10 + 4))

    def test_vector_round_trip(self):
        p = gnn.init_params(3, 4, 2, seed=2)
        q = p.from_vector(p.to_vector())
        for ta, tb in zip(p.tensors(), q.tensors()):
            np.testing.assert_array_equal(ta, tb)
        assert p.n_params == p.to_vector().size


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_row(np.zeros(2)), [0.5, 0.5])

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax_row(z), softmax_row(z + 7.0), rtol=1e-14)

    def test_overflow_stability(self):
        p = softmax_row(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)


class TestForward:
    def test_zero_params_uniform(self):
        a_hat, ax, params = random_instance(0)
        zeros = gnn.GcnParams(
            w1=np.zeros_like(params.w1),
            b1=np.zeros_like(params.b1),
            w2=np.zeros_like(params.w2),
            b2=np.zeros_like(params.b2),
        )
        trace = gnn.forward(zeros, a_hat, ax)
        np.testing.assert_array_equal(trace.z, 0.0)
        p = softmax_rows(trace.z)
        np.testing.assert_allclose(p, 1.0 / p.shape[1])

    def test_isolated_node_is_plain_mlp(self):
        g = Csr.from_edges(1, [])
        a_hat = normalized_adjacency(g)
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(1, 4))) + 0.5
        params = gnn.init_params(4, 5, 3, seed=1)
        params.w1[:] = np.abs(params.w1)  # keep the hidden layer in the linear regime
        trace = gnn.forward(params, a_hat, gnn.ax_ones(a_hat, x))
        expect = (x @ params.w1 + params.b1) @ params.w2 + params.b2
        np.testing.assert_allclose(trace.z, expect, atol=1e-12)

    def test_probability_rows_valid(self):
        a_hat, ax, params = random_instance(5)
        p = softmax_rows(gnn.forward(params, a_hat, ax).z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        n = 10
        mask = rng.random((n, n)) < 0.35
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        x = rng.normal(size=(n, 3))
        params = gnn.init_params(3, 4, 2, seed=0)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        g1 = Csr.from_edges(n, edges)
        g2 = Csr.from_edges(n, [(int(inv[u]), int(inv[v])) for u, v in edges])
        a1, a2 = normalized_adjacency(g1), normalized_adjacency(g2)
        z1 = gnn.forward(params, a1, gnn.ax_ones(a1, x)).z
        z2 = gnn.forward(params, a2, gnn.ax_ones(a2, x[perm][np.argsort(inv[perm])])).z
        # relabeling nodes by perm: row i of the first run appears at inv[i]
        np.testing.assert_allclose(z1, z2[inv[np.arange(n)]], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        a_hat, ax, params = random_instance(1)
        with pytest.raises(ValueError):
            gnn.forward(params, a_hat, ax[:, 2:])

    def test_a_whole_graph_pass_keeps_only_the_four_arrays(self):
        """The traced peak of one forward pass is the arrays it makes, H and
        Z, and the H W2 that Z propagates, within 10%: no pre-activation or
        probability array is held beside them, and the given [A X | 1] is
        neither copied nor rebuilt."""
        rng = np.random.default_rng(0)
        n, d, h, c = 2000, 8, 64, 20
        edges = rng.integers(0, n, size=(8 * n, 2))
        a_hat = normalized_adjacency(Csr.from_edges(n, edges[edges[:, 0] != edges[:, 1]]))
        ax = gnn.ax_ones(a_hat, rng.normal(size=(n, d)))
        params = gnn.init_params(d, h, c, seed=0)
        tracemalloc.start()
        try:
            trace = gnn.forward(params, a_hat, ax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.ph is None and trace.ax is ax
        kept = sum(a.nbytes for a in (trace.h, trace.z)) + n * c * 8   # H W2: n x c floats
        assert peak <= 1.1 * kept


class TestLogits:
    def test_agree_with_the_forward_logits(self):
        """The logits Z = A (H W2) + b2 are the propagate-first A (H) W2 + b2
        up to rounding, with the same argmax, on the whole graph, and bitwise
        A applied to H W2, plus b2."""
        for seed in range(20):
            a_hat, ax, params = random_instance(seed, n=30, h=16, c=5, p_edge=0.15)
            params.b2[:] = np.random.default_rng(seed).normal(size=params.b2.shape)
            hidden = np.maximum(ax[:, :-1] @ params.w1 + params.b1, 0.0)
            want = (a_hat @ hidden) @ params.w2 + params.b2
            for z in (gnn.forward(params, a_hat, ax).z, gnn.logits(params, a_hat, ax)):
                np.testing.assert_allclose(z, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
                np.testing.assert_array_equal(z.argmax(axis=1), want.argmax(axis=1))
                np.testing.assert_array_equal(z, a_hat @ (hidden @ params.w2) + params.b2)

    def test_keep_the_forward_shape_checks(self):
        """Scoring reads the forward pass's logits, and with them its checks;
        features with a row too few are refused where [ÂX | 1] is built."""
        a_hat, ax, params = random_instance(1)
        n, d = ax.shape[0], ax.shape[1] - 1
        labels = np.zeros(n, dtype=np.intp)
        with pytest.raises(ValueError, match=f"features have 2 columns, params expect {d}"):
            accuracy(params, a_hat, ax[:, -3:], labels)
        with pytest.raises(ValueError, match=re.escape(f"ax has {n - 1} rows, but an operator of shape ({n}, {n})")):
            accuracy(params, a_hat, ax[:-1], labels)
        with pytest.raises(ValueError, match="feature rows do not match the adjacency"):
            gnn.ax_ones(a_hat, np.ones((n - 1, d)))


def planted_instance(n, d, c, seed=0):
    """A planted partition: node v in class v % c, four same-class edges per
    node and one cross-class edge per ten, features the class mean plus
    noise; returns (Â, [ÂX | 1], labels)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c
    u = rng.integers(0, n, size=4 * n)
    same = np.column_stack([u, (u + c * rng.integers(1, max(n // c, 2), size=u.size)) % n])
    cross = rng.integers(0, n, size=(n // 10, 2))
    edges = np.concatenate([same, cross])
    edges = edges[edges[:, 0] != edges[:, 1]]
    a_hat = normalized_adjacency(Csr.from_edges(n, edges))
    return a_hat, gnn.ax_ones(a_hat, np.eye(c, d)[labels] + rng.normal(scale=0.5, size=(n, d))), labels


class TestBlockedEvaluation:
    def test_accuracy_holds_no_n_by_h_array(self):
        """Scoring n = 20,000 nodes with h = 64 peaks below half an (n, h)
        float array: H is formed a block of rows at a time."""
        n, d, h, c = 20_000, 8, 64, 4
        a_hat, ax, labels = planted_instance(n, d, c)
        params = gnn.init_params(d, h, c, seed=0)
        tracemalloc.start()
        try:
            accuracy(params, a_hat, ax, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * h * 8 / 2

    @pytest.mark.parametrize("extra", [0, -1, 1, 2 * gnn.EVAL_ROWS + 5, 1 - gnn.EVAL_ROWS])
    def test_blocked_logits_match_the_forward_pass(self, extra):
        """At n = 1, block - 1, block, block + 1 and 3 block + 5 the blocked
        logits are the forward pass's up to rounding, with the same argmax
        and the same accuracy."""
        n = gnn.EVAL_ROWS + extra
        rng = np.random.default_rng(n)
        a_hat, ax, labels = planted_instance(n, 5, 4, seed=n) if n > 4 else (
            normalized_adjacency(Csr.from_edges(1, [])), np.append(rng.normal(size=5), 1.0)[None],
            np.zeros(1, dtype=np.intp))
        params = gnn.init_params(5, 16, 4, seed=1)
        params.b1[:] = rng.normal(scale=0.3, size=16)
        params.b2[:] = rng.normal(size=4)
        want = gnn.forward(params, a_hat, ax).z
        got = gnn.logits(params, a_hat, ax)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
        assert accuracy(params, a_hat, ax, labels) == float((want.argmax(axis=1) == labels).mean())

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), c=st.integers(2, 5), data=st.data())
    def test_ties_go_to_the_smallest_class_index(self, n, c, data):
        """Classes i < j whose W2 columns and b2 entries are equal, with b2
        lifting them above the rest, tie on every node: each is predicted i."""
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        edges = data.draw(st.lists(pair, max_size=20)) if n > 1 else []
        i, j = sorted(data.draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=2, unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a_hat = normalized_adjacency(Csr.from_edges(n, edges))
        ax = gnn.ax_ones(a_hat, rng.normal(size=(n, 3)))
        params = gnn.init_params(3, 6, c, seed=0).from_vector(rng.normal(size=3 * 6 + 6 + 6 * c + c))
        params.w2[:, j] = params.w2[:, i]
        params.b2[:] = 0.0
        params.b2[[i, j]] = 1e3
        labels = rng.integers(0, c, size=n)
        z = gnn.logits(params, a_hat, ax)
        np.testing.assert_array_equal(z[:, i], z[:, j])
        np.testing.assert_array_equal(z.argmax(axis=1), i)
        assert accuracy(params, a_hat, ax, labels) == float((labels == i).mean())


class TestFlatParameters:
    def test_views_write_through_to_the_vector(self):
        """`GcnParams.on` views the vector in `to_vector` order: a write to a
        tensor is a write to the vector and the reverse; `from_vector` copies."""
        params = gnn.init_params(3, 4, 2, seed=5)
        vec = params.to_vector()
        views = gnn.GcnParams.on(vec, *params.dims)
        for got, want in zip(views.tensors(), params.tensors()):
            np.testing.assert_array_equal(got, want)
            assert np.shares_memory(got, vec)
        views.w2[1, 0] = 7.0
        views.b2 -= 1.0
        vec[0] = -3.0
        np.testing.assert_array_equal(views.to_vector(), vec)
        assert views.w1[0, 0] == -3.0
        copied = params.from_vector(vec)
        assert not any(np.shares_memory(t, vec) for t in copied.tensors())
        with pytest.raises(ValueError, match="flat vector of 26"):
            gnn.GcnParams.on(vec[:-1], *params.dims)

    def test_the_first_layer_view_aliases_w1_b1_and_the_vector(self):
        """`layer1` of `GcnParams.on` is [W1; b1] as one (d+1, h) view: a write
        to any of layer1, w1, b1 or the vector shows in the others."""
        params = gnn.init_params(3, 4, 2, seed=5)
        vec = params.to_vector()
        views = gnn.GcnParams.on(vec, *params.dims)
        assert views.layer1.shape == (4, 4)
        assert np.shares_memory(views.layer1, vec)
        np.testing.assert_array_equal(views.layer1, np.vstack([params.w1, params.b1]))
        views.layer1[0, 1] = 11.0
        assert views.w1[0, 1] == 11.0 and vec[1] == 11.0
        views.layer1[3, 2] = 12.0
        assert views.b1[2] == 12.0 and vec[3 * 4 + 2] == 12.0
        views.w1[2, 3] = 13.0
        assert views.layer1[2, 3] == 13.0 and vec[2 * 4 + 3] == 13.0
        views.b1[0] = 14.0
        assert views.layer1[3, 0] == 14.0 and vec[12] == 14.0
        vec[13] = 15.0
        assert views.layer1[3, 1] == 15.0 and views.b1[1] == 15.0
        vec[5] = 16.0
        assert views.layer1[1, 1] == 16.0 and views.w1[1, 1] == 16.0
        np.testing.assert_array_equal(views.to_vector(), vec)

    @pytest.mark.parametrize("shapes", [
        [(3, 4), (5,), (4, 2), (1,)],       # the right total, one b1 value moved into b2's place
        [(3, 4), (4,), (3, 2), (4,)],       # w2 one row short, b2 two values long
        [(3, 4), (1, 4), (4, 2), (2,)],     # b1 a row, not a vector
        [(12,), (4,), (4, 2), (2,)],        # w1 not a matrix
    ], ids=["b1-into-b2", "w2-rows-into-b2", "b1-2d", "w1-1d"])
    def test_tensors_of_mismatched_shapes_are_refused(self, shapes):
        tensors = [np.zeros(shape) for shape in shapes]
        with pytest.raises(ValueError, match=re.escape(
                "w1, b1, w2, b2 must have shapes (d, h), (h,), (h, c), (c,), got "
                + ", ".join(map(str, shapes)))):
            gnn.GcnParams(*tensors)

    def test_backward_writes_into_the_given_views(self):
        """`backward(..., out=views)` fills the views' vector with the same
        gradients, bitwise, as a call that allocates its own."""
        a_hat, ax, params = random_instance(3)
        trace = gnn.forward(params, a_hat, ax)
        d_z = np.random.default_rng(3).normal(size=trace.z.shape)
        grad = np.full(params.n_params, np.nan)
        out = gnn.backward(params, a_hat, trace, d_z, out=gnn.GcnParams.on(grad, *params.dims))
        assert np.shares_memory(out.w1, grad)
        np.testing.assert_array_equal(grad, gnn.backward(params, a_hat, trace, d_z).to_vector())


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        a_hat, ax, params = random_instance(2)
        trace = gnn.forward(params, a_hat, ax)
        grads = gnn.backward(params, a_hat, trace, np.zeros_like(trace.z))
        for t in grads.tensors():
            assert not t.any()

    def test_matches_finite_differences(self):
        """Exact chain rule against central differences of a fixed projection."""
        for seed in range(20):
            a_hat, ax, params = random_instance(seed)
            rng = np.random.default_rng(1000 + seed)
            w = rng.normal(size=(ax.shape[0], params.w2.shape[1]))

            def scalar(vec):
                tr = gnn.forward(params.from_vector(vec), a_hat, ax)
                return float((tr.z * w).sum())

            trace = gnn.forward(params, a_hat, ax)
            grads = gnn.backward(params, a_hat, trace, w).to_vector()
            vec = params.to_vector()
            step = 1e-6
            fd = np.zeros_like(vec)
            for j in range(vec.size):
                vp = vec.copy(); vp[j] += step
                vm = vec.copy(); vm[j] -= step
                fd[j] = (scalar(vp) - scalar(vm)) / (2 * step)
            denom = max(1.0, np.abs(grads).max(), np.abs(fd).max())
            assert np.abs(grads - fd).max() / denom <= 1e-6

    def test_relu_mask_consistency(self):
        """The mask backward reads, H > 0, is the pre-activation's own."""
        a_hat, ax, params = random_instance(4)
        trace = gnn.forward(params, a_hat, ax)
        h_pre = ax[:, :-1] @ params.w1 + params.b1
        dead = h_pre <= 0
        assert dead.any() and not dead.all()
        np.testing.assert_array_equal(trace.h > 0, h_pre > 0)
        assert trace.h.tobytes() == np.maximum(h_pre, 0.0).tobytes()
        d_z = np.ones_like(trace.z)
        d_hidden = ((a_hat @ d_z) @ params.w2.T) * (trace.h > 0)
        assert not d_hidden[dead].any()

    def test_upstream_shape_checked(self):
        a_hat, ax, params = random_instance(6)
        trace = gnn.forward(params, a_hat, ax)
        with pytest.raises(ValueError):
            gnn.backward(params, a_hat, trace, trace.z[:, :1])


class TestRowBlock:
    def test_block_pass_equals_whole_graph_rows(self):
        """On Â[S, N(S)] the logits are the whole-graph rows S, bitwise, and
        the gradients those of the whole-graph pass with d_z zero off S."""
        for seed in range(10):
            a_hat, ax, params = random_instance(seed, n=20, p_edge=0.12)
            rows = np.flatnonzero(np.random.default_rng(seed).random(20) < 0.3)
            block, cols = a_hat.block(rows), a_hat.reach(rows)
            whole = gnn.forward(params, a_hat, ax)
            trace = gnn.forward(params, block, ax[cols])
            np.testing.assert_array_equal(trace.z, whole.z[rows])
            np.testing.assert_array_equal(trace.h, whole.h[cols])
            d_z = np.random.default_rng(100 + seed).normal(size=trace.z.shape)
            d_full = np.zeros_like(whole.z)
            d_full[rows] = d_z
            got = gnn.backward(params, block, trace, d_z).to_vector()
            want = gnn.backward(params, a_hat, whole, d_full).to_vector()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_group_means_pass_equals_mean_block_rows(self):
        """Through P = `group_means` of Â[S, N(S)] the logits are the groups'
        mean rows of the block pass's logits, and the gradients those of the
        block pass with each group's gradient spread over its members,
        within 1e-12 relative."""
        for seed in range(10):
            a_hat, ax, params = random_instance(seed, n=20, p_edge=0.12)
            rng = np.random.default_rng(seed)
            rows = np.flatnonzero(rng.random(20) < 0.4)
            groups = [np.sort(rng.choice(rows.size, size=int(rng.integers(1, rows.size + 1)), replace=False))
                      for _ in range(4)]
            offsets = np.concatenate([[0], np.cumsum([g.size for g in groups])])
            members = np.concatenate(groups)
            block = a_hat.block(rows)
            ax = ax[a_hat.reach(rows)]
            member = gnn.forward(params, block, ax)
            trace = gnn.forward(params, block.group_means(offsets, members), ax)
            want = np.array([member.z[g].mean(axis=0) for g in groups])
            np.testing.assert_allclose(trace.z, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            d_group = rng.normal(size=trace.z.shape)
            d_member = np.zeros_like(member.z)
            for g, d in zip(groups, d_group):
                d_member[g] += d / g.size
            got = gnn.backward(params, block.group_means(offsets, members), trace, d_group).to_vector()
            want = gnn.backward(params, block, member, d_member).to_vector()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("first", [False, True])
    def test_both_second_layer_orders_agree(self, first):
        """P (H W2) + b2 and (P H) W2 + b2 through group means give the same
        logits and gradients within 1e-12 relative; the trace keeps P H
        where the layer propagated first."""
        a_hat, ax, params = random_instance(5, n=20, p_edge=0.2)
        offsets, members = np.array([0, 3, 4, 7]), np.array([0, 2, 5, 1, 3, 4, 6])
        block = a_hat.block(np.arange(7))
        op, ax = block.group_means(offsets, members), ax[a_hat.reach(np.arange(7))]
        d_z = np.random.default_rng(5).normal(size=(3, params.dims[2]))
        want = gnn.forward(params, op, ax, propagate_first=not first)
        want_grads = gnn.backward(params, op, want, d_z).to_vector()
        got = gnn.forward(params, op, ax, propagate_first=first)
        assert (got.ph is None) == (not first)
        np.testing.assert_allclose(got.z, want.z, rtol=1e-12, atol=1e-12 * np.abs(want.z).max())
        got_grads = gnn.backward(params, op, got, d_z).to_vector()
        np.testing.assert_allclose(got_grads, want_grads, rtol=1e-12, atol=1e-12 * np.abs(want_grads).max())

    def test_an_ax_of_the_wrong_width_names_both_widths(self):
        """`ax` holds [ÂX | 1], d + 1 columns: Â X alone, or any other width,
        is refused by `forward` and `logits` with one error naming the
        features' width and the parameters' d."""
        a_hat, ax, params = random_instance(0)
        n, d = ax.shape[0], ax.shape[1] - 1
        for wrong in (ax[:, :-1], np.ones((n, d + 2))):
            for run in (gnn.forward, gnn.logits):
                with pytest.raises(ValueError, match=f"^features have {wrong.shape[1] - 1} columns, "
                                                     f"params expect {d}$"):
                    run(params, a_hat, wrong)

    def test_a_whole_graph_ax_with_a_row_block_names_both_shapes(self):
        """A row block reads the rows N(S) of [ÂX | 1]: the whole graph's
        array is refused with one error naming its shape and the block's."""
        a_hat, ax, params = random_instance(2, n=100, p_edge=0.02)
        block = a_hat.block(np.arange(10))
        with pytest.raises(ValueError) as err:
            gnn.forward(params, block, ax)
        assert f"ax has {ax.shape[0]} rows" in str(err.value) and str(block.shape) in str(err.value)
        assert f"needs {block.shape[1]}" in str(err.value)


@st.composite
def jacobian_cases(draw):
    """A small graph (isolated nodes likely), parameters, features and probes.
    The first layer is random, has every ReLU off, or holds hidden unit 0 at
    exactly zero, where the ReLU subgradient is fixed to zero."""
    n = draw(st.integers(1, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=15)) if n > 1 else []
    d, h, c = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = gnn.init_params(d, h, c, 0)
    params = params.from_vector(rng.normal(size=params.n_params))
    relu = draw(st.sampled_from(("random", "all off", "unit 0 at zero")))
    if relu == "all off":
        params.b1[:] = -1e3
    elif relu == "unit 0 at zero":
        params.w1[:, 0] = 0.0
        params.b1[0] = 0.0
    a_hat = normalized_adjacency(Csr.from_edges(n, edges))
    probe = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return a_hat, gnn.ax_ones(a_hat, rng.normal(size=(n, d))), params, probe


class TestLogitJacobian:
    @settings(max_examples=200, deadline=None)
    @given(jacobian_cases())
    def test_equals_one_hot_backward_rows(self, case):
        a_hat, ax, params, probe = case
        jac = gnn.logit_jacobian(params, a_hat, ax, probe)
        expect = one_hot_rows(params, a_hat, ax, probe)
        assert jac.shape == (len(probe), params.dims[2], params.n_params)
        assert np.abs(jac - expect).max() <= 1e-15 * max(1.0, np.abs(expect).max())

    def test_dead_relus_leave_only_the_output_bias(self):
        a_hat, ax, params = random_instance(3)
        params.b1[:] = -1e3
        jac = gnn.logit_jacobian(params, a_hat, ax, [0, 5])
        n_b2 = params.dims[2]
        assert not jac[:, :, :-n_b2].any()
        np.testing.assert_array_equal(jac[:, :, -n_b2:], np.broadcast_to(np.eye(n_b2), (2, n_b2, n_b2)))


def test_params_save_load_round_trip(tmp_path):
    params = gnn.init_params(5, 6, 4, seed=3)
    gnn.save_params(tmp_path / "p", params, seed=3)
    back = gnn.load_params(tmp_path / "p")
    for ta, tb in zip(params.tensors(), back.tensors()):
        np.testing.assert_array_equal(ta, tb)
