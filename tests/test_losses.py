import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlesup.graphs import Csr, normalized_adjacency
from bundlesup.losses import FlatBundles, bundle_objective, member_ce_objective, node_ce_objective
from bundlesup.sampling import Bundle

from reference import (
    bundle_distribution,
    dense_adjacency,
    loss_be,
    loss_rank,
    segment_objective,
    softmax_row,
    total_loss_and_grad,
)


def make_bundles(rng, n_nodes, n_bundles, c, size=4):
    out = []
    for bid in range(n_bundles):
        members = rng.choice(n_nodes, size=size, replace=False).tolist()
        out.append(
            Bundle(id=bid, core=members[0], members=members, label=int(rng.integers(c)))
        )
    return out


class TestBundleDistribution:
    def test_identical_logits(self):
        z = np.tile(np.array([0.2, -1.0, 0.5]), (4, 1))
        b = Bundle(id=0, core=0, members=[0, 1, 2])
        np.testing.assert_allclose(
            bundle_distribution(z, b), softmax_row(np.array([0.2, -1.0, 0.5])), atol=1e-15
        )

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 4))
        p1 = bundle_distribution(z, Bundle(id=0, core=0, members=[0, 3, 5, 1]))
        p2 = bundle_distribution(z, Bundle(id=0, core=5, members=[5, 1, 0, 3]))
        np.testing.assert_array_equal(p1, p2)

    def test_singleton_is_node_softmax(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 5))
        np.testing.assert_allclose(bundle_distribution(z, [2]), softmax_row(z[2]), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle_distribution(np.zeros((2, 2)), [])


class TestLossValues:
    def test_uniform_cross_entropy(self):
        assert abs(loss_be(np.full(4, 0.25), 0) - math.log(4)) <= 1e-12

    def test_perfect_fit_is_zero(self):
        p = np.array([1.0 - 1e-15, 1e-15])
        assert loss_be(p, 0) <= 1e-12

    def test_direct_value(self):
        assert abs(loss_be(np.array([0.7, 0.2, 0.1]), 0) - (-math.log(0.7))) <= 1e-12

    def test_rank_zero_at_argmax(self):
        assert loss_rank(np.array([0.5, 0.3, 0.2]), 0) == 0.0

    def test_rank_positive_value(self):
        got = loss_rank(np.array([0.5, 0.3, 0.2]), 1)
        assert abs(got - math.log(0.5 / 0.3)) <= 1e-12

    def test_rank_tie_at_max_is_zero(self):
        assert loss_rank(np.array([0.4, 0.4, 0.2]), 1) == 0.0

    def test_losses_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = softmax_row(rng.normal(size=4) * 3)
            y = int(rng.integers(4))
            assert loss_be(p, y) >= 0
            r = loss_rank(p, y)
            assert r >= 0
            assert (r == 0.0) == (p[y] == p.max())


class TestLogMeanIdentity:
    def test_softmax_of_mean_log_probs_equals_softmax_of_mean_logits(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            z = rng.normal(size=(5, 6)) * rng.uniform(0.5, 3)
            logp = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1))[:, None] \
                - z.max(axis=1, keepdims=True)
            lhs = softmax_row(logp.mean(axis=0))
            rhs = softmax_row(z.mean(axis=0))
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestObjectiveGradients:
    def _fd_check(self, objective, z, atol=1e-6):
        value = objective(z)
        step = 1e-6
        fd = np.zeros_like(z)
        for i in range(z.shape[0]):
            for c in range(z.shape[1]):
                zp = z.copy(); zp[i, c] += step
                zm = z.copy(); zm[i, c] -= step
                fd[i, c] = (objective(zp).loss - objective(zm).loss) / (2 * step)
        denom = max(1.0, np.abs(value.d_z).max(), np.abs(fd).max())
        assert np.abs(value.d_z - fd).max() / denom <= atol
        return value

    def test_bundle_objective_matches_fd(self):
        rng = np.random.default_rng(4)
        flat = FlatBundles.from_bundles(make_bundles(rng, 15, 6, c=4))
        zbar = rng.normal(size=(flat.count, 4))
        self._fd_check(lambda zz: bundle_objective(zz, flat.labels), zbar)

    def test_be_only_and_rank_only_match_fd(self):
        rng = np.random.default_rng(5)
        flat = FlatBundles.from_bundles(make_bundles(rng, 12, 5, c=3))
        zbar = rng.normal(size=(flat.count, 3))
        self._fd_check(lambda zz: bundle_objective(zz, flat.labels, terms=("be",)), zbar)
        self._fd_check(lambda zz: bundle_objective(zz, flat.labels, terms=("rank",)), zbar)

    def test_member_ce_matches_fd(self):
        rng = np.random.default_rng(6)
        flat = FlatBundles.from_bundles(make_bundles(rng, 12, 5, c=3))
        z = rng.normal(size=(12, 3))
        self._fd_check(lambda zz: member_ce_objective(zz, flat), z)

    def test_node_ce_matches_fd(self):
        rng = np.random.default_rng(7)
        idx = np.array([0, 3, 5, 9])
        labels = np.array([1, 0, 2, 2])
        z = rng.normal(size=(12, 3))
        self._fd_check(lambda zz: node_ce_objective(zz, idx, labels), z)

    def test_uncovered_node_has_zero_gradient(self):
        rng = np.random.default_rng(8)
        bundles = [Bundle(id=0, core=0, members=[0, 1, 2], label=1)]
        z = rng.normal(size=(6, 3))
        _, d_z = total_loss_and_grad(z, bundles)
        assert not d_z[3:].any()

    def test_fitted_bundle_rank_gradient_vanishes(self):
        zbar = np.zeros((1, 3))
        zbar[:, 2] = 5.0
        labels = np.array([2])
        full = bundle_objective(zbar, labels)
        be = bundle_objective(zbar, labels, terms=("be",))
        np.testing.assert_array_equal(full.d_z, be.d_z)
        assert full.rank_mean == 0.0

    def test_members_in_multiple_bundles_accumulate(self):
        z = np.random.default_rng(9).normal(size=(4, 3))
        b1 = [Bundle(id=0, core=0, members=[0, 1], label=0)]
        b2 = [Bundle(id=1, core=1, members=[1, 2], label=2)]
        both = b1 + b2
        _, g1 = total_loss_and_grad(z, b1)
        _, g2 = total_loss_and_grad(z, b2)
        _, g = total_loss_and_grad(z, both)
        np.testing.assert_allclose(g, (g1 + g2) / 2, atol=1e-14)

    def test_nodes_are_groups_of_one_in_the_given_order(self):
        """`from_nodes` keeps order and repeats; node_ce on its groups is
        `node_ce_objective` on the nodes and labels given."""
        flat = FlatBundles.from_nodes([5, 2, 5, 0], [1, 0, 2, 2])
        np.testing.assert_array_equal(flat.members, [5, 2, 5, 0])
        np.testing.assert_array_equal(flat.offsets, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(flat.sizes, [1, 1, 1, 1])
        np.testing.assert_array_equal(flat.labels, [1, 0, 2, 2])
        np.testing.assert_array_equal(flat.ids, [0, 1, 2, 3])
        # a group of one's distribution is its node's softmax: the entropy
        # term is the node's cross-entropy
        z = np.random.default_rng(11).normal(size=(6, 3))
        assert bundle_objective(z[flat.members], flat.labels, terms=("be",)).loss == pytest.approx(
            node_ce_objective(z, flat.members, flat.labels).loss, rel=1e-14)

    @pytest.mark.parametrize("nodes, labels, message", [
        ([], [], "no annotated nodes"),
        ([0, 1], [0], "one label per node"),
        ([[0, 1]], [[0, 1]], "one label per node"),
        ([0, 1.5], [0, 1], "must be integers"),
        ([0, 1], [0.0, 1.0], "must be integers"),
        ([0, 1], [True, False], "must be integers"),
    ])
    def test_nodes_without_one_label_each_are_refused(self, nodes, labels, message):
        with pytest.raises(ValueError, match=message):
            FlatBundles.from_nodes(nodes, labels)

    def test_no_labeled_bundles_rejected(self):
        with pytest.raises(ValueError, match="labeled"):
            FlatBundles.from_bundles([Bundle(id=0, core=0, members=[0, 1])])

    def test_unlabeled_bundles_excluded(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(6, 3))
        labeled = [Bundle(id=0, core=0, members=[0, 1], label=1)]
        mixed = labeled + [Bundle(id=1, core=2, members=[2, 3])]
        np.testing.assert_array_equal(
            total_loss_and_grad(z, mixed)[1], total_loss_and_grad(z, labeled)[1]
        )


@st.composite
def overlapping_bundles(draw):
    """Labeled bundles of 2 to 20 members over 30 nodes, so that segments
    reach the 8 rows at which NumPy's segment sums stop adding in order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 5))
    bundles = []
    for bid in range(draw(st.integers(1, 10))):
        members = rng.choice(30, size=int(rng.integers(2, 21)), replace=False).tolist()
        bundles.append(Bundle(id=bid, core=members[0], members=members, label=int(rng.integers(c))))
    z = rng.normal(size=(30, c)) * 10.0 ** rng.integers(-3, 4, size=(30, 1))
    return FlatBundles.from_bundles(bundles), z


class TestMembershipOperator:
    """The group means P = diag(1/|B|)·B·M, B the bundles' 0/1 membership
    matrix, that carry member rows to the group loss and back."""

    @settings(max_examples=100, deadline=None)
    @given(problem=overlapping_bundles())
    def test_b_z_is_a_left_to_right_sum_of_member_rows(self, problem):
        """Each row of B M adds the bundle's member rows of M one at a time
        in ascending order, then P divides it by |B|; P's transposed
        products are those of its dense transpose."""
        flat, z = problem
        cols = z.shape[1] + 3
        m = np.where(np.random.default_rng(z.shape[1]).random((30, cols)) < 0.4, 1.0, 0.0) * z.sum(axis=1)[:, None]
        entries = np.nonzero(m)
        op = Csr(m.shape, np.concatenate([[0], np.cumsum((m != 0).sum(axis=1))]), entries[1], m[entries])
        p = op.group_means(flat.offsets, flat.members)
        want = []
        for lo, hi in zip(flat.offsets[:-1], flat.offsets[1:]):
            acc = m[flat.members[lo]].copy()
            for k in flat.members[lo + 1:hi]:
                acc = acc + m[k]
            want.append(acc / (hi - lo))
        np.testing.assert_array_equal(dense_adjacency(p), np.array(want))
        y = np.random.default_rng(cols).normal(size=(p.shape[0], 2))
        np.testing.assert_allclose(p.matmul(y, transpose=True), dense_adjacency(p).T @ y, rtol=1e-12, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(problem=overlapping_bundles(), terms=st.sampled_from((("be", "rank"), ("be",), ("rank",))))
    def test_objective_matches_segment_sums(self, problem, terms):
        """The group loss at the group means P z, with its gradient carried
        back through P^T, gives the loss and member-logit gradient of the
        gather, reduceat and add.at objective within 1e-12 relative; they
        differ only in the order the member rows are added."""
        flat, z = problem
        identity = Csr((30, 30), np.arange(31), np.arange(30), np.ones(30))
        p = identity.group_means(flat.offsets, flat.members)
        got = bundle_objective(p @ z, flat.labels, terms=terms)
        d_z = p.matmul(got.d_z, transpose=True)
        want = segment_objective(z, flat, terms=terms)
        for name in ("loss", "be_mean", "rank_mean"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(d_z, want.d_z, rtol=1e-12, atol=1e-12 * np.abs(want.d_z).max())
        assert got.d_z.shape == (flat.count, z.shape[1])
        assert not d_z[np.setdiff1d(np.arange(30), flat.members)].any()

    def test_replaced_members_get_their_own_operator(self):
        """With members re-indexed into their sorted rows S, as training
        re-indexes them, the group means of the block Â[S, N(S)] are those
        of Â with the node ids, bitwise, on the columns N(S) and zero
        elsewhere; fields cannot be reassigned."""
        rng = np.random.default_rng(11)
        flat = FlatBundles.from_bundles(make_bundles(rng, 40, 6, c=3, size=5))
        edges = rng.integers(0, 40, size=(60, 2))
        a_hat = normalized_adjacency(Csr.from_edges(40, edges[edges[:, 0] != edges[:, 1]]))
        rows = np.unique(flat.members)
        local = replace(flat, members=np.searchsorted(rows, flat.members))
        block, cols = a_hat.block(rows), a_hat.reach(rows)
        mine = dense_adjacency(block.group_means(local.offsets, local.members))
        whole = dense_adjacency(a_hat.group_means(flat.offsets, flat.members))
        assert mine.shape == (flat.count, cols.size)
        np.testing.assert_array_equal(mine, whole[:, cols])
        assert not np.delete(whole, cols, axis=1).any()
        with pytest.raises(FrozenInstanceError):
            flat.members = local.members

    def test_keep_is_the_bundles_flattened_without_the_dropped_members(self):
        """`keep(mask)` equals flattening the bundles without the masked-out
        members, ids and labels included; a mask that empties a bundle is
        refused."""
        rng = np.random.default_rng(12)
        bundles = make_bundles(rng, 30, 8, c=3, size=5)
        bundles[2] = Bundle(id=41, core=0, members=[0, 1, 2], label=None)
        flat = FlatBundles.from_bundles(bundles)
        mask = rng.random(flat.members.size) < 0.5
        mask[flat.offsets[:-1]] = mask[flat.offsets[:-1] + 1] = True   # every bundle keeps two
        kept = flat.keep(mask)
        dropped = set(zip(np.repeat(flat.ids, flat.sizes)[~mask].tolist(), flat.members[~mask].tolist()))
        want = FlatBundles.from_bundles(
            [Bundle(id=b.id, core=m[0], members=m, label=b.label) for b in bundles if b.label is not None
             for m in [[v for v in b.members if (b.id, v) not in dropped]]])
        for name in ("members", "offsets", "sizes", "labels", "ids"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(want, name))
        with pytest.raises(ValueError, match="empty a bundle"):
            flat.keep(np.arange(flat.members.size) >= flat.sizes[0])
