import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlesup.annotate import OracleConfig, annotate_all
from bundlesup.graphs import Csr, normalized_adjacency
from bundlesup.losses import FlatBundles
from bundlesup.sampling import Bundle, SamplingConfig, apply_refinements, sample_bundles
from bundlesup.synth import SbmConfig, gen_sbm
from bundlesup.train import (
    TrainConfig,
    TrainingDivergedError,
    estimate_logit_bounds,
    refine,
    train,
)
from bundlesup import gnn, kernels
from bundlesup.pipeline import MODES
from bundlesup import train as train_module

import reference
from reference import fd_logit_bounds, jacobian_difference_bounds, whole_graph_train

SMALL = SbmConfig(n=60, n_classes=4, p_in=0.3, p_out=0.02, dim=8, separation=2.0, seed=5)


def small_problem(noise=0.0, seed=0, n_bundles=15):
    graph, emb, table = gen_sbm(SMALL)
    bundles = sample_bundles(graph, emb, SamplingConfig(num_bundles=n_bundles, seed=seed))
    annotate_all(bundles, table, oracle=OracleConfig(noise_rate=noise, seed=seed))
    a_hat = normalized_adjacency(graph)
    return a_hat, gnn.ax_ones(a_hat, emb), table, bundles


def counting_refine(monkeypatch) -> list:
    """Wrap `train.refine`; the returned list gains the group sizes of each call."""
    rounds = []

    def counting(p, flat, floor):
        rounds.append(flat.sizes.copy())
        return refine(p, flat, floor)

    monkeypatch.setattr(train_module, "refine", counting)
    return rounds


def refined(p, bundles, floor=2):
    """`refine` on `bundles` flattened, with `p` indexed by node id: the
    evicted (bundle id, node) pairs and each labeled bundle's kept members."""
    flat = FlatBundles.from_bundles(bundles)
    gone = refine(p, flat, floor)
    owners = np.repeat(flat.ids, flat.sizes)[gone]
    keep = np.ones(flat.members.size, dtype=bool)
    keep[gone] = False
    kept = flat.keep(keep)
    segments = zip(kept.ids.tolist(), kept.offsets, kept.offsets[1:])
    members = {i: kept.members[a:z].tolist() for i, a, z in segments}
    return list(zip(owners.tolist(), flat.members[gone].tolist())), members


class TestRefine:
    def test_unique_minimum_evicted(self):
        p = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
        events, members = refined(p, [Bundle(id=0, core=0, members=[0, 1, 2], label=0)])
        assert events == [(0, 2)]
        assert members == {0: [0, 1]}

    def test_all_tie_skipped(self):
        p = np.full((3, 2), 0.5)
        events, members = refined(p, [Bundle(id=0, core=0, members=[0, 1, 2], label=0)])
        assert events == []
        assert members == {0: [0, 1, 2]}

    def test_floor_respected(self):
        p = np.array([[0.9, 0.1], [0.1, 0.9]])
        events, members = refined(p, [Bundle(id=0, core=0, members=[0, 1], label=0)])
        assert events == []
        assert members == {0: [0, 1]}

    def test_multiple_minima_all_evicted(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.7, 0.3]])
        events, members = refined(p, [Bundle(id=0, core=0, members=[0, 1, 2, 3], label=0)])
        assert members == {0: [0, 3]}
        assert events == [(0, 1), (0, 2)]

    def test_eviction_crossing_floor_skipped(self):
        # both minima would have to go, leaving one node: skip entirely
        p = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8]])
        events, members = refined(p, [Bundle(id=0, core=0, members=[0, 1, 2], label=0)])
        assert events == []
        assert members == {0: [0, 1, 2]}

    def test_core_is_evictable(self):
        p = np.array([[0.1, 0.9], [0.8, 0.2], [0.9, 0.1]])
        b = Bundle(id=0, core=0, members=[0, 1, 2], label=0)
        events, members = refined(p, [b])
        assert events == [(0, 0)]
        assert 0 not in members[0]
        # the refined copy without its core is still a valid bundle
        (back,) = apply_refinements([b], [(2, *e) for e in events])
        assert back.members == [1, 2] and back.evicted == [(2, 0)]

    def test_unlabeled_bundles_untouched(self):
        # unlabeled bundles are not flattened, so refinement never sees them
        p = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        events, members = refined(p, [Bundle(id=4, core=0, members=[0, 1, 2]),
                                      Bundle(id=7, core=0, members=[0, 1, 2], label=1)])
        assert events == [(7, 0)]
        assert members == {7: [1, 2]}
        with pytest.raises(ValueError, match="no labeled bundles"):
            refined(p, [Bundle(id=0, core=0, members=[0, 1, 2])])

    def test_confidence_ordering_invariant(self):
        """Evicted members were no more confident than any survivor."""
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = 10
            p = rng.dirichlet(np.ones(3), size=n)
            members = rng.choice(n, size=5, replace=False).tolist()
            b = Bundle(id=trial, core=members[0], members=members, label=int(rng.integers(3)))
            events, kept = refined(p, [b])
            for _, m in events:
                assert p[m, b.label] <= min(p[k, b.label] for k in kept[trial])

    def test_one_ascending_position_per_eviction(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.7, 0.3], [0.6, 0.4]])
        bundles = [Bundle(id=0, core=3, members=[3, 2, 1, 0], label=0),
                   Bundle(id=1, core=4, members=[4, 0, 3], label=0)]
        gone = refine(p, FlatBundles.from_bundles(bundles), floor=2)
        assert gone.tolist() == [1, 2, 6]   # nodes 1 and 2 of bundle 0, node 4 of bundle 1


@st.composite
def refine_problems(draw):
    """Confidences drawn from a few levels, each maybe nudged by less than
    REFINE_TIE_TOL, so exact and near ties are common; bundles at, just
    below, just above and well above a drawn floor over few nodes, so they
    share members; some bundles unlabeled."""
    n = draw(st.integers(3, 9))
    c = draw(st.integers(2, 3))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    nudge = st.sampled_from((0.0, 0.0, 3e-13, -7e-13, 9.9e-13))
    p = np.array([[draw(st.sampled_from(levels)) + draw(nudge) for _ in range(c)] for _ in range(n)])
    floor = draw(st.integers(2, 4))
    bundles = []
    for bid in range(draw(st.integers(1, 5))):
        size = min(n, floor + draw(st.integers(-1, 3)))
        if size < 2:
            continue
        members = draw(st.permutations(range(n)))[:size]
        label = draw(st.none() | st.integers(0, c - 1))
        bundles.append(Bundle(id=10 * bid + 3, core=members[0], members=members, label=label))
    if not any(b.label is not None for b in bundles):
        bundles.append(Bundle(id=1, core=0, members=list(range(min(n, floor + 1))), label=0))
    return p, bundles, floor


class TestRefineMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(problem=refine_problems())
    def test_same_evictions_as_the_object_loop(self, problem):
        """The vectorised round, read through the local indices training
        uses, evicts exactly what the loop over `Bundle` objects evicts, one
        ascending position per eviction; within a bundle it lists nodes
        ascending, the loop in member order."""
        p, bundles, floor = problem
        loop = copy.deepcopy(bundles)
        want = reference.refine_bundles(p, loop, floor, epoch=5)

        flat = FlatBundles.from_bundles(bundles)
        rows = np.unique(flat.members)
        local = replace(flat, members=np.searchsorted(rows, flat.members))
        gone = refine(p[rows], local, floor)
        assert np.all(np.diff(gone) > 0)
        owners = np.repeat(flat.ids, flat.sizes)[gone]
        got = [(5, b, v) for b, v in zip(owners.tolist(), flat.members[gone].tolist())]
        assert sorted(got) == sorted(want)

        keep = np.ones(flat.members.size, dtype=bool)
        keep[gone] = False
        kept = flat.keep(keep)
        assert [kept.members[a:z].tolist() for a, z in zip(kept.offsets, kept.offsets[1:])] \
            == [sorted(b.members) for b in loop if b.label is not None]
        assert [(b.members, b.evicted) for b in apply_refinements(bundles, got)] \
            == [(b.members, sorted(b.evicted)) for b in loop]


class TestTrain:
    def test_bitwise_deterministic(self):
        a_hat, ax, table, bundles = small_problem()
        cfg = TrainConfig(learning_rate=0.4, epochs=40, warmup_epochs=5, refine_every=10, seed=3)
        groups = FlatBundles.from_bundles(bundles)
        p1, r1 = train(a_hat, ax, groups, cfg, table.num_classes)
        p2, r2 = train(a_hat, ax, groups, cfg, table.num_classes)
        for ta, tb in zip(p1.tensors(), p2.tensors()):
            np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(r1.loss, r2.loss)
        np.testing.assert_array_equal(r1.grad_norm, r2.grad_norm)
        assert r1.refinements == r2.refinements

    def test_refine_every_beyond_epochs_never_refines(self):
        a_hat, ax, table, bundles = small_problem()
        cfg = TrainConfig(learning_rate=0.4, epochs=30, refine_every=31, warmup_epochs=0, seed=0)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        assert report.refinements == []

    def test_bundles_are_left_as_given(self):
        """Refinement evicts from new flat arrays: every array of the
        caller's groups equals a copy taken before training."""
        a_hat, ax, table, bundles = small_problem(noise=0.2)
        groups = FlatBundles.from_bundles(bundles)
        before = copy.deepcopy(groups)
        cfg = TrainConfig(learning_rate=0.5, epochs=60, warmup_epochs=10, refine_every=10, seed=0)
        _, report = train(a_hat, ax, groups, cfg, table.num_classes)
        assert report.refinements, "expected at least one eviction"
        for name in ("members", "offsets", "sizes", "labels", "ids"):
            np.testing.assert_array_equal(getattr(groups, name), getattr(before, name))

    def test_refinement_events_recorded_in_window(self):
        a_hat, ax, table, bundles = small_problem(noise=0.2)
        cfg = TrainConfig(learning_rate=0.5, epochs=60, warmup_epochs=10, refine_every=10, seed=0)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        assert report.refinements, "expected at least one eviction"
        for epoch, bundle_id, node in report.refinements:
            assert 10 < epoch <= 60
            assert (epoch - 10) % 10 == 0

    def test_divergence_detected(self):
        a_hat, ax, table, bundles = small_problem()
        cfg = TrainConfig(learning_rate=1e9, epochs=200, refine_every=300, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)

    def test_dense_field_is_bitwise_reproducible_and_detects_divergence(self, monkeypatch):
        """Group means of a field this small, with at least one stored entry
        in nine, train bitwise the same from run to run, refinement
        included, and a diverging step on them still raises
        TrainingDivergedError."""
        fields = []
        real = train_module._field

        def recording(*args):
            out = real(*args)
            fields.append(out[3])
            return out

        monkeypatch.setattr(train_module, "_field", recording)
        a_hat, ax, table, bundles = small_problem(noise=0.2)
        groups = FlatBundles.from_bundles(bundles)
        cfg = TrainConfig(learning_rate=0.5, epochs=60, warmup_epochs=10, refine_every=10, seed=0)
        runs = [train(a_hat, ax, groups, cfg, table.num_classes) for _ in range(2)]
        assert runs[0][1].refinements, "expected at least one eviction"
        assert fields and all(op.shape[0] * op.shape[1] <= 9 * op.indices.size for op in fields)
        np.testing.assert_array_equal(runs[0][0].to_vector(), runs[1][0].to_vector())
        for name in ("loss", "loss_be", "loss_rank", "grad_norm"):
            np.testing.assert_array_equal(getattr(runs[0][1], name), getattr(runs[1][1], name))
        assert runs[0][1].refinements == runs[1][1].refinements

        fields.clear()
        with pytest.raises(TrainingDivergedError):
            train(a_hat, ax, groups, replace(cfg, learning_rate=1e9, refine_every=300), table.num_classes)
        assert fields and all(op.shape[0] * op.shape[1] <= 9 * op.indices.size for op in fields)

    def test_report_fields_finite_and_sized(self):
        a_hat, ax, table, bundles = small_problem()
        cfg = TrainConfig(learning_rate=0.4, epochs=25, refine_every=100, seed=1)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        for arr in (report.loss, report.loss_be, report.loss_rank, report.grad_norm):
            assert arr.shape == (25,)
            assert np.isfinite(arr).all()
        assert report.loss_be[0] > 0
        assert report.final_grad_norm >= 0

    def test_objective_variants_run(self):
        a_hat, ax, table, bundles = small_problem()
        for objective in ("be_only", "rank_only", "member_ce"):
            _, report = train(
                a_hat,
                ax,
                FlatBundles.from_bundles(bundles),
                TrainConfig(learning_rate=0.3, epochs=10, refine_every=100, seed=0),
                table.num_classes,
                objective=objective,
            )
            assert np.isfinite(report.loss).all()

    def test_node_supervision_path(self):
        """Annotated nodes train as groups of one under node_ce; refinement
        may run but never evicts from a group of one."""
        a_hat, ax, table, _ = small_problem()
        groups = FlatBundles.from_nodes(np.arange(30), table.labels[:30])
        cfg = TrainConfig(learning_rate=0.4, epochs=30, warmup_epochs=0, refine_every=1, seed=0)
        params, report = train(a_hat, ax, groups, cfg, table.num_classes, objective="node_ce")
        assert report.loss[-1] < report.loss[0]
        assert report.refinements == []

    def test_rounds_that_cannot_evict_are_skipped(self, monkeypatch):
        """A round runs only while some group is above the floor: none for
        groups of one, none for bundles at the floor, and none after every
        bundle has shrunk to it; the evictions are those of a run that
        refines on every round."""
        a_hat, ax, table, bundles = small_problem(noise=0.2)
        cfg = TrainConfig(learning_rate=0.5, epochs=40, warmup_epochs=0, refine_every=1, seed=0)
        rounds = counting_refine(monkeypatch)
        train(a_hat, ax, FlatBundles.from_nodes(np.arange(30), table.labels[:30]), cfg, table.num_classes,
              objective="node_ce")
        pairs = [Bundle(id=b.id, core=b.core, members=b.members[:2], label=b.label) for b in bundles]
        train(a_hat, ax, FlatBundles.from_bundles(pairs), cfg, table.num_classes)
        assert rounds == []

        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        assert report.refinements and 0 < len(rounds) < cfg.epochs
        assert all(sizes.max() > cfg.bundle_floor for sizes in rounds)
        assert max(epoch for epoch, _, _ in report.refinements) <= len(rounds)

    def test_node_ce_refuses_a_group_of_more_than_one(self):
        a_hat, ax, table, _ = small_problem()
        groups = FlatBundles(members=np.array([0, 1, 2]), offsets=np.array([0, 1, 3]), sizes=np.array([1, 2]),
                             labels=np.array([0, 1]), ids=np.array([0, 1]))
        with pytest.raises(ValueError, match="node_ce supervises groups of one node, got one of 2"):
            train(a_hat, ax, groups, TrainConfig(epochs=2), table.num_classes, objective="node_ce")

    @pytest.mark.parametrize("nodes, labels, message", [
        ([0, 60], [0, 1], "bundle member 60 is outside the 60 graph nodes"),
        ([0, -1], [0, 1], "bundle member -1 is outside the 60 graph nodes"),
        ([0, 1], [0, 4], "bundle label 4 is outside the 4 classes"),
    ])
    def test_node_supervision_checks_members_and_labels(self, nodes, labels, message):
        a_hat, ax, table, _ = small_problem()
        with pytest.raises(ValueError, match=message):
            train(a_hat, ax, FlatBundles.from_nodes(nodes, labels), TrainConfig(epochs=2), table.num_classes,
                  objective="node_ce")

    def test_eta_auto_trains_on_nodes(self):
        a_hat, ax, table, _ = small_problem()
        groups = FlatBundles.from_nodes(np.arange(0, 60, 2), table.labels[::2])
        cfg = TrainConfig(epochs=5, eta_auto=True, seed=0, hidden=8)
        params, report = train(a_hat, ax, groups, cfg, table.num_classes, objective="node_ce")
        assert report.eta == 0.9 / (params.n_params * (report.m_hat + report.g_hat**2))
        assert report.loss[-1] < report.loss[0]

    def test_a_given_ax_trains_bitwise_as_computing_it(self):
        """A read-only [ÂX | 1], as a kept dataset holds it, trains bitwise as
        one computed afresh: parameters and report, evictions included.
        Training neither writes into its `ax` nor depends on which array
        holds it."""
        a_hat, fresh, table, bundles = small_problem(noise=0.2)
        ax = fresh.copy()
        ax.flags.writeable = False
        cfg = TrainConfig(learning_rate=0.5, epochs=40, warmup_epochs=5, refine_every=5, seed=2)

        def bits(params, report):
            arrays = (*params.tensors(), report.loss, report.loss_be, report.loss_rank, report.grad_norm)
            return ([a.tobytes() for a in arrays]
                    + [report.refinements, report.eta, report.final_loss, report.final_grad_norm])

        runs = {}
        nodes = FlatBundles.from_nodes(np.arange(0, 60, 3), table.labels[::3])
        for kind, given in (("computed", fresh), ("given", ax)):
            bundle_run = train(a_hat, given, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
            node_run = train(a_hat, given, nodes, cfg, table.num_classes, objective="node_ce")
            runs[kind] = [bits(*bundle_run), bits(*node_run)]
        assert runs["given"] == runs["computed"]
        assert bundle_run[1].refinements

    def test_report_jsonl_round_trip(self, tmp_path):
        import json

        a_hat, ax, table, bundles = small_problem(noise=0.2)
        cfg = TrainConfig(learning_rate=0.5, epochs=40, warmup_epochs=5, refine_every=5, seed=0)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        path = tmp_path / "report.jsonl"
        report.save_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 41
        assert lines[-1]["kind"] == "summary"
        assert sum(len(rec.get("evictions", [])) for rec in lines[:-1]) == len(report.refinements)


@st.composite
def probe_problems(draw):
    """A small graph, features, GCN parameters with drawn biases (large ones
    push pre-activations to either side of 0), and distinct probe nodes."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_edge = draw(st.floats(0.1, 0.8))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
    a_hat = normalized_adjacency(Csr.from_edges(n, edges))
    d, h, c = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(2, 4))
    ax = gnn.ax_ones(a_hat, rng.normal(size=(n, d)))
    params = gnn.init_params(d, h, c, int(rng.integers(2**31)))
    params.b1[:] = rng.normal(scale=draw(st.sampled_from((0.0, 0.1, 3.0))), size=h)
    params.b2[:] = rng.normal(size=c)
    probe = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
    return params, a_hat, ax, probe


class TestBoundEstimates:
    def test_output_bias_forces_g_at_least_one(self):
        """d z/d (output bias) is exactly 1, and G is read off the exact Jacobian."""
        a_hat, ax, table, bundles = small_problem()
        params = gnn.init_params(ax.shape[1] - 1, 8, table.num_classes, seed=0)
        g_hat, m_hat = estimate_logit_bounds(
            params, a_hat, ax, probe_nodes=[0, 1], hess_cols_per_layer=4, seed=0
        )
        assert g_hat >= 1.0
        assert m_hat >= 0.0

    def test_no_whole_graph_passes_when_ax_is_given(self, monkeypatch):
        """The bounds come from the probes' neighbourhoods alone: no forward
        or backward pass and no sparse product over the graph."""
        a_hat, ax, table, bundles = small_problem()
        params = gnn.init_params(ax.shape[1] - 1, 8, table.num_classes, seed=0)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for mod, name in ((gnn, "forward"), (gnn, "backward"), (kernels, "spmm")):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        estimate_logit_bounds(params, a_hat, ax, [0, 1, 2], seed=0)
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(problem=probe_problems(), cols=st.integers(1, 40), seed=st.integers(0, 5))
    def test_bounds_match_the_whole_jacobian_loop(self, problem, cols, seed):
        """G is the same number, and M agrees within 1e-12 relative, as with
        two whole Jacobians per sampled coordinate; 40 columns a layer
        sample every coordinate of these problems, b2's included."""
        params, a_hat, ax, probe = problem
        g_hat, m_hat = estimate_logit_bounds(params, a_hat, ax, probe, hess_cols_per_layer=cols, seed=seed)
        g_ref, m_ref = jacobian_difference_bounds(params, a_hat, ax, probe, hess_cols_per_layer=cols,
                                                  seed=seed)
        assert g_hat == g_ref
        assert m_hat == pytest.approx(m_ref, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(problem=probe_problems())
    def test_every_coordinate_matches_the_whole_jacobian_loop(self, problem):
        """Per coordinate, the entries recomputed for it differ as the whole
        Jacobians do; b2 moves no entry at all."""
        params, a_hat, ax, probe = problem
        coords = np.arange(params.n_params)
        got = gnn.jacobian_differences(gnn.probe_pass(params, a_hat, probe, ax), coords, 1e-4)
        want = reference.jacobian_differences(params, a_hat, ax, probe, coords, 1e-4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert not got[-params.dims[2]:].any()

    def test_a_relu_mask_that_flips_within_the_step_matches(self):
        """A pre-activation within +-step of 0 changes its ReLU mask between
        the two points of b1[u]'s difference; M then holds the jump, and
        agrees with the whole-Jacobian loop. Features scaled by 1/100 make
        the jump of the b1 entries the largest."""
        graph, emb, table = gen_sbm(SMALL)
        a_hat = normalized_adjacency(graph)
        params = gnn.init_params(emb.shape[1], 8, table.num_classes, seed=0)
        ax = gnn.ax_ones(a_hat, emb / 100.0)
        probe, u, step = [2, 17, 40], 3, 1e-4
        entry = a_hat.indptr[17]   # Â[17, j] for the first neighbour j of probe 17
        j = a_hat.indices[entry]
        params.b1[u] = step / 2 - ax[j, :-1] @ params.w1[:, u]
        h_pre = (ax[j, :-1] @ params.w1 + params.b1)[u]
        assert 0.0 < h_pre < step
        layer1 = emb.shape[1] * 8 + 8
        g_hat, m_hat = estimate_logit_bounds(params, a_hat, ax, probe,
                                             hess_step=step, hess_cols_per_layer=layer1)
        g_ref, m_ref = jacobian_difference_bounds(params, a_hat, ax, probe,
                                                  hess_step=step, hess_cols_per_layer=layer1)
        assert g_hat == g_ref
        assert m_hat == pytest.approx(m_ref, rel=1e-12, abs=0.0)
        # the b1[u] entries of probe 17 jump by Â[17, j] W2[u, c] across the flip
        jump = a_hat.data[entry] * np.abs(params.w2[u]).max() / (2 * step)
        assert m_hat >= 0.99 * jump

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bounds_agree_with_finite_differences(self, seed):
        """G matches finite differences of the logits; M matches finite
        differences of one-hot backward rows along the same columns."""
        a_hat, ax, table, bundles = small_problem()
        params = gnn.init_params(ax.shape[1] - 1, 8, table.num_classes, seed=seed)
        probe = [2, 17, 40]
        g_hat, m_hat = estimate_logit_bounds(params, a_hat, ax, probe, seed=seed)
        g_ref, m_ref = fd_logit_bounds(params, a_hat, ax, probe, seed=seed)
        assert g_hat == pytest.approx(g_ref, rel=1e-8)
        assert m_hat == pytest.approx(m_ref, rel=1e-10)
        assert m_hat > 0.0

    def test_eta_auto_consistent_with_estimates(self):
        a_hat, ax, table, bundles = small_problem()
        cfg = TrainConfig(epochs=5, eta_auto=True, refine_every=100, seed=0, hidden=8)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        n_d = (ax.shape[1] - 1) * 8 + 8 + 8 * table.num_classes + table.num_classes
        # 1.8/L with the smoothness constant L = 2*n_d*(M+G^2); parameters
        # shared by all members leave no 1/|B| factor in L
        expect = 0.9 / (n_d * (report.m_hat + report.g_hat**2))
        assert report.eta == pytest.approx(expect, rel=1e-12)


@st.composite
def field_problems(draw):
    """A small graph whose last nodes may be isolated, features, and labeled
    bundles that cover part of the graph or every node; members beyond the
    floor of 2 leave refinement room to shrink the field."""
    n = draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    linked = n - draw(st.integers(0, n // 3))
    p_edge = draw(st.floats(0.05, 0.6))
    edges = [(i, j) for i in range(linked) for j in range(i + 1, linked) if rng.random() < p_edge]
    graph = Csr.from_edges(n, edges)
    c = draw(st.integers(2, 4))
    a_hat = normalized_adjacency(graph)
    ax = gnn.ax_ones(a_hat, rng.normal(size=(n, 3)))
    if draw(st.booleans()):   # bundles cover every node
        order = rng.permutation(n)
        cuts = list(range(0, n - 3, 4)) + [n]
        groups = [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    else:
        groups = [rng.choice(n, size=int(rng.integers(2, min(5, n) + 1)), replace=False)
                  for _ in range(int(rng.integers(1, 5)))]
    bundles = [Bundle(id=i, core=int(g[0]), members=[int(m) for m in g], label=int(rng.integers(c)))
               for i, g in enumerate(groups)]
    return a_hat, ax, bundles, c


def assert_close(got, want):
    """Equal within 1e-12, relative to the largest entry of `want`."""
    want = np.asarray(want, dtype=np.float64)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestSupervisedField:
    @settings(max_examples=150, deadline=None)
    @given(problem=field_problems(),
           objective=st.sampled_from(("full", "be_only", "rank_only", "member_ce", "node_ce")),
           refine_every=st.sampled_from((2, 3, 100)), seed=st.integers(0, 3))
    def test_matches_whole_graph_training(self, problem, objective, refine_every, seed):
        """Training on the field operator over Â[S, N(S)] reproduces
        whole-graph training in the propagate-first order on member logits:
        losses and parameters within 1e-12 relative, and the same evictions
        (the refined bundles `apply_refinements` rebuilds from them are those
        the reference loop shrank in place). While S is every node, results
        are bitwise those of the whole-graph loop of train's own formula."""
        a_hat, ax, bundles, c = problem
        cfg = TrainConfig(learning_rate=0.5, epochs=12, warmup_epochs=2, refine_every=refine_every,
                          seed=seed, hidden=6)
        if objective == "node_ce":   # each member a group of one; the first one twice
            idx = np.concatenate([b.members for b in bundles] + [bundles[0].members[:1]])
            labels = np.array([b.label for b in bundles for _ in b.members] + [bundles[0].label])
            got = train(a_hat, ax, FlatBundles.from_nodes(idx, labels), cfg, c, objective=objective)
            want, same = (whole_graph_train(a_hat, ax, cfg, c, node_idx=idx, node_labels=labels, group_logits=g)
                          for g in (False, True))
        else:
            theirs, ours = copy.deepcopy(bundles), copy.deepcopy(bundles)
            got = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, c, objective=objective)
            want = whole_graph_train(a_hat, ax, cfg, c, objective=objective, bundles=theirs)
            same = whole_graph_train(a_hat, ax, cfg, c, objective=objective, bundles=ours, group_logits=True)
            mine = apply_refinements(bundles, got[1].refinements)
            assert [(b.members, b.evicted) for b in mine] == [(b.members, sorted(b.evicted)) for b in theirs]
        (params, report), (ref_params, ref_report) = got, want
        # nodes with equal closed neighbourhoods tie exactly; a bundle that
        # drops them in one epoch lists them ascending, the loop in member
        # order (bundle ids here ascend in list order, so sorting compares both)
        assert report.refinements == sorted(ref_report.refinements)
        names = ("loss", "loss_be", "loss_rank", "grad_norm", "final_loss", "final_grad_norm")
        for name in ("loss_be", "loss_rank"):
            assert_close(getattr(report, name), getattr(ref_report, name))
        # the final loss and gradient norm end their curves: near a fit they
        # are differences of O(1) logits, so their rounding is measured
        # against the curve, as each epoch's is
        for curve, final in (("loss", "final_loss"), ("grad_norm", "final_grad_norm")):
            assert_close(np.append(getattr(report, curve), getattr(report, final)),
                         np.append(getattr(ref_report, curve), getattr(ref_report, final)))
        scale = np.abs(ref_params.to_vector()).max()
        for name in ("w1", "b1", "w2", "b2"):
            mine_t, ref_t = getattr(params, name), getattr(ref_params, name)
            if name == "b2" and np.abs(ref_t).max() <= 1e-12 * scale:
                # under rank_only, b2's gradient sums terms of +-1/|bundles|
                # that cancel exactly on group logits, so b2 stays 0 where
                # the reference's member sums leave it at rounding level
                np.testing.assert_allclose(mine_t, ref_t, rtol=0, atol=1e-12 * scale)
            else:
                assert_close(mine_t, ref_t)
        if np.unique(np.concatenate([b.members for b in bundles])).size == a_hat.n and not report.refinements:
            for name in names:
                np.testing.assert_array_equal(getattr(report, name), getattr(same[1], name))
            np.testing.assert_array_equal(params.to_vector(), same[0].to_vector())

    def test_epochs_touch_only_the_supervised_field(self, monkeypatch):
        """No sparse product of training reads or writes more rows than
        N(S), the members and their neighbours: [ÂX | 1] is its caller's."""
        graph, emb, table = gen_sbm(SbmConfig(n=300, n_classes=4, p_in=0.05, p_out=0.002, dim=8, seed=2))
        bundles = sample_bundles(graph, emb, SamplingConfig(num_bundles=4, bundle_size=4, seed=0))
        annotate_all(bundles, table, oracle=OracleConfig(noise_rate=0.0, seed=0))
        members = np.unique([m for b in bundles for m in b.members])
        neighbours = [graph.indices[graph.indptr[m]:graph.indptr[m + 1]] for m in members]
        field = np.unique(np.concatenate([members, *neighbours])).size
        assert field < graph.n
        a_hat = normalized_adjacency(graph)
        ax = gnn.ax_ones(a_hat, emb)

        calls = []
        real = kernels.spmm

        def recording(indptr, indices, data, dense, **kwargs):
            calls.append((indptr.shape[0] - 1, dense.shape[0]))
            return real(indptr, indices, data, dense, **kwargs)

        monkeypatch.setattr(kernels, "spmm", recording)
        rounds = counting_refine(monkeypatch)
        cfg = TrainConfig(learning_rate=0.5, epochs=20, warmup_epochs=2, refine_every=2, seed=0, hidden=8)
        _, report = train(a_hat, ax, FlatBundles.from_bundles(bundles), cfg, table.num_classes)
        assert report.refinements, "expected refinement to shrink the field"
        # a forward and a backward product per pass, and a round's member logits
        assert len(calls) == 2 * (cfg.epochs + 1) + len(rounds)
        for written, read in calls:
            assert written <= field and read <= field


class TestFieldBuffers:
    @pytest.mark.parametrize("mode", ["bundle", "random_sampling", "individual_query", "r_only", "be_only",
                                      "individual", "no_refine"])
    def test_reused_buffers_match_fresh_arrays(self, mode, monkeypatch):
        """`train` hands each pass the last pass's buffers; on the standard
        benchmark, seeds 0-2 at noise 0 and 0.3, its evictions, curves,
        final loss and parameters are bitwise those of a loop that
        allocates every array afresh, so no buffer is written while a
        later read still needs it."""
        from bundlesup import pipeline

        runs = []
        real = pipeline.train

        def keeping(*args, **kwargs):
            result = real(*args, **kwargs)
            runs.append((args, kwargs, result))
            return result

        monkeypatch.setattr(pipeline, "train", keeping)
        for noise in (0.0, 0.3):
            cfg = pipeline.standard_experiment(mode=mode, noise_rate=noise, replicate_seeds=(0, 1, 2))
            pipeline.run_pipeline(cfg)
        assert len(runs) == 6
        evicted = 0
        for (a_hat, ax, groups, tcfg, n_classes), kwargs, (params, report) in runs:
            theta, refinements, curves, final_loss = reference.fresh_field_train(
                a_hat, ax, groups, tcfg, n_classes, objective=kwargs["objective"])
            assert report.refinements == refinements
            got = np.stack([report.loss, report.loss_be, report.loss_rank, report.grad_norm])
            assert got.tobytes() == curves.tobytes()
            assert report.final_loss == final_loss
            assert params.to_vector().tobytes() == theta.tobytes()
            evicted += len(refinements)
        assert (evicted > 0) == MODES[mode].refine
