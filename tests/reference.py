"""Slow, plain reference implementations the tests compare the package against."""

import numpy as np

from bundlesup import gnn
from bundlesup.gnn import softmax_row
from bundlesup.losses import FlatBundles, bundle_objective, member_ce_objective, node_ce_objective
from bundlesup.train import TrainReport, refine


def dense_adjacency(a_hat) -> np.ndarray:
    """The normalized adjacency operator as a dense (n, n) array."""
    out = np.zeros((a_hat.n, a_hat.n))
    out[np.repeat(np.arange(a_hat.n), np.diff(a_hat.indptr)), a_hat.indices] = a_hat.data
    return out


def total_loss_and_grad(z: np.ndarray, bundles) -> tuple:
    """Combined entropy+ranking loss over labeled bundles and dL/dZ."""
    value = bundle_objective(z, FlatBundles.from_bundles(bundles))
    return value.loss, value.d_z


def one_hot_rows(params, a_hat, x, probe) -> np.ndarray:
    """`gnn.backward` with a one-hot logit gradient per (probe, class), stacked
    to the shape of `gnn.logit_jacobian`."""
    trace = gnn.forward(params, a_hat, x)
    c = params.dims[2]
    out = np.zeros((len(probe), c, params.n_params))
    for row, i in enumerate(probe):
        for cc in range(c):
            one_hot = np.zeros_like(trace.z)
            one_hot[i, cc] = 1.0
            out[row, cc] = gnn.backward(params, a_hat, x, trace, one_hot).to_vector()
    return out


def fd_logit_bounds(params, a_hat, x, probe_nodes, *, fd_step=1e-5, hess_step=1e-4,
                    hess_cols_per_layer=32, seed=0) -> tuple:
    """(G, M) by finite differences: G of the probe logits over every parameter,
    M of one-hot `gnn.backward` rows along the columns `estimate_logit_bounds`
    samples for the same seed."""
    probe = np.asarray(probe_nodes, dtype=np.intp)
    vec = params.to_vector()
    n_d = vec.size

    g_hat = 0.0
    for j in range(n_d):
        vp = vec.copy()
        vp[j] += fd_step
        zp = gnn.forward(params.from_vector(vp), a_hat, x).z[probe]
        vp[j] -= 2 * fd_step
        zm = gnn.forward(params.from_vector(vp), a_hat, x).z[probe]
        g_hat = max(g_hat, float(np.abs((zp - zm) / (2 * fd_step)).max()))

    d, h, c = params.dims
    layer1 = d * h + h
    rng = np.random.default_rng((seed, 4))
    cols = np.concatenate(
        [
            rng.choice(layer1, size=min(hess_cols_per_layer, layer1), replace=False),
            layer1 + rng.choice(n_d - layer1, size=min(hess_cols_per_layer, n_d - layer1), replace=False),
        ]
    )

    m_hat = 0.0
    for k in cols:
        vp = vec.copy()
        vp[k] += hess_step
        gp = one_hot_rows(params.from_vector(vp), a_hat, x, probe)
        vp[k] -= 2 * hess_step
        gm = one_hot_rows(params.from_vector(vp), a_hat, x, probe)
        m_hat = max(m_hat, float(np.abs((gp - gm) / (2 * hess_step)).max()))
    return g_hat, m_hat


def bundle_distribution(z: np.ndarray, bundle) -> np.ndarray:
    """Class distribution of a group: softmax of the mean member logits."""
    members = np.sort(np.asarray(bundle.members if hasattr(bundle, "members") else bundle, dtype=np.intp))
    if members.size == 0:
        raise ValueError("empty bundle has no class distribution")
    mean = z[members].sum(axis=0) / members.size
    return softmax_row(mean)


def loss_be(p_bundle: np.ndarray, y_hat: int) -> float:
    """Cross-entropy of a group distribution against the annotated class."""
    return float(-np.log(p_bundle[y_hat]))


def loss_rank(p_bundle: np.ndarray, y_hat: int) -> float:
    """Hinge on the log-probability gap to the best-ranked class."""
    gap = float(np.log(p_bundle[y_hat]) - np.log(p_bundle.max()))
    return -min(gap, 0.0)


def whole_graph_train(a_hat, x, cfg, n_classes, objective="full", bundles=None,
                      node_idx=None, node_labels=None) -> tuple:
    """`train` (with `bundles`) or `train_on_nodes` (with `node_idx`,
    `node_labels`) at a fixed learning rate, every epoch a forward and a
    backward pass over all n nodes. Returns (params, report)."""
    if objective == "member_ce":
        evaluate = member_ce_objective
    elif objective == "be_only":
        evaluate = lambda z, fb: bundle_objective(z, fb, terms=("be",))
    elif objective == "rank_only":
        evaluate = lambda z, fb: bundle_objective(z, fb, terms=("rank",))
    else:
        evaluate = bundle_objective
    if bundles is None:
        idx, labels = np.asarray(node_idx, dtype=np.intp), np.asarray(node_labels, dtype=np.intp)
        evaluate = lambda z, fb: node_ce_objective(z, idx, labels)
    flat = FlatBundles.from_bundles(bundles) if bundles is not None else None

    feats = np.asarray(x, dtype=np.float64)
    params = gnn.init_params(feats.shape[1], cfg.hidden, n_classes, cfg.seed)
    ax = a_hat @ feats
    eta = cfg.learning_rate
    loss, loss_be_, loss_rank_, grad_norm, refinements = [], [], [], [], []

    def norm(grads):
        return float(np.sqrt(sum(float((t * t).sum()) for t in grads.tensors())))

    for t in range(1, cfg.epochs + 1):
        trace = gnn.forward(params, a_hat, feats, ax=ax)
        value = evaluate(trace.z, flat)
        grads = gnn.backward(params, a_hat, feats, trace, value.d_z)
        loss.append(value.loss)
        loss_be_.append(value.be_mean)
        loss_rank_.append(value.rank_mean)
        grad_norm.append(norm(grads))
        for p, g in zip(params.tensors(), grads.tensors()):
            p -= eta * g
        if bundles is not None and t > cfg.warmup_epochs and (t - cfg.warmup_epochs) % cfg.refine_every == 0:
            events = refine(trace.p, bundles, cfg.bundle_floor, t)
            if events:
                refinements.extend(events)
                flat = FlatBundles.from_bundles(bundles)

    trace = gnn.forward(params, a_hat, feats, ax=ax)
    value = evaluate(trace.z, flat)
    final_grads = gnn.backward(params, a_hat, feats, trace, value.d_z)
    report = TrainReport(
        loss=np.array(loss), loss_be=np.array(loss_be_), loss_rank=np.array(loss_rank_),
        grad_norm=np.array(grad_norm), refinements=refinements, eta=eta,
        final_loss=value.loss, final_grad_norm=norm(final_grads),
    )
    return params, report
