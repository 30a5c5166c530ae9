"""Slow, plain reference implementations the tests compare the package against."""

import logging
import math

import numpy as np

from bundlesup import gnn
from bundlesup.graphs import Csr, FormatError, NodeTable, hop_distances
from bundlesup.losses import (
    FlatBundles,
    ObjectiveValue,
    bundle_objective,
    member_ce_objective,
    node_ce_objective,
    softmax_rows,
)
from bundlesup.sampling import IsolatedCoreError
from bundlesup.synth import SbmConfig
from bundlesup.train import REFINE_TIE_TOL, TrainReport

logger = logging.getLogger(__name__)


def dense_adjacency(a_hat) -> np.ndarray:
    """A CSR operator, such as the normalized adjacency, as a dense array of its shape."""
    out = np.zeros(a_hat.shape)
    out[np.repeat(np.arange(a_hat.shape[0]), np.diff(a_hat.indptr)), a_hat.indices] = a_hat.data
    return out


def transpose(m: Csr) -> Csr:
    """M's transpose as its own CSR arrays, as the package once stored it: a
    stable sort of the entries by column keeps each row ascending."""
    rows, cols = m.shape
    order = np.argsort(m.indices, kind="stable")
    indptr = np.zeros(cols + 1, dtype=np.intp)
    np.cumsum(np.bincount(m.indices, minlength=cols), out=indptr[1:])
    return Csr((cols, rows), indptr, m.entry_rows()[order], m.data[order])


def total_loss_and_grad(z: np.ndarray, bundles) -> tuple:
    """Combined entropy+ranking loss over labeled bundles at the member
    logits z, and dL/dZ: `bundle_objective` at the group means P z, P the
    `group_means` of the identity, and its gradient back through P^T."""
    flat = FlatBundles.from_bundles(bundles)
    n = z.shape[0]
    identity = Csr((n, n), np.arange(n + 1), np.arange(n), np.ones(n))
    p = identity.group_means(flat.offsets, flat.members)
    value = bundle_objective(p @ z, flat.labels)
    return value.loss, transpose(p) @ value.d_z


UNREACHABLE = -1


def hop_array(graph, core: int, need=None) -> np.ndarray:
    """`hop_distances` as one hop count per node, UNREACHABLE where the
    search did not reach."""
    nodes, levels = hop_distances(graph, core, need)
    out = np.full(graph.n, UNREACHABLE, dtype=np.intp)
    out[nodes] = levels
    return out


def one_hot_rows(params, a_hat, ax, probe) -> np.ndarray:
    """`gnn.backward` with a one-hot logit gradient per (probe, class), stacked
    to the shape of `gnn.logit_jacobian`."""
    trace = gnn.forward(params, a_hat, ax)
    c = params.dims[2]
    out = np.zeros((len(probe), c, params.n_params))
    for row, i in enumerate(probe):
        for cc in range(c):
            one_hot = np.zeros_like(trace.z)
            one_hot[i, cc] = 1.0
            out[row, cc] = gnn.backward(params, a_hat, trace, one_hot).to_vector()
    return out


def sampled_columns(params, per_layer, seed) -> np.ndarray:
    """The parameter coordinates `train.estimate_logit_bounds` differences:
    `per_layer` drawn in each layer, from the rng stream (seed, 4)."""
    n_d = params.n_params
    d, h, c = params.dims
    layer1 = d * h + h
    rng = np.random.default_rng((seed, 4))
    return np.concatenate(
        [
            rng.choice(layer1, size=min(per_layer, layer1), replace=False),
            layer1 + rng.choice(n_d - layer1, size=min(per_layer, n_d - layer1), replace=False),
        ]
    )


def fd_logit_bounds(params, a_hat, ax, probe_nodes, *, fd_step=1e-5, hess_step=1e-4,
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
        zp = gnn.forward(params.from_vector(vp), a_hat, ax).z[probe]
        vp[j] -= 2 * fd_step
        zm = gnn.forward(params.from_vector(vp), a_hat, ax).z[probe]
        g_hat = max(g_hat, float(np.abs((zp - zm) / (2 * fd_step)).max()))

    cols = sampled_columns(params, hess_cols_per_layer, seed)
    m_hat = 0.0
    for k in cols:
        vp = vec.copy()
        vp[k] += hess_step
        gp = one_hot_rows(params.from_vector(vp), a_hat, ax, probe)
        vp[k] -= 2 * hess_step
        gm = one_hot_rows(params.from_vector(vp), a_hat, ax, probe)
        m_hat = max(m_hat, float(np.abs((gp - gm) / (2 * hess_step)).max()))
    return g_hat, m_hat


def jacobian_differences(params, a_hat, ax, probe, coords, step) -> np.ndarray:
    """`gnn.jacobian_differences` with two whole `gnn.logit_jacobian` calls per
    coordinate k, at theta + step e_k and theta - step e_k."""
    vec = params.to_vector()
    out = []
    for k in coords:
        vp = vec.copy()
        vp[k] += step
        jp = gnn.logit_jacobian(params.from_vector(vp), a_hat, ax, probe)
        vp[k] -= 2 * step
        jm = gnn.logit_jacobian(params.from_vector(vp), a_hat, ax, probe)
        out.append(float(np.abs(jp - jm).max()))
    return np.array(out)


def jacobian_difference_bounds(params, a_hat, ax, probe_nodes, *, hess_step=1e-4,
                               hess_cols_per_layer=32, seed=0) -> tuple:
    """`train.estimate_logit_bounds` with M from `jacobian_differences` above."""
    probe = np.asarray(probe_nodes, dtype=np.intp)
    g_hat = float(np.abs(gnn.logit_jacobian(params, a_hat, ax, probe)).max())
    cols = sampled_columns(params, hess_cols_per_layer, seed)
    m_hat = 0.0
    for diff in jacobian_differences(params, a_hat, ax, probe, cols, hess_step):
        m_hat = max(m_hat, float(diff) / (2 * hess_step))
    return g_hat, m_hat


def segment_objective(z: np.ndarray, flat, terms=("be", "rank")):
    """`losses.bundle_objective` with member rows gathered and summed by
    `np.add.reduceat`, and the gradient scattered back by `np.add.at`."""
    nb = flat.count
    rows = np.arange(nb)
    sums = np.add.reduceat(z[flat.members], flat.offsets[:-1], axis=0)
    zbar = sums / flat.sizes[:, None]
    shifted = zbar - zbar.max(axis=1, keepdims=True)
    logq = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    q = np.exp(logq)

    be = -logq[rows, flat.labels]
    top = np.argmax(logq, axis=1)
    rank = logq[rows, top] - logq[rows, flat.labels]
    active = rank > 0.0

    d_zbar = q.copy() if "be" in terms else np.zeros_like(q)
    if "be" in terms:
        d_zbar[rows, flat.labels] -= 1.0
    if "rank" in terms:
        act = np.flatnonzero(active)
        d_zbar[act, top[act]] += 1.0
        d_zbar[act, flat.labels[act]] -= 1.0

    be_mean = float(be.mean())
    rank_mean = float(rank[active].sum() / nb)
    loss = (be_mean if "be" in terms else 0.0) + (rank_mean if "rank" in terms else 0.0)

    scale = 1.0 / (flat.sizes * nb)
    d_z = np.zeros_like(z)
    np.add.at(d_z, flat.members, np.repeat(d_zbar * scale[:, None], flat.sizes, axis=0))
    return ObjectiveValue(
        loss=loss,
        be_mean=be_mean if "be" in terms else 0.0,
        rank_mean=rank_mean if "rank" in terms else 0.0,
        d_z=d_z,
    )


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


def refine_bundles(p: np.ndarray, bundles, floor: int, epoch: int) -> list:
    """`train.refine` as a loop over `Bundle` objects, each shrunk in place.

    `p` is indexed by node id. Every member attaining the minimum
    confidence in the bundle label is evicted, unless the bundle would fall
    below `floor` or all confidences tie within REFINE_TIE_TOL. Returns
    (epoch, bundle id, node) events, in member order within a bundle.
    """
    events = []
    for b in bundles:
        # at or below the floor, any eviction would leave fewer than `floor` members
        if b.label is None or len(b.members) <= floor:
            continue
        members = np.asarray(b.members, dtype=np.intp)
        conf = p[members, b.label]
        low = conf.min()
        if conf.max() - low <= REFINE_TIE_TOL:
            continue
        keep = conf > low
        if int(keep.sum()) < floor:
            continue
        for node in members[~keep]:
            b.evicted.append((epoch, int(node)))
            events.append((epoch, b.id, int(node)))
        b.members = [int(m) for m in members[keep]]
    return events


_TERMS = {"full": ("be", "rank"), "be_only": ("be",), "rank_only": ("rank",)}


def _member_logit_pass(params, a_hat, ax, objective, flat, nodes):
    """One whole-graph epoch on member logits, propagating first:
    Z = (Â H) W2 + b2 on every node, the group loss on gathered and summed
    member rows (`segment_objective`), and the gradients back through Â.
    `ax` is [ÂX | 1]; this pass reads its ÂX columns and adds b1 apart.
    Returns (Z, value, gradients)."""
    ax = ax[:, :-1]
    hidden = np.maximum(ax @ params.w1 + params.b1, 0.0)
    ah = a_hat @ hidden
    z = ah @ params.w2 + params.b2
    if objective == "node_ce":
        value = node_ce_objective(z, *nodes)
    elif objective == "member_ce":
        value = member_ce_objective(z, flat)
    else:
        value = segment_objective(z, flat, terms=_TERMS[objective])
    d_hidden = ((a_hat @ value.d_z) @ params.w2.T) * (hidden > 0.0)
    grads = gnn.GcnParams(w1=ax.T @ d_hidden, b1=d_hidden.sum(axis=0), w2=ah.T @ value.d_z,
                          b2=value.d_z.sum(axis=0))
    return z, value, grads


def _group_logit_pass(params, a_hat, ax, objective, flat, nodes):
    """One whole-graph epoch in `train`'s order: `gnn.forward` and
    `gnn.backward` through P, `a_hat.group_means` of the bundles for a
    bundle objective and Â itself otherwise, with the second layer in the
    order `train` picks (`gnn.propagates_first` on group means). Returns
    (member logits, value, gradients); the member logits are
    Â (H W2) + b2."""
    op = a_hat if objective in ("member_ce", "node_ce") else a_hat.group_means(flat.offsets, flat.members)
    first = op is not a_hat and gnn.propagates_first(op, *params.dims[1:])
    trace = gnn.forward(params, op, ax, propagate_first=first)
    if objective == "node_ce":
        value = node_ce_objective(trace.z, *nodes)
    elif objective == "member_ce":
        value = member_ce_objective(trace.z, flat)
    else:
        value = bundle_objective(trace.z, flat.labels, terms=_TERMS[objective])
    grads = gnn.backward(params, op, trace, value.d_z)
    z = trace.z if op is a_hat else a_hat @ (trace.h @ params.w2) + params.b2
    return z, value, grads


def whole_graph_train(a_hat, ax, cfg, n_classes, objective="full", bundles=None,
                      node_idx=None, node_labels=None, group_logits=False) -> tuple:
    """`train` on `bundles`, or on `node_idx` with `node_labels` as groups of
    one under node_ce, at a fixed learning rate, every epoch a forward and a
    backward pass over all n nodes, refining `bundles` in place with
    `refine_bundles`. Returns (params, report).

    By default each epoch is `_member_logit_pass`, with updates and gradient
    norms tensor by tensor; with `group_logits` it is `_group_logit_pass`, with
    the parameters and the gradient as flat vectors, as `train` holds them.
    """
    flat = FlatBundles.from_bundles(bundles) if bundles is not None else None
    nodes = None
    if bundles is None:
        nodes = np.asarray(node_idx, dtype=np.intp), np.asarray(node_labels, dtype=np.intp)
        objective = "node_ce"

    params = gnn.init_params(ax.shape[1] - 1, cfg.hidden, n_classes, cfg.seed)
    theta = params.to_vector()
    params = gnn.GcnParams.on(theta, *params.dims)
    eta = cfg.learning_rate
    epoch = _group_logit_pass if group_logits else _member_logit_pass
    loss, loss_be_, loss_rank_, grad_norm, refinements = [], [], [], [], []

    def norm(grads):
        if group_logits:
            g = grads.to_vector()
            return float(np.sqrt(g @ g))
        return float(np.sqrt(sum(float((t * t).sum()) for t in grads.tensors())))

    for t in range(1, cfg.epochs + 1):
        z, value, grads = epoch(params, a_hat, ax, objective, flat, nodes)
        loss.append(value.loss)
        loss_be_.append(value.be_mean)
        loss_rank_.append(value.rank_mean)
        grad_norm.append(norm(grads))
        if group_logits:
            theta -= eta * grads.to_vector()
        else:
            for p, g in zip(params.tensors(), grads.tensors()):
                p -= eta * g
        if bundles is not None and t > cfg.warmup_epochs and (t - cfg.warmup_epochs) % cfg.refine_every == 0:
            events = refine_bundles(softmax_rows(z), bundles, cfg.bundle_floor, t)
            if events:
                refinements.extend(events)
                flat = FlatBundles.from_bundles(bundles)

    _, value, final_grads = epoch(params, a_hat, ax, objective, flat, nodes)
    report = TrainReport(
        loss=np.array(loss), loss_be=np.array(loss_be_), loss_rank=np.array(loss_rank_),
        grad_norm=np.array(grad_norm), refinements=refinements, eta=eta,
        final_loss=value.loss, final_grad_norm=norm(final_grads),
    )
    return params, report


def fresh_field_train(a_hat, ax, groups, cfg, n_classes, objective="full") -> tuple:
    """`train`'s epochs on its field operator (`train._field`), with every
    array allocated afresh: each pass a new trace with no buffers handed
    on, a new gradient vector from `gnn.backward`, and each step a new
    parameter vector. Returns (parameter vector, refinements, curves of
    shape (4, epochs), final loss)."""
    from bundlesup import train as train_module

    params = gnn.init_params(ax.shape[1] - 1, cfg.hidden, n_classes, cfg.seed)
    theta = params.to_vector()
    eta = cfg.learning_rate
    if cfg.eta_auto:
        eta = train_module._auto_eta(params, a_hat, ax, np.unique(groups.members), cfg.seed)[0]
    local, block, ax_field, op, first = train_module._field(a_hat, ax, groups, objective, cfg.hidden, n_classes)
    curves, refinements = [], []

    def epoch(theta):
        p = params.from_vector(theta)
        trace = gnn.forward(p, op, ax_field, propagate_first=first)
        value = train_module._evaluate(objective, trace.z, local)
        return p, trace, value, gnn.backward(p, op, trace, value.d_z).to_vector()

    for t in range(1, cfg.epochs + 1):
        p, trace, value, g = epoch(theta)
        curves.append((value.loss, value.be_mean, value.rank_mean, np.sqrt(g @ g)))
        if t > cfg.warmup_epochs and (t - cfg.warmup_epochs) % cfg.refine_every == 0 \
                and groups.sizes.max() > cfg.bundle_floor:
            z = trace.z if op is block else gnn.second_layer(p, block, trace.h)[0]
            gone = train_module.refine(softmax_rows(z), local, cfg.bundle_floor)
            if gone.size:
                owners = np.repeat(groups.ids, groups.sizes)[gone]
                refinements.extend((t, b, v) for b, v in zip(owners.tolist(), groups.members[gone].tolist()))
                keep = np.ones(groups.members.size, dtype=bool)
                keep[gone] = False
                groups = groups.keep(keep)
                local, block, ax_field, op, first = train_module._field(a_hat, ax, groups, objective,
                                                                        cfg.hidden, n_classes)
        theta = theta - eta * g
    return theta, refinements, np.array(curves).T, epoch(theta)[2].loss


def softmax_row(z: np.ndarray) -> np.ndarray:
    """Stable softmax of a single score vector."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def load_edge_list(path) -> Csr:
    """`graphs.load_edge_list` as one per-line loop: the reference for its
    graphs, FormatError messages and self-loop warnings."""
    us, vs = [], []
    header_n = None
    saw_content = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if not saw_content and parts[0] == "n" and len(parts) == 2:
                try:
                    header_n = int(parts[1])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad node count {parts[1]!r}") from None
                if header_n < 1:
                    raise FormatError(f"{path}:{lineno}: node count must be positive")
                if header_n * header_n > np.iinfo(np.intp).max:
                    raise FormatError(f"{path}:{lineno}: node count {header_n} is too large to index")
                saw_content = True
                continue
            saw_content = True
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
    if not saw_content:
        raise FormatError(f"{path}: no edges or header found")
    max_idx = max(max(us, default=-1), max(vs, default=-1))
    n = header_n if header_n is not None else max_idx + 1
    if max_idx >= n:
        raise FormatError(f"{path}: node index {max_idx} exceeds declared count {n}")
    if max_idx >= np.iinfo(np.intp).max:
        raise FormatError(f"{path}: node index {max_idx} is too large")
    if n * n > np.iinfo(np.intp).max:
        raise FormatError(f"{path}: node count {n} (largest id + 1) is too large to index")
    pairs = np.array((us, vs), dtype=np.intp).T
    return Csr.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])  # self-loops warned above


def load_embeddings(path) -> np.ndarray:
    """`graphs.load_embeddings` as one per-line, per-token loop: the reference
    for its matrices and FormatError messages."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be 'n d'")
        try:
            n, d = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: header must be 'n d'") from None
        if n < 1 or d < 1:
            raise FormatError(f"{path}: header dimensions must be positive")
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


def gen_sbm(cfg: SbmConfig):
    """`synth.gen_sbm` with the whole (n, n) draw, probability and triangle
    arrays in memory at once."""
    rng = np.random.default_rng(cfg.seed)
    per = cfg.n // cfg.n_classes
    labels = np.repeat(np.arange(cfg.n_classes), per)

    prob = np.where(labels[:, None] == labels[None, :], cfg.p_in, cfg.p_out)
    draw = rng.random((cfg.n, cfg.n))
    upper = np.triu(np.ones((cfg.n, cfg.n), dtype=bool), k=1)
    rows, cols = np.nonzero(upper & (draw < prob))
    graph = Csr.from_edges(cfg.n, np.column_stack((rows, cols)))

    means = np.zeros((cfg.n_classes, cfg.dim))
    means[np.arange(cfg.n_classes), np.arange(cfg.n_classes)] = cfg.separation
    x = means[labels] + rng.normal(0.0, cfg.sigma, size=(cfg.n, cfg.dim))

    table = NodeTable(
        n=cfg.n,
        class_names=[f"class_{c}" for c in range(cfg.n_classes)],
        texts=None,
        labels=[int(y) for y in labels],
    )
    return graph, x, table


def edge_set(graph: Csr) -> frozenset:
    """The graph's edges as a frozenset of pairs (u, v) with u < v."""
    return frozenset(map(tuple, graph.edge_array().tolist()))


def adaptive_hop(graph: Csr, core: int, bundle_size: int) -> tuple:
    """Smallest hop radius whose neighbourhood holds bundle_size - 1 other
    nodes, counted radius by radius on a whole BFS, as (k, saturated).

    `saturated` is set when the core's connected component runs out of
    nodes first; k is then the component's radius from the core.
    """
    if bundle_size < 2:
        raise ValueError("bundle_size must be >= 2")
    if graph.degree(core) == 0:
        raise IsolatedCoreError(f"node {core} has no neighbors")
    levels = hop_array(graph, core)
    radius = int(levels.max())
    for k in range(1, radius + 1):
        if int(((levels >= 1) & (levels <= k)).sum()) >= bundle_size - 1:
            return k, False
    return radius, True


def adaptive_hop_distances(graph: Csr, core: int, bundle_size: int) -> tuple:
    """`hop_distances` as a topological bundle of `bundle_size` needs it,
    from a whole BFS: every reachable node's hop count, then cut to the
    `adaptive_hop` radius, which keeps the whole component when it holds
    fewer than bundle_size - 1 other nodes."""
    nodes, levels = hop_distances(graph, core)
    k, _ = adaptive_hop(graph, core, bundle_size)
    return nodes[levels <= k], levels[levels <= k]


def outlier_gradient_pair(scores: np.ndarray, y_hat: int, outlier: int = 0, step: float = 1e-5):
    """(g_group, g_individual) at the outlier's top score coordinate, by FD.

    `scores` has one unconstrained score row per member. The group loss is
    the cross-entropy of softmax(mean row) at y_hat; the individual loss is
    cross-entropy of the outlier's own softmax at y_hat, scaled by 1/|B|.
    """
    scores = np.asarray(scores, dtype=np.float64)
    size = scores.shape[0]
    m_prime = int(np.argmax(scores[outlier]))

    def cross_entropy(row):
        top = row.max()
        return float(top + np.log(np.exp(row - top).sum()) - row[y_hat])

    def group_loss(mat):
        return cross_entropy(mat.mean(axis=0))

    def indiv_loss(mat):
        return cross_entropy(mat[outlier]) / size

    g = []
    for fn in (group_loss, indiv_loss):
        plus = scores.copy()
        plus[outlier, m_prime] += step
        minus = scores.copy()
        minus[outlier, m_prime] -= step
        g.append((fn(plus) - fn(minus)) / (2 * step))
    return g[0], g[1]
