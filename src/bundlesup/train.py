"""Full-batch gradient-descent training with periodic bundle refinement.

The update rule is plain gradient descent on the mean group loss. When
`eta_auto` is set, the step size is derived from the logit gradient and
curvature bounds G and M, measured at initialization on a small probe of
member nodes. G is exact, the largest entry of the probes' logit Jacobian
(`gnn.logit_jacobian`); M is a central difference of that Jacobian along
sampled parameter coordinates, recomputing only the entries each
coordinate moves (`gnn.jacobian_differences`):

    eta = 0.9 / (n_params * (M + G^2))

Every entry of the group cross-entropy's Hessian is at most 2(M + G^2) in
magnitude, with no 1/|B| factor because all members share the parameters,
so the loss is L-smooth with L = 2 * n_params * (M + G^2). The step is
1.8/L, inside the descent lemma's limit 2/L.

Refinement starts after the warmup and then runs every `refine_every`
epochs: each labeled bundle drops the members least confident in the
bundle label, unless that would cross the size floor or all confidences
tie within 1e-12. The confidences are the row softmax of the epoch's
member logits, computed on refinement epochs only. A round in which no
group is larger than the floor cannot evict, so it is skipped: no member
logits, no softmax, no `refine` call. `train` is the one training path:
it takes its groups as one `losses.FlatBundles` and never modifies it.
Bundle queries are the labeled bundles; individual queries are annotated
nodes as groups of one, under the node cross-entropy, and a group of one
is never refined. A round returns the flat positions of the evicted
members, the report records each as an (epoch, bundle id, node) event,
and the later epochs supervise on the kept members.
`sampling.apply_refinements` turns the events back into bundles.

Each epoch computes only what the objective reads. With S the sorted rows
it reads (the groups' members) and N(S) their neighbours in Â, self
included, the GCN runs on one field operator P from hidden rows on N(S)
to the objective's logits (see `gnn`). For the bundle objectives it is
P = diag(1/|B|)·B·Â[S, N(S)] (`group_means` of the block), whose logits
are the group logits the loss reads, so no member logit is formed; for
`member_ce` and `node_ce` it is the block Â[S, N(S)] itself. A logit of
S depends on no hidden row outside N(S), so this is the whole-graph
descent restricted to the rows that carry gradient, not an
approximation. Â, the block and P are each a `graphs.Csr`. Training
alone knows which operator is group means, so it picks the second
layer's order and passes it to `gnn.forward`: propagate first where
`gnn.propagates_first` counts fewer multiply-adds, which only group
means may do. A refinement epoch of a bundle objective computes the
member logits Â[S, N(S)] (H W2) + b2 from the trace's H
(`gnn.second_layer`). The caller computes [ÂX | 1] (`gnn.ax_ones`) once
over the whole graph and passes it as `ax`, the only feature input; the
field gathers its rows N(S), ones column included. The block and P are
rebuilt only when a refinement evicts members.

A `train` call keeps one set of field buffers: H, the hidden layer's
gradient and the ReLU mask, each of (N(S), h), sized by the first field.
Every pass hands the previous trace to `gnn.forward`, which writes into
the first rows of those arrays, and `gnn.backward` fills the other two;
a refinement only shrinks N(S), so no epoch allocates an array of that
size.

The parameters and their gradient are each one flat vector in
`GcnParams.to_vector` order, with `GcnParams` views onto it, so an epoch
updates them in one step, theta -= eta * g, and takes one norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import gnn
from .losses import FlatBundles, bundle_objective, member_ce_objective, node_ce_objective, softmax_rows

REFINE_TIE_TOL = 1e-12

# the `bundle_objective` terms of each group objective
_TERMS = {"full": ("be", "rank"), "be_only": ("be",), "rank_only": ("rank",)}
OBJECTIVES = (*_TERMS, "member_ce", "node_ce")


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, eta: float):
        self.epoch = epoch
        self.eta = eta
        super().__init__(f"non-finite loss at epoch {epoch} with eta={eta:g}")


@dataclass(frozen=True)
class TrainConfig:
    """Defaults are calibrated once on the standard benchmark: early and
    frequent refinement, a horizon short of heavy noise memorization."""

    learning_rate: float = 0.5
    epochs: int = 800
    warmup_epochs: int = 25
    refine_every: int = 5
    bundle_floor: int = 2
    seed: int = 0
    eta_auto: bool = False
    hidden: int = 64

    def __post_init__(self):
        if self.learning_rate <= 0 and not self.eta_auto:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.refine_every < 1:
            raise ValueError("refine_every must be >= 1")
        if self.bundle_floor < 2:
            raise ValueError("bundle_floor must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


@dataclass
class TrainReport:
    loss: np.ndarray
    loss_be: np.ndarray
    loss_rank: np.ndarray
    grad_norm: np.ndarray
    refinements: list
    eta: float
    final_loss: float
    final_grad_norm: float
    g_hat: float | None = None
    m_hat: float | None = None

    @property
    def epochs(self) -> int:
        return self.loss.size

    def summary(self) -> dict:
        return {
            "kind": "summary",
            "epochs": self.epochs,
            "eta": self.eta,
            "final_loss": self.final_loss,
            "final_grad_norm": self.final_grad_norm,
            "refinement_events": len(self.refinements),
            "g_hat": self.g_hat,
            "m_hat": self.m_hat,
        }

    def save_jsonl(self, path) -> None:
        """One record per epoch, refinement events embedded, summary last."""
        by_epoch = {}
        for epoch, bundle_id, node in self.refinements:
            by_epoch.setdefault(epoch, []).append([bundle_id, node])
        with open(path, "w", encoding="utf-8") as fh:
            for t in range(self.epochs):
                rec = {"kind": "epoch", "epoch": t + 1,
                       **{k: float(getattr(self, k)[t]) for k in ("loss", "loss_be", "loss_rank", "grad_norm")}}
                if t + 1 in by_epoch:
                    rec["evictions"] = by_epoch[t + 1]
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(self.summary()) + "\n")


def refine(p: np.ndarray, flat: FlatBundles, floor: int) -> np.ndarray:
    """One eviction round: the flat positions of the members to drop.

    `p` holds class probabilities on the rows `flat.members` index. In each
    bundle every member attaining the minimum confidence in the bundle
    label is evicted, unless fewer than `floor` members would remain or
    all confidences tie within REFINE_TIE_TOL. One ascending position per
    eviction: bundle by bundle, by node within a bundle.
    """
    starts = flat.offsets[:-1]
    conf = p[flat.members, np.repeat(flat.labels, flat.sizes)]
    low = np.minimum.reduceat(conf, starts)
    spread = np.maximum.reduceat(conf, starts) - low
    at_low = conf <= np.repeat(low, flat.sizes)
    # the minimum always goes, so a bundle at or below the floor never qualifies
    left = flat.sizes - np.add.reduceat(at_low, starts)
    go = (spread > REFINE_TIE_TOL) & (left >= floor)
    return np.flatnonzero(at_low & np.repeat(go, flat.sizes))


def estimate_logit_bounds(params: gnn.GcnParams, a_hat, ax: np.ndarray, probe_nodes, *, hess_step: float = 1e-4,
                          hess_cols_per_layer: int = 32, seed: int = 0) -> tuple:
    """Bounds (G, M) on the probe nodes' first and second logit derivatives.

    G is the max |d z_ic / d theta_j| over probe nodes, classes, and every
    parameter, read exactly off `gnn.logit_jacobian`. M is the max second
    derivative: a central difference of that exact Jacobian along a random
    subset of parameter coordinates per layer. `gnn.jacobian_differences`
    computes, for each coordinate, only the Jacobian entries it moves, and
    they are bitwise those of two whole Jacobians at theta +- step e_k.
    Both read one `gnn.probe_pass` at theta.
    With d=8, h=64, c=5 and five probes, an estimate takes about 1 ms on a
    2-vCPU VM, against 40 ms for two whole Jacobians per coordinate.
    `ax` is [ÂX | 1] (`gnn.ax_ones`).
    """
    probe = np.asarray(probe_nodes, dtype=np.intp)
    n_d = params.n_params
    at = gnn.probe_pass(params, a_hat, probe, ax)
    g_hat = float(np.abs(at.jacobian()).max())

    d, h, c = params.dims
    layer1 = d * h + h
    rng = np.random.default_rng((seed, 4))
    cols = np.concatenate(
        [
            rng.choice(layer1, size=min(hess_cols_per_layer, layer1), replace=False),
            layer1 + rng.choice(n_d - layer1, size=min(hess_cols_per_layer, n_d - layer1), replace=False),
        ]
    )

    diffs = gnn.jacobian_differences(at, cols, hess_step)
    m_hat = float(diffs.max(initial=0.0)) / (2 * hess_step)
    return g_hat, m_hat


def _auto_eta(params, a_hat, ax: np.ndarray, members: np.ndarray, seed: int) -> tuple:
    rng = np.random.default_rng((seed, 5))
    probe = rng.choice(members, size=min(5, members.size), replace=False)
    g_hat, m_hat = estimate_logit_bounds(params, a_hat, ax, probe, seed=seed)
    eta = 0.9 / (params.n_params * (m_hat + g_hat**2))
    return eta, g_hat, m_hat


def _refuse_outside(values: np.ndarray, bound: int, what: str, of: str) -> None:
    bad = values[(values < 0) | (values >= bound)]
    if bad.size:
        raise ValueError(f"bundle {what} {bad[0]} is outside the {bound} {of}")


def _field(a_hat, ax: np.ndarray, groups: FlatBundles, objective: str, h: int, c: int) -> tuple:
    """What an epoch reads for one set of members: `groups` with members
    indexed into the sorted rows S they cover, the block Â[S, N(S)],
    the rows N(S) of `ax` = [ÂX | 1], the field operator P onto the objective's logits, and
    whether the second layer propagates through P first: only group means
    may, by `gnn.propagates_first`."""
    rows = np.unique(groups.members)
    local = replace(groups, members=np.searchsorted(rows, groups.members))
    cols = a_hat.reach(rows)
    block = a_hat.block(rows, cols)
    ax_field = ax if block is a_hat else ax[cols]
    if objective in ("member_ce", "node_ce"):
        return local, block, ax_field, block, False
    op = block.group_means(local.offsets, local.members)
    return local, block, ax_field, op, gnn.propagates_first(op, h, c)


def _evaluate(objective: str, z: np.ndarray, groups: FlatBundles):
    """`objective` at the field's logits z: the group logits for a bundle
    objective, the logits on S otherwise, with the members of `groups`
    indexed into S. The loss functions are looked up by name on each call,
    so a wrapper installed on this module's names is the one that runs."""
    if objective == "member_ce":
        return member_ce_objective(z, groups)
    if objective == "node_ce":
        return node_ce_objective(z, groups.members, groups.labels)
    return bundle_objective(z, groups.labels, terms=_TERMS[objective])


def train(a_hat, ax: np.ndarray, groups: FlatBundles, cfg: TrainConfig, n_classes: int,
          objective: str = "full"):
    """Gradient descent on the group objective from Â and `ax` = [ÂX | 1]
    (`gnn.ax_ones`), d + 1 columns for input width d; returns (params, report).

    `groups` holds the labeled bundles (`FlatBundles.from_bundles`) or, for
    `objective="node_ce"`, individually annotated nodes as groups of one
    (`FlatBundles.from_nodes`); node_ce refuses a group of more than one
    member. A label must lie in [0, n_classes) and a member in the graph;
    anything else raises a ValueError. `groups` is left as given: the
    report's `refinements` lists every eviction as (epoch, bundle id,
    node), and with cfg.refine_every > cfg.epochs there are none. A group
    of one is never refined, since the floor is at least 2. The returned
    parameters are views onto one flat vector.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == "node_ce" and (groups.sizes != 1).any():
        raise ValueError(f"objective node_ce supervises groups of one node, got one of {groups.sizes.max()}")
    _refuse_outside(groups.labels, n_classes, "label", "classes")
    _refuse_outside(groups.members, a_hat.n, "member", "graph nodes")

    params = gnn.init_params(ax.shape[1] - 1, cfg.hidden, n_classes, cfg.seed)
    theta = params.to_vector()
    params = gnn.GcnParams.on(theta, *params.dims)
    grad = np.empty_like(theta)
    grads = gnn.GcnParams.on(grad, *params.dims)

    g_hat = m_hat = None
    if cfg.eta_auto:
        eta, g_hat, m_hat = _auto_eta(params, a_hat, ax, np.unique(groups.members), cfg.seed)
    else:
        eta = cfg.learning_rate

    local, block, ax_field, op, first = _field(a_hat, ax, groups, objective, cfg.hidden, n_classes)
    curves = np.empty((4, cfg.epochs))   # per epoch: loss, its two terms, gradient norm
    refinements = []
    trace = None   # each pass writes into the last pass's buffers: N(S) only shrinks

    # a diverging step overflows in the forward pass and the objective before
    # the loss check sees a non-finite value; the check, not NumPy's
    # floating-point warnings, reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(1, cfg.epochs + 1):
            trace = gnn.forward(params, op, ax_field, propagate_first=first, out=trace)
            value = _evaluate(objective, trace.z, local)
            if not math.isfinite(value.loss):
                raise TrainingDivergedError(t, eta)
            gnn.backward(params, op, trace, value.d_z, out=grads)
            curves[:, t - 1] = value.loss, value.be_mean, value.rank_mean, np.sqrt(grad @ grad)

            # a round can evict only from a group above the floor; it reads
            # the logits before this epoch's step
            if t > cfg.warmup_epochs and (t - cfg.warmup_epochs) % cfg.refine_every == 0 \
                    and groups.sizes.max() > cfg.bundle_floor:
                z = trace.z if op is block else gnn.second_layer(params, block, trace.h)[0]
                gone = refine(softmax_rows(z), local, cfg.bundle_floor)
                if gone.size:
                    owners = np.repeat(groups.ids, groups.sizes)[gone]
                    refinements.extend((t, b, v) for b, v in zip(owners.tolist(), groups.members[gone].tolist()))
                    keep = np.ones(groups.members.size, dtype=bool)
                    keep[gone] = False
                    groups = groups.keep(keep)
                    local, block, ax_field, op, first = _field(a_hat, ax, groups, objective,
                                                               cfg.hidden, n_classes)
            theta -= eta * grad

    trace = gnn.forward(params, op, ax_field, propagate_first=first, out=trace)
    value = _evaluate(objective, trace.z, local)
    gnn.backward(params, op, trace, value.d_z, out=grads)
    loss, loss_be, loss_rank, grad_norm = curves
    return params, TrainReport(loss=loss, loss_be=loss_be, loss_rank=loss_rank, grad_norm=grad_norm,
                               refinements=refinements, eta=eta, final_loss=value.loss,
                               final_grad_norm=float(np.sqrt(grad @ grad)), g_hat=g_hat, m_hat=m_hat)
