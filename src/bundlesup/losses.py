"""Group-level losses on GCN logits and their exact gradients.

For a node group B with annotated class y, the group distribution is
q = softmax(zbar), zbar the mean of the member logits. Two terms act on
it:

  entropy term   -log q[y]
  ranking term   max(log max_c q[c] - log q[y], 0)

and the training objective is their mean over all labeled groups. The
ranking term is zero exactly when y attains the row maximum (ties
included); when it is positive and the maximum is tied among classes
other than y, the smallest class index defines the competing class.

`bundle_objective` takes the (groups, classes) group logits zbar
themselves. Training computes them in one product, with the group mean
folded into the propagation operator (`group_means`, see `gnn`), and
sends their gradient back through that operator's transpose, so no
member logit is formed. `member_ce_objective` and `node_ce_objective`
read member logits.

`FlatBundles` holds the groups training supervises: labeled bundles, or
annotated nodes as groups of one, scored by `node_ce_objective`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax: the class probabilities of logits `z`."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable log-softmax; -log_softmax_rows(z)[i, y] is the
    cross-entropy of row i at class y."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class FlatBundles:
    """Labeled groups flattened for vectorized loss evaluation and refinement."""

    members: np.ndarray   # all member indices, sorted within each bundle
    offsets: np.ndarray   # (n_bundles + 1,) segment boundaries
    sizes: np.ndarray     # (n_bundles,)
    labels: np.ndarray    # (n_bundles,)
    ids: np.ndarray       # (n_bundles,) each bundle's own id

    @classmethod
    def from_bundles(cls, bundles) -> "FlatBundles":
        labeled = [b for b in bundles if b.label is not None]
        if not labeled:
            raise ValueError("no labeled bundles to supervise on")
        member_lists = [np.sort(np.asarray(b.members, dtype=np.intp)) for b in labeled]
        sizes = np.array([m.size for m in member_lists], dtype=np.intp)
        offsets = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            members=np.concatenate(member_lists),
            offsets=offsets,
            sizes=sizes,
            labels=np.array([b.label for b in labeled], dtype=np.intp),
            ids=np.array([b.id for b in labeled], dtype=np.intp),
        )

    @classmethod
    def from_nodes(cls, nodes, labels) -> "FlatBundles":
        """Annotated nodes as groups of one, in the order given: group i is
        node i with label i and id i. A node may repeat."""
        members, labels = np.asarray(nodes), np.asarray(labels)
        if members.ndim != 1 or labels.shape != members.shape:
            raise ValueError(f"need one label per node, got {labels.size} for {members.size}")
        if not members.size:
            raise ValueError("no annotated nodes to supervise on")
        if members.dtype.kind not in "iu" or labels.dtype.kind not in "iu":
            raise ValueError("node ids and labels must be integers")
        bounds = np.arange(members.size + 1, dtype=np.intp)
        return cls(members.astype(np.intp), bounds, np.ones(members.size, dtype=np.intp),
                   labels.astype(np.intp), bounds[:-1])

    def keep(self, mask: np.ndarray) -> "FlatBundles":
        """The bundles with only the members where `mask` (one entry per
        member) is true; every bundle must keep at least one member."""
        kept = np.concatenate(([0], np.cumsum(mask, dtype=np.intp)))
        offsets = kept[self.offsets]
        sizes = np.diff(offsets)
        if not sizes.all():
            raise ValueError("a keep mask may not empty a bundle")
        return replace(self, members=self.members[mask], offsets=offsets, sizes=sizes)

    @property
    def count(self) -> int:
        return self.sizes.size


@dataclass
class ObjectiveValue:
    """One evaluation of a training objective at fixed logits."""

    loss: float
    be_mean: float
    rank_mean: float
    d_z: np.ndarray


def bundle_objective(zbar: np.ndarray, labels: np.ndarray, terms=("be", "rank")) -> ObjectiveValue:
    """Mean group loss over labeled groups with its exact gradient in the
    group logits `zbar`, one row per group, each labeled by `labels`."""
    nb = labels.size
    rows = np.arange(nb)
    logq = log_softmax_rows(zbar)
    at_label = logq[rows, labels]
    be_mean = rank_mean = 0.0
    if "be" in terms:
        be_mean = float(-at_label.sum()) / nb
        d_zbar = np.exp(logq)
        d_zbar[rows, labels] -= 1.0
    else:
        d_zbar = np.zeros_like(logq)
    if "rank" in terms:
        top = logq.argmax(axis=1)
        rank = logq[rows, top] - at_label
        active = np.flatnonzero(rank > 0.0)
        d_zbar[active, top[active]] += 1.0
        d_zbar[active, labels[active]] -= 1.0
        rank_mean = float(rank[active].sum()) / nb
    d_zbar /= nb
    return ObjectiveValue(loss=be_mean + rank_mean, be_mean=be_mean, rank_mean=rank_mean, d_z=d_zbar)


def _row_ce(z: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> tuple:
    """The cross-entropy of each logit row z[rows[i]] at labels[i], and its
    gradient in that row's logits."""
    logp = log_softmax_rows(z[rows])
    at = (np.arange(rows.size), labels)
    d_rows = np.exp(logp)
    d_rows[at] -= 1.0
    return -logp[at], d_rows


def _ce_value(loss: float, z: np.ndarray, rows: np.ndarray, d_rows: np.ndarray) -> ObjectiveValue:
    """A cross-entropy objective: `loss`, and `d_rows` added onto the logit rows `rows`."""
    d_z = np.zeros_like(z)
    np.add.at(d_z, rows, d_rows)
    return ObjectiveValue(loss=loss, be_mean=loss, rank_mean=0.0, d_z=d_z)


def member_ce_objective(z: np.ndarray, flat: FlatBundles) -> ObjectiveValue:
    """Per-member cross-entropy against the group label, averaged per group.

    This is the individual-supervision alternative: each member's own
    softmax is pushed toward the group label, with weight 1/|B| inside a
    group and the mean over groups outside.
    """
    ce, d_rows = _row_ce(z, flat.members, np.repeat(flat.labels, flat.sizes))
    weights = np.repeat(1.0 / (flat.sizes * flat.count), flat.sizes)
    return _ce_value(float((ce * weights).sum()), z, flat.members, d_rows * weights[:, None])


def node_ce_objective(z: np.ndarray, node_idx: np.ndarray, node_labels: np.ndarray) -> ObjectiveValue:
    """Plain mean cross-entropy on individually annotated nodes."""
    if node_idx.size == 0:
        raise ValueError("no annotated nodes to supervise on")
    ce, d_rows = _row_ce(z, node_idx, node_labels)
    return _ce_value(float(ce.mean()), z, node_idx, d_rows / node_idx.size)

