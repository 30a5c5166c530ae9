"""Two-layer graph convolutional network with exact analytic backprop.

Forward map, for normalized adjacency A, an (n, d) float64 feature array
X and parameters (W1, b1, W2, b2):

    H = relu(A X W1 + b1)
    Z = A (H W2) + b2

The second layer transforms before it propagates (Kipf & Welling, ICLR
2017), so A carries the c columns of H W2, not the h of H. The trace of
a pass keeps what `backward` and refinement read: A X, H, the logits Z
and, where the second layer propagated first (below), P H. The ReLU
mask is H > 0, and the subgradient at exactly zero is fixed to zero.
Class probabilities are `losses.softmax_rows(Z)`. Everything is float64
and deterministic.

A row of Z depends on the rows of H at its node's neighbours and on
nothing else. So `forward` and `backward` also run with any sparse
operator P in place of the second A whose columns are N(S), every
neighbour of a node set S, self included: H on N(S), then logits on P's
rows. P is the row block Â[S, N(S)] (`Csr.block`), whose logits are
those of S, or its `group_means`, whose logits are the mean logits of
node groups. Training passes the P its objective reads and gets those
logits and the exact gradients, with no work on rows that no loss term
reads. The block keeps Â's column order within each row, so each logit
adds the same terms in the same order as the whole-graph pass, and on
S = every node the block is Â itself. Every operator is a `graphs.Csr`;
only the symmetric Â may come without `ax`.

The second layer is P (H W2) + b2 by default, or (P H) W2 + b2 when the
caller asks for it with `propagate_first`. The two differ only by
rounding. Training asks for it on group means that take fewer
multiply-adds that way over a forward and a backward pass
(`propagates_first`): small fields of a few classes transform first,
while the group means of a large field, with far fewer rows than
columns, propagate first when c is large. Â and its row blocks always
transform first, so a block's logits stay bitwise the whole graph's
rows.

Parameters and their gradients may live in one flat vector in
`GcnParams.to_vector` order, with `GcnParams.on` views onto it;
`backward` writes its gradients into such views.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Csr, FormatError, load_embeddings, save_embeddings


@dataclass
class GcnParams:
    """Weights and biases; also used as the container for their gradients."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def dims(self):
        d, h = self.w1.shape
        c = self.w2.shape[1]
        return d, h, c

    @property
    def n_params(self) -> int:
        d, h, c = self.dims
        return d * h + h + h * c + c

    def tensors(self):
        return (self.w1, self.b1, self.w2, self.b2)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tensors()])

    def from_vector(self, vec: np.ndarray) -> "GcnParams":
        """Parameters of this shape holding a copy of `vec`."""
        return GcnParams.on(np.array(vec, dtype=np.float64), *self.dims)

    @classmethod
    def on(cls, vec: np.ndarray, d: int, h: int, c: int) -> "GcnParams":
        """The four tensors as views onto the flat float64 vector `vec`, in
        `to_vector` order: writing a tensor writes `vec`, and the reverse."""
        if vec.shape != (d * h + h + h * c + c,):
            raise ValueError(f"a flat vector of {d * h + h + h * c + c} parameters is needed, got shape {vec.shape}")
        w1, b1, w2, b2 = np.split(vec, np.cumsum([d * h, h, h * c]))
        return cls(w1.reshape(d, h), b1, w2.reshape(h, c), b2)

    def copy(self) -> "GcnParams":
        return GcnParams(*(t.copy() for t in self.tensors()))


@dataclass
class ForwardTrace:
    """The arrays of one forward pass that `backward` reads: A X, the hidden
    layer H, P H where the second layer propagated first (else None), and
    the logits Z.

    With an operator P whose columns are N(S) in place of the second A, ax
    and h hold the rows N(S), and ph and z the rows of P.
    """

    ax: np.ndarray
    h: np.ndarray
    ph: np.ndarray | None
    z: np.ndarray


def init_params(d: int, h: int, c: int, seed: int) -> GcnParams:
    """Glorot-uniform weights, zero biases, reproducible by seed."""
    if min(d, h, c) < 1:
        raise ValueError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (d + h))
    lim2 = np.sqrt(6.0 / (h + c))
    return GcnParams(
        w1=rng.uniform(-lim1, lim1, size=(d, h)),
        b1=np.zeros(h),
        w2=rng.uniform(-lim2, lim2, size=(h, c)),
        b2=np.zeros(c),
    )


def forward(params: GcnParams, a_hat: Csr, x: np.ndarray, ax: np.ndarray = None, *,
            propagate_first: bool = False) -> ForwardTrace:
    """Run the two-layer convolution on features `x`; `ax` may carry a
    precomputed A @ X.

    `a_hat` is Â itself or an operator P onto its columns N(S) (see the
    module docstring), for which `ax` is required and holds the rows N(S)
    of Â @ X; the logits are those of P's rows. `propagate_first` picks
    the second layer's order (`second_layer`). H and Z are built in place:
    no pre-activation array outlives the ReLU.
    """
    d, h, c = params.dims
    if x.shape[1] != d:
        raise ValueError(f"features have {x.shape[1]} columns, params expect {d}")
    if x.shape[0] != a_hat.n:
        raise ValueError("feature rows do not match the adjacency")
    if ax is None:
        if not a_hat.symmetric:
            raise ValueError("an operator other than Â needs ax, the rows of Â @ X at its columns")
        ax = a_hat @ x
    hidden = ax @ params.w1
    hidden += params.b1
    np.maximum(hidden, 0.0, out=hidden)
    z, ph = second_layer(params, a_hat, hidden, propagate_first=propagate_first)
    return ForwardTrace(ax=ax, h=hidden, ph=ph, z=z)


def second_layer(params: GcnParams, a_hat: Csr, hidden: np.ndarray, *, propagate_first: bool = False) -> tuple:
    """(Z, P H) of the hidden rows `hidden` through `a_hat` = P, as `forward`
    computes them: (P H) W2 + b2 with `propagate_first`, else P (H W2) + b2
    with P H None."""
    if propagate_first:
        ph = a_hat @ hidden
        z = ph @ params.w2
    else:
        ph = None
        z = a_hat @ (hidden @ params.w2)
    z += params.b2
    return z, ph


def propagates_first(p: Csr, h: int, c: int) -> bool:
    """Whether (P H) W2 takes fewer multiply-adds than P (H W2) over a
    forward and a backward pass: 2 m h + 3 rows h c against
    2 m c + 3 cols h c, with m the multiply-adds of the storage P
    multiplies with (`Csr.multiply_adds`)."""
    rows, cols = p.shape
    return 2 * p.multiply_adds * (h - c) < 3 * h * c * (cols - rows)


def backward(params: GcnParams, a_hat, x: np.ndarray, trace: ForwardTrace, d_z: np.ndarray,
             out: GcnParams = None) -> GcnParams:
    """Exact gradients of any scalar loss whose logit gradient is `d_z`.

    The logit gradient flows back through `a_hat.T`: Â itself on the whole
    graph, by symmetry, and P^T for an operator P. The gradients are
    written into `out`, views onto one flat vector (`GcnParams.on`), which
    a new vector backs when `out` is None; returns `out`.
    """
    if d_z.shape != trace.z.shape:
        raise ValueError(f"upstream gradient shape {d_z.shape} != logits {trace.z.shape}")
    if out is None:
        out = GcnParams.on(np.empty(params.n_params), *params.dims)
    if trace.ph is None:
        d_hw = a_hat.T @ d_z
        np.matmul(trace.h.T, d_hw, out=out.w2)
        d_hidden = d_hw @ params.w2.T
    else:
        np.matmul(trace.ph.T, d_z, out=out.w2)
        d_hidden = a_hat.T @ (d_z @ params.w2.T)
    d_z.sum(axis=0, out=out.b2)
    d_hidden *= trace.h > 0.0
    np.matmul(trace.ax.T, d_hidden, out=out.w1)
    d_hidden.sum(axis=0, out=out.b1)
    return out


def logit_jacobian(params: GcnParams, a_hat: Csr, x: np.ndarray, probe,
                   ax: np.ndarray = None) -> np.ndarray:
    """Exact d z_ic / d theta of the probe nodes, shape (probes, classes, n_params).

    The last axis follows `GcnParams.to_vector`. With M = 1[H_pre > 0]:

        d z_ic / d W2[k, c'] = (A H)[i, k] delta_cc'
        d z_ic / d b2[c']    = delta_cc'
        d z_ic / d W1[f, k]  = s_i[f, k] W2[k, c],  s_i = sum_j A_ij (AX)[j, f] M[j, k]
        d z_ic / d b1[k]     = t_i[k] W2[k, c],     t_i = sum_j A_ij M[j, k]

    Every sum runs over the neighbours j of i only: one masked propagation
    per probe (`probe_pass`), no pass over the whole graph. Each row equals
    `backward` with a one-hot upstream gradient, up to rounding.
    """
    if ax is None:
        ax = a_hat @ x
    return probe_pass(params, a_hat, probe, ax).jacobian()


class ProbePass(NamedTuple):
    """The masked propagation of `logit_jacobian` at `params`: the probe rows'
    stored entries (`_probe_entries`) and s, t and A H, probes first."""

    params: GcnParams
    ax_nbr: np.ndarray
    a_ij: np.ndarray
    starts: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ah: np.ndarray

    def jacobian(self) -> np.ndarray:
        """The probes' `logit_jacobian` at `params`."""
        params, s, t = self.params, self.s, self.t
        d, h, c = params.dims
        w1_end, b1_end, w2_end = d * h, d * h + h, d * h + h + h * c
        probes = s.shape[0]
        jac = np.zeros((probes, c, params.n_params))
        jac[:, :, :w1_end] = (s[:, None] * params.w2.T[None, :, None, :]).reshape(probes, c, -1)
        jac[:, :, w1_end:b1_end] = t[:, None, :] * params.w2.T
        for k in range(c):
            jac[:, k, b1_end + k:w2_end:c] = self.ah
            jac[:, k, w2_end + k] = 1.0
        return jac


def probe_pass(params: GcnParams, a_hat: Csr, probe, ax: np.ndarray) -> ProbePass:
    """The `ProbePass` of the nodes `probe` at `params`; `ax` = A @ X."""
    ax_nbr, a_ij, starts = _probe_entries(a_hat, ax, np.asarray(probe, dtype=np.intp))
    s, t, ah = _propagate(ax_nbr, a_ij, starts, ax_nbr @ params.w1 + params.b1)
    return ProbePass(params, ax_nbr, a_ij, starts, s, t, ah)


def jacobian_differences(at: ProbePass, coords, step: float) -> np.ndarray:
    """max |J(theta + step e_k) - J(theta - step e_k)| for each coordinate k of
    `coords`, J the probes' `logit_jacobian` and theta `at.params`.

    Only the entries a coordinate moves are computed. W1[f, u] and b1[u]
    move hidden unit u alone: its pre-activation column, so the W1[:, u],
    b1[u] and W2[u, :] entries. W2[u, c'] moves the W1[:, u] and b1[u]
    entries of class c' by their factor W2[u, c'], which scales s and t at
    theta as `at` holds them. b2 moves nothing. Every other entry is
    computed from the same numbers at both points, so its difference is
    exactly 0.

    Each moved entry is bitwise the one `logit_jacobian` at the perturbed
    parameters holds: theta_k + step, then that minus 2 step, and each
    moved pre-activation column cut out of the whole (E, d) @ (d, h)
    product, since BLAS may round a column computed alone differently.
    """
    params, ax_nbr, a_ij, starts = at.params, at.ax_nbr, at.a_ij, at.starts
    coords = np.asarray(coords, dtype=np.intp)
    d, h, c = params.dims
    w1_end, b1_end, w2_end = d * h, d * h + h, d * h + h + h * c
    out = np.zeros(coords.size)

    first = np.flatnonzero(coords < b1_end)
    if first.size:
        ks = coords[first]
        units = np.where(ks < w1_end, ks % h, ks - w1_end)
        theta = np.concatenate([params.w1.ravel(), params.b1])
        plus = theta[ks] + step
        # a column of ax_nbr @ W1 does not depend on W1's other columns, so
        # perturbations of distinct units share one product: round r holds
        # the r-th coordinate of each unit; + and - alternate in `moved`
        order = np.argsort(units, kind="stable")
        rounds = np.empty_like(order)
        rounds[order] = np.arange(order.size) - np.searchsorted(units[order], units[order])
        moved = np.empty((ax_nbr.shape[0], 2 * ks.size))
        for r in range(rounds.max() + 1):
            sel = np.flatnonzero(rounds == r)
            for side, values in enumerate((plus, plus - 2 * step)):
                layer = theta.copy()
                layer[ks[sel]] = values[sel]
                product = ax_nbr @ layer[:w1_end].reshape(d, h) + layer[w1_end:]
                moved[:, 2 * sel + side] = product[:, units[sel]]
        s, t, ah = _propagate(ax_nbr, a_ij, starts, moved)
        w2 = params.w2[units]   # (K, c): the factor of each moved entry
        out[first] = np.maximum.reduce([
            np.abs(s[:, :, 0::2, None] * w2 - s[:, :, 1::2, None] * w2).max(axis=(0, 1, 3)),
            np.abs(t[:, 0::2, None] * w2 - t[:, 1::2, None] * w2).max(axis=(0, 2)),
            np.abs(ah[:, 0::2] - ah[:, 1::2]).max(axis=0),
        ])

    second = np.flatnonzero((coords >= b1_end) & (coords < w2_end))
    if second.size:
        units, classes = np.divmod(coords[second] - b1_end, c)
        plus = params.w2[units, classes] + step
        minus = plus - 2 * step
        s, t = at.s[:, :, units], at.t[:, units]
        out[second] = np.maximum(np.abs(s * plus - s * minus).max(axis=(0, 1)),
                                 np.abs(t * plus - t * minus).max(axis=0))
    return out


def _probe_entries(a_hat: Csr, ax: np.ndarray, probe: np.ndarray) -> tuple:
    """The stored entries (i, j) of every probe row, probe by probe: the rows
    (A @ X)[j], the values A_ij as a column, and where each probe's run starts."""
    entries = a_hat.row_entries(probe)
    starts = np.concatenate([[0], np.cumsum(np.diff(a_hat.indptr)[probe])[:-1]])
    return ax[a_hat.indices[entries]], a_hat.data[entries][:, None], starts


def _propagate(ax_nbr: np.ndarray, a_ij: np.ndarray, starts: np.ndarray, h_pre: np.ndarray) -> tuple:
    """s, t and A H of `logit_jacobian`, probes first, from the neighbours'
    pre-activations `h_pre` (E, units); any set of columns may stand as units."""
    weighted = a_ij * (h_pre > 0.0)
    s = np.add.reduceat(ax_nbr[:, :, None] * weighted[:, None, :], starts)
    t = np.add.reduceat(weighted, starts)
    ah = np.add.reduceat(a_ij * np.maximum(h_pre, 0.0), starts)
    return s, t, ah


_TENSOR_NAMES = ("w1", "b1", "w2", "b2")


def save_params(out_dir, params: GcnParams, seed: int = None) -> None:
    """Write one text matrix per tensor plus a manifest of shapes."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"tensors": {}, "seed": seed}
    for name, tensor in zip(_TENSOR_NAMES, params.tensors()):
        mat = tensor if tensor.ndim == 2 else tensor[None, :]
        save_embeddings(os.path.join(out_dir, f"{name}.txt"), mat)
        manifest["tensors"][name] = list(tensor.shape)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_params(out_dir) -> GcnParams:
    """The parameters `save_params` wrote; a manifest that does not describe
    the four tensor files raises a FormatError naming it."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    tensors = manifest.get("tensors") if type(manifest) is dict else None
    if type(tensors) is not dict:
        raise FormatError(f"{path}: manifest has no tensors object")
    if sorted(tensors) != sorted(_TENSOR_NAMES):
        raise FormatError(f"{path}: tensors must be {', '.join(_TENSOR_NAMES)}, got {', '.join(tensors) or 'none'}")
    loaded = {}
    for name, shape in tensors.items():
        values = load_embeddings(os.path.join(out_dir, f"{name}.txt"))
        if type(shape) is not list or any(type(k) is not int or k < 0 for k in shape) \
                or values.size != np.prod(shape, dtype=np.int64):
            raise FormatError(f"{path}: {name} has shape {shape}, but {name}.txt holds {values.size} values")
        loaded[name] = values.reshape(shape)
    return GcnParams(**loaded)
