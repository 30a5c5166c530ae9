"""Two-layer graph convolutional network with exact analytic backprop.

Forward map, for normalized adjacency A, an (n, d) float64 feature array
X and parameters (W1, b1, W2, b2):

    H = relu([AX | 1] [W1; b1])  = relu(A X W1 + b1)
    Z = A (H W2) + b2

The first layer is one product (`first_layer`): [AX | 1] is A X with a
column of ones appended (`ax_ones`), and [W1; b1] the (d+1, h) view
`GcnParams.layer1`, so b1 is added inside the product and its gradient
comes out of the one product [AX | 1]^T D that gives W1's. X enters only
through [AX | 1], computed once by its owner (`ax_ones`; SGC, Wu et al.,
ICML 2019, makes the same precomputation): every function here takes it,
or rows of it, as `ax`, and none takes X.

The second layer transforms before it propagates (Kipf & Welling, ICLR
2017), so A carries the c columns of H W2, not the h of H. The trace of
a pass keeps what `backward` and refinement read: [A X | 1], H, the
logits Z and, where the second layer propagated first (below), P H. A
pass given the trace of an earlier one (`forward(out=...)`) writes H into
that trace's array and keeps its `backward` buffers, so repeated passes
reuse one set of arrays. The ReLU
mask is H > 0, and the subgradient at exactly zero is fixed to zero.
Class probabilities are `losses.softmax_rows(Z)`. Everything is float64
and deterministic. Whole-graph evaluation (`logits`) forms H W2 a block
of EVAL_ROWS rows of H at a time, so it never holds an (n, h) array.

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
S = every node the block is Â itself. Every operator is a `graphs.Csr`,
and `ax` holds the rows of [AX | 1] at its columns.

The second layer is P (H W2) + b2 by default, or (P H) W2 + b2 when the
caller asks for it with `propagate_first`. The two differ only by
rounding. Training asks for it on group means that take fewer
multiply-adds that way over a forward and a backward pass
(`propagates_first`): small fields of a few classes transform first,
while the group means of a large field, with far fewer rows than
columns, propagate first when c is large. Â and its row blocks always
transform first, so a block's logits stay bitwise the whole graph's
rows.

Parameters and their gradients are views onto one flat vector in
`GcnParams.to_vector` order (`GcnParams`, `GcnParams.on`); `backward`
writes its gradients into such views.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Csr, FormatError, load_embeddings, save_embeddings


class GcnParams:
    """Weights and biases as views onto one flat float64 vector in
    `to_vector` order; also the container for their gradients.

    `layer1` is [W1; b1], the first layer as one (d+1, h) view: W1 is its
    first d rows and b1 its last, so a write to any of the three, or to
    the vector, shows in the others. Write into the tensors; rebinding one
    would cut it from the vector.
    """

    def __init__(self, w1, b1, w2, b2):
        """Parameters holding a copy of the four tensors in one new vector.
        Shapes other than w1 (d, h), b1 (h,), w2 (h, c) and b2 (c,) raise a
        ValueError naming them."""
        shapes = [np.shape(t) for t in (w1, b1, w2, b2)]
        if len(shapes[0]) != 2 or len(shapes[2]) != 2 \
                or shapes[1:] != [shapes[0][1:], (shapes[0][1], shapes[2][1]), shapes[2][1:]]:
            raise ValueError(f"w1, b1, w2, b2 must have shapes (d, h), (h,), (h, c), (c,), got "
                             f"{', '.join(map(str, shapes))}")
        (d, h), (_, c) = shapes[0], shapes[2]
        self._bind(np.concatenate([np.ravel(t) for t in (w1, b1, w2, b2)], dtype=np.float64), d, h, c)

    def _bind(self, vec: np.ndarray, d: int, h: int, c: int) -> None:
        if vec.shape != (d * h + h + h * c + c,):
            raise ValueError(f"a flat vector of {d * h + h + h * c + c} parameters is needed, got shape {vec.shape}")
        self.layer1 = vec[:(d + 1) * h].reshape(d + 1, h)
        self.w1, self.b1 = self.layer1[:d], self.layer1[d]
        w2, self.b2 = np.split(vec[(d + 1) * h:], [h * c])
        self.w2 = w2.reshape(h, c)

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
        """The tensors as views onto the flat float64 vector `vec`, in
        `to_vector` order: writing a tensor writes `vec`, and the reverse."""
        params = cls.__new__(cls)
        params._bind(vec, d, h, c)
        return params

    def copy(self) -> "GcnParams":
        return GcnParams(*self.tensors())


@dataclass
class ForwardTrace:
    """The arrays of one forward pass that `backward` reads: the rows `ax`
    of [ÂX | 1] it read, the hidden layer H, P H where the second layer
    propagated first (else None), and the logits Z.

    With an operator P whose columns are N(S) in place of the second A, ax
    and h hold the rows N(S), and ph and z the rows of P. `d_h` and
    `live`, of H's shape, are where `backward` writes the hidden layer's
    gradient and the mask H > 0; it allocates them on its first call
    with this trace, and a pass given this trace as `out` keeps them.
    """

    ax: np.ndarray
    h: np.ndarray
    ph: np.ndarray | None
    z: np.ndarray
    d_h: np.ndarray | None = None
    live: np.ndarray | None = None


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


def ax_ones(a_hat: Csr, x: np.ndarray) -> np.ndarray:
    """[ÂX | 1]: Â @ X with a column of ones appended, the first layer's
    input. Every `ax` in this package holds this array or rows of it.
    Features with other than one row per node raise a ValueError."""
    if x.shape[0] != a_hat.shape[1]:
        raise ValueError("feature rows do not match the adjacency")
    ax = np.empty((a_hat.shape[0], x.shape[1] + 1))
    ax[:, :-1] = a_hat @ x
    ax[:, -1] = 1.0
    return ax


def first_layer(params: GcnParams, ax: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """H = relu([ÂX | 1] [W1; b1]) on the rows `ax`, one product with b1
    folded in, written into `out` when given."""
    hidden = np.matmul(ax, params.layer1, out=out)
    return np.maximum(hidden, 0.0, out=hidden)


def forward(params: GcnParams, a_hat: Csr, ax: np.ndarray, *, propagate_first: bool = False,
            out: ForwardTrace = None) -> ForwardTrace:
    """Run the two-layer convolution on the rows `ax` of [ÂX | 1] (`ax_ones`).

    `a_hat` is Â itself, with `ax` all of [ÂX | 1], or an operator P onto
    its columns N(S) (see the module docstring), with `ax` the rows N(S);
    the logits are those of P's rows. An `ax` that does not fit raises a
    ValueError (`_check_input`). `propagate_first` picks the second
    layer's order (`second_layer`). With `out`, the trace of an earlier
    pass with at least as many rows of H, H is written into the first
    rows of its array and the new trace keeps the first rows of its
    `backward` buffers, so the pass allocates nothing of H's size.
    """
    _check_input(params, a_hat, ax)
    rows = ax.shape[0]
    hidden = first_layer(params, ax, out=None if out is None else out.h[:rows])
    z, ph = second_layer(params, a_hat, hidden, propagate_first=propagate_first)
    trace = ForwardTrace(ax, hidden, ph, z)
    if out is not None and out.d_h is not None:
        trace.d_h, trace.live = out.d_h[:rows], out.live[:rows]
    return trace


def _check_input(params: GcnParams, a_hat: Csr, ax: np.ndarray) -> None:
    """A ValueError unless `ax` holds d + 1 columns, d the parameters' input
    width, and one row of [ÂX | 1] per column of `a_hat`."""
    d = params.dims[0]
    if ax.shape[1] != d + 1:
        raise ValueError(f"features have {ax.shape[1] - 1} columns, params expect {d}")
    if ax.shape[0] != a_hat.shape[1]:
        raise ValueError(f"ax has {ax.shape[0]} rows, but an operator of shape {a_hat.shape} needs {a_hat.shape[1]}")


def second_layer(params: GcnParams, a_hat: Csr, hidden: np.ndarray, *, propagate_first: bool = False) -> tuple:
    """(Z, P H) of the hidden rows `hidden` through `a_hat` = P, as `forward`
    computes them: (P H) W2 + b2 with `propagate_first`, else P (H W2) + b2
    with P H None."""
    if propagate_first:
        ph = a_hat @ hidden
        z = ph @ params.w2
        z += params.b2
        return z, ph
    return propagate_logits(params, a_hat, hidden @ params.w2), None


def propagate_logits(params: GcnParams, a_hat: Csr, hw: np.ndarray) -> np.ndarray:
    """P (H W2) + b2 from the rows `hw` = H W2."""
    z = a_hat @ hw
    z += params.b2
    return z


EVAL_ROWS = 512   # rows of H that `logits` holds at a time


def logits(params: GcnParams, a_hat: Csr, ax: np.ndarray) -> np.ndarray:
    """The logits P (H W2) + b2 of `forward` with the second layer
    transforming first, from the same arguments and with the same checks,
    with H W2 formed EVAL_ROWS rows of H at a time: no (rows, h) array
    is held. On P = Â these are the logits of every node."""
    _check_input(params, a_hat, ax)
    rows, h, c = ax.shape[0], *params.dims[1:]
    hw = np.empty((rows, c))
    hidden = np.empty((min(rows, EVAL_ROWS), h))
    for lo in range(0, rows, EVAL_ROWS):
        part = ax[lo:lo + EVAL_ROWS]
        np.matmul(first_layer(params, part, out=hidden[:part.shape[0]]), params.w2, out=hw[lo:lo + EVAL_ROWS])
    return propagate_logits(params, a_hat, hw)


def propagates_first(p: Csr, h: int, c: int) -> bool:
    """Whether (P H) W2 takes fewer multiply-adds than P (H W2) over a
    forward and a backward pass: 2 m h + 3 rows h c against
    2 m c + 3 cols h c, with m the entries P stores."""
    rows, cols = p.shape
    return 2 * p.indices.size * (h - c) < 3 * h * c * (cols - rows)


def backward(params: GcnParams, a_hat: Csr, trace: ForwardTrace, d_z: np.ndarray,
             out: GcnParams = None) -> GcnParams:
    """Exact gradients of any scalar loss whose logit gradient is `d_z`.

    The logit gradient flows back through the transposed product with
    `a_hat` (`Csr.matmul`): Â itself on the whole graph, by symmetry, and
    P^T on P's own arrays for an operator P. The gradients are
    written into `out`, views onto one flat vector (`GcnParams.on`), which
    a new vector backs when `out` is None; returns `out`. W1 and b1 take
    one product, [ÂX | 1]^T D with D the hidden layer's gradient, written
    into `out.layer1`; D and the ReLU mask go into the trace's buffers.
    """
    if d_z.shape != trace.z.shape:
        raise ValueError(f"upstream gradient shape {d_z.shape} != logits {trace.z.shape}")
    if out is None:
        out = GcnParams.on(np.empty(params.n_params), *params.dims)
    if trace.d_h is None:
        trace.d_h, trace.live = np.empty(trace.h.shape), np.empty(trace.h.shape, dtype=bool)
    d_hidden = trace.d_h
    if trace.ph is None:
        d_hw = a_hat.matmul(d_z, transpose=True)
        np.matmul(trace.h.T, d_hw, out=out.w2)
        np.matmul(d_hw, params.w2.T, out=d_hidden)
    else:
        np.matmul(trace.ph.T, d_z, out=out.w2)
        a_hat.matmul(d_z @ params.w2.T, out=d_hidden, transpose=True)
    d_z.sum(axis=0, out=out.b2)
    d_hidden *= np.greater(trace.h, 0.0, out=trace.live)
    np.matmul(trace.ax.T, d_hidden, out=out.layer1)
    return out


def logit_jacobian(params: GcnParams, a_hat: Csr, ax: np.ndarray, probe) -> np.ndarray:
    """Exact d z_ic / d theta of the probe nodes, shape (probes, classes, n_params).

    The last axis follows `GcnParams.to_vector`. With M = 1[H_pre > 0] and
    L1 = [W1; b1] (`GcnParams.layer1`):

        d z_ic / d W2[k, c'] = (A H)[i, k] delta_cc'
        d z_ic / d b2[c']    = delta_cc'
        d z_ic / d L1[f, k]  = s_i[f, k] W2[k, c],  s_i = sum_j A_ij [AX | 1][j, f] M[j, k]

    so the b1 row of s_i, f = d, is sum_j A_ij M[j, k]. Every sum runs
    over the neighbours j of i only: one masked propagation per probe
    (`probe_pass`), no pass over the whole graph. Each row equals
    `backward` with a one-hot upstream gradient, up to rounding. `ax` is
    [ÂX | 1] (`ax_ones`).
    """
    return probe_pass(params, a_hat, probe, ax).jacobian()


class ProbePass(NamedTuple):
    """The masked propagation of `logit_jacobian` at `params`: the probe rows'
    stored entries (`_probe_entries`) and s and A H, probes first."""

    params: GcnParams
    ax_nbr: np.ndarray
    a_ij: np.ndarray
    starts: np.ndarray
    s: np.ndarray
    ah: np.ndarray

    def jacobian(self) -> np.ndarray:
        """The probes' `logit_jacobian` at `params`."""
        params, s = self.params, self.s
        d, h, c = params.dims
        b1_end, w2_end = (d + 1) * h, (d + 1) * h + h * c
        probes = s.shape[0]
        jac = np.zeros((probes, c, params.n_params))
        jac[:, :, :b1_end] = (s[:, None] * params.w2.T[None, :, None, :]).reshape(probes, c, -1)
        for k in range(c):
            jac[:, k, b1_end + k:w2_end:c] = self.ah
            jac[:, k, w2_end + k] = 1.0
        return jac


def probe_pass(params: GcnParams, a_hat: Csr, probe, ax: np.ndarray) -> ProbePass:
    """The `ProbePass` of the nodes `probe` at `params`; `ax` = [ÂX | 1]."""
    ax_nbr, a_ij, starts = _probe_entries(a_hat, ax, np.asarray(probe, dtype=np.intp))
    s, ah = _propagate(ax_nbr, a_ij, starts, ax_nbr @ params.layer1)
    return ProbePass(params, ax_nbr, a_ij, starts, s, ah)


def jacobian_differences(at: ProbePass, coords, step: float) -> np.ndarray:
    """max |J(theta + step e_k) - J(theta - step e_k)| for each coordinate k of
    `coords`, J the probes' `logit_jacobian` and theta `at.params`.

    Only the entries a coordinate moves are computed. [W1; b1][f, u] moves
    hidden unit u alone: its pre-activation column, so the [W1; b1][:, u]
    and W2[u, :] entries. W2[u, c'] moves the [W1; b1][:, u] entries of
    class c' by their factor W2[u, c'], which scales s at theta as `at`
    holds it. b2 moves nothing. Every other entry is computed from the
    same numbers at both points, so its difference is exactly 0.

    Each moved entry is bitwise the one `logit_jacobian` at the perturbed
    parameters holds: theta_k + step, then that minus 2 step, and each
    moved pre-activation column cut out of the whole (E, d+1) @ (d+1, h)
    product, since BLAS may round a column computed alone differently.
    """
    params, ax_nbr, a_ij, starts = at.params, at.ax_nbr, at.a_ij, at.starts
    coords = np.asarray(coords, dtype=np.intp)
    d, h, c = params.dims
    b1_end, w2_end = (d + 1) * h, (d + 1) * h + h * c
    out = np.zeros(coords.size)

    first = np.flatnonzero(coords < b1_end)
    if first.size:
        ks = coords[first]
        units = ks % h
        theta = params.layer1.ravel()
        plus = theta[ks] + step
        # a column of ax_nbr @ [W1; b1] does not depend on its other columns,
        # so perturbations of distinct units share one product: round r holds
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
                product = ax_nbr @ layer.reshape(d + 1, h)
                moved[:, 2 * sel + side] = product[:, units[sel]]
        s, ah = _propagate(ax_nbr, a_ij, starts, moved)
        w2 = params.w2[units]   # (K, c): the factor of each moved entry
        out[first] = np.maximum(
            np.abs(s[:, :, 0::2, None] * w2 - s[:, :, 1::2, None] * w2).max(axis=(0, 1, 3)),
            np.abs(ah[:, 0::2] - ah[:, 1::2]).max(axis=0),
        )

    second = np.flatnonzero((coords >= b1_end) & (coords < w2_end))
    if second.size:
        units, classes = np.divmod(coords[second] - b1_end, c)
        plus = params.w2[units, classes] + step
        minus = plus - 2 * step
        s = at.s[:, :, units]
        out[second] = np.abs(s * plus - s * minus).max(axis=(0, 1))
    return out


def _probe_entries(a_hat: Csr, ax: np.ndarray, probe: np.ndarray) -> tuple:
    """The stored entries (i, j) of every probe row, probe by probe: the rows
    [ÂX | 1][j], the values A_ij as a column, and where each probe's run starts."""
    entries = a_hat.row_entries(probe)
    starts = np.concatenate([[0], np.cumsum(np.diff(a_hat.indptr)[probe])[:-1]])
    return ax[a_hat.indices[entries]], a_hat.data[entries][:, None], starts


def _propagate(ax_nbr: np.ndarray, a_ij: np.ndarray, starts: np.ndarray, h_pre: np.ndarray) -> tuple:
    """s and A H of `logit_jacobian`, probes first, from the neighbours'
    pre-activations `h_pre` (E, units); any set of columns may stand as units."""
    weighted = a_ij * (h_pre > 0.0)
    s = np.add.reduceat(ax_nbr[:, :, None] * weighted[:, None, :], starts)
    ah = np.add.reduceat(a_ij * np.maximum(h_pre, 0.0), starts)
    return s, ah


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
    try:
        return GcnParams(**loaded)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
