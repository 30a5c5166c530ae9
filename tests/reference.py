"""Slow, plain reference implementations the tests compare the package against."""

import numpy as np

from bundlesup import gnn
from bundlesup.losses import FlatBundles, bundle_objective


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
