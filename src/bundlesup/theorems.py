"""Numerical verification suites for the method's three analytical claims.

1. Outlier tolerance: on synthetic score vectors, the group cross-entropy
   penalizes an outlier's top coordinate no more than individual
   supervision does (and non-negatively), under the stated conditions.
2. Bounded gradient/curvature: on a tiny GCN instance, finite-difference
   estimates of the logit derivative bounds G and M are compared against
   the gradient and Hessian bounds that the chain rule gives for the group
   cross-entropy, 2(1-q_y)G and 2(1-q_y)M + G^2. The paper's forms with a
   1/|B| discount are reported alongside: the discount holds for each
   member's contribution but not for the summed gradient of parameters
   that all members share (the output bias alone has dL/db2 = q - e_y).
3. Convergence: gradient descent on the group cross-entropy with the
   derived step size decreases the loss by at least the descent lemma's
   guaranteed fraction at every step, and the smallest gradient norm meets
   the resulting rate bound, on the standard synthetic benchmark.

Suites 1 and 2 take every derivative by central finite differences and
reuse nothing from the analytic backward pass. Suite 3 takes its step size
from the trainer, whose G is read off the exact logit Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gnn
from .graphs import Csr, normalized_adjacency
from .losses import FlatBundles, log_softmax_rows, softmax_rows
from .annotate import OracleConfig, annotate_all
from .sampling import SamplingConfig, sample_bundles
from .synth import SbmConfig, gen_sbm
from .train import TrainConfig, train


# ---------------------------------------------------------------------------
# Claim 1: outlier tolerance of group supervision
# ---------------------------------------------------------------------------

@dataclass
class Theorem1Report:
    requested: int
    drawn: int
    kept: int
    passed: int
    pass_fraction: float
    max_upper_violation: float
    min_lower_margin: float


def verify_theorem1(
    trials: int,
    n_classes: int,
    bundle_size: int,
    seed: int,
    step: float = 1e-5,
    slack: float = 1e-10,
    score_scale: float = 1.5,
) -> Theorem1Report:
    """Accumulate condition-satisfying random trials and check the inequality.

    Each trial draws unconstrained member scores and a group label y; member
    0 is the designated outlier with top class m'. Trials qualify when
    y != m' and the outlier's probability at m' is at least the group's.
    The check is 0 - slack <= g_group <= g_individual + slack, both
    gradients taken at the outlier's m' coordinate by central differences.
    """
    if trials < 1 or n_classes < 2 or bundle_size < 2:
        raise ValueError("need trials >= 1, n_classes >= 2, bundle_size >= 2")
    rng = np.random.default_rng(seed)
    kept = passed = drawn = 0
    max_upper_violation = -np.inf
    min_lower_margin = np.inf

    while kept < trials:
        batch = max(4096, trials - kept)
        scores = rng.normal(0.0, score_scale, size=(batch, bundle_size, n_classes))
        y_hat = rng.integers(0, n_classes, size=batch)
        drawn += batch
        m_prime = np.argmax(scores[:, 0, :], axis=1)
        p_group = softmax_rows(scores.mean(axis=1))
        p_out = softmax_rows(scores[:, 0, :])
        rows = np.arange(batch)
        cond = (y_hat != m_prime) & (p_out[rows, m_prime] >= p_group[rows, m_prime])
        idx = np.flatnonzero(cond)[: trials - kept]
        if idx.size == 0:
            continue

        zbar = scores[idx].mean(axis=1)
        sel = np.arange(idx.size)
        mp = m_prime[idx]
        yh = y_hat[idx]

        g_group = np.zeros(idx.size)
        for sign in (1.0, -1.0):
            z2 = zbar.copy()
            z2[sel, mp] += sign * step / bundle_size
            g_group -= sign * log_softmax_rows(z2)[sel, yh]
        g_group /= 2 * step

        row0 = scores[idx, 0, :]
        g_ind = np.zeros(idx.size)
        for sign in (1.0, -1.0):
            r2 = row0.copy()
            r2[sel, mp] += sign * step
            g_ind -= sign * log_softmax_rows(r2)[sel, yh] / bundle_size
        g_ind /= 2 * step

        ok = (g_group >= -slack) & (g_group <= g_ind + slack)
        kept += idx.size
        passed += int(ok.sum())
        max_upper_violation = max(max_upper_violation, float((g_group - g_ind).max()))
        min_lower_margin = min(min_lower_margin, float(g_group.min()))

    return Theorem1Report(
        requested=trials,
        drawn=drawn,
        kept=kept,
        passed=passed,
        pass_fraction=passed / kept,
        max_upper_violation=max_upper_violation,
        min_lower_margin=min_lower_margin,
    )


# ---------------------------------------------------------------------------
# Claim 2: bounded gradient and curvature of the group cross-entropy
# ---------------------------------------------------------------------------

# claim 2's GCN, parameter-point scale, and central-difference steps of G and M
THEOREM2_CLASSES = 3
THEOREM2_HIDDEN = 4
THETA_SCALE = 1.0
GRAD_STEP = 1e-5
HESS_STEP = 1e-3


@dataclass(frozen=True)
class Theorem2Instance:
    """A deliberately tiny single-bundle problem (n, d, h, C all <= 10)."""

    graph: Csr
    x: np.ndarray
    members: tuple
    label: int
    n_points: int = 10


def default_theorem2_instance(seed: int = 0, n_points: int = 10) -> Theorem2Instance:
    rng = np.random.default_rng(seed)
    n, d, size = 8, 3, 4
    while True:
        mask = rng.random((n, n)) < 0.35
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if edges:
            break
    graph = Csr.from_edges(n, edges)
    x = rng.normal(0.0, 1.0, size=(n, d))
    members = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
    label = int(rng.integers(THEOREM2_CLASSES))
    return Theorem2Instance(graph=graph, x=x, members=members, label=label, n_points=n_points)


@dataclass
class Theorem2Point:
    theta: np.ndarray
    g_hat: float
    m_hat: float
    q_label: float             # q_y, the group probability of the bundle label
    grad_inf: float
    grad_bound: float          # derived: 2*(1-q_y)*G
    grad_ok: bool
    hess_max: float
    hess_bound: float          # derived: 2*(1-q_y)*M + G^2
    hess_ok: bool
    grad_inf_per_member: float  # largest single-member contribution
    grad_bound_discounted: float  # paper's form 2*G/|B|: bounds one member's contribution only
    hess_bound_discounted: float  # paper's form 2*(M+G^2)/|B|: not supported by the derivation
    grad_bound_undiscounted: float  # 2*G, the derived bound at q_y = 0


@dataclass
class Theorem2Report:
    points: list
    all_grad_ok: bool
    all_hess_ok: bool
    grad_tol: float
    hess_tol: float

    @property
    def all_ok(self) -> bool:
        return self.all_grad_ok and self.all_hess_ok


def theorem2_model(instance: Theorem2Instance) -> tuple:
    """(theta -> logits of every node, parameter count) for the instance's GCN."""
    a_hat = normalized_adjacency(instance.graph)
    ax = gnn.ax_ones(a_hat, instance.x)
    template = gnn.init_params(instance.x.shape[1], THEOREM2_HIDDEN, THEOREM2_CLASSES, seed=0)

    def make_z(vec):
        return gnn.forward(template.from_vector(vec), a_hat, ax).z

    return make_z, template.n_params


def _bundle_ce_from_z(z: np.ndarray, members, label: int) -> float:
    zbar = z[list(members)].mean(axis=0)
    return float(-log_softmax_rows(zbar[None, :])[0, label])


def verify_theorem2(
    instance: Theorem2Instance,
    seed: int,
    grad_tol: float = 1e-8,
    hess_tol: float = 1e-6,
) -> Theorem2Report:
    """Check the derived derivative bounds at random parameter points.

    At each point, G and M are estimated by central differences of the
    member logits over every parameter coordinate (G) and coordinate pair
    (M); the loss gradient and Hessian are estimated the same way.

    With L = CE(softmax(zbar), y) and zbar the mean member logit, the chain
    rule gives dL/dtheta_j = sum_c (q_c - e_yc) dzbar_c/dtheta_j. Every
    member depends on the same theta, so |dzbar_c/dtheta_j| <= G with no
    1/|B| factor, and sum_c |q_c - e_yc| = 2(1-q_y): the gradient bound is
    2(1-q_y)G. The Hessian adds the covariance of dzbar/dtheta_j and
    dzbar/dtheta_k under q, at most G^2 in magnitude: 2(1-q_y)M + G^2.
    These are the bounds `grad_ok` and `hess_ok` test. The paper's
    discounted forms 2G/|B| and 2(M+G^2)/|B| are reported alongside; 2G/|B|
    does bound each single member's contribution.
    """
    make_z, n_d = theorem2_model(instance)
    members = list(instance.members)
    size = len(members)
    label = instance.label
    rng = np.random.default_rng(seed)

    points = []
    for _ in range(instance.n_points):
        vec = rng.normal(0.0, THETA_SCALE, size=n_d)
        hs = GRAD_STEP

        # Jacobian of the member logits and gradient of the loss, one FD
        # pass per coordinate
        jac = np.zeros((size, THEOREM2_CLASSES, n_d))
        grad = np.zeros(n_d)
        for j in range(n_d):
            vp = vec.copy()
            vp[j] += hs
            zp = make_z(vp)
            vp[j] -= 2 * hs
            zm = make_z(vp)
            jac[:, :, j] = (zp[members] - zm[members]) / (2 * hs)
            grad[j] = (
                _bundle_ce_from_z(zp, members, label) - _bundle_ce_from_z(zm, members, label)
            ) / (2 * hs)
        g_hat = float(np.abs(jac).max())

        # the loss gradient's largest entry and largest single-member contribution
        grad_inf = float(np.abs(grad).max())
        z0 = make_z(vec)
        q = softmax_rows(z0[members].mean(axis=0, keepdims=True))[0]
        coef = q.copy()
        coef[label] -= 1.0
        per_member = np.einsum("c,icj->ij", coef, jac) / size
        grad_inf_per_member = float(np.abs(per_member).max())

        # second derivatives of member logits and of the loss, shared pass
        hb = HESS_STEP
        m_hat = 0.0
        hess_max = 0.0
        base_z = z0
        base_l = _bundle_ce_from_z(base_z, members, label)
        for j in range(n_d):
            for k in range(j, n_d):
                if j == k:
                    vp = vec.copy()
                    vp[j] += hb
                    zp = make_z(vp)
                    vp[j] -= 2 * hb
                    zm = make_z(vp)
                    second_z = (zp[members] - 2 * base_z[members] + zm[members]) / hb**2
                    second_l = (
                        _bundle_ce_from_z(zp, members, label)
                        - 2 * base_l
                        + _bundle_ce_from_z(zm, members, label)
                    ) / hb**2
                else:
                    vpp = vec.copy(); vpp[j] += hb; vpp[k] += hb
                    vpm = vec.copy(); vpm[j] += hb; vpm[k] -= hb
                    vmp = vec.copy(); vmp[j] -= hb; vmp[k] += hb
                    vmm = vec.copy(); vmm[j] -= hb; vmm[k] -= hb
                    zpp, zpm, zmp, zmm = (make_z(v) for v in (vpp, vpm, vmp, vmm))
                    second_z = (
                        zpp[members] - zpm[members] - zmp[members] + zmm[members]
                    ) / (4 * hb**2)
                    second_l = (
                        _bundle_ce_from_z(zpp, members, label)
                        - _bundle_ce_from_z(zpm, members, label)
                        - _bundle_ce_from_z(zmp, members, label)
                        + _bundle_ce_from_z(zmm, members, label)
                    ) / (4 * hb**2)
                m_hat = max(m_hat, float(np.abs(second_z).max()))
                hess_max = max(hess_max, abs(second_l))

        miss = 2 * (1.0 - q[label])
        grad_bound = miss * g_hat
        hess_bound = miss * m_hat + g_hat**2
        points.append(
            Theorem2Point(
                theta=vec,
                g_hat=g_hat,
                m_hat=m_hat,
                q_label=float(q[label]),
                grad_inf=grad_inf,
                grad_bound=grad_bound,
                grad_ok=grad_inf <= grad_bound + grad_tol,
                hess_max=hess_max,
                hess_bound=hess_bound,
                hess_ok=hess_max <= hess_bound + hess_tol,
                grad_inf_per_member=grad_inf_per_member,
                grad_bound_discounted=2 * g_hat / size,
                hess_bound_discounted=2 * (m_hat + g_hat**2) / size,
                grad_bound_undiscounted=2 * g_hat,
            )
        )

    return Theorem2Report(
        points=points,
        all_grad_ok=all(pt.grad_ok for pt in points),
        all_hess_ok=all(pt.hess_ok for pt in points),
        grad_tol=grad_tol,
        hess_tol=hess_tol,
    )


# ---------------------------------------------------------------------------
# Claim 3: convergence of gradient descent with the derived step size
# ---------------------------------------------------------------------------

@dataclass
class Theorem3Report:
    eta: float
    epochs: int
    smoothness_const: float     # L = 2*n_params*(M+G^2) from the step-size estimates
    monotone: bool
    max_step_increase: float
    final_grad_norm: float
    refinement_events: int
    increases_between_refinements: int
    decrease_floor: float       # 1 - eta*L/2, the descent lemma's guaranteed ratio
    min_decrease_ratio: float   # worst (L_t - L_{t+1}) / (eta*|g_t|^2) over checked steps
    min_grad_sq: float          # smallest |g_t|^2 over checked steps
    rate_bound: float           # sum of checked decreases / (floor * eta * checked steps)

    @property
    def sufficient_decrease(self) -> bool:
        return self.min_decrease_ratio >= self.decrease_floor

    @property
    def rate_ok(self) -> bool:
        return self.min_grad_sq <= self.rate_bound


def verify_theorem3(
    seed: int = 0,
    epochs: int = 4000,
    refinement: bool = False,
    sbm: SbmConfig = None,
    monotone_tol: float = 1e-9,
) -> Theorem3Report:
    """Train on the standard synthetic benchmark with the derived step size.

    The objective is the group cross-entropy alone (`be_only`), the loss
    whose smoothness theorem 2 bounds; the ranking hinge of the full
    objective has kinks that no smoothness constant covers. For an L-smooth
    loss and eta < 2/L, each gradient step decreases the loss by at least
    (1 - eta*L/2) * eta * |g_t|^2, and summing over T steps gives
    min_t |g_t|^2 <= (L_first - L_last) / ((1 - eta*L/2) * eta * T). Both are
    checked, with L = 2*n_params*(M+G^2) and the trainer's derived
    eta = 0.9/(n_params*(M+G^2)), so 1 - eta*L/2 = 0.1.

    Every step is checked, the last one (to the loss after training)
    included. With refinement enabled, a step across a refinement event
    compares two different objectives and is exempt from the checks; the
    rate bound then sums the decreases of the checked steps only. The loss
    must not increase by more than `monotone_tol` on any checked step.
    """
    cfg = sbm if sbm is not None else SbmConfig(seed=seed)
    graph, emb, table = gen_sbm(cfg)
    bundles = sample_bundles(graph, emb, SamplingConfig(seed=seed))
    annotate_all(bundles, table, oracle=OracleConfig(seed=seed))
    tcfg = TrainConfig(
        epochs=epochs,
        eta_auto=True,
        seed=seed,
        refine_every=TrainConfig.refine_every if refinement else epochs + 1,
    )
    groups = FlatBundles.from_bundles(bundles)
    a_hat = normalized_adjacency(graph)
    params, report = train(a_hat, gnn.ax_ones(a_hat, emb), groups, tcfg, table.num_classes, objective="be_only")

    eta = report.eta
    smoothness_const = 2 * params.n_params * (report.m_hat + report.g_hat**2)
    decrease_floor = 1.0 - eta * smoothness_const / 2
    # drops[t] = L_t - L_{t+1} for the step taken at epoch t+1
    drops = -np.diff(np.append(report.loss, report.final_loss))
    grad_sq = report.grad_norm**2
    # a refinement at epoch t changes the objective evaluated at t+1, so
    # the step from t to t+1 is exempt when refinement is on
    checked = np.ones(drops.size, dtype=bool)
    checked[[e - 1 for e, _, _ in report.refinements]] = False
    increases = int((checked & (drops < -monotone_tol)).sum())
    return Theorem3Report(
        eta=eta,
        epochs=report.epochs,
        smoothness_const=smoothness_const,
        monotone=increases == 0,
        max_step_increase=float(-drops.min()),
        final_grad_norm=report.final_grad_norm,
        refinement_events=len(report.refinements),
        increases_between_refinements=increases,
        decrease_floor=decrease_floor,
        min_decrease_ratio=float((drops[checked] / (eta * grad_sq[checked])).min()),
        min_grad_sq=float(grad_sq[checked].min()),
        rate_bound=float(drops[checked].sum() / (decrease_floor * eta * checked.sum())),
    )
