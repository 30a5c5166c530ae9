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
reuse nothing from the analytic backward pass. Suite 2 has one function of
the parameters, the member logits and the group cross-entropy as one flat
array, and two stencils, `first_difference` and `second_difference`, give
all four of its derivatives. Suite 3 takes its step size from the trainer,
whose G is read off the exact logit Jacobian.
The suites' finite-difference steps, draw scales and check tolerances are
module constants (THEOREM1_*, *_STEP, *_TOL, THETA_SCALE), not options.
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

# claim 1's central-difference step, the slack of each side of its check,
# and the scale of the member scores drawn
THEOREM1_STEP = 1e-5
THEOREM1_SLACK = 1e-10
THEOREM1_SCORE_SCALE = 1.5


@dataclass
class Theorem1Report:
    requested: int
    drawn: int
    kept: int
    passed: int
    pass_fraction: float
    max_upper_violation: float
    min_lower_margin: float


def verify_theorem1(trials: int, n_classes: int, bundle_size: int, seed: int) -> Theorem1Report:
    """Accumulate condition-satisfying random trials and check the inequality.

    Each trial draws unconstrained member scores and a group label y; member
    0 is the designated outlier with top class m'. Trials qualify when
    y != m' and the outlier's probability at m' is at least the group's.
    The check is 0 - slack <= g_group <= g_individual + slack, both
    gradients taken at the outlier's m' coordinate by central differences;
    the slack, the step and the scores' scale are THEOREM1_* constants.
    """
    if trials < 1 or n_classes < 2 or bundle_size < 2:
        raise ValueError("need trials >= 1, n_classes >= 2, bundle_size >= 2")
    rng = np.random.default_rng(seed)
    kept = passed = drawn = 0
    max_upper_violation = -np.inf
    min_lower_margin = np.inf

    while kept < trials:
        batch = max(4096, trials - kept)
        scores = rng.normal(0.0, THEOREM1_SCORE_SCALE, size=(batch, bundle_size, n_classes))
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
            z2[sel, mp] += sign * THEOREM1_STEP / bundle_size
            g_group -= sign * log_softmax_rows(z2)[sel, yh]
        g_group /= 2 * THEOREM1_STEP

        row0 = scores[idx, 0, :]
        g_ind = np.zeros(idx.size)
        for sign in (1.0, -1.0):
            r2 = row0.copy()
            r2[sel, mp] += sign * THEOREM1_STEP
            g_ind -= sign * log_softmax_rows(r2)[sel, yh] / bundle_size
        g_ind /= 2 * THEOREM1_STEP

        ok = (g_group >= -THEOREM1_SLACK) & (g_group <= g_ind + THEOREM1_SLACK)
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

# claim 2's GCN, parameter-point scale, central-difference steps of G and M,
# and the slack each bound's check allows the finite-difference estimates
THEOREM2_CLASSES = 3
THEOREM2_HIDDEN = 4
THETA_SCALE = 1.0
GRAD_STEP = 1e-5
HESS_STEP = 1e-3
GRAD_TOL = 1e-8
HESS_TOL = 1e-6


@dataclass(frozen=True)
class Theorem2Instance:
    """A deliberately tiny single-bundle problem (n, d, h, C all <= 10)."""

    graph: Csr
    x: np.ndarray
    members: tuple
    label: int
    n_points: int = 10

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")


def default_theorem2_instance(seed: int = 0, n_points: int = Theorem2Instance.n_points) -> Theorem2Instance:
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


def first_difference(f, theta: np.ndarray, j: int, h: float) -> np.ndarray:
    """The central difference (f(theta + h e_j) - f(theta - h e_j)) / 2h; the
    second point is the first one less 2h e_j."""
    point = theta.copy()
    point[j] += h
    plus = f(point)
    point[j] -= 2 * h
    return (plus - f(point)) / (2 * h)


def second_difference(f, theta: np.ndarray, j: int, k: int, h: float, f0: np.ndarray) -> np.ndarray:
    """The central difference of d2f/dtheta_j dtheta_k: 3-point around f0 = f(theta)
    on the diagonal, 4-point off it."""
    if j == k:
        point = theta.copy()
        point[j] += h
        plus = f(point)
        point[j] -= 2 * h
        return (plus - 2 * f0 + f(point)) / h**2

    def at(sj, sk):
        point = theta.copy()
        point[j] += sj * h
        point[k] += sk * h
        return f(point)

    return (at(1.0, 1.0) - at(1.0, -1.0) - at(-1.0, 1.0) + at(-1.0, -1.0)) / (4 * h**2)


def verify_theorem2(instance: Theorem2Instance, seed: int) -> Theorem2Report:
    """Check the derived derivative bounds at random parameter points.

    One function of theta gives the member logits and the group cross-entropy
    as one flat array, and two central-difference stencils
    (`first_difference`, `second_difference`) take every derivative of it. At
    each point, G is the largest first difference of a member logit over
    every parameter coordinate (GRAD_STEP) and M the largest second
    difference over every coordinate pair (HESS_STEP); the same lists give
    the loss gradient and the loss Hessian's largest entry.

    With L = CE(softmax(zbar), y) and zbar the mean member logit, the chain
    rule gives dL/dtheta_j = sum_c (q_c - e_yc) dzbar_c/dtheta_j. Every
    member depends on the same theta, so |dzbar_c/dtheta_j| <= G with no
    1/|B| factor, and sum_c |q_c - e_yc| = 2(1-q_y): the gradient bound is
    2(1-q_y)G. The Hessian adds the covariance of dzbar/dtheta_j and
    dzbar/dtheta_k under q, at most G^2 in magnitude: 2(1-q_y)M + G^2.
    These are the bounds `grad_ok` and `hess_ok` test, within GRAD_TOL and
    HESS_TOL. The paper's discounted forms 2G/|B| and 2(M+G^2)/|B| are
    reported alongside; 2G/|B| does bound each single member's contribution.
    """
    make_z, n_d = theorem2_model(instance)
    members = list(instance.members)
    size = len(members)
    label = instance.label
    rng = np.random.default_rng(seed)

    def outputs(vec):
        """The member logits, row by row, then the group cross-entropy."""
        z = make_z(vec)[members]
        return np.append(z, -log_softmax_rows(z.mean(axis=0, keepdims=True))[0, label])

    points = []
    for _ in range(instance.n_points):
        vec = rng.normal(0.0, THETA_SCALE, size=n_d)
        first = np.array([first_difference(outputs, vec, j, GRAD_STEP) for j in range(n_d)])
        # the member logits' Jacobian, C-contiguous: einsum sums a strided view in another order
        jac = np.ascontiguousarray(first[:, :-1].T.reshape(size, THEOREM2_CLASSES, n_d))
        g_hat = float(np.abs(jac).max())
        grad_inf = float(np.abs(first[:, -1]).max())

        # the largest single-member contribution to the loss gradient
        f0 = outputs(vec)
        q = softmax_rows(f0[:-1].reshape(size, THEOREM2_CLASSES).mean(axis=0, keepdims=True))[0]
        coef = q - np.eye(THEOREM2_CLASSES)[label]
        per_member = np.einsum("c,icj->ij", coef, jac) / size
        grad_inf_per_member = float(np.abs(per_member).max())

        second = np.abs([second_difference(outputs, vec, j, k, HESS_STEP, f0)
                         for j in range(n_d) for k in range(j, n_d)])
        m_hat = float(second[:, :-1].max())
        hess_max = float(second[:, -1].max())

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
                grad_ok=grad_inf <= grad_bound + GRAD_TOL,
                hess_max=hess_max,
                hess_bound=hess_bound,
                hess_ok=hess_max <= hess_bound + HESS_TOL,
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
    )


# ---------------------------------------------------------------------------
# Claim 3: convergence of gradient descent with the derived step size
# ---------------------------------------------------------------------------

# the largest loss increase claim 3's check forgives a step, for rounding
MONOTONE_TOL = 1e-9


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
    must not increase by more than MONOTONE_TOL on any checked step.
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
    increases = int((checked & (drops < -MONOTONE_TOL)).sum())
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
