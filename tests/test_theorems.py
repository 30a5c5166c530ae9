import numpy as np
import pytest

from bundlesup.synth import SbmConfig
from bundlesup.theorems import (
    THEOREM2_CLASSES,
    Theorem2Instance,
    default_theorem2_instance,
    theorem2_model,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

from reference import outlier_gradient_pair


class TestOutlierTolerance:
    def test_hand_case(self):
        """Two members, group distribution (0.25, 0.75), outlier at (0.1, 0.9).

        With label 0 and the outlier's top class 1, the group gradient at
        the outlier's top coordinate is 0.75/2 = 0.375 and the individual
        one is 0.9/2 = 0.45.
        """
        ell_o = np.log(np.array([0.1, 0.9]))
        target_mean = np.log(np.array([0.25, 0.75]))
        ell_other = 2 * target_mean - ell_o
        scores = np.stack([ell_o, ell_other])
        g_group, g_ind = outlier_gradient_pair(scores, y_hat=0, outlier=0)
        assert abs(g_group - 0.375) <= 1e-8
        assert abs(g_ind - 0.45) <= 1e-8
        assert 0 <= g_group <= g_ind

    def test_closed_forms_match_fd_on_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            size, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            scores = rng.normal(0, 1.5, size=(size, c))
            y = int(rng.integers(c))
            m_prime = int(np.argmax(scores[0]))
            if m_prime == y:
                continue
            g_group, g_ind = outlier_gradient_pair(scores, y_hat=y, outlier=0)
            zbar = scores.mean(axis=0)
            q = np.exp(zbar - zbar.max())
            q /= q.sum()
            p_o = np.exp(scores[0] - scores[0].max())
            p_o /= p_o.sum()
            assert abs(g_group - q[m_prime] / size) <= 1e-8
            assert abs(g_ind - p_o[m_prime] / size) <= 1e-8

    def test_small_run_all_pass(self):
        rep = verify_theorem1(trials=1500, n_classes=4, bundle_size=4, seed=1)
        assert rep.kept == 1500
        assert rep.pass_fraction == 1.0
        assert rep.min_lower_margin >= -1e-10
        assert rep.max_upper_violation <= 1e-10

    def test_condition_gate_filters_trials(self):
        rep = verify_theorem1(trials=500, n_classes=5, bundle_size=5, seed=2)
        assert rep.drawn > rep.kept


class TestDerivativeBounds:
    def test_report_structure_and_true_bounds(self):
        """The undiscounted gradient bound and the per-member one always hold."""
        inst = default_theorem2_instance(seed=0, n_points=3)
        rep = verify_theorem2(inst, seed=0)
        assert len(rep.points) == 3
        for pt in rep.points:
            assert pt.g_hat >= 1.0 - 1e-6  # output-bias coordinate
            assert pt.grad_inf <= pt.grad_bound_undiscounted + 1e-8
            assert pt.grad_inf_per_member <= pt.grad_bound_discounted + 1e-8
            assert pt.grad_bound_discounted == 2 * pt.g_hat / len(inst.members)
            assert pt.hess_max >= 0 and pt.m_hat >= 0

    def test_output_bias_refutes_discounted_gradient_bound(self):
        """dL/db2 = q - e_y for every |B|, which exceeds 2G/|B| on a poor fit."""
        inst = default_theorem2_instance(seed=0, n_points=1)
        pt = verify_theorem2(inst, seed=0).points[0]
        make_z, n_d = theorem2_model(inst)
        members, label, c = list(inst.members), inst.label, THEOREM2_CLASSES

        def loss(vec):
            zbar = make_z(vec)[members].mean(axis=0)
            return np.log(np.exp(zbar - zbar.max()).sum()) + zbar.max() - zbar[label]

        step = 1e-5
        grad_b2 = np.empty(c)
        for i, j in enumerate(range(n_d - c, n_d)):  # b2 is the last block of theta
            vp, vm = pt.theta.copy(), pt.theta.copy()
            vp[j] += step
            vm[j] -= step
            grad_b2[i] = (loss(vp) - loss(vm)) / (2 * step)

        zbar = make_z(pt.theta)[members].mean(axis=0)
        q = np.exp(zbar - zbar.max())
        q /= q.sum()
        assert np.abs(grad_b2 - (q - np.eye(c)[label])).max() <= 1e-8
        assert q[label] == pytest.approx(pt.q_label, abs=1e-12)
        assert 1 - q[label] == pytest.approx(0.80, abs=0.01)
        assert pt.grad_bound_discounted == pytest.approx(0.5, abs=1e-6)
        assert abs(grad_b2[label]) > pt.grad_bound_discounted
        assert pt.grad_inf > pt.grad_bound_discounted
        assert pt.grad_ok

    def test_instance_validation_fields(self):
        inst = default_theorem2_instance(seed=3)
        assert isinstance(inst, Theorem2Instance)
        assert len(inst.members) >= 2
        assert all(m < inst.graph.n for m in inst.members)


class TestDescent:
    def test_monotone_on_small_benchmark(self):
        sbm = SbmConfig(n=80, n_classes=4, p_in=0.3, p_out=0.02, dim=8, separation=2.0)
        rep = verify_theorem3(seed=0, epochs=300, refinement=False, sbm=sbm)
        assert rep.monotone
        assert rep.max_step_increase <= 1e-9
        assert rep.refinement_events == 0
        assert rep.sufficient_decrease and rep.rate_ok

    def test_refinement_exempts_event_steps_only(self):
        sbm = SbmConfig(n=80, n_classes=4, p_in=0.3, p_out=0.02, dim=8, separation=2.0)
        rep = verify_theorem3(seed=0, epochs=300, refinement=True, sbm=sbm)
        assert rep.increases_between_refinements == 0
        assert rep.sufficient_decrease and rep.rate_ok
