import dataclasses

import numpy as np
import pytest

from bundlesup import cli, theorems
from bundlesup.synth import SbmConfig
from bundlesup.theorems import (
    THEOREM2_CLASSES,
    Theorem2Instance,
    default_theorem2_instance,
    first_difference,
    second_difference,
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

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_an_instance_with_no_point_is_refused(self, n_points):
        assert default_theorem2_instance(seed=3).n_points == Theorem2Instance.n_points == 10
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            default_theorem2_instance(seed=3, n_points=n_points)


class TestStencils:
    """On a quadratic with dyadic arguments and step, every difference is exact."""

    THETA = np.array([1.0, 2.0])
    STEP = 0.5

    def quadratic(self, calls):
        def f(theta):
            calls.append(theta.tolist())
            t0, t1 = theta
            return np.array([t0 * t0, t0 * t1, 3 * t1 * t1 + t0])
        return f

    @pytest.mark.parametrize("j, gradient, points", [
        (0, [2.0, 2.0, 1.0], [[1.5, 2.0], [0.5, 2.0]]),
        (1, [0.0, 1.0, 12.0], [[1.0, 2.5], [1.0, 1.5]]),
    ])
    def test_first_difference(self, j, gradient, points):
        calls = []
        got = first_difference(self.quadratic(calls), self.THETA, j, self.STEP)
        np.testing.assert_array_equal(got, gradient)
        assert calls == points

    @pytest.mark.parametrize("j, k, hessian, points", [
        (0, 0, [2.0, 0.0, 0.0], [[1.5, 2.0], [0.5, 2.0]]),
        (1, 1, [0.0, 0.0, 6.0], [[1.0, 2.5], [1.0, 1.5]]),
        (0, 1, [0.0, 1.0, 0.0], [[1.5, 2.5], [1.5, 1.5], [0.5, 2.5], [0.5, 1.5]]),
        (1, 0, [0.0, 1.0, 0.0], [[1.5, 2.5], [0.5, 2.5], [1.5, 1.5], [0.5, 1.5]]),
    ])
    def test_second_difference(self, j, k, hessian, points):
        calls = []
        f = self.quadratic(calls)
        f0 = f(self.THETA)
        got = second_difference(f, self.THETA, j, k, self.STEP, f0)
        np.testing.assert_array_equal(got, hessian)
        assert calls[1:] == points


class TestEveryCheckCanFail:
    """Each check of suites 2 and 3 reads False, and `bundlesup verify` exits 1,
    once its tolerance or the loss curve it reads is moved past it."""

    @pytest.mark.parametrize("tol, bound, value, ok", [
        ("GRAD_TOL", "grad_bound", "grad_inf", "all_grad_ok"),
        ("HESS_TOL", "hess_bound", "hess_max", "all_hess_ok"),
    ], ids=["grad_ok", "hess_ok"])
    def test_suite2_check_fails_below_its_margin(self, monkeypatch, capsys, tol, bound, value, ok):
        """The chain-rule bounds hold for any smooth logits, so a tolerance
        below minus the smallest margin is what makes a check fail."""
        inst = default_theorem2_instance(seed=0, n_points=2)
        margin = min(getattr(pt, bound) - getattr(pt, value) for pt in verify_theorem2(inst, seed=0).points)
        assert margin > 0
        monkeypatch.setattr(theorems, tol, -margin - 1e-6)
        rep = verify_theorem2(inst, seed=0)
        assert not getattr(rep, ok) and not rep.all_ok
        assert cli.main(["verify", "--theorem", "2", "--points", "2", "--seed", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out.splitlines()[-1]

    @staticmethod
    def hand_built_loss(monkeypatch, drops_of):
        """Make the trainer that suite 3 calls report a loss curve that falls by
        `drops_of(eta, grad_sq)` at each step, from the real first loss."""
        real_train = theorems.train

        def train(*args, **kwargs):
            params, report = real_train(*args, **kwargs)
            drops = drops_of(report.eta, report.grad_norm**2)
            curve = report.loss[0] - np.concatenate([[0.0], np.cumsum(drops)])
            return params, dataclasses.replace(report, loss=curve[:-1], final_loss=float(curve[-1]))

        monkeypatch.setattr(theorems, "train", train)

    def verify_both_ways(self, capsys):
        rep = verify_theorem3(seed=0, epochs=30)
        assert cli.main(["verify", "--theorem", "3", "--epochs", "30", "--seed", "0"]) == 1
        return rep, capsys.readouterr().out

    def test_monotone_fails_on_an_increase(self, monkeypatch, capsys):
        def drops(eta, grad_sq):
            d = eta * grad_sq
            d[5] = -1e-3
            return d

        self.hand_built_loss(monkeypatch, drops)
        rep, out = self.verify_both_ways(capsys)
        assert not rep.monotone and rep.increases_between_refinements == 1
        assert rep.max_step_increase == pytest.approx(1e-3)
        assert "monotone=False" in out

    def test_sufficient_decrease_fails_on_a_short_step(self, monkeypatch, capsys):
        """One step falls by half the descent lemma's guaranteed amount."""
        def drops(eta, grad_sq):
            d = eta * grad_sq
            d[5] *= 0.05
            return d

        self.hand_built_loss(monkeypatch, drops)
        rep, out = self.verify_both_ways(capsys)
        assert rep.monotone and rep.rate_ok and not rep.sufficient_decrease
        assert rep.min_decrease_ratio == pytest.approx(0.05)
        assert "1-eta*L/2=0.1000: FAIL" in out

    def test_rate_fails_when_the_loss_falls_too_little(self, monkeypatch, capsys):
        """Every step falls by half of what the rate bound needs at the smallest gradient."""
        self.hand_built_loss(monkeypatch, lambda eta, grad_sq: np.full(grad_sq.size, 0.05 * eta * grad_sq.min()))
        rep, out = self.verify_both_ways(capsys)
        assert rep.monotone and not rep.rate_ok
        assert rep.rate_bound == pytest.approx(rep.min_grad_sq / 2)
        assert out.rstrip().endswith("FAIL")


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
