"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 3 asserts the derivative bounds the chain rule gives for the
group cross-entropy, 2(1-q_y)G and 2(1-q_y)M + G^2; the paper's forms
with a 1/|B| discount do not survive parameter sharing (the output bias
alone has dL/db2 = q - e_y) and are printed as a diagnostic. Criterion 4
asserts what gradient descent at the derived step size 1.8/L guarantees:
a per-step sufficient decrease and the resulting rate bound on the
smallest gradient norm.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bundlesup import gnn
from bundlesup.annotate import AnnotationCache, annotate_all
from bundlesup.graphs import Csr, NodeTable, normalized_adjacency
from bundlesup.llm import LlmEndpointConfig
from bundlesup.losses import FlatBundles, bundle_objective
from bundlesup.pipeline import paired_difference, run_arms, run_pipeline, standard_experiment
from bundlesup.sampling import Bundle
from bundlesup.theorems import default_theorem2_instance, verify_theorem1, verify_theorem2, verify_theorem3
from bundlesup.train import refine

from llm_stub import ChatStub
from reference import bundle_distribution, loss_be, loss_rank, softmax_row

SEEDS = tuple(range(10))


def verdict(num, name, ok, detail):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def random_supervised_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 31))
    d = int(rng.integers(2, 9))
    h = int(rng.integers(2, 9))
    c = int(rng.integers(2, 6))
    while True:
        mask = rng.random((n, n)) < 0.25
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        if edges:
            break
    a_hat = normalized_adjacency(Csr.from_edges(n, edges))
    x = rng.normal(size=(n, d))
    params = gnn.init_params(d, h, c, seed)
    bundles = []
    for bid in range(int(rng.integers(2, 7))):
        size = int(rng.integers(2, min(6, n + 1)))
        members = rng.choice(n, size=size, replace=False).tolist()
        bundles.append(Bundle(id=bid, core=members[0], members=members, label=int(rng.integers(c))))
    return a_hat, x, params, FlatBundles.from_bundles(bundles)


def test_criterion_01_gradient_correctness():
    """Analytic parameter gradients of the combined loss match central FD."""
    t0 = time.perf_counter()
    step = 1e-6
    worst = 0.0
    for seed in range(20):
        a_hat, x, params, flat = random_supervised_instance(seed)
        # the bundles' group logits, through the group means of Â, in the
        # second-layer order training picks
        op, ax = a_hat.group_means(flat.offsets, flat.members), gnn.ax_ones(a_hat, x)
        first = gnn.propagates_first(op, *params.dims[1:])

        def loss_of(vec):
            trace = gnn.forward(params.from_vector(vec), op, ax, propagate_first=first)
            return bundle_objective(trace.z, flat.labels).loss

        trace = gnn.forward(params, op, ax, propagate_first=first)
        value = bundle_objective(trace.z, flat.labels)
        grads = gnn.backward(params, op, trace, value.d_z).to_vector()
        vec = params.to_vector()
        fd = np.zeros_like(vec)
        for j in range(vec.size):
            vp = vec.copy(); vp[j] += step
            vm = vec.copy(); vm[j] -= step
            fd[j] = (loss_of(vp) - loss_of(vm)) / (2 * step)
        rel = np.abs(grads - fd).max() / max(1.0, np.abs(grads).max(), np.abs(fd).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30
    verdict(1, "gradient correctness", ok, f"worst rel err {worst:.2e} over 20 instances in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30


def test_criterion_02_outlier_tolerance_inequality():
    """10,000 condition-satisfying trials all satisfy the gradient ordering."""
    t0 = time.perf_counter()
    rep = verify_theorem1(trials=10_000, n_classes=5, bundle_size=5, seed=20260808, slack=1e-10)
    elapsed = time.perf_counter() - t0
    ok = rep.pass_fraction == 1.0 and elapsed < 10
    verdict(
        2, "outlier tolerance", ok,
        f"{rep.passed}/{rep.kept} trials, min margin {rep.min_lower_margin:.1e}, "
        f"max violation {rep.max_upper_violation:.1e}, {elapsed:.1f}s",
    )
    assert rep.kept == 10_000
    assert rep.pass_fraction == 1.0
    assert elapsed < 10


def test_criterion_03_derivative_bounds():
    """Derived gradient and curvature bounds at 10 random parameter points."""
    t0 = time.perf_counter()
    rep = verify_theorem2(default_theorem2_instance(seed=0, n_points=10), seed=0)
    elapsed = time.perf_counter() - t0
    grad_margin = max(pt.grad_inf - pt.grad_bound for pt in rep.points)
    hess_margin = max(pt.hess_max - pt.hess_bound for pt in rep.points)
    disc_grad_margin = max(pt.grad_inf - pt.grad_bound_discounted for pt in rep.points)
    disc_grad_violations = sum(pt.grad_inf > pt.grad_bound_discounted for pt in rep.points)
    ok = rep.all_grad_ok and rep.all_hess_ok and elapsed < 60
    verdict(
        3, "derivative bounds", ok,
        f"gradient bound 2(1-q_y)G {'holds' if rep.all_grad_ok else 'violated'} "
        f"(worst excess {grad_margin:+.3f}), curvature bound 2(1-q_y)M+G^2 "
        f"{'holds' if rep.all_hess_ok else 'violated'} (worst excess {hess_margin:+.3f}); "
        f"discounted 2G/|B| violated at {disc_grad_violations}/10 points "
        f"(worst excess {disc_grad_margin:+.3f}); {elapsed:.1f}s",
    )
    assert elapsed < 60
    for pt in rep.points:
        # these two forms hold unconditionally and guard the harness itself
        assert pt.grad_inf <= pt.grad_bound_undiscounted + 1e-8
        assert pt.grad_inf_per_member <= pt.grad_bound_discounted + 1e-8
    assert rep.all_grad_ok, (
        f"full-loss gradient exceeds 2(1-q_y)G at "
        f"{sum(not pt.grad_ok for pt in rep.points)}/10 points (worst excess {grad_margin:.3f})"
    )
    assert rep.all_hess_ok, f"curvature bound violated (worst excess {hess_margin:.3f})"


def test_criterion_04_descent_and_stationarity():
    """Derived step size: monotone loss, sufficient decrease, rate bound on min |g|^2."""
    t0 = time.perf_counter()
    no_refine = verify_theorem3(seed=0, epochs=4000, refinement=False)
    with_refine = verify_theorem3(seed=0, epochs=1200, refinement=True)
    elapsed = time.perf_counter() - t0
    runs = (no_refine, with_refine)
    ok = (
        no_refine.monotone
        and with_refine.increases_between_refinements == 0
        and all(r.sufficient_decrease and r.rate_ok for r in runs)
        and elapsed < 300
    )
    verdict(
        4, "descent and stationarity", ok,
        f"eta={no_refine.eta:.2e} (eta*L/2={1 - no_refine.decrease_floor:.2f}), "
        f"monotone={no_refine.monotone}, max step increase {no_refine.max_step_increase:.1e}, "
        f"refinement-window increases {with_refine.increases_between_refinements}, "
        f"worst decrease ratio {no_refine.min_decrease_ratio:.4f}/"
        f"{with_refine.min_decrease_ratio:.4f} (floor {no_refine.decrease_floor:.2f}), "
        f"min |g|^2 {no_refine.min_grad_sq:.3e} "
        f"vs rate bound {no_refine.rate_bound:.3e}, final grad norm "
        f"{no_refine.final_grad_norm:.2e}, {elapsed:.0f}s",
    )
    assert elapsed < 300
    assert no_refine.monotone, f"loss increased by {no_refine.max_step_increase:.2e} in one step"
    assert with_refine.increases_between_refinements == 0
    for r in runs:
        assert r.sufficient_decrease, (
            f"a step decreased the loss by {r.min_decrease_ratio:.3f}*eta*|g|^2, below the "
            f"descent lemma's {r.decrease_floor:.3f} at eta={r.eta:.2e}"
        )
        assert r.rate_ok, f"min |g|^2 {r.min_grad_sq:.3e} above the rate bound {r.rate_bound:.3e}"


def test_criterion_05_loss_unit_values():
    uniform = abs(loss_be(np.full(4, 0.25), 0) - math.log(4.0))
    ranked = abs(loss_rank(np.array([0.5, 0.3, 0.2]), 1) - math.log(5.0 / 3.0))
    rng = np.random.default_rng(0)
    zero_at_max = True
    for _ in range(200):
        p = softmax_row(rng.normal(size=5) * 2)
        y = int(np.argmax(p))
        zero_at_max &= loss_rank(p, y) == 0.0
    ok = uniform <= 1e-12 and ranked <= 1e-12 and zero_at_max
    verdict(
        5, "loss unit values", ok,
        f"|CE(uniform,4)-ln4|={uniform:.1e}, |rank-ln(5/3)|={ranked:.1e}, "
        f"rank zero at argmax: {zero_at_max}",
    )
    assert uniform <= 1e-12
    assert ranked <= 1e-12
    assert zero_at_max


def test_criterion_06_distribution_invariances():
    rng = np.random.default_rng(1)
    exact = True
    for _ in range(200):
        z = rng.normal(size=(8, 5)) * rng.uniform(0.5, 3)
        members = rng.choice(8, size=4, replace=False).tolist()
        perm = [members[i] for i in rng.permutation(4)]
        p1 = bundle_distribution(z, members)
        p2 = bundle_distribution(z, perm)
        exact &= bool((p1 == p2).all())

    worst = 0.0
    for _ in range(1000):
        z = rng.normal(size=(5, 6)) * rng.uniform(0.5, 3)
        shift = z.max(axis=1, keepdims=True)
        logp = (z - shift) - np.log(np.exp(z - shift).sum(axis=1, keepdims=True))
        lhs = softmax_row(logp.mean(axis=0))
        rhs = softmax_row(z.mean(axis=0))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = exact and worst <= 1e-12
    verdict(
        6, "distribution invariances", ok,
        f"permutation exact: {exact}; softmax(mean log p) vs softmax(mean z) "
        f"worst dev {worst:.1e} over 1000 draws",
    )
    assert exact
    assert worst <= 1e-12


def test_criterion_07_refinement_contract():
    def refined(p, bundle):
        flat = FlatBundles.from_bundles([bundle])
        gone = refine(p, flat, floor=2)
        return flat.members[gone].tolist(), np.delete(flat.members, gone).tolist()

    outcomes = []
    # unique minimum evicted
    p = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    outcomes.append(refined(p, Bundle(id=0, core=0, members=[0, 1, 2], label=0)) == ([2], [0, 1]))
    # every minimal member evicted at once
    p = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.7, 0.3], [0.6, 0.4]])
    outcomes.append(refined(p, Bundle(id=1, core=0, members=[0, 1, 2, 3, 4], label=0))[1] == [0, 3, 4])
    # all-tie skip
    outcomes.append(refined(np.full((3, 2), 0.4), Bundle(id=2, core=0, members=[0, 1, 2], label=0))[1]
                    == [0, 1, 2])
    # floor skip
    p = np.array([[0.9, 0.1], [0.1, 0.9]])
    outcomes.append(refined(p, Bundle(id=3, core=0, members=[0, 1], label=0))[1] == [0, 1])
    # deterministic across repeated runs
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        bundles = []
        for bid in range(20):
            members = rng.choice(30, size=5, replace=False).tolist()
            bundles.append(Bundle(id=bid, core=members[0], members=members, label=int(rng.integers(3))))
        probs = rng.dirichlet(np.ones(3), size=30)
        flat = FlatBundles.from_bundles(bundles)
        gone = refine(probs, flat, floor=2)
        runs.append((gone.tolist(), flat.members.tolist()))
    outcomes.append(runs[0] == runs[1])
    ok = all(outcomes)
    verdict(7, "refinement contract", ok, f"checks {['ok' if o else 'BAD' for o in outcomes]}")
    assert all(outcomes)


@pytest.fixture(scope="module")
def ablation_results():
    """Criteria 08 and 09's four arms from one runner call, on the same seeds."""
    t0 = time.perf_counter()
    full = standard_experiment(mode="bundle", noise_rate=0.3, replicate_seeds=SEEDS)
    out = run_arms({
        "bundle": full,
        "individual": replace(full, mode="individual"),
        "random_sampling": replace(full, mode="random_sampling"),
        "bundle_25": replace(full, sampling=replace(full.sampling, num_bundles=25)),
    })
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_08_directional_ablation(ablation_results):
    """Full method beats per-member supervision and proximity-blind sampling."""
    full = ablation_results["bundle"].mean_accuracy
    member = ablation_results["individual"].mean_accuracy
    blind = ablation_results["random_sampling"].mean_accuracy
    elapsed = ablation_results["elapsed"]
    ok = full >= member and full >= blind and elapsed < 600
    vs_member = paired_difference(ablation_results["bundle"], ablation_results["individual"])
    vs_blind = paired_difference(ablation_results["bundle"], ablation_results["random_sampling"])
    verdict(
        8, "directional ablation", ok,
        f"full {full:.4f} vs per-member {member:.4f} vs proximity-blind {blind:.4f} "
        f"(10 seeds, noise 0.3, {elapsed:.0f}s); full - per-member {vs_member.describe()}; "
        f"full - proximity-blind {vs_blind.describe()}",
    )
    assert elapsed < 600
    assert full >= member, f"full {full:.4f} < per-member supervision {member:.4f}"
    assert full >= blind, f"full {full:.4f} < proximity-blind sampling {blind:.4f}"


def test_criterion_09_bundle_count_sweep(ablation_results):
    """More annotated bundles do not hurt, within one pooled deviation."""
    few, many = ablation_results["bundle_25"], ablation_results["bundle"]
    pooled = math.sqrt((few.std_accuracy**2 + many.std_accuracy**2) / 2)
    ok = many.mean_accuracy >= few.mean_accuracy - pooled
    verdict(
        9, "bundle count sweep", ok,
        f"100 bundles {many.mean_accuracy:.4f} vs 25 bundles {few.mean_accuracy:.4f} "
        f"(pooled std {pooled:.4f}, {ablation_results['elapsed']:.0f}s); "
        f"100 - 25 {paired_difference(many, few).describe()}",
    )
    assert many.mean_accuracy >= few.mean_accuracy - pooled


def test_criterion_10_end_to_end_bar():
    """Noiseless oracle, full method: mean accuracy over 10 seeds >= 0.85."""
    t0 = time.perf_counter()
    report = run_pipeline(standard_experiment(mode="bundle", noise_rate=0.0, replicate_seeds=SEEDS))
    elapsed = time.perf_counter() - t0
    ok = report.mean_accuracy >= 0.85
    verdict(
        10, "end-to-end bar", ok,
        f"mean accuracy {report.mean_accuracy:.4f} ± {report.std_accuracy:.4f} "
        f"(bar 0.85, {elapsed:.0f}s)",
    )
    assert report.mean_accuracy >= 0.85


def test_criterion_11_llm_client_conformance(monkeypatch, tmp_path):
    """Caching, retry-on-unparseable, and failure marking against a local stub."""
    monkeypatch.setenv("ACCEPT_KEY", "k")
    classes = ["Agents", "Databases", "Information Retrieval"]
    table = NodeTable(n=2, class_names=classes, texts=["alpha", "beta"])
    cache_path = tmp_path / "cache.jsonl"
    checks = {}

    def annotate(members, cfg, cache):
        bundle = Bundle(id=0, core=members[0], members=members)
        return annotate_all([bundle], table, llm=cfg, cache=cache,
                            dataset_description="Items.").records[0]

    with ChatStub(["garbage", "Databases"]) as stub:
        cfg = LlmEndpointConfig(
            base_url=stub.base_url, model="m", api_key_env_var="ACCEPT_KEY", max_retries=2
        )
        rec = annotate([0, 1], cfg, AnnotationCache(cache_path))
        checks["retry_then_parse"] = rec.label == 1 and rec.attempts == 2
        reask = stub.requests[1]["body"]["messages"][1]["content"]
        checks["reask_suffix"] = reask.endswith("Answer with exactly one category name.")

        warm = annotate([0, 1], cfg, AnnotationCache(cache_path))
        checks["warm_cache_no_network"] = len(stub.requests) == 2 and warm == rec

    with ChatStub(["nope"]) as stub:
        cfg = LlmEndpointConfig(
            base_url=stub.base_url, model="m", api_key_env_var="ACCEPT_KEY", max_retries=1
        )
        rec = annotate([1, 0], cfg, AnnotationCache())
        checks["failure_marker"] = rec.label is None and rec.attempts == 2
    ok = all(checks.values())
    verdict(11, "llm client conformance", ok, f"{checks}")
    assert all(checks.values())
