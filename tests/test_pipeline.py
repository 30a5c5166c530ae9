import numpy as np
import pytest

from bundlesup import gnn
from bundlesup.annotate import OracleConfig
from bundlesup.graphs import Graph, normalized_adjacency
from bundlesup.llm import LlmEndpointConfig
from bundlesup.pipeline import (
    ExperimentConfig,
    accuracy,
    compare_queries,
    run_pipeline,
    run_replicate,
    standard_experiment,
    sweep,
)
from bundlesup.sampling import SamplingConfig
from bundlesup.synth import SbmConfig
from bundlesup.train import TrainConfig

TINY = SbmConfig(n=48, n_classes=4, p_in=0.4, p_out=0.03, dim=8, separation=2.5, seed=0)


def tiny_experiment(mode="bundle", noise=0.0, seeds=(0, 1)):
    return ExperimentConfig(
        dataset=TINY,
        sampling=SamplingConfig(num_bundles=10, bundle_size=4),
        oracle=OracleConfig(noise_rate=noise),
        train=TrainConfig(learning_rate=0.4, epochs=40, warmup_epochs=5, refine_every=10),
        mode=mode,
        replicate_seeds=seeds,
    )


class TestAccuracy:
    def _setup(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        a_hat = normalized_adjacency(g)
        x = np.eye(4)[:, :3]
        return g, a_hat, x

    def test_perfect_predictions(self):
        _, a_hat, x = self._setup()
        params = gnn.GcnParams(
            w1=np.eye(3) * 10, b1=np.zeros(3), w2=np.eye(3) * 10, b2=np.zeros(3)
        )
        trace = gnn.forward(params, a_hat, x)
        labels = trace.z.argmax(axis=1)
        assert accuracy(params, a_hat, x, labels) == 1.0

    def test_zero_params_predict_class_zero(self):
        _, a_hat, x = self._setup()
        params = gnn.GcnParams(w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((4, 3)), b2=np.zeros(3))
        labels = [0, 1, 0, 2]
        assert accuracy(params, a_hat, x, labels) == 0.5

    def test_labels_must_cover_nodes(self):
        _, a_hat, x = self._setup()
        params = gnn.init_params(3, 4, 3, seed=0)
        with pytest.raises(ValueError):
            accuracy(params, a_hat, x, [0, 1])


class TestRunPipeline:
    def test_replicate_bookkeeping(self):
        report = run_pipeline(tiny_experiment(seeds=(0, 1, 2)))
        assert len(report.replicates) == 3
        assert [r.seed for r in report.replicates] == [0, 1, 2]
        accs = [r.accuracy for r in report.replicates]
        assert report.mean_accuracy == pytest.approx(np.mean(accs))

    def test_no_refine_mode_never_refines(self):
        report = run_pipeline(tiny_experiment(mode="no_refine"))
        assert all(r.refinement_events == 0 for r in report.replicates)

    def test_bundle_mode_does_refine(self):
        report = run_pipeline(tiny_experiment(mode="bundle", noise=0.3))
        assert any(r.refinement_events > 0 for r in report.replicates)

    def test_reproducible_end_to_end(self):
        r1 = run_pipeline(tiny_experiment(noise=0.2))
        r2 = run_pipeline(tiny_experiment(noise=0.2))
        assert [x.accuracy for x in r1.replicates] == [x.accuracy for x in r2.replicates]
        assert [x.final_loss for x in r1.replicates] == [x.final_loss for x in r2.replicates]

    def test_every_mode_runs(self):
        for mode in ("bundle", "random_sampling", "individual_query", "r_only", "be_only", "individual", "no_refine"):
            report = run_pipeline(tiny_experiment(mode=mode, seeds=(0,)))
            assert 0.0 <= report.replicates[0].accuracy <= 1.0

    def test_individual_query_annotates_members(self):
        report = run_pipeline(tiny_experiment(mode="individual_query", seeds=(0,)))
        rep = report.replicates[0]
        assert rep.n_labeled > 10  # distinct member nodes, not bundles
        assert rep.refinement_events == 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            tiny_experiment(mode="mystery")

    def test_individual_query_rejects_llm_config(self):
        """The individual arm is oracle-labelled; an LLM config must not be reported as used."""
        from dataclasses import replace

        llm = LlmEndpointConfig(base_url="http://127.0.0.1:9/v1")
        with pytest.raises(ValueError, match="oracle"):
            replace(tiny_experiment(mode="individual_query"), llm=llm)
        with pytest.raises(ValueError, match="oracle"):
            replace(tiny_experiment(), llm=llm, mode="individual_query")


class TestSweep:
    def test_table_shapes(self):
        table = sweep(tiny_experiment(), "num_bundles", [5, 10])
        assert [row["value"] for row in table.summary] == [5, 10]
        assert len(table.runs) == 2 * 2  # two values x two seeds
        for row in table.summary:
            assert row["n"] == 2

    def test_bundle_size_axis_validates(self):
        with pytest.raises(ValueError):
            sweep(tiny_experiment(), "bundle_size", [1])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny_experiment(), "hidden", [8])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny_experiment(), "num_bundles", [])

    def test_csv_output(self, tmp_path):
        table = sweep(tiny_experiment(seeds=(0,)), "noise_rate", [0.0, 0.5])
        runs, summary = tmp_path / "runs.csv", tmp_path / "summary.csv"
        table.save_csv(runs, summary)
        header = runs.read_text().splitlines()[0]
        assert header == "noise_rate,seed,accuracy"
        assert len(summary.read_text().splitlines()) == 3


class TestCompareQueries:
    def test_noiseless_agreements_are_perfect(self):
        comparison = compare_queries(tiny_experiment(noise=0.0, seeds=(0, 1)))
        by_arm = {row["arm"]: row for row in comparison.rows}
        assert by_arm["bundle_query"]["agreement"] == 1.0
        assert by_arm["individual_query"]["agreement"] == 1.0

    def test_three_metric_columns(self):
        comparison = compare_queries(tiny_experiment(seeds=(0,)))
        for row in comparison.rows:
            metrics = [k for k in row if k != "arm"]
            assert sorted(metrics) == ["accuracy_mean", "accuracy_std", "agreement"]

    def test_noisy_agreement_tracks_query_correctness(self):
        comparison = compare_queries(tiny_experiment(noise=0.4, seeds=tuple(range(5))))
        for row in comparison.rows:
            assert abs(row["agreement"] - 0.6) < 0.12

    def test_llm_config_rejected(self):
        """Both arms are oracle-labelled; an LLM config must not be reported as used."""
        from dataclasses import replace

        cfg = replace(tiny_experiment(seeds=(0,)), llm=LlmEndpointConfig(base_url="http://127.0.0.1:9/v1"))
        with pytest.raises(ValueError, match="oracle"):
            compare_queries(cfg)

    def test_arms_match_run_replicate(self):
        """Each arm reproduces `run_replicate` of its mode seed by seed; the
        individual arm queries the members as sampled, before refinement."""
        from dataclasses import replace

        cfg = ExperimentConfig(
            dataset=SbmConfig(n=100, n_classes=5, dim=8),
            sampling=SamplingConfig(num_bundles=20),
            oracle=OracleConfig(noise_rate=0.3),
            train=TrainConfig(epochs=60, warmup_epochs=10),
            replicate_seeds=(0, 1, 2),
        )
        comparison = compare_queries(cfg)
        for arm, mode in (("bundle_query", "bundle"), ("individual_query", "individual_query")):
            got = {r["seed"]: r["accuracy"] for r in comparison.per_seed if r["arm"] == arm}
            want = {s: run_replicate(replace(cfg, mode=mode), s).accuracy for s in cfg.replicate_seeds}
            assert got == want, arm


def test_standard_experiment_factory():
    cfg = standard_experiment(mode="bundle", noise_rate=0.3)
    assert cfg.dataset.n_classes == 20
    assert cfg.train.epochs == 800
    assert cfg.oracle.noise_rate == 0.3
    assert len(cfg.replicate_seeds) == 10


def test_semantic_criterion_wins_under_heterophily():
    """When edges mostly join different classes, neighborhoods mislead and
    embedding-space bundles carry much stronger mode labels."""
    from dataclasses import replace

    het = SbmConfig(n=200, n_classes=4, p_in=0.01, p_out=0.08, dim=8, separation=2.5)
    results = {}
    for criterion in ("topological", "semantic"):
        cfg = ExperimentConfig(
            dataset=het,
            sampling=SamplingConfig(criterion=criterion, num_bundles=40),
            train=TrainConfig(learning_rate=0.5, epochs=200),
            replicate_seeds=(0, 1, 2),
        )
        results[criterion] = run_pipeline(cfg).mean_accuracy
    assert results["semantic"] > results["topological"]
