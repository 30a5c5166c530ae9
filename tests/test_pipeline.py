import gc
import json
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bundlesup import cli, gnn, pipeline
from bundlesup.annotate import OracleConfig
from bundlesup.graphs import Csr, normalized_adjacency
from bundlesup.llm import LlmEndpointConfig
from bundlesup.losses import FlatBundles
from bundlesup.pipeline import (
    MODES,
    ExperimentConfig,
    PipelineReport,
    ReplicateResult,
    accuracy,
    compare_queries,
    paired_difference,
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
        g = Csr.from_edges(4, [(0, 1), (2, 3)])
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

    def test_labels_must_cover_nodes(self, monkeypatch):
        _, a_hat, x = self._setup()
        params = gnn.init_params(3, 4, 3, seed=0)
        monkeypatch.setattr(gnn, "forward", None)   # checked before the whole-graph pass
        with pytest.raises(ValueError, match="labels must cover all nodes"):
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
        llm = LlmEndpointConfig(base_url="http://127.0.0.1:9/v1")
        with pytest.raises(ValueError, match="oracle"):
            replace(tiny_experiment(mode="individual_query"), llm=llm)
        with pytest.raises(ValueError, match="oracle"):
            replace(tiny_experiment(), llm=llm, mode="individual_query")

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_trains_through_one_train_call(self, monkeypatch, mode):
        """One `train` call per replicate, on one `FlatBundles` and the
        mode's objective; individual queries are groups of one."""
        calls, train = [], pipeline.train

        def spy(*args, **kwargs):
            groups = args[2]
            calls.append((type(groups), kwargs["objective"], bool((groups.sizes == 1).all())))
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", spy)
        run_pipeline(tiny_experiment(mode=mode, seeds=(0, 1, 2)))
        assert calls == [(FlatBundles, MODES[mode].objective, mode == "individual_query")] * 3

    def test_individual_query_trains_with_the_derived_step(self):
        cfg = tiny_experiment(mode="individual_query", seeds=(0,))
        rep = run_pipeline(replace(cfg, train=replace(cfg.train, eta_auto=True))).replicates[0]
        assert np.isfinite(rep.final_loss)
        assert 0.0 <= rep.accuracy <= 1.0


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

    @pytest.mark.parametrize("axis, value, section", [
        ("num_bundles", 7, "sampling"), ("bundle_size", 3, "sampling"), ("noise_rate", 0.25, "oracle"),
    ])
    def test_one_value_equals_run_pipeline_of_the_edited_config(self, axis, value, section):
        base = tiny_experiment(noise=0.1)
        table = sweep(base, axis, [value])
        cfg = replace(base, **{section: replace(getattr(base, section), **{axis: value})})
        report = run_pipeline(cfg)
        assert table.runs == [{"value": value, "seed": r.seed, "accuracy": r.accuracy}
                              for r in report.replicates]
        assert table.summary == [{"value": value, "mean": report.mean_accuracy,
                                  "std": report.std_accuracy, "n": len(report.replicates)}]

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
        cfg = replace(tiny_experiment(seeds=(0,)), llm=LlmEndpointConfig(base_url="http://127.0.0.1:9/v1"))
        with pytest.raises(ValueError, match="oracle"):
            compare_queries(cfg)

    def test_arms_match_run_replicate(self):
        """Each arm reproduces `run_replicate` of its mode seed by seed; the
        individual arm queries the members as sampled, before refinement."""
        cfg = ExperimentConfig(
            dataset=SbmConfig(n=100, n_classes=5, dim=8),
            sampling=SamplingConfig(num_bundles=20),
            oracle=OracleConfig(noise_rate=0.3),
            train=TrainConfig(epochs=60, warmup_epochs=10),
            replicate_seeds=(0, 1, 2),
        )
        comparison = compare_queries(cfg)
        for report, mode in ((comparison.bundle, "bundle"), (comparison.individual, "individual_query")):
            got = {r.seed: r.accuracy for r in report.replicates}
            want = {s: run_replicate(replace(cfg, mode=mode), s).accuracy for s in cfg.replicate_seeds}
            assert got == want, mode


class TestAgreement:
    """`ReplicateResult.agreement` against a share counted from what the
    replicate sampled and annotated, read as it happens."""

    def test_bundle_mode_counts_labels_against_the_members_true_mode(self, monkeypatch):
        seen, annotate_all = [], pipeline.annotate_all

        def spy(bundles, table, **kwargs):
            summary = annotate_all(bundles, table, **kwargs)
            truth = [np.bincount([table.labels[m] for m in b.members]).argmax() for b in bundles]
            seen.append(np.mean([b.label == t for b, t in zip(bundles, truth)]))
            return summary

        cfg = tiny_experiment(noise=0.4, seeds=(0, 1, 2))
        monkeypatch.setattr(pipeline, "annotate_all", spy)
        got = [run_replicate(cfg, s) for s in cfg.replicate_seeds]
        assert [r.agreement for r in got] == seen
        assert any(0 < share < 1 for share in seen)
        assert any(r.refinement_events for r in got)   # members shrink after the count

    def test_individual_query_counts_node_labels_against_the_truth(self, monkeypatch):
        seen, annotate_nodes_oracle = [], pipeline.annotate_nodes_oracle

        def spy(nodes, table, oracle):
            labels = annotate_nodes_oracle(nodes, table, oracle)
            seen.append(np.mean([y == table.labels[v] for y, v in zip(labels, nodes)]))
            return labels

        cfg = tiny_experiment(mode="individual_query", noise=0.4, seeds=(0, 1, 2))
        monkeypatch.setattr(pipeline, "annotate_nodes_oracle", spy)
        got = [run_replicate(cfg, s).agreement for s in cfg.replicate_seeds]
        assert got == seen
        assert any(0 < share < 1 for share in seen)

    def test_a_node_table_without_labels_fails_before_sampling(self, monkeypatch):
        data = pipeline.materialize_dataset(TINY, 0)
        monkeypatch.setattr(pipeline, "materialize_dataset",
                            lambda dataset, seed: data._replace(table=replace(data.table, labels=None)))
        monkeypatch.setattr(pipeline, "sample_bundles", None)   # a call would raise TypeError
        with pytest.raises(ValueError, match="no labels"):
            run_replicate(tiny_experiment(), 0)


LOADS = ("load_edge_list", "load_embeddings", "load_node_table", "normalized_adjacency")


@pytest.fixture()
def tiny_files(tmp_path, monkeypatch):
    """TINY written as a file dataset, with nothing kept from other tests."""
    cli.main(["gen-synth", "--n", "48", "--classes", "4", "--p-in", "0.4", "--p-out", "0.03",
              "--dim", "8", "--separation", "2.5", "--seed", "0", "--out", str(tmp_path)])
    names = tuple(json.loads((tmp_path / "manifest.json").read_text())["class_names"])
    monkeypatch.setattr(pipeline, "_kept", {})
    return pipeline.DatasetPaths(str(tmp_path / "edges.txt"), str(tmp_path / "embeddings.txt"),
                                 str(tmp_path / "nodes.jsonl"), names)


def _count_loads(monkeypatch) -> Counter:
    """Count the calls of each name in LOADS, made through the `pipeline` module."""
    counts = Counter()
    for name in LOADS:
        def counted(*args, _name=name, _load=getattr(pipeline, name)):
            counts[_name] += 1
            return _load(*args)
        monkeypatch.setattr(pipeline, name, counted)
    return counts


def _graphs_reachable(root) -> list:
    """Every graph, a `Csr` with no data, reachable from `root` by object
    references; types, modules and functions are not followed, since their
    globals reach everything."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Csr) and obj.data is None:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestFileDatasetKept:
    def test_a_run_over_three_seeds_loads_once(self, tiny_files, monkeypatch):
        counts = _count_loads(monkeypatch)
        run_pipeline(replace(tiny_experiment(seeds=(0, 1, 2)), dataset=tiny_files))
        assert counts == Counter(LOADS)

    def test_both_query_arms_share_one_load(self, tiny_files, monkeypatch):
        counts = _count_loads(monkeypatch)
        compare_queries(replace(tiny_experiment(seeds=(0, 1)), dataset=tiny_files))
        assert counts == Counter(LOADS)

    def test_synthetic_datasets_are_drawn_per_seed(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_kept", {})
        counts = _count_loads(monkeypatch)
        run_pipeline(tiny_experiment(seeds=(0, 1, 1)))
        assert counts == Counter({"normalized_adjacency": 2})
        (key,) = pipeline._kept
        assert key == replace(TINY, seed=pipeline._component_seeds(1)[0])

    def test_both_query_arms_share_one_draw_per_seed(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_kept", {})
        counts = _count_loads(monkeypatch)
        drawn, gen_sbm = [], pipeline.gen_sbm
        monkeypatch.setattr(pipeline, "gen_sbm", lambda cfg: drawn.append(cfg.seed) or gen_sbm(cfg))
        comparison = compare_queries(tiny_experiment(seeds=(0, 1, 2)))
        assert drawn == [pipeline._component_seeds(s)[0] for s in (0, 1, 2)]
        assert counts == Counter({"normalized_adjacency": 3})
        assert [r.seed for r in comparison.individual.replicates] == [0, 1, 2]

    def test_a_rewritten_file_is_loaded_again(self, tiny_files, monkeypatch):
        before = pipeline.materialize_dataset(tiny_files, 0).x
        # three decimals, not the seventeen digits written: the size differs too
        with open(tiny_files.embeddings, "w", encoding="utf-8") as fh:
            fh.write(f"{before.shape[0]} {before.shape[1]}\n")
            fh.writelines(" ".join(f"{2 * v:.3f}" for v in row) + "\n" for row in before)
        counts = _count_loads(monkeypatch)
        data = pipeline.materialize_dataset(tiny_files, 0)
        assert counts == Counter(LOADS)
        np.testing.assert_array_equal(data.x, np.round(2 * before, 3))
        assert pipeline.materialize_dataset(tiny_files, 0) is data

    def test_in_place_writes_raise(self, tiny_files):
        for dataset in (tiny_files, TINY):
            a_hat, x, ax, table = pipeline.materialize_dataset(dataset, 0)
            for array in (x, ax, a_hat.data, a_hat.indices, a_hat.indptr, table.labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] += 1

    def test_the_kept_propagation_is_a_hat_times_the_features(self, tiny_files):
        data = pipeline.materialize_dataset(tiny_files, 0)
        (kept,) = pipeline._kept.values()
        assert kept is data
        assert data.ax[:, :-1].tobytes() == (data.a_hat @ data.x).tobytes()
        assert (data.ax[:, -1] == 1.0).all()

    @pytest.mark.parametrize("source", ["files", "synthetic"])
    def test_sampling_reads_a_hat_and_no_graph_is_kept(self, tiny_files, monkeypatch, source):
        sampled_on, sample_bundles = [], pipeline.sample_bundles
        monkeypatch.setattr(pipeline, "sample_bundles",
                            lambda graph, x, cfg: sampled_on.append(graph) or sample_bundles(graph, x, cfg))
        run_replicate(replace(tiny_experiment(), dataset=tiny_files if source == "files" else TINY), 0)
        (data,) = pipeline._kept.values()
        assert sampled_on == [data.a_hat]
        assert not _graphs_reachable(pipeline._kept)

    def test_a_kept_graph_would_be_found(self):
        graph = Csr.from_edges(2, [(0, 1)])
        assert _graphs_reachable({"key": (np.zeros(2), [graph])}) == [graph]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_runs_on_the_read_only_arrays(self, tiny_files, mode):
        cfg = replace(tiny_experiment(mode=mode, seeds=(0, 1)), dataset=tiny_files,
                      sampling=SamplingConfig(num_bundles=10, bundle_size=4, criterion="semantic"))
        assert len(run_pipeline(cfg).replicates) == 2

    def test_cold_warm_and_cleared_runs_are_equal(self, tiny_files):
        cfg = replace(tiny_experiment(noise=0.2, seeds=(0, 1, 2)), dataset=tiny_files)
        cold = []
        for seed in cfg.replicate_seeds:
            pipeline._kept.clear()
            cold.append(run_replicate(cfg, seed))
        warm = run_pipeline(cfg).replicates
        pipeline._kept.clear()
        cleared = run_pipeline(cfg).replicates
        assert [repr(r) for r in warm] == [repr(r) for r in cold] == [repr(r) for r in cleared]
        assert any(r.refinement_events for r in cold)


def _report(accuracies, seeds=None):
    seeds = list(range(len(accuracies))) if seeds is None else seeds
    replicates = [ReplicateResult(seed=s, accuracy=a, n_labeled=0, n_failed=0, refinement_events=0,
                                  final_loss=0.0, final_grad_norm=0.0, agreement=1.0)
                  for s, a in zip(seeds, accuracies)]
    return PipelineReport(mode="bundle", replicates=replicates)


def test_report_statistics_are_read_from_its_replicates():
    report = _report([0.5, 0.75, 0.25])
    assert report.mean_accuracy == 0.5
    assert report.std_accuracy == 0.25   # ddof=1
    assert _report([0.5]).std_accuracy == 0.0
    report.replicates.pop()
    assert report.mean_accuracy == 0.625


class TestPairedDifference:
    def test_hand_built_reports(self):
        # per-seed differences 0.25, 0, -0.25, 0.25, all exact in binary
        paired = paired_difference(_report([0.5, 0.75, 0.5, 0.25]), _report([0.25, 0.75, 0.75, 0.0]))
        assert paired.mean == 0.0625
        assert paired.sd == pytest.approx(np.sqrt(0.171875 / 3), rel=1e-15)
        assert (paired.wins, paired.ties, paired.losses) == (2, 1, 1)
        assert paired.describe() == "paired +0.0625 (sd 0.2394), wins/ties/losses 2/1/1"

    def test_one_seed_has_zero_sd(self):
        paired = paired_difference(_report([0.5]), _report([0.75]))
        assert (paired.mean, paired.sd, paired.losses) == (-0.25, 0.0, 1)

    @pytest.mark.parametrize("seeds_b", [[0, 1], [0, 1, 3], [2, 1, 0]])
    def test_different_seed_lists_are_refused(self, seeds_b):
        with pytest.raises(ValueError, match="same seeds"):
            paired_difference(_report([0.5, 0.5, 0.5]), _report([0.5] * len(seeds_b), seeds_b))


def test_standard_experiment_factory():
    cfg = standard_experiment(mode="bundle", noise_rate=0.3)
    assert cfg.dataset.n_classes == 20
    assert cfg.train.epochs == 800
    assert cfg.oracle.noise_rate == 0.3
    assert len(cfg.replicate_seeds) == 10


def test_semantic_criterion_wins_under_heterophily():
    """When edges mostly join different classes, neighborhoods mislead and
    embedding-space bundles carry much stronger mode labels."""
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
