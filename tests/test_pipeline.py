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
    paired_difference,
    run_arms,
    run_pipeline,
    run_replicate,
    standard_experiment,
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
        return g, a_hat, gnn.ax_ones(a_hat, np.eye(4)[:, :3])

    def test_perfect_predictions(self):
        _, a_hat, ax = self._setup()
        params = gnn.GcnParams(
            w1=np.eye(3) * 10, b1=np.zeros(3), w2=np.eye(3) * 10, b2=np.zeros(3)
        )
        trace = gnn.forward(params, a_hat, ax)
        labels = trace.z.argmax(axis=1)
        assert accuracy(params, a_hat, ax, labels) == 1.0

    def test_zero_params_predict_class_zero(self):
        _, a_hat, ax = self._setup()
        params = gnn.GcnParams(w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((4, 3)), b2=np.zeros(3))
        labels = [0, 1, 0, 2]
        assert accuracy(params, a_hat, ax, labels) == 0.5

    def test_labels_must_cover_nodes(self, monkeypatch):
        _, a_hat, ax = self._setup()
        params = gnn.init_params(3, 4, 3, seed=0)
        monkeypatch.setattr(gnn, "logits", None)   # checked before the whole-graph pass
        with pytest.raises(ValueError, match="labels must cover all nodes"):
            accuracy(params, a_hat, ax, [0, 1])


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


def _count_calls(monkeypatch, name) -> list:
    """The arguments of each call of `pipeline.<name>`, which still runs."""
    calls, fn = [], getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs))
    return calls


class TestRunArms:
    def test_arms_match_run_replicate(self):
        """Each arm reproduces `run_replicate` of its config seed by seed; the
        individual arm queries the members as sampled, before refinement."""
        cfg = ExperimentConfig(
            dataset=SbmConfig(n=100, n_classes=5, dim=8),
            sampling=SamplingConfig(num_bundles=20),
            oracle=OracleConfig(noise_rate=0.3),
            train=TrainConfig(epochs=60, warmup_epochs=10),
            replicate_seeds=(0, 1, 2),
        )
        arms = {mode: replace(cfg, mode=mode) for mode in ("bundle", "individual_query", "random_sampling")}
        arms["bundle_10"] = replace(cfg, sampling=replace(cfg.sampling, num_bundles=10))
        reports = run_arms(arms)
        assert list(reports) == list(arms)
        for name, arm in arms.items():
            assert reports[name].mode == arm.mode
            want = [run_replicate(arm, s) for s in cfg.replicate_seeds]
            assert [repr(r) for r in reports[name].replicates] == [repr(r) for r in want], name

    def test_run_pipeline_is_the_one_arm_case(self):
        cfg = tiny_experiment(noise=0.2, seeds=(2, 0))
        (report,) = run_arms({"only": cfg}).values()
        assert repr(report) == repr(run_pipeline(cfg))

    def test_arms_on_different_seeds_are_refused_before_any_replicate(self, monkeypatch):
        calls = _count_calls(monkeypatch, "run_replicate")
        arms = {"a": tiny_experiment(seeds=(0, 1)), "b": tiny_experiment(seeds=(0, 1)),
                "c": tiny_experiment(seeds=(1, 0))}
        with pytest.raises(ValueError, match=r"same replicate seeds, got a: \[0, 1\]; b: \[0, 1\]; c: \[1, 0\]"):
            run_arms(arms)
        with pytest.raises(ValueError, match="got no arm"):
            run_arms({})
        assert calls == []

    def test_arms_of_one_sampling_config_share_one_sample_call(self, monkeypatch):
        """Modes on the config's criterion share each seed's bundles;
        `random_sampling` draws its own, and so does a different budget."""
        calls = _count_calls(monkeypatch, "sample_bundles")
        base = tiny_experiment(noise=0.3, seeds=(0, 1, 2))
        arms = {mode: replace(base, mode=mode) for mode in ("bundle", "individual_query", "individual",
                                                            "random_sampling")}
        arms["noiseless"] = replace(base, oracle=OracleConfig())
        arms["fewer"] = replace(base, sampling=replace(base.sampling, num_bundles=5))
        run_arms(arms)
        criteria = [(cfg.criterion, cfg.num_bundles) for _, _, cfg in calls]
        assert criteria == [("topological", 10), ("random", 10), ("topological", 5)] * 3

    def test_each_arm_annotates_its_own_unlabelled_copies(self, monkeypatch):
        seen, annotate_all = [], pipeline.annotate_all

        def spy(bundles, table, **kwargs):
            assert all(b.label is None for b in bundles)
            summary = annotate_all(bundles, table, **kwargs)
            seen.append((bundles, [b.label for b in bundles]))
            return summary

        monkeypatch.setattr(pipeline, "annotate_all", spy)
        base = tiny_experiment(noise=0.4, seeds=(0, 1))
        run_arms({"noisy": base, "clean": replace(base, oracle=OracleConfig()),
                  "member": replace(base, mode="individual")})
        assert len(seen) == 6
        assert len({id(b) for bundles, _ in seen for b in bundles}) == sum(len(bundles) for bundles, _ in seen)
        assert all([b.label for b in bundles] == labels for bundles, labels in seen)
        noisy, clean = seen[0][1], seen[1][1]
        assert noisy != clean   # the same bundles, labelled apart


def _tiny_config_file(tmp_path, noise=0.0, seeds=(0, 1)):
    """`tiny_experiment(noise=noise, seeds=seeds)` as a config file for the command line;
    the sections' seeds, which each replicate sets, are left out."""
    cfg = tiny_experiment(noise=noise, seeds=seeds)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        **{name: {k: v for k, v in vars(getattr(cfg, name)).items() if k != "seed"}
           for name in ("dataset", "sampling", "oracle", "train")},
        "replicate_seeds": list(seeds)}))
    assert cli._config_from_json(path) == cfg
    return path


def _csv_rows(path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()]


class TestSweep:
    """`bundlesup sweep`: one arm per axis value, run by `run_arms`."""

    def _sweep(self, tmp_path, axis, values, **cfg):
        return cli.main(["sweep", "--config", str(_tiny_config_file(tmp_path, **cfg)), "--axis", axis,
                         "--values", values, "--out", str(tmp_path / "sweep")])

    def test_table_shapes(self, tmp_path):
        assert self._sweep(tmp_path, "num_bundles", "5,10") == 0
        runs = _csv_rows(tmp_path / "sweep" / "sweep_runs.csv")
        assert [row[:2] for row in runs[1:]] == [["5", "0"], ["5", "1"], ["10", "0"], ["10", "1"]]
        summary = _csv_rows(tmp_path / "sweep" / "sweep_summary.csv")
        assert [(row[0], row[3]) for row in summary[1:]] == [("5", "2"), ("10", "2")]

    def test_bundle_size_axis_validates(self, tmp_path):
        with pytest.raises(SystemExit, match="bundlesup sweep: bundle_size must be >= 2"):
            self._sweep(tmp_path, "bundle_size", "1")

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self._sweep(tmp_path, "hidden", "8")
        assert exc.value.code == 2
        assert "argument --axis: invalid choice: 'hidden'" in capsys.readouterr().err

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match=r"bundlesup sweep: invalid literal for int\(\) with base 10: ''"):
            self._sweep(tmp_path, "num_bundles", "")
        with pytest.raises(ValueError, match="got no arm"):
            run_arms({})

    @pytest.mark.parametrize("axis, value, section", [
        ("num_bundles", "7", "sampling"), ("bundle_size", "3", "sampling"), ("noise_rate", "0.25", "oracle"),
    ])
    def test_one_value_equals_run_pipeline_of_the_edited_config(self, tmp_path, capsys, axis, value, section):
        base = tiny_experiment(noise=0.1)
        assert self._sweep(tmp_path, axis, value, noise=0.1) == 0
        edited = replace(getattr(base, section), **{axis: type(getattr(getattr(base, section), axis))(value)})
        report = run_pipeline(replace(base, **{section: edited}))
        v = getattr(edited, axis)
        assert (tmp_path / "sweep" / "sweep_runs.csv").read_text().splitlines()[1:] == [
            f"{v},{r.seed},{r.accuracy}" for r in report.replicates]
        assert (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()[1:] == [
            f"{v},{report.mean_accuracy},{report.std_accuracy},{len(report.replicates)}"]
        assert capsys.readouterr().out == (
            f"{axis}={v}: mean {report.mean_accuracy:.4f} ± {report.std_accuracy:.4f} (n=2)\n")

    def test_each_seeds_dataset_is_drawn_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_kept", {})
        drawn = _count_calls(monkeypatch, "gen_sbm")
        assert self._sweep(tmp_path, "noise_rate", "0,0.3") == 0
        assert [cfg.seed for cfg, in drawn] == [pipeline._component_seeds(s)[0] for s in (0, 1)]

    def test_csv_output(self, tmp_path):
        assert self._sweep(tmp_path, "noise_rate", "0.0,0.5", seeds=(0,)) == 0
        runs = (tmp_path / "sweep" / "sweep_runs.csv").read_text().splitlines()
        assert runs[0] == "noise_rate,seed,accuracy"
        summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "noise_rate,mean,std,n"
        assert len(summary) == 3


class TestCompareQueries:
    """`bundlesup pipeline --compare-queries`: the bundle-query and the
    individual-query arm, run by `run_arms` on the same seeds."""

    def _compare(self, tmp_path, noise, seeds) -> dict:
        config = _tiny_config_file(tmp_path, noise, seeds)
        assert cli.main(["pipeline", "--config", str(config), "--compare-queries", "--out", str(tmp_path / "cq")]) == 0
        header, *rows = _csv_rows(tmp_path / "cq" / "query_comparison.csv")
        return {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}

    def test_noiseless_agreements_are_perfect(self, tmp_path):
        by_arm = self._compare(tmp_path, noise=0.0, seeds=(0, 1))
        assert by_arm["bundle_query"]["agreement"] == 1.0
        assert by_arm["individual_query"]["agreement"] == 1.0

    def test_three_metric_columns(self, tmp_path):
        by_arm = self._compare(tmp_path, noise=0.0, seeds=(0,))
        assert list(by_arm) == ["bundle_query", "individual_query"]
        for row in by_arm.values():
            assert sorted(row) == ["accuracy_mean", "accuracy_std", "agreement"]

    def test_noisy_agreement_tracks_query_correctness(self, tmp_path):
        for row in self._compare(tmp_path, noise=0.4, seeds=tuple(range(5))).values():
            assert abs(row["agreement"] - 0.6) < 0.12

    def test_llm_config_rejected(self, tmp_path, monkeypatch):
        """Both arms are oracle-labelled; an LLM config must not be reported as used."""
        cfg = json.loads(_tiny_config_file(tmp_path, seeds=(0,)).read_text())
        (tmp_path / "llm.json").write_text(json.dumps({**cfg, "llm": {"base_url": "http://127.0.0.1:9/v1"}}))
        replicates = _count_calls(monkeypatch, "run_replicate")
        with pytest.raises(SystemExit, match="bundlesup pipeline: mode individual_query .* oracle"):
            cli.main(["pipeline", "--config", str(tmp_path / "llm.json"), "--compare-queries",
                      "--out", str(tmp_path / "cq")])
        assert replicates == []
        assert not (tmp_path / "cq").exists()

    def test_each_seeds_bundles_are_sampled_once(self, tmp_path, monkeypatch):
        """Both arms draw the same bundles; only `individual_query` then
        labels the members one by one."""
        sampled = _count_calls(monkeypatch, "sample_bundles")
        self._compare(tmp_path, noise=0.0, seeds=(0, 1, 2))
        assert [cfg.seed for _, _, cfg in sampled] == [pipeline._component_seeds(s)[1] for s in (0, 1, 2)]

    def test_arms_match_run_replicate(self, tmp_path):
        """Each arm's row is read from `run_replicate` of its mode, seed by
        seed; the individual arm queries the members as sampled, before
        refinement."""
        by_arm = self._compare(tmp_path, noise=0.3, seeds=(0, 1, 2))
        cfg = tiny_experiment(noise=0.3, seeds=(0, 1, 2))
        for arm, mode in (("bundle_query", "bundle"), ("individual_query", "individual_query")):
            report = PipelineReport(mode, [run_replicate(replace(cfg, mode=mode), s) for s in cfg.replicate_seeds])
            assert by_arm[arm] == {"agreement": np.mean([r.agreement for r in report.replicates]),
                                   "accuracy_mean": report.mean_accuracy,
                                   "accuracy_std": report.std_accuracy}, arm


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
        sampled = _count_calls(monkeypatch, "sample_bundles")
        # class names given as a list are kept as a tuple, so the paths key the arms' shared bundles
        dataset = replace(tiny_files, class_names=list(tiny_files.class_names))
        assert dataset == tiny_files
        cfg = replace(tiny_experiment(seeds=(0, 1)), dataset=dataset)
        run_arms({mode: replace(cfg, mode=mode) for mode in ("bundle", "individual_query")})
        assert counts == Counter(LOADS)
        assert len(sampled) == 2

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
        cfg = tiny_experiment(seeds=(0, 1, 2))
        reports = run_arms({mode: replace(cfg, mode=mode) for mode in ("bundle", "individual_query")})
        assert drawn == [pipeline._component_seeds(s)[0] for s in (0, 1, 2)]
        assert counts == Counter({"normalized_adjacency": 3})
        assert [r.seed for r in reports["individual_query"].replicates] == [0, 1, 2]

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
