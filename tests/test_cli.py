import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bundlesup import cli, gnn, pipeline
from bundlesup.annotate import OracleConfig
from bundlesup.cli import main
from bundlesup.graphs import save_embeddings
from bundlesup.llm import LlmEndpointConfig
from bundlesup.sampling import SamplingConfig
from bundlesup.synth import SbmConfig
from bundlesup.train import TrainConfig

from llm_stub import ChatStub


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "ds"
    run([
        "gen-synth", "--n", 48, "--classes", 4, "--p-in", 0.35, "--p-out", 0.03,
        "--dim", 8, "--separation", 2.5, "--seed", 1, "--out", out,
    ])
    return out


def test_gen_synth_writes_dataset(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["n"] == 48
    assert len(manifest["class_names"]) == 4
    assert (dataset / "edges.txt").exists()
    assert (dataset / "embeddings.txt").exists()
    assert (dataset / "nodes.jsonl").exists()


def test_full_command_chain(dataset, tmp_path, capsys):
    bundles = dataset / "bundles.jsonl"
    labeled = dataset / "labeled.jsonl"
    rundir = tmp_path / "run"
    run(["sample-bundles", "--edges", dataset / "edges.txt", "--num-bundles", 10,
         "--bundle-size", 4, "--seed", 2, "--out", bundles])
    run(["annotate", "--bundles", bundles, "--nodes", dataset / "nodes.jsonl",
         "--manifest", dataset / "manifest.json", "--annotator", "oracle",
         "--noise", 0.1, "--out", labeled, "--records", dataset / "records.jsonl"])
    run(["train", "--graph", dataset / "edges.txt", "--embeddings", dataset / "embeddings.txt",
         "--bundles", labeled, "--manifest", dataset / "manifest.json",
         "--epochs", 50, "--warmup", 10, "--refine-every", 10, "--seed", 0, "--out", rundir])
    code = run(["eval", "--params", rundir / "params", "--graph", dataset / "edges.txt",
                "--embeddings", dataset / "embeddings.txt", "--nodes", dataset / "nodes.jsonl",
                "--manifest", dataset / "manifest.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    # the refined file is the annotated bundles minus the report's evictions,
    # members in their sampled order
    evictions = {}
    for line in (rundir / "report.jsonl").read_text().splitlines():
        rec = json.loads(line)
        for bundle_id, node in rec.get("evictions", []):
            evictions.setdefault(bundle_id, []).append([rec["epoch"], node])
    assert evictions, "expected the run to evict members"
    given = [json.loads(l) for l in labeled.read_text().splitlines()]
    refined = [json.loads(l) for l in (rundir / "bundles_refined.jsonl").read_text().splitlines()]
    assert [b["id"] for b in refined] == [b["id"] for b in given]
    for before, after in zip(given, refined):
        gone = evictions.get(before["id"], [])
        assert after["members"] == [m for m in before["members"] if m not in {v for _, v in gone}]
        assert after["evicted"] == before["evicted"] + gone

    records = [json.loads(l) for l in (dataset / "records.jsonl").read_text().splitlines()]
    assert len(records) == 10
    assert all(r["annotator"] == "oracle" for r in records)


def test_semantic_sampling_via_cli(dataset, tmp_path):
    out = tmp_path / "sem.jsonl"
    code = run(["sample-bundles", "--embeddings", dataset / "embeddings.txt",
                "--criterion", "semantic", "--num-bundles", 6, "--seed", 0, "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


def test_pipeline_with_config_file(tmp_path, capsys):
    cfg = {
        "dataset": {"n": 48, "n_classes": 4, "p_in": 0.35, "p_out": 0.03, "dim": 8,
                     "separation": 2.5},
        "sampling": {"num_bundles": 8, "bundle_size": 4},
        "oracle": {"noise_rate": 0.2},
        "train": {"learning_rate": 0.4, "epochs": 30, "warmup_epochs": 5, "refine_every": 10},
        "mode": "bundle",
        "replicate_seeds": [0, 1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "pipeline_report.json").read_text())
    assert len(report["replicates"]) == 2
    assert "mean" in capsys.readouterr().out


def test_pipeline_file_dataset_config(dataset, tmp_path):
    manifest = json.loads((dataset / "manifest.json").read_text())
    cfg = {
        "dataset": {
            "edges": str(dataset / "edges.txt"),
            "embeddings": str(dataset / "embeddings.txt"),
            "nodes": str(dataset / "nodes.jsonl"),
            "class_names": manifest["class_names"],
        },
        "sampling": {"num_bundles": 6, "bundle_size": 4},
        "train": {"learning_rate": 0.4, "epochs": 20, "refine_every": 50},
        "replicate_seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"]) == 0


def test_sweep_cli(tmp_path):
    cfg = {
        "dataset": {"n": 48, "n_classes": 4, "p_in": 0.35, "p_out": 0.03, "dim": 8,
                     "separation": 2.5},
        "sampling": {"num_bundles": 6, "bundle_size": 4},
        "train": {"learning_rate": 0.4, "epochs": 20, "refine_every": 50},
        "replicate_seeds": [0, 1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["sweep", "--config", cfg_path, "--axis", "num_bundles",
                "--values", "4,8", "--out", tmp_path / "sweep"])
    assert code == 0
    lines = (tmp_path / "sweep" / "sweep_runs.csv").read_text().splitlines()
    assert lines[0] == "num_bundles,seed,accuracy"
    assert len(lines) == 1 + 4  # header + 2 values x 2 seeds
    lines = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "num_bundles,mean,std,n"
    assert [line.split(",")[::3] for line in lines[1:]] == [["4", "2"], ["8", "2"]]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--axis", "num_bundles", "--values", "4,x"], "invalid literal for int() with base 10: 'x'"),
    (["sweep", "--axis", "noise_rate", "--values", "1.5,0"], "noise_rate must be in [0, 1]"),
    (["sweep", "--axis", "noise_rate", "--values", "0,1.5"], "noise_rate must be in [0, 1]"),
    (["sweep", "--axis", "bundle_size", "--values", "3,1"], "bundle_size must be >= 2"),
    (["sweep", "--axis", "num_bundles", "--values", "4,8,04"], "num_bundles value 4 is given twice"),
    (["sweep", "--axis", "noise_rate", "--values", "0.5,0,.5"], "noise_rate value 0.5 is given twice"),
    (["pipeline", "--seeds", "0,a"], "--seeds takes comma-separated integers, got '0,a'"),
    (["sweep", "--axis", "noise_rate", "--values", "0,0.3", "--noise", "0.5"],
     "--noise sets noise_rate, the axis this sweep varies; give the rates in --values"),
    (["pipeline", "--seeds", ""], "--seeds takes comma-separated integers, got ''"),
    (["pipeline", "--seeds", "1,,2"], "--seeds takes comma-separated integers, got '1,,2'"),
    (["sweep", "--axis", "num_bundles", "--values", "4", "--seeds", ""],
     "--seeds takes comma-separated integers, got ''"),
], ids=["sweep-value", "sweep-noise", "sweep-noise-last", "sweep-bundle-size",
        "sweep-repeated-int", "sweep-repeated-float", "pipeline-seeds", "sweep-noise-axis-and-noise",
        "pipeline-seeds-empty", "pipeline-seeds-empty-item", "sweep-seeds-empty"])
def test_a_bad_experiment_flag_exits_with_a_message(tmp_path, monkeypatch, argv, message):
    """Every arm's config is built and checked before the first replicate runs."""
    replicates = []
    monkeypatch.setattr(pipeline, "run_replicate", lambda *args, **kwargs: replicates.append(args))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", tmp_path / "out"])
    assert exc.value.code == f"bundlesup {argv[0]}: {message}"
    assert replicates == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--compare-queries", "--mode", "bundle"], "argument --mode: not allowed with argument --compare-queries"),
    (["--mode", "r_only", "--compare-queries"], "argument --compare-queries: not allowed with argument --mode"),
], ids=["compare-queries-mode", "mode-compare-queries"])
def test_compare_queries_refuses_a_mode(tmp_path, capsys, flags, message):
    """--compare-queries runs both query modes, so a --mode would be ignored."""
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", *flags, "--seeds", "0", "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _refused_config(tmp_path, monkeypatch, cfg, argv, message):
    """`argv` with the config file `cfg` ends in `message` before any replicate runs."""
    replicates = []
    monkeypatch.setattr(pipeline, "run_replicate", lambda *args, **kwargs: replicates.append(args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--config", path, "--out", tmp_path / "out"])
    assert exc.value.code == f"bundlesup {argv[0]}: {message}"
    assert replicates == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["bundle", "r_only"])
def test_compare_queries_refuses_a_config_mode(tmp_path, monkeypatch, mode):
    """--compare-queries runs both query modes, so a config's mode would be ignored."""
    _refused_config(tmp_path, monkeypatch, {"mode": mode, "replicate_seeds": [0]}, ["pipeline", "--compare-queries"],
                    "--compare-queries runs modes bundle and individual_query; remove 'mode' from the config")


@pytest.mark.parametrize("section", ["dataset", "sampling", "oracle", "train"])
@pytest.mark.parametrize("command", [["pipeline"], ["sweep", "--axis", "num_bundles", "--values", "4"]],
                         ids=["pipeline", "sweep"])
def test_a_config_seed_is_refused(tmp_path, monkeypatch, section, command):
    """Each replicate sets these seeds from its replicate seed, so a config's own would be ignored."""
    _refused_config(tmp_path, monkeypatch, {section: {"seed": 3}, "replicate_seeds": [0]}, command,
                    f"key 'seed' in section {section!r} is set from each replicate seed; "
                    f"choose the runs with 'replicate_seeds'")


def test_verify_theorem1_cli(capsys):
    assert run(["verify", "--theorem", 1, "--trials", 400, "--seed", 0]) == 0
    assert "pass" in capsys.readouterr().out.lower()


def test_verify_theorem2_cli(capsys):
    assert run(["verify", "--theorem", 2, "--points", 2, "--seed", 0]) == 0
    out = capsys.readouterr().out
    assert "derived" in out and "discounted" in out


@pytest.mark.parametrize("points", [0, -3])
def test_verify_theorem2_with_no_point_is_refused(capsys, points):
    """A suite-2 run that would evaluate no point checks nothing."""
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--theorem", 2, "--points", points])
    assert exc.value.code == "bundlesup verify: n_points must be >= 1"
    assert capsys.readouterr().out == ""


def test_compare_queries_cli(tmp_path, capsys):
    cfg = {
        "dataset": {"n": 48, "n_classes": 4, "p_in": 0.35, "p_out": 0.03, "dim": 8,
                     "separation": 2.5},
        "sampling": {"num_bundles": 6, "bundle_size": 4},
        "train": {"learning_rate": 0.4, "epochs": 20, "refine_every": 50},
        "replicate_seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["pipeline", "--config", cfg_path, "--compare-queries", "--out", tmp_path / "cq"])
    assert code == 0
    assert (tmp_path / "cq" / "query_comparison.csv").exists()
    out = capsys.readouterr().out
    assert "bundle_query" in out and "individual_query" in out
    assert out.splitlines()[-1].startswith("bundle_query - individual_query accuracy: paired ")


def test_compare_queries_cli_rejects_llm_config(tmp_path):
    cfg = {
        "dataset": {"n": 48, "n_classes": 4, "p_in": 0.35, "p_out": 0.03, "dim": 8,
                     "separation": 2.5},
        "sampling": {"num_bundles": 6, "bundle_size": 4},
        "train": {"learning_rate": 0.4, "epochs": 20, "refine_every": 50},
        "llm": {"base_url": "http://127.0.0.1:9/v1", "model": "m"},
        "replicate_seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--config", cfg_path, "--compare-queries", "--out", tmp_path / "cq"])
    assert exc.value.code not in (0, None)
    assert "oracle" in str(exc.value.code) and "llm" in str(exc.value.code)
    assert not (tmp_path / "cq" / "query_comparison.csv").exists()


@pytest.mark.parametrize("via_flag", [False, True])
def test_pipeline_cli_rejects_llm_config_in_individual_query_mode(tmp_path, via_flag):
    cfg = {
        "dataset": {"n": 48, "n_classes": 4, "p_in": 0.35, "p_out": 0.03, "dim": 8,
                     "separation": 2.5},
        "sampling": {"num_bundles": 6, "bundle_size": 4},
        "train": {"learning_rate": 0.4, "epochs": 20, "refine_every": 50},
        "llm": {"base_url": "http://127.0.0.1:9/v1", "model": "m"},
        "replicate_seeds": [0],
    }
    argv = ["--mode", "individual_query"] if via_flag else []
    if not via_flag:
        cfg["mode"] = "individual_query"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--config", cfg_path, *argv, "--out", tmp_path / "out"])
    assert exc.value.code not in (0, None)
    assert "individual_query" in str(exc.value.code) and "oracle" in str(exc.value.code)
    assert not (tmp_path / "out" / "pipeline_report.json").exists()


_SWEEP = ["sweep", "--axis", "num_bundles", "--values", "4"]


# --compare-queries refuses an llm config before it reads the node table
@pytest.mark.parametrize("annotator, command", [
    ("llm", ["pipeline"]), ("llm", _SWEEP),
    ("oracle", ["pipeline"]), ("oracle", ["pipeline", "--compare-queries"]), ("oracle", _SWEEP),
], ids=["llm-pipeline", "llm-sweep", "oracle-pipeline", "oracle-compare-queries", "oracle-sweep"])
def test_a_node_table_without_labels_exits_before_any_request(dataset, tmp_path, monkeypatch,
                                                              annotator, command):
    monkeypatch.setenv("BUNDLESUP_TEST_KEY", "k")
    nodes = tmp_path / "nodes.jsonl"
    nodes.write_text("".join(json.dumps({"id": i, "text": f"node {i}"}) + "\n" for i in range(48)))
    class_names = json.loads((dataset / "manifest.json").read_text())["class_names"]
    with ChatStub([class_names[0]]) as stub:
        cfg = {
            "dataset": {"edges": str(dataset / "edges.txt"), "embeddings": str(dataset / "embeddings.txt"),
                        "nodes": str(nodes), "class_names": class_names},
            "sampling": {"num_bundles": 6, "bundle_size": 4},
            "train": {"epochs": 5},
            "replicate_seeds": [0],
        }
        if annotator == "llm":
            cfg["llm"] = {"base_url": stub.base_url, "model": "m", "api_key_env_var": "BUNDLESUP_TEST_KEY"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            run([*command, "--config", cfg_path, "--out", tmp_path / "out"])
    assert exc.value.code == (f"bundlesup {command[0]}: the node table has no labels; "
                              "a replicate scores its accuracy against them")
    assert stub.requests == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key", [
    ("sampling", "bundle_sise"), ("train", "epoch"), ("oracle", "noise"), ("dataset", "nodes_count"),
    ("llm", "url"), (None, "sampeling"),
])
def test_pipeline_cli_rejects_unknown_config_key(tmp_path, section, key):
    cfg = {"sampling": {"num_bundles": 6}, "train": {"epochs": 5}, "replicate_seeds": [0]}
    if section is None:
        cfg[key] = {}
    else:
        cfg.setdefault(section, {})[key] = 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"])
    message = str(exc.value.code)
    assert exc.value.code not in (0, None)
    assert repr(key) in message and (section is None or repr(section) in message)
    assert not (tmp_path / "out" / "pipeline_report.json").exists()


@pytest.mark.parametrize("edit, message", [
    ({"replicate_seeds": ["a"]}, "key 'replicate_seeds' in the config must be a list, each item an integer"),
    ({"replicate_seeds": 5}, "key 'replicate_seeds' in the config must be a list, each item an integer"),
    ({"dataset": {"edges": "e", "embeddings": "x", "nodes": "v", "class_names": ["a", 1]}},
     "key 'class_names' in section 'dataset' must be a list, each item a string"),
    ({"dataset": {"n": "big"}}, "key 'n' in section 'dataset' must be an integer"),
    ({"train": {"epochs": "5"}}, "key 'epochs' in section 'train' must be an integer"),
    ({"sampling": {"bundle_size": 2.5}}, "key 'bundle_size' in section 'sampling' must be an integer"),
    ({"train": {"eta_auto": 1}}, "key 'eta_auto' in section 'train' must be true or false"),
    ({"oracle": {"seed": True}}, "key 'seed' in section 'oracle' must be an integer"),
    ({"sampling": [4]}, "section 'sampling' must be a JSON object"),
    ({"mode": ["bundle"]}, "key 'mode' in the config must be a string"),
    ({"cache_path": 3}, "key 'cache_path' in the config must be a string or null"),
])
def test_pipeline_cli_rejects_config_values_of_the_wrong_type(tmp_path, edit, message):
    cfg = {"sampling": {"num_bundles": 6}, "train": {"epochs": 5}, "replicate_seeds": [0], **edit}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"])
    assert str(exc.value.code).startswith(f"bundlesup pipeline: {message}, got ")
    assert not (tmp_path / "out" / "pipeline_report.json").exists()


def test_pipeline_cli_takes_an_integer_for_a_float_and_null_for_an_optional_value(tmp_path):
    cfg = {"dataset": {"n": 48, "n_classes": 4, "dim": 8}, "sampling": {"num_bundles": 6},
           "oracle": {"noise_rate": 0}, "train": {"epochs": 5, "learning_rate": 1},
           "replicate_seeds": [0], "cache_path": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"]) == 0


def test_pipeline_cli_rejects_file_dataset_without_class_names(dataset, tmp_path):
    cfg = {
        "dataset": {"edges": str(dataset / "edges.txt"), "embeddings": str(dataset / "embeddings.txt"),
                    "nodes": str(dataset / "nodes.jsonl")},
        "replicate_seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--config", cfg_path, "--out", tmp_path / "out"])
    assert "'class_names'" in str(exc.value.code) and "'dataset'" in str(exc.value.code)


@pytest.fixture()
def labeled(dataset):
    """The dataset plus ten oracle-labeled bundles in labeled.jsonl."""
    bundles = dataset / "bundles.jsonl"
    run(["sample-bundles", "--edges", dataset / "edges.txt", "--num-bundles", 10,
         "--bundle-size", 4, "--out", bundles])
    run(["annotate", "--bundles", bundles, "--nodes", dataset / "nodes.jsonl",
         "--manifest", dataset / "manifest.json", "--out", dataset / "labeled.jsonl"])
    return dataset


def _required(ds, out):
    """Each stage's command line with its required flags only (and a class source)."""
    annotate = ["annotate", "--bundles", ds / "labeled.jsonl", "--nodes", ds / "nodes.jsonl",
                "--manifest", ds / "manifest.json", "--out", out]
    return {
        "gen-synth": ["gen-synth", "--out", out],
        "sample-bundles": ["sample-bundles", "--out", out],
        "annotate-oracle": annotate,
        "annotate-llm": annotate + ["--annotator", "llm"],
        "train": ["train", "--graph", ds / "edges.txt", "--embeddings", ds / "embeddings.txt",
                  "--bundles", ds / "labeled.jsonl", "--manifest", ds / "manifest.json", "--out", out],
    }


# stage: (the function in cli that gets the config, the config in its call, its default)
_STAGES = {
    "gen-synth": ("gen_sbm", lambda a, kw: a[0], SbmConfig()),
    "sample-bundles": ("sample_bundles", lambda a, kw: a[2], SamplingConfig()),
    "annotate-oracle": ("annotate_all", lambda a, kw: kw["oracle"], OracleConfig()),
    "annotate-llm": ("annotate_all", lambda a, kw: kw["llm"], LlmEndpointConfig()),
    "train": ("train", lambda a, kw: a[3], TrainConfig()),
}


class _Captured(Exception):
    pass


def _configs_passed_on(monkeypatch, stage, argv) -> list:
    """The config `argv` hands to the stage's function, which is stubbed out."""
    name, pick, _ = _STAGES[stage]
    seen = []

    def stand_in(*args, **kwargs):
        seen.append(pick(args, kwargs))
        raise _Captured

    monkeypatch.setattr(cli, name, stand_in)
    with pytest.raises(_Captured):
        run(argv)
    return seen


@pytest.mark.parametrize("stage", _STAGES)
def test_omitted_flags_take_the_config_defaults(labeled, tmp_path, monkeypatch, stage):
    argv = _required(labeled, tmp_path / "o")[stage]
    assert _configs_passed_on(monkeypatch, stage, argv) == [_STAGES[stage][2]]


@pytest.mark.parametrize("stage, flags, field, value", [
    ("gen-synth", ["--classes", 8], "n_classes", 8),
    ("gen-synth", ["--seed", 3], "seed", 3),
    ("sample-bundles", ["--bundle-size", 3], "bundle_size", 3),
    ("annotate-oracle", ["--noise", 0.25], "noise_rate", 0.25),
    ("annotate-llm", ["--api-key-env", "MY_KEY"], "api_key_env_var", "MY_KEY"),
    ("annotate-llm", ["--parallelism", 1], "parallelism", 1),
    ("train", ["--eta", 0.125], "learning_rate", 0.125),
    ("train", ["--warmup", 7], "warmup_epochs", 7),
    ("train", ["--floor", 3], "bundle_floor", 3),
    ("train", ["--eta-auto"], "eta_auto", True),
])
def test_each_flag_sets_its_config_field(labeled, tmp_path, monkeypatch, stage, flags, field, value):
    argv = _required(labeled, tmp_path / "o")[stage] + flags
    expected = dataclasses.replace(_STAGES[stage][2], **{field: value})
    assert _configs_passed_on(monkeypatch, stage, argv) == [expected]


@pytest.mark.parametrize("stage, flags, message", [
    ("gen-synth", ["--n", 401], "bundlesup gen-synth: n must be a positive multiple of n_classes"),
    ("sample-bundles", ["--bundle-size", 1], "bundlesup sample-bundles: bundle_size must be >= 2"),
    ("annotate-llm", ["--parallelism", 0], "bundlesup annotate: parallelism must be >= 1"),
    ("train", ["--eta", 0], "bundlesup train: learning_rate must be positive"),
])
def test_a_bad_flag_exits_with_a_message_and_writes_nothing(labeled, tmp_path, stage, flags, message):
    with pytest.raises(SystemExit) as exc:
        run(_required(labeled, tmp_path / "o")[stage] + flags)
    assert exc.value.code == message
    assert not (tmp_path / "o").exists()


def test_an_input_that_is_not_utf8_exits_with_a_message_and_writes_nothing(labeled, tmp_path):
    bad = tmp_path / "edges.txt"
    bad.write_bytes(b"n 48\n0 1\n\xff 2\n")
    argv = _required(labeled, tmp_path / "o")["train"]
    argv[argv.index("--graph") + 1] = bad
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == f"bundlesup train: {bad}: not UTF-8 text (invalid start byte)"
    assert not (tmp_path / "o").exists()


def test_a_missing_input_exits_with_a_message(tmp_path):
    missing = tmp_path / "edges.txt"
    with pytest.raises(SystemExit) as exc:
        run(["sample-bundles", "--edges", missing, "--out", tmp_path / "o"])
    assert exc.value.code == f"bundlesup sample-bundles: [Errno 2] No such file or directory: {str(missing)!r}"


def test_a_missing_api_key_exits_with_a_message(labeled, tmp_path, monkeypatch):
    monkeypatch.delenv("BUNDLESUP_NO_SUCH_KEY", raising=False)
    nodes = tmp_path / "nodes.jsonl"
    nodes.write_text("".join(json.dumps({"id": i, "text": f"node {i}"}) + "\n" for i in range(48)))
    argv = _required(labeled, tmp_path / "o")["annotate-llm"] + ["--api-key-env", "BUNDLESUP_NO_SUCH_KEY"]
    argv[argv.index("--nodes") + 1] = nodes
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == "bundlesup annotate: environment variable BUNDLESUP_NO_SUCH_KEY is not set"
    assert not (tmp_path / "o").exists()


def test_annotating_a_node_table_without_texts_by_llm_exits_with_a_message(labeled, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(_required(labeled, tmp_path / "o")["annotate-llm"])
    assert exc.value.code == "bundlesup annotate: node table carries no texts; cannot build prompts"
    assert not (tmp_path / "o").exists()


def test_annotating_a_node_table_without_labels_by_oracle_exits_with_a_message(labeled, tmp_path):
    nodes = tmp_path / "nodes.jsonl"
    nodes.write_text("".join(json.dumps({"id": i, "text": f"node {i}"}) + "\n" for i in range(48)))
    argv = _required(labeled, tmp_path / "o")["annotate-oracle"]
    argv[argv.index("--nodes") + 1] = nodes
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == "bundlesup annotate: oracle annotation needs ground-truth labels in the node table"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stage", ["annotate-oracle", "train"])
@pytest.mark.parametrize("text, message", [
    ('{"n": 48,\n "class_names": [}\n', ":2: invalid JSON: Expecting value"),
    ('{"n": 48}\n', ": manifest has no class_names, a list of names"),
    ('{"n": 48, "class_names": "c0,c1"}\n', ": manifest has no class_names, a list of names"),
], ids=["bad-json", "no-class-names", "not-a-list"])
def test_a_broken_manifest_exits_with_a_message_naming_it(labeled, tmp_path, stage, text, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    argv = _required(labeled, tmp_path / "o")[stage]
    argv[argv.index("--manifest") + 1] = manifest
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code.startswith(f"bundlesup {stage.split('-')[0]}: {manifest}{message}")
    assert not (tmp_path / "o").exists()


_BAD_PARAMS = {
    "bad-json": ('{"tensors": [}', ":1: invalid JSON: Expecting value"),
    "empty": ("{}", ": manifest has no tensors object"),
    "tensors-not-an-object": ('{"tensors": [[8, 4], [4]]}', ": manifest has no tensors object"),
    "unknown-tensor": ('{"tensors": {"w1": [8, 4], "b1": [4], "w2": [4, 4], "b2": [4], "w3": [4]}}',
                       ": tensors must be w1, b1, w2, b2, got w1, b1, w2, b2, w3"),
    "shape-not-filled": ('{"tensors": {"w1": [8, 5], "b1": [4], "w2": [4, 4], "b2": [4]}}',
                         r": w1 has shape \[8, 5\], but w1.txt holds 32 values"),
    # every file fills its shape and the total is right, but one b1 value sits in b2's place
    "b1-into-b2": ('{"tensors": {"w1": [8, 4], "b1": [5], "w2": [4, 4], "b2": [3]}}',
                   re.escape(": w1, b1, w2, b2 must have shapes (d, h), (h,), (h, c), (c,), "
                             "got (8, 4), (5,), (4, 4), (3,)"), {"b1": (1, 5), "b2": (1, 3)}),
    "w2-rows-into-b2": ('{"tensors": {"w1": [8, 4], "b1": [4], "w2": [3, 4], "b2": [8]}}',
                        re.escape(": w1, b1, w2, b2 must have shapes (d, h), (h,), (h, c), (c,), "
                                  "got (8, 4), (4,), (3, 4), (8,)"), {"w2": (3, 4), "b2": (1, 8)}),
}


@pytest.mark.parametrize("case", _BAD_PARAMS)
def test_a_broken_params_manifest_exits_with_a_message_naming_it(labeled, tmp_path, case):
    text, message, *files = _BAD_PARAMS[case]
    params = tmp_path / "params"
    gnn.save_params(params, gnn.init_params(8, 4, 4, seed=0))
    (params / "manifest.json").write_text(text + "\n")
    for name, shape in (files[0] if files else {}).items():
        save_embeddings(params / f"{name}.txt", np.ones(shape))
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--params", params, "--graph", labeled / "edges.txt", "--embeddings",
             labeled / "embeddings.txt", "--nodes", labeled / "nodes.jsonl", "--manifest", labeled / "manifest.json"])
    assert re.fullmatch(f"bundlesup eval: {re.escape(str(params / 'manifest.json'))}{message}", exc.value.code)


@pytest.mark.parametrize("lines, where", [
    (['{"foo": 1}'], ":1: not an annotation record"),
    (["{", '{"foo": 1}'], ":1: invalid JSON: "),
], ids=["not-a-record", "corrupt-line-before-the-last"])
def test_a_broken_annotation_cache_exits_with_a_message_naming_the_line(labeled, tmp_path, lines, where):
    cache = tmp_path / "c.jsonl"
    cache.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SystemExit) as exc:
        run(_required(labeled, tmp_path / "o")["annotate-llm"] + ["--cache", cache])
    assert exc.value.code.startswith(f"bundlesup annotate: {cache}{where}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stage", ["annotate-oracle", "train"])
def test_a_bundle_file_without_members_exits_with_a_message_naming_the_line(labeled, tmp_path, stage):
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text((labeled / "labeled.jsonl").read_text() + '{"id": 10, "core": 3}\n')
    argv = _required(labeled, tmp_path / "o")[stage]
    argv[argv.index("--bundles") + 1] = bundles
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == f"bundlesup {stage.split('-')[0]}: {bundles}:11: record has no members"
    assert not (tmp_path / "o").exists()


def _outside_bundles(tmp_path):
    """A labeled bundle with member 60, past the 48 nodes of the dataset."""
    path = tmp_path / "outside.jsonl"
    path.write_text('{"id": 0, "core": 0, "members": [0, 60], "label": 0}\n')
    return path


def _sparse_edges(tmp_path):
    """50 nodes and one edge: almost every core is isolated."""
    path = tmp_path / "sparse.txt"
    path.write_text("n 50\n0 1\n")
    return path


def _narrow_params(tmp_path):
    """Parameters for 3 input columns, against the dataset's 8."""
    gnn.save_params(tmp_path / "params", gnn.init_params(3, 4, 4, seed=0))
    return tmp_path / "params"


def _train(ds, bundles, out, *flags):
    return ["train", "--graph", ds / "edges.txt", "--embeddings", ds / "embeddings.txt",
            "--bundles", bundles, "--manifest", ds / "manifest.json", *flags, "--out", out]


# case: (argv from the dataset, tmp_path and output path; the message after "bundlesup <cmd>: ")
_MISFITS = {
    "sample-without-graph": (lambda ds, tmp, out: ["sample-bundles", "--out", out],
                             "topological sampling needs a graph"),
    "random-without-inputs": (lambda ds, tmp, out: ["sample-bundles", "--criterion", "random", "--out", out],
                              "random sampling needs a graph or embeddings"),
    "isolated-cores": (lambda ds, tmp, out: ["sample-bundles", "--edges", _sparse_edges(tmp), "--out", out],
                       r"exhausted 100 core redraws with \d+/100 bundles built"),
    "unlabeled-bundles": (lambda ds, tmp, out: _train(ds, ds / "bundles.jsonl", out),
                          "no labeled bundles to supervise on"),
    "too-few-classes": (lambda ds, tmp, out: _train(ds, ds / "labeled.jsonl", out, "--classes", 2),
                        r"bundle label [23] is outside the 2 classes"),
    "members-outside-graph": (lambda ds, tmp, out: _train(ds, _outside_bundles(tmp), out),
                              "bundle member 60 is outside the 48 graph nodes"),
    "diverging-step": (lambda ds, tmp, out: _train(ds, ds / "labeled.jsonl", out, "--eta", 1e6),
                       r"non-finite loss at epoch \d+ with eta=1e\+06"),
    "annotate-outside-table": (lambda ds, tmp, out: [
        "annotate", "--bundles", _outside_bundles(tmp), "--nodes", ds / "nodes.jsonl",
        "--manifest", ds / "manifest.json", "--annotator", "oracle", "--out", out],
        "bundle 0 references node 60 with no table row"),
    "eval-narrow-params": (lambda ds, tmp, out: [
        "eval", "--params", _narrow_params(tmp), "--graph", ds / "edges.txt",
        "--embeddings", ds / "embeddings.txt", "--nodes", ds / "nodes.jsonl",
        "--manifest", ds / "manifest.json"],
        "features have 8 columns, params expect 3"),
}


@pytest.mark.parametrize("case", _MISFITS)
def test_inputs_that_do_not_fit_together_exit_with_one_line(labeled, tmp_path, case):
    """Inputs each valid alone but not together, or a run they make fail,
    end in one `bundlesup <cmd>: <message>` line, not a traceback, and
    write no output file."""
    argv, message = _MISFITS[case]
    argv = argv(labeled, tmp_path, tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert re.fullmatch(f"bundlesup {argv[0]}: {message}", exc.value.code)
    assert not (tmp_path / "o").exists()


def test_a_diverging_step_prints_its_message_and_no_warning(labeled, tmp_path):
    """`train` at a step that diverges, run with warnings as errors, writes
    exactly its one message line to stderr: no NumPy warning comes first."""
    argv = [str(a) for a in _train(labeled, labeled / "labeled.jsonl", tmp_path / "o", "--eta", 1e6)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import sys; from bundlesup.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(r"bundlesup train: non-finite loss at epoch \d+ with eta=1e\+06\n", done.stderr)
    assert not (tmp_path / "o").exists()
