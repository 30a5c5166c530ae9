import json

import pytest

from bundlesup.cli import main


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
    assert (rundir / "report.jsonl").exists()
    assert (rundir / "bundles_refined.jsonl").exists()

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
    assert len(lines) == 1 + 4  # header + 2 values x 2 seeds


def test_verify_theorem1_cli(capsys):
    assert run(["verify", "--theorem", 1, "--trials", 400, "--seed", 0]) == 0
    assert "pass" in capsys.readouterr().out.lower()


def test_verify_theorem2_cli(capsys):
    assert run(["verify", "--theorem", 2, "--points", 2, "--seed", 0]) == 0
    out = capsys.readouterr().out
    assert "derived" in out and "discounted" in out


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
