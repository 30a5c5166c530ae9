"""tools/bench_pairs.py with its runs stubbed: where the base export goes,
and that a temporary one is gone when the call ends, on error too."""

import importlib.util
import json
import os
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    """The tool's module, with git and the benchmark runs stubbed and the
    temporary directory moved under `tmp_path / "tmp"`. `exports` lists the
    directory of each export."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.exports = []

    def export(commit, scratch):
        path = os.path.join(scratch, f"base-{commit[:12]}")
        os.makedirs(path, exist_ok=True)
        Path(path, "marker").write_text("exported")
        module.exports.append(path)
        return path

    def run_once(checkout, workload, seed):
        return {"correct": True, "failed": 0, "metrics": {m: {"value": 1.0} for m in module.METRICS}}

    revisions = {"base": {"commit": "a" * 40, "src_tree": "b" * 40},
                 "change": {"head": "c" * 40, "dirty": False, "src_tree": "d" * 40}}
    monkeypatch.setattr(module, "revisions", lambda base: revisions)
    monkeypatch.setattr(module, "export", export)
    monkeypatch.setattr(module, "run_once", run_once)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return module


def _argv(tmp_path, *extra):
    return ["--base", "HEAD", "--workload", "descent", "--pairs", "2", "--seed", "1",
            "--out", str(tmp_path / "out.json"), *extra]


def test_a_temporary_export_is_removed_when_the_call_ends(bench_pairs, tmp_path):
    assert bench_pairs.main(_argv(tmp_path)) == 0
    assert len(bench_pairs.exports) == 1
    assert os.listdir(tmp_path / "tmp") == []
    record = json.loads((tmp_path / "out.json").read_text())
    assert len(record["runs"]) == 4 and record["summary"]["descent"]["pairs"] == 2


def test_a_temporary_export_is_removed_when_a_run_fails(bench_pairs, tmp_path, monkeypatch):
    def failing(checkout, workload, seed):
        assert os.path.isfile(os.path.join(checkout, "marker"))
        raise RuntimeError("the run failed")

    monkeypatch.setattr(bench_pairs, "run_once", failing)
    with pytest.raises(RuntimeError, match="the run failed"):
        bench_pairs.main(_argv(tmp_path))
    assert len(bench_pairs.exports) == 1
    assert os.listdir(tmp_path / "tmp") == []
    assert not (tmp_path / "out.json").exists()


def test_an_export_into_a_given_scratch_directory_is_kept(bench_pairs, tmp_path):
    scratch = tmp_path / "scratch"
    assert bench_pairs.main(_argv(tmp_path, "--scratch", str(scratch))) == 0
    assert bench_pairs.exports == [str(scratch / f"base-{'a' * 12}")]
    assert (scratch / f"base-{'a' * 12}" / "marker").is_file()
    assert os.listdir(tmp_path / "tmp") == []
