"""The committed benchmark records `BENCH_*.json` (written by
tools/bench_pairs.py): each one's schema, its pairing, and its summary
recomputed from its runs."""

import json
import re
import statistics
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("op_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("descent", "large", "llm")
# per committed record, the pairs each workload must hold
MIN_PAIRS = {"BENCH_24.json": {"large": 10, "descent": 5, "llm": 3},
             "BENCH_25.json": {"large": 10, "descent": 10, "llm": 10}}
SHA = re.compile(r"[0-9a-f]{40}")


@pytest.fixture(scope="module")
def records():
    """Every committed record by file name; each one has its entry in MIN_PAIRS."""
    names = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert names == sorted(MIN_PAIRS)
    out = {}
    for name in names:
        with open(ROOT / name, encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def by_pair(record, workload) -> dict:
    pairs = {}
    for run in record["runs"]:
        if run["workload"] == workload:
            pairs.setdefault(run["pair"], []).append(run)
    return pairs


def test_the_record_names_both_trees_and_the_environment(records):
    for record in records.values():
        assert SHA.fullmatch(record["base"]["commit"]) and SHA.fullmatch(record["base"]["src_tree"])
        assert SHA.fullmatch(record["change"]["head"]) and SHA.fullmatch(record["change"]["src_tree"])
        assert isinstance(record["change"]["dirty"], bool)
        assert record["base"]["src_tree"] != record["change"]["src_tree"]
        env = record["environment"]
        for key in ("python", "numpy", "scipy"):
            assert re.fullmatch(r"\d+\.\d+(\.\d+)?\S*", env[key])
        assert type(env["nproc"]) is int and env["nproc"] >= 1
        assert record["command"] == "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"


def test_every_run_is_a_result_line(records):
    for record in records.values():
        assert {run["workload"] for run in record["runs"]} == set(WORKLOADS)
        for run in record["runs"]:
            assert run["side"] in ("base", "change") and run["order"] in (0, 1)
            result = run["result"]
            assert type(result["correct"]) is bool and type(result["attempted"]) is int
            assert type(result["failed"]) is int
            for metric in METRICS:
                assert result["metrics"][metric]["value"] > 0
            assert [result["metrics"][m]["unit"] for m in METRICS] == ["s", "s", "MB"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pairs_alternate_on_one_seed(records, workload):
    """Each pair runs both trees on one seed, the base first in odd pairs."""
    for name, record in records.items():
        pairs = by_pair(record, workload)
        assert sorted(pairs) == list(range(1, len(pairs) + 1))
        assert len(pairs) >= MIN_PAIRS[name][workload], name
        for pair, runs in pairs.items():
            assert sorted(r["side"] for r in runs) == ["base", "change"]
            assert len({r["seed"] for r in runs}) == 1
            first = next(r["side"] for r in runs if r["order"] == 0)
            assert first == ("base" if pair % 2 else "change")
        assert len({runs[0]["seed"] for runs in pairs.values()}) == len(pairs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_summary_is_recomputed_from_the_runs(records, workload):
    for record in records.values():
        summary = record["summary"][workload]
        pairs = [{r["side"]: r["result"] for r in runs} for _, runs in sorted(by_pair(record, workload).items())]
        assert summary["pairs"] == len(pairs)
        assert summary["all_correct"] == all(p[s]["correct"] for p in pairs for s in p)
        assert summary["failed"] == sum(p[s]["failed"] for p in pairs for s in p)
        for metric in METRICS:
            base = np.array([p["base"]["metrics"][metric]["value"] for p in pairs])
            change = np.array([p["change"]["metrics"][metric]["value"] for p in pairs])
            got = summary[metric]
            assert got["base_median"] == statistics.median(base.tolist())
            assert got["change_median"] == statistics.median(change.tolist())
            np.testing.assert_allclose(got["base_quartiles"], np.percentile(base, [25, 75]), rtol=1e-12)
            np.testing.assert_allclose(got["change_quartiles"], np.percentile(change, [25, 75]), rtol=1e-12)
            assert got["median_ratio"] == pytest.approx(float(np.median(change / base)), rel=1e-12)
            assert got["change_won"] == int((change < base).sum())
            assert got["base_won"] == int((base < change).sum())
