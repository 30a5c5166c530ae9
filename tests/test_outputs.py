"""The committed record of outputs, OUTPUTS.json (written by
tools/outputs.py): its schema, and seven of its standard runs, every mode
at seed 0 and noise 0.3, rerun against it."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from bundlesup.pipeline import MODES, ReplicateResult
from bundlesup.theorems import Theorem3Report

ROOT = Path(__file__).resolve().parents[1]
# where the NumPy or SciPy version differs from the file's, a float field may
# move by rounding: it is compared within this relative size, every other
# field exactly
CROSS_VERSION_RTOL = 1e-6


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorded():
    import json

    with open(ROOT / "OUTPUTS.json", encoding="utf-8") as fh:
        return json.load(fh)


def _fields_are_encoded(values: dict, cls) -> None:
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    assert sorted(values) == sorted(types)
    for key, value in values.items():
        if types[key] == "float":
            assert float.fromhex(value).hex() == value
        else:
            assert type(value) is {"int": int, "bool": bool}[types[key]]


def test_the_file_holds_every_standard_and_descent_run(outputs, recorded):
    assert sorted(recorded["environment"]) == ["nproc", "numpy", "python", "scipy"]
    runs = [(r["mode"], r["noise_rate"], r["seed"]) for r in recorded["replicates"]]
    assert sorted(runs) == sorted((m, noise, s) for m in MODES for noise in (0.0, 0.3) for s in range(10))
    for record in recorded["replicates"]:
        _fields_are_encoded(record["result"], ReplicateResult)
        assert record["result"]["seed"] == record["seed"]
    descents = [(r["seed"], r["refinement"]) for r in recorded["descent"]]
    assert sorted(descents) == [(s, r) for s in outputs.DESCENT_SEEDS for r in (False, True)]
    for record in recorded["descent"]:
        _fields_are_encoded(record["report"], Theorem3Report)


def test_every_mode_reproduces_its_recorded_run(outputs, recorded):
    """Bitwise where NumPy and SciPy are the file's versions; otherwise the
    integer and boolean fields exactly and the floats within
    CROSS_VERSION_RTOL."""
    here, there = outputs.environment(), recorded["environment"]
    bitwise = (here["numpy"], here["scipy"]) == (there["numpy"], there["scipy"])
    print(f"comparing bitwise (NumPy {here['numpy']}, SciPy {here['scipy']})" if bitwise else
          f"comparing floats within {CROSS_VERSION_RTOL:g} relative: NumPy {here['numpy']} and SciPy "
          f"{here['scipy']} here, {there['numpy']} and {there['scipy']} in the file")
    records = [r for r in recorded["replicates"] if r["seed"] == 0 and r["noise_rate"] == 0.3]
    assert sorted(r["mode"] for r in records) == sorted(MODES)
    for record in records:
        moved = outputs.moved(record["result"], outputs.rerun(record)["result"])
        if bitwise:
            assert moved == [], outputs.label(record)
        for key, want, got, size in moved:
            assert type(want) is float and size <= CROSS_VERSION_RTOL, (outputs.label(record), key, want, got)
