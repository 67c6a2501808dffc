"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.spans import LAYERS, LayerSpans, entry_points
from perfbench.workloads import (
    SERVICE_REQUESTS,
    WORKLOADS,
    fixed_span_schedule,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.serialize(workload.generate(5))
    assert workload.serialize(workload.generate(5)) == first
    assert workload.serialize(workload.generate(6)) != first


def test_fixed_span_schedule_offers_exactly_the_nominal_rate():
    schedules = fixed_span_schedule(3, SERVICE_REQUESTS, 1000.0, 4)
    deadlines = sorted(d for schedule in schedules for d in schedule)
    assert len(deadlines) == SERVICE_REQUESTS
    assert [len(s) for s in schedules] == [SERVICE_REQUESTS // 4] * 4
    assert abs(deadlines[-1] - SERVICE_REQUESTS * 1000.0) <= 1


def _owners():
    return {id(owner): owner for _layer, owner, _name, _fn in entry_points()}


def test_span_wrappers_leave_every_patched_owner_as_it_was():
    before = {key: dict(vars(owner)) for key, owner in _owners().items()}
    with LayerSpans():
        patched = {key: dict(vars(owner)) for key, owner in _owners().items()}
    after = {key: dict(vars(owner)) for key, owner in _owners().items()}
    assert patched != before
    for key, attributes in before.items():
        assert after[key].keys() == attributes.keys()
        for name, value in attributes.items():
            assert after[key][name] is value, name


def test_span_wrappers_are_removed_when_the_traced_run_raises():
    before = {key: dict(vars(owner)) for key, owner in _owners().items()}
    with pytest.raises(RuntimeError):
        with LayerSpans():
            raise RuntimeError("traced pass failed")
    after = {key: dict(vars(owner)) for key, owner in _owners().items()}
    assert after == before


def test_every_layer_has_entry_points_and_a_workload_that_stresses_it():
    wrapped = {layer for layer, _owner, _name, _fn in entry_points()}
    assert wrapped == set(LAYERS)
    stressed = {layer for w in WORKLOADS.values() for layer in w.stressed}
    assert stressed == set(LAYERS)


def test_declared_metric_names_are_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _result(argv, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_emits_exactly_the_declared_metrics(trace, key, monkeypatch):
    result = _result(["--workload", "kbuild", "--seed", "1", "--seconds",
                      "1", "--trace", str(trace)], monkeypatch)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kbuild",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
