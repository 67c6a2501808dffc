"""Shared fixtures for the test suite.

Most tests run against small, fast configurations; the heavyweight
paper-scale runs are ``python -m repro run --all``, whose committed
output is ``benchmarks/reports.txt``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.kernel.config import KernelConfig

# Deterministic property tests: the simulator is deterministic, so
# derandomized hypothesis keeps CI stable without losing coverage.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
from repro.params import M603_180, M604_185
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the engine's result cache at a per-test directory.

    Without this, any test that reaches ``engine.run_cached`` (directly
    or through the CLI) would populate ``.repro-cache/`` in the repo —
    and could *read* stale entries another test wrote.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def sim604() -> Simulator:
    """A booted optimized 604 system."""
    return Simulator(M604_185, KernelConfig.optimized())


@pytest.fixture
def sim604_unopt() -> Simulator:
    """A booted unoptimized 604 system."""
    return Simulator(M604_185, KernelConfig.unoptimized())


@pytest.fixture
def sim603() -> Simulator:
    """A booted optimized (no-htab) 603 system."""
    return Simulator(M603_180, KernelConfig.optimized())


@pytest.fixture
def sim603_htab() -> Simulator:
    """A 603 running the hash-table-emulation handlers."""
    return Simulator(
        M603_180, KernelConfig.optimized().with_changes(use_htab_on_603=True)
    )


@pytest.fixture
def task604(sim604):
    """A spawned, running task on the optimized 604."""
    task = sim604.kernel.spawn("t", text_pages=8, data_pages=16)
    sim604.kernel.switch_to(task)
    return task
