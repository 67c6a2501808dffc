"""Engine tests: determinism, fan-out equivalence, and the cache.

The core contracts under test:

* parallel ``run_ids`` (``jobs > 1``) produces results equal to the
  serial path, merged in the caller's id order;
* a cache hit returns an :class:`ExperimentResult` *equal* to the one
  a fresh execution produced (the engine's JSON round-trip guarantees
  cached and fresh results are the same value);
* the fingerprint moves when anything that could change the numbers
  moves (params, variants, code version);
* the ``--bench-out`` doc holds no host time, so it is byte-identical
  across ``--jobs`` levels.

These run the fastest specs only (E1/E12/E15) — the heavyweight
paper-scale runs live in ``benchmarks/``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import __main__ as cli
from repro import obs
from repro.analysis import cache as cache_mod
from repro.analysis import engine, specs
from repro.analysis.cache import ResultCache, spec_fingerprint
from repro.kernel.config import KernelConfig
from repro.obs import metrics
from repro.params import M604_185
from repro.sim.simulator import boot

FAST_IDS = ["E1", "E12", "E15"]


class TestExecute:
    def test_result_fields(self):
        spec = engine.spec_for("e1")
        result = engine.execute(spec)
        assert result.experiment == "E1"
        assert result.title == spec.title
        assert result.shape_holds
        assert result.report

    def test_execute_is_deterministic(self):
        spec = engine.spec_for("E15")
        first = engine.execute(spec)
        second = engine.execute(spec)
        assert first == second

    def test_measured_is_json_plain(self):
        # The round-trip must leave only JSON-native types, so shape
        # predicates can never depend on something the cache would lose.
        result = engine.execute(engine.spec_for("E1"))

        def _check(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert isinstance(key, str)
                    _check(item)
            elif isinstance(value, list):
                for item in value:
                    _check(item)
            else:
                assert value is None or isinstance(
                    value, (bool, int, float, str)
                )

        _check(result.measured)
        _check(result.paper)

    def test_spec_for_unknown_id_raises(self):
        with pytest.raises(KeyError):
            engine.spec_for("E99")


class TestRunIds:
    def test_parallel_equals_serial(self):
        serial = engine.run_ids(FAST_IDS, jobs=1, use_cache=False)
        parallel = engine.run_ids(FAST_IDS, jobs=2, use_cache=False)
        assert serial.results == parallel.results
        assert [r.experiment for r in parallel.results] == FAST_IDS
        assert serial.ok and parallel.ok

    def test_caller_order_preserved(self):
        reversed_ids = list(reversed(FAST_IDS))
        run = engine.run_ids(reversed_ids, jobs=2, use_cache=False)
        assert [r.experiment for r in run.results] == reversed_ids

    def test_bench_out_byte_identical_across_jobs(self, tmp_path, capsys):
        docs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert cli.main(["run", *FAST_IDS, "--jobs", jobs, "--no-cache",
                             "--bench-out", str(out)]) == 0
            docs.append(out.read_bytes())
        capsys.readouterr()
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        assert metrics.validate_bench_doc(doc)["experiments"] == 3
        assert "timings" not in doc

    def test_unknown_id_raises_before_running(self):
        with pytest.raises(KeyError):
            engine.run_ids(["E1", "E99"])

    def test_progress_fires_per_experiment(self):
        seen = []
        engine.run_ids(
            ["E1"], use_cache=False, progress=lambda key, hit: seen.append((key, hit))
        )
        assert seen == [("E1", False)]

    def test_failed_ids_empty_on_clean_run(self):
        run = engine.run_ids(["E1"], use_cache=False)
        assert run.failed_ids() == []
        assert run.cache_hits == {"E1": False}


class TestCache:
    def test_cold_then_warm_returns_equal_result(self):
        spec = engine.spec_for("E1")
        cold, cold_hit = engine.run_cached(spec)
        warm, warm_hit = engine.run_cached(spec)
        assert not cold_hit and warm_hit
        assert warm == cold  # dataclass equality, field for field

    def test_cache_dir_respects_env(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(target))
        engine.run_cached(engine.spec_for("E1"))
        entries = list(target.glob("E1-*.json"))
        assert len(entries) == 1

    def test_no_cache_writes_nothing(self):
        engine.run_cached(engine.spec_for("E1"), use_cache=False)
        assert list(cache_mod.cache_dir().glob("*.json")) == []

    def test_rerun_executes_but_refreshes_entry(self):
        spec = engine.spec_for("E1")
        engine.run_cached(spec)
        result, hit = engine.run_cached(spec, rerun=True)
        assert not hit
        # The refreshed entry is immediately hittable again.
        _again, hit = engine.run_cached(spec)
        assert hit

    def test_corrupt_entry_is_a_miss(self):
        spec = engine.spec_for("E1")
        engine.run_cached(spec)
        (entry,) = cache_mod.cache_dir().glob("E1-*.json")
        entry.write_text("not json {")
        result, hit = engine.run_cached(spec)
        assert not hit
        assert result.shape_holds

    def test_store_load_roundtrip(self):
        spec = engine.spec_for("E12")
        result = engine.execute(spec)
        store = ResultCache()
        fingerprint = spec_fingerprint(spec)
        store.store(spec.id, fingerprint, result)
        assert store.load(spec.id, fingerprint) == result
        assert store.load(spec.id, "0" * 16) is None


class TestDerive:
    def test_derive_does_not_perturb_measured(self):
        spec = engine.spec_for("E1")
        bare = engine.execute(spec)
        derived = engine.execute(spec, derive=True)
        assert derived.measured == bare.measured
        assert derived.shape_holds == bare.shape_holds
        assert bare.derived == {}
        assert derived.derived

    def test_derived_block_sections(self):
        result = engine.execute(engine.spec_for("E1"), derive=True)
        block = result.derived
        assert block["total_cycles"] > 0
        assert "attribution" in block
        assert "counters" in block
        assert "histograms" in block
        # The derive wrapper traces, so span sections are present too.
        assert "events" in block
        # The block must already be JSON-round-tripped (cache-identical).
        assert block == json.loads(json.dumps(block))

    def test_derived_identical_cached_vs_fresh(self):
        spec = engine.spec_for("E1")
        cold, cold_hit = engine.run_cached(spec)
        warm, warm_hit = engine.run_cached(spec)
        assert not cold_hit and warm_hit
        assert cold.derived
        assert warm.derived == cold.derived

    def test_derive_defers_to_active_global_observability(self):
        obs.enable_global_observability(profile=True)
        try:
            result = engine.execute(engine.spec_for("E1"), derive=True)
            observed = obs.drain_global_observed()
        finally:
            obs.disable_global_observability()
        # The outer caller owns the handles; derive must not steal them.
        assert result.derived == {}
        assert observed


class TestFingerprint:
    def test_stable_across_calls(self):
        spec = engine.spec_for("E1")
        assert spec_fingerprint(spec) == spec_fingerprint(spec)

    def test_params_change_fingerprint(self):
        spec = engine.spec_for("E1")
        assert spec_fingerprint(spec) != spec_fingerprint(
            spec, {"ea": 0xC0000ABC}
        )

    def test_config_change_fingerprint(self):
        spec = engine.spec_for("E1")
        variant = spec.variants[0]
        changed = dataclasses.replace(
            spec,
            variants=(
                dataclasses.replace(
                    variant,
                    config=variant.config.with_changes(
                        idle_zombie_reclaim=not variant.config.idle_zombie_reclaim
                    ),
                ),
            )
            + spec.variants[1:],
        )
        assert spec_fingerprint(spec) != spec_fingerprint(changed)

    def test_seed_change_fingerprint(self):
        spec = engine.spec_for("E16")
        assert spec_fingerprint(spec) != spec_fingerprint(
            dataclasses.replace(spec, seed=spec.seed + 1)
        )


class TestResultRecord:
    def test_record_is_derivable_from_cached_result(self):
        spec = engine.spec_for("E1")
        fresh = engine.execute(spec, derive=True)
        engine.run_cached(spec)  # populate
        cached, hit = engine.run_cached(spec)
        assert hit
        assert engine.result_record(fresh) == engine.result_record(cached)
        record = engine.result_record(fresh)
        assert record["id"] == "E1"
        assert record["machines"] == [
            variant.machine.name for variant in spec.variants
        ]
        assert record["shape_holds"] is True


class TestBootForwarding:
    def test_boot_forwards_observability_kwargs(self):
        sim = boot(M604_185, KernelConfig.optimized(), profile=True)
        assert sim.obs is not None
        assert sim.obs.profiler is not None

    def test_boot_forwards_sanitize(self):
        sim = boot(M604_185, KernelConfig.optimized(), sanitize=True)
        assert sim.sanitizer is not None

    def test_boot_defaults_stay_bare(self):
        sim = boot(M604_185, KernelConfig.optimized())
        assert sim.obs is None
        assert sim.sanitizer is None
