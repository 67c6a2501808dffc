"""The experiment engine: one execution path for every spec.

Every consumer of the registry — the CLI, the benchmark suite,
``repro check``, the obs session — funnels through :func:`execute`:
look the spec up, run its workload over its machine/config matrix,
JSON-round-trip the measured numbers, apply the shape predicate, and
return an :class:`ExperimentResult`.  The round-trip is deliberate:
a freshly-computed result and one loaded from the on-disk cache are
the *same value*, so callers never need to care which they got.

:func:`run_ids` adds the scheduling: a multiprocessing fan-out
(``--jobs N``) whose workers are deterministic (the experiments seed
their own RNGs; no wall-clock feeds the measured numbers) and whose
results merge back in the caller's id order — so parallel output, and
the bench doc built from it, is byte-identical to serial output.  The
engine reads no clock: host time is ``perfbench/``'s to measure.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import specs
from repro.analysis.cache import ResultCache, spec_fingerprint
from repro.analysis.spec import ExperimentResult, ExperimentSpec
from repro.obs import analytics
from repro.obs.metrics import json_safe


def spec_for(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id (case-insensitive); KeyError if unknown."""
    key = experiment_id.upper()
    if key not in specs.SPECS:
        raise KeyError(experiment_id)
    return specs.SPECS[key]


def execute(
    spec: ExperimentSpec,
    params: Optional[Dict[str, object]] = None,
    derive: bool = False,
) -> ExperimentResult:
    """Run one spec's workload and shape-check the measured numbers.

    No caching: this is the pure path the sanitizer runner and the obs
    session wrap with their own hooks.  ``derive=True`` runs the
    workload under the flight recorder and attaches the observatory's
    ``derived`` block to the result; it is a no-op when a global
    recorder is already active (the outer caller owns the handles then,
    e.g. ``repro trace`` or ``repro profile``).  Deriving never
    changes the measured numbers — the recorder is zero-perturbation.
    """
    if derive and not obs.global_obs_active():
        return _execute_derived(spec, params)
    measurement = spec.workload(spec, **(params or {}))
    # Round-trip through JSON so cached and fresh results are equal as
    # values (and so a shape predicate can never depend on a type that
    # would not survive the cache).
    measured = json.loads(json.dumps(json_safe(measurement.measured)))
    paper = json.loads(json.dumps(json_safe(specs.paper_for(spec))))
    return ExperimentResult(
        experiment=spec.id,
        title=spec.title,
        measured=measured,
        paper=paper,
        shape_holds=bool(spec.shape(measured)),
        report="\n".join(measurement.lines),
        notes=spec.notes,
    )


def _execute_derived(
    spec: ExperimentSpec, params: Optional[Dict[str, object]]
) -> ExperimentResult:
    """Execute under the flight recorder and attach the derived block.

    Tracing is on with monitor republication off (counter totals are
    derived from the monitor snapshots instead, without paying an event
    per counted miss), sampling on the coarse derive grid.
    """
    obs.enable_global_observability(
        trace=True,
        profile=True,
        sample_every_us=analytics.DERIVE_SAMPLE_US,
        trace_config=obs.TraceConfig(monitor_events=frozenset()),
    )
    try:
        result = execute(spec, params)
        observed = obs.drain_global_observed()
    finally:
        obs.disable_global_observability()
    # The same round-trip the measured dict gets: a derived block loaded
    # from the cache must be the same value as a fresh one.
    result.derived = json.loads(
        json.dumps(json_safe(analytics.derive(observed)))
    )
    return result


# ---------------------------------------------------------------------------
# Cached execution
# ---------------------------------------------------------------------------


def run_cached(
    spec: ExperimentSpec,
    params: Optional[Dict[str, object]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    rerun: bool = False,
    derive: bool = True,
) -> Tuple[ExperimentResult, bool]:
    """Execute one spec through the cache.

    Returns ``(result, cache_hit)``.  ``use_cache=False``
    disables the cache entirely (no read, no write); ``rerun=True``
    forces execution but still refreshes the stored entry.  Results
    carry the observatory's ``derived`` block by default, so every
    cached entry and every BENCH record has one.
    """
    fingerprint = ""
    if use_cache:
        cache = cache if cache is not None else ResultCache()
        fingerprint = spec_fingerprint(spec, params)
        if not rerun:
            cached = cache.load(spec.id, fingerprint)
            if cached is not None:
                return cached, True
    result = execute(spec, params, derive=derive)
    if use_cache and cache is not None:
        cache.store(spec.id, fingerprint, result)
    return result, False


# ---------------------------------------------------------------------------
# The fan-out runner
# ---------------------------------------------------------------------------


@dataclass
class EngineRun:
    """Outcome of one :func:`run_ids` invocation."""

    #: Results in the caller's id order (parallel or not).
    results: List[ExperimentResult] = field(default_factory=list)
    #: Whether each experiment came from the cache.
    cache_hits: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(result.shape_holds for result in self.results)

    def failed_ids(self) -> List[str]:
        return [r.experiment for r in self.results if not r.shape_holds]


def _run_one_job(job: Tuple[str, bool, bool]) -> Tuple[str, ExperimentResult, bool]:
    """Worker body: must be module-level so the pool can pickle it."""
    experiment_id, use_cache, rerun = job
    spec = specs.SPECS[experiment_id]
    result, hit = run_cached(spec, use_cache=use_cache, rerun=rerun)
    return experiment_id, result, hit


def run_ids(
    ids: Sequence[str],
    jobs: int = 1,
    use_cache: bool = True,
    rerun: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
) -> EngineRun:
    """Run experiments, optionally fanned out across processes.

    ``ids`` must be upper-case registry keys; results come back in the
    same order regardless of ``jobs``, so serial and parallel runs
    print identically.  ``progress(experiment_id, cache_hit)`` fires as
    each experiment completes (completion order under parallelism).
    """
    for key in ids:
        if key not in specs.SPECS:
            raise KeyError(key)
    run = EngineRun()
    jobs = max(1, min(jobs, len(ids))) if ids else 1
    if jobs == 1:
        outcomes = map(
            _run_one_job, [(key, use_cache, rerun) for key in ids]
        )
        by_id: Dict[str, ExperimentResult] = {}
        for key, result, hit in outcomes:
            by_id[key] = result
            run.cache_hits[key] = hit
            if progress is not None:
                progress(key, hit)
    else:
        context = multiprocessing.get_context()
        by_id = {}
        with context.Pool(processes=jobs) as pool:
            for key, result, hit in pool.imap_unordered(
                _run_one_job, [(key, use_cache, rerun) for key in ids]
            ):
                by_id[key] = result
                run.cache_hits[key] = hit
                if progress is not None:
                    progress(key, hit)
    run.results = [by_id[key] for key in ids]
    return run


# ---------------------------------------------------------------------------
# Bench records
# ---------------------------------------------------------------------------


def result_record(result: ExperimentResult) -> Dict[str, object]:
    """A deterministic bench record built from the result alone.

    A thin wrapper over the one record builder
    (:func:`repro.obs.metrics.experiment_record`), which lifts total
    cycles / machines / attribution from the ``derived`` block the
    engine always attaches — so cold-cache and warm-cache runs emit
    byte-identical records.
    """
    from repro.obs.metrics import experiment_record

    return experiment_record(
        result, spec=specs.SPECS[result.experiment]
    )
