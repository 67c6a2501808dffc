"""The experiment engine: one execution path for every spec.

Every consumer of the registry funnels through :func:`execute`: look
the spec up, run its workload over its machine/config matrix,
JSON-round-trip the measured numbers, evaluate the spec's claims over
them, and return an :class:`ExperimentResult`.  :func:`observe` is the
one way to run it watched: ``repro run``'s derive, ``repro trace``,
``check`` and ``diff --variant`` and the registry comparison all open
the observer scope through it.  The round-trip is deliberate:
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import specs
from repro.analysis.cache import ResultCache, spec_fingerprint
from repro.analysis.spec import (
    ExperimentResult,
    ExperimentSpec,
    evaluate_claims,
)
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
) -> ExperimentResult:
    """Run one spec's workload and check its claims.

    No caching and no observers of its own: this is the pure path
    :func:`observe` wraps.
    """
    measurement = spec.workload(spec, **(params or {}))
    # Round-trip through JSON so cached and fresh results are equal as
    # values (and so a claim can never depend on a type that would not
    # survive the cache).
    measured = json.loads(json.dumps(json_safe(measurement.measured)))
    shape_holds, claims = evaluate_claims(spec, measured)
    return ExperimentResult(
        experiment=spec.id,
        title=spec.title,
        measured=measured,
        claims=json.loads(json.dumps(json_safe(claims))),
        shape_holds=shape_holds,
        report="\n".join(measurement.lines),
        notes=spec.notes,
    )


#: The recorder ``repro run`` derives under: tracing with monitor
#: republication off (counter totals come from the monitor snapshots
#: instead, without paying an event per counted miss), sampling on the
#: coarse derive grid.
DERIVE_OPTIONS: Dict[str, Any] = {
    "trace": True,
    "profile": True,
    "sample_every_us": analytics.DERIVE_SAMPLE_US,
    "trace_config": obs.TraceConfig(monitor_events=frozenset()),
}


def observe(
    spec: ExperimentSpec,
    params: Optional[Dict[str, object]] = None,
    **options: Any,
) -> Tuple[ExperimentResult, List[obs.Observability]]:
    """Execute ``spec`` with every simulator it boots watched.

    ``options`` are :func:`repro.obs.enable_global_observability`'s
    (profile-only by default; a ``sweep_every`` cadence adds the
    sanitizer).  Returns the result and one :class:`Observability` per
    simulator, in boot order.  Each sanitizer ends with a stable full
    sweep.  Observers are zero-perturbation: the result is the one
    :func:`execute` returns.
    """
    obs.enable_global_observability(**options)
    try:
        result = execute(spec, params)
        handles = obs.drain_global_observed()
    finally:
        obs.disable_global_observability()
    for handle in handles:
        if handle.sanitizer is not None:
            handle.sanitizer.sweep(stable=True)
    return result, handles


# ---------------------------------------------------------------------------
# Cached execution
# ---------------------------------------------------------------------------


def run_cached(
    spec: ExperimentSpec,
    params: Optional[Dict[str, object]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    rerun: bool = False,
) -> Tuple[ExperimentResult, bool]:
    """Execute one spec through the cache.

    Returns ``(result, cache_hit)``.  ``use_cache=False``
    disables the cache entirely (no read, no write); ``rerun=True``
    forces execution but still refreshes the stored entry.  Results
    carry the observatory's ``derived`` block, so every cached entry
    and every BENCH record has one.
    """
    fingerprint = ""
    if use_cache:
        cache = cache if cache is not None else ResultCache()
        fingerprint = spec_fingerprint(spec, params)
        if not rerun:
            cached = cache.load(spec.id, fingerprint)
            if cached is not None:
                return cached, True
    result, handles = observe(spec, params, **DERIVE_OPTIONS)
    # The same round-trip the measured dict gets: a derived block loaded
    # from the cache must be the same value as a fresh one.
    result.derived = json.loads(
        json.dumps(json_safe(analytics.derive(handles)))
    )
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

    Every record the CLI prints or writes comes from here: ``repro run
    --json``, ``--bench-out`` and ``repro profile`` render what
    :func:`run_ids` returns.  A thin wrapper over the one record builder
    (:func:`repro.obs.metrics.experiment_record`), which lifts total
    cycles / machines / attribution from the ``derived`` block the
    engine always attaches — so cold-cache and warm-cache runs emit
    byte-identical records.
    """
    from repro.obs.metrics import experiment_record

    return experiment_record(
        result, spec=specs.SPECS[result.experiment]
    )
