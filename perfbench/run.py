"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kbuild --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time in fresh interpreters, then repeated passes over the same
generated inputs for ``--seconds``.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics.  Every pass boots a
fresh simulator, so the modelled caches and TLBs start empty each time.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units are
those of ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Set-up samples per run (after one discarded warm-up, which may
#: compile bytecode); the reported ``setup_s`` is their median.
SETUP_SAMPLES = 11
#: Untraced passes per ``--trace 0`` run, at least; more run while the
#: ``--seconds`` budget lasts.  ``wall_s`` is their median.
MIN_PASSES = 4
PROBE_TIMEOUT_S = 60
#: Median seconds of the calibration loop on the reference host (2 vCPUs
#: of a shared x86-64 machine, Python 3.11) when it is quiet.  Host
#: times are reported at this speed: see ``calibration_loop``.
CALIBRATION_REFERENCE_S = 0.056

#: Metrics measured on the host; every other metric is read off the
#: simulated machine.
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb", "trace_overhead")
HOST_SUFFIXES = (".calls", ".self_s", ".share")


def metric_kind(name: str) -> str:
    if name in HOST_METRICS or name.endswith(HOST_SUFFIXES):
        return "host"
    return "simulated"


def load_repro():
    """Import the simulator from this checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def host_fingerprint(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": numpy,
        "seed": seed,
    }


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now.

    The benchmark shares its host with other work, which slows every
    pass by up to twice for tens of seconds at a time.  The loop does
    the dict and integer work the simulator's inner loops do, and it
    slows with them (correlation 0.85 to 0.89 over 30 passes of
    ``kbuild``).
    Each host time is measured between two calibrations and scaled by
    ``CALIBRATION_REFERENCE_S`` over their mean, which cancels most of
    that drift; the raw seconds are printed beside the result.
    """
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for index in range(400_000):
        table[index & 1023] = index
        total += table.get(index * 7 & 1023, 0)
    return time.perf_counter() - start


class Normalizer:
    """Scales host seconds to the reference host's speed."""

    def __init__(self) -> None:
        self.calibrations = [calibration_loop()]
        self.raw: list = []
        self.scaled: list = []

    def add(self, seconds: float) -> None:
        """Record a time measured since the previous calibration."""
        self.calibrations.append(calibration_loop())
        speed = statistics.fmean(self.calibrations[-2:])
        self.raw.append(seconds)
        self.scaled.append(seconds * CALIBRATION_REFERENCE_S / speed)


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def run_pass(workload, inputs, expected_ops, tally, expected_digest=None):
    """Boot, run (timed) and check one pass; returns (wall, outcome).

    An exception or a digest other than ``expected_digest`` fails every
    operation of the pass; ``outcome`` is then None for an exception.
    """
    try:
        state = workload.boot(inputs)
        gc.collect()
        start = time.perf_counter()
        workload.execute(state)
        wall = time.perf_counter() - start
        outcome = workload.outcome(state)
    except Exception:  # a broken pass is reported, not fatal
        tally.add(expected_ops, expected_ops,
                  ["pass raised:\n" + traceback.format_exc()])
        return None, None
    problems = list(outcome.problems)
    failed = outcome.failed
    if expected_digest is not None and outcome.digest != expected_digest:
        problems.append(f"simulated digest {outcome.digest} != "
                        f"expected {expected_digest}")
        failed = outcome.attempted
    tally.add(outcome.attempted, failed, problems)
    return wall, outcome


def measure_setup(name: str) -> Normalizer:
    """Set-up seconds from fresh interpreters (one warm-up discarded)."""
    setup = None
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(PROBE), name],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        if setup is None:
            setup = Normalizer()
        else:
            setup.add(float(done.stdout.strip().splitlines()[-1]))
    return setup


def end_to_end(workload, inputs, seconds, tally, expected_digest):
    """The ``--trace 0`` run: set-up probes, then timed passes."""
    from repro.obs.analytics import percentile_permille

    setup = measure_setup(workload.name)
    walls = Normalizer()
    outcomes = []
    ops = workload.operations(inputs)
    start = time.perf_counter()
    while (len(outcomes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        wall, outcome = run_pass(workload, inputs, ops, tally,
                                 expected_digest or
                                 (outcomes[0].digest if outcomes else None))
        if outcome is None:
            break
        walls.add(wall)
        outcomes.append(outcome)
    if not outcomes:
        return {}, []
    first = outcomes[0]
    latencies = sorted(first.latencies_us)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup.scaled),
        "wall_s": statistics.median(walls.scaled),
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": first.sim_cycles,
        "sim_p50_us": percentile_permille(latencies, 500),
        "sim_p99_us": percentile_permille(latencies, 990),
    }
    notes = [
        f"passes: {len(outcomes)}  wall_s: "
        + " ".join(f"{w:.3f}" for w in walls.scaled)
        + "  raw: " + " ".join(f"{w:.3f}" for w in walls.raw),
        "raw setup_s: " + " ".join(f"{s:.4f}" for s in setup.raw),
        "calibration loop s: "
        + " ".join(f"{c:.4f}" for c in walls.calibrations)
        + f" (reference {CALIBRATION_REFERENCE_S})",
        f"latency samples: {len(latencies)} {workload.operation}s per "
        f"pass; {len(latencies) - math.ceil(0.99 * len(latencies))} lie "
        f"beyond p99",
    ]
    return metrics, notes


def per_layer(workload, inputs, seconds, tally, expected_digest):
    """The ``--trace 1`` run: untraced/traced pass pairs."""
    from perfbench.spans import LAYERS, LayerSpans

    ops = workload.operations(inputs)
    untraced, traced, shares, self_times = [], [], [], []
    calls = counters = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, plain = run_pass(workload, inputs, ops, tally, expected_digest)
        if plain is None:
            break
        with LayerSpans() as spans:
            traced_wall, outcome = run_pass(workload, inputs, ops, tally,
                                            plain.digest)
        if outcome is None:
            break
        untraced.append(wall)
        traced.append(traced_wall)
        counters = plain.counters
        total = sum(spans.self_s.values())
        self_times.append(spans.self_s)
        shares.append({layer: spans.self_s[layer] / total
                       for layer in LAYERS})
        calls = spans.calls
    if calls is None:
        return {}, []
    idle = [layer for layer in workload.stressed if calls[layer] == 0]
    if idle:
        tally.add(0, ops, [f"stressed layers recorded no calls: {idle}"])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(
            sample[layer] for sample in self_times)
        metrics[f"{layer}.share"] = statistics.median(
            sample[layer] for sample in shares)
    metrics["trace_overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    metrics.update(counters)
    notes = [f"pairs: {len(traced)}  untraced wall_s: "
             + " ".join(f"{w:.3f}" for w in untraced)
             + "  traced wall_s: " + " ".join(f"{w:.3f}" for w in traced)]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_repro()
    except (OSError, ValueError, ImportError) as error:
        print(f"perfbench: cannot run in {ROOT}: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    committed = json.loads(DIGESTS.read_text())
    expected_digest = None
    if args.seed == committed["seed"]:
        expected_digest = committed["digests"][workload.name]

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint(args.seed), sort_keys=True))
    inputs = workload.generate(args.seed)
    print(f"inputs: generated from the seed before timing; every pass "
          f"boots a fresh simulator, so modelled caches and TLBs start "
          f"empty; digest check: "
          f"{'committed digest' if expected_digest else 'invariants only'}")

    tally = Tally()
    if args.trace:
        metrics, notes = per_layer(workload, inputs, args.seconds, tally,
                                   expected_digest)
        declared = spec["per_layer"]
    else:
        metrics, notes = end_to_end(workload, inputs, args.seconds, tally,
                                    expected_digest)
        declared = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if metrics and set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            f"BENCHMARK.json"
        )
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>18.6f} {units[name]:<7} "
              f"{metric_kind(name)}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate {error_rate:.6f} ({tally.failed} of "
          f"{tally.attempted} {workload.operation}s failed)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    correct = bool(metrics) and tally.failed == 0 and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
