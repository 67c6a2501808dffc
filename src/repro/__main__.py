"""Command-line front end: ``python -m repro``.

Subcommands:

* ``list`` — show the experiment registry (DESIGN.md's E1..E21 index).
* ``run E6 E11 ...`` — run experiments through the engine and print
  their reports, each with its paper-claims block, or with ``--json``
  their bench records (one object for one id, a list for several);
  exit 1 when any claim's gate fails.  ``--all`` runs the whole
  registry, ``--jobs N`` fans it out across processes (output is
  byte-identical to serial), ``--no-cache``/``--rerun`` control the
  on-disk result cache, and ``--bench-out FILE`` writes the bench doc
  (the one producer of ``BENCH_baseline.json``-style artifacts;
  byte-identical across ``--jobs``).
* ``check [E6 ...|--all]`` — run experiments under the shadow-MMU
  coherence sanitizer and report invariant violations.
* ``trace E7 --out e7.trace.json`` — run one experiment under the flight
  recorder and write a Chrome trace (open it in Perfetto).
  ``--folded``/``--speedscope`` additionally export flamegraphs
  (collapsed stacks / speedscope JSON) and print the critical path.
* ``profile E6 ...`` — run experiments and print where the cycles went:
  each record's attribution (every CPU's ledger; host time is
  ``perfbench/``'s to measure).
* ``diff A.json B.json`` / ``diff E7 --variant "no reclaim,idle
  reclaim"`` — structural comparison of two records (``run --json``),
  or of two config variants of one experiment run under the recorder.
  Bench docs are ``bench compare``'s.
* ``bench compare BASELINE NEW`` — the regression sentinel: compare a
  fresh bench artifact against the committed baseline leaf for leaf;
  exit 1 on any changed, missing or extra leaf.  Every revision's
  baseline is in git, so ``bench compare <(git show
  REV:BENCH_baseline.json) BENCH_baseline.json`` compares any two.
* ``report --from BENCH.json --out report.html`` — render a bench doc
  as the observatory dashboard (a deterministic, self-contained HTML
  file; E21's record adds the capacity curves).
* ``lint [paths...]`` — run the domain-aware static analysis over the
  package (``--list-rules`` for the rule catalog).
* ``machines`` — show the modelled machines and their derived timings.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from repro.analysis import specs
from repro.check.sanitizer import DEFAULT_SWEEP_EVERY
from repro.obs import TRACE_SAMPLE_US
from repro.params import ALL_MACHINES


def _positive_number(text: str) -> float:
    """argparse type: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number: {text!r}"
        )
    return value


def _integer_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {what}: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a positive integer."""
    return _integer_at_least(text, 1, "a positive integer")


def _positive_int_or_zero(text: str) -> int:
    """argparse type: a positive integer, or 0."""
    return _integer_at_least(text, 0, "a positive integer or 0")


def _cmd_list(_args) -> int:
    for experiment_id in specs.sorted_ids():
        workload = specs.SPECS[experiment_id].workload
        doc = (workload.__doc__ or "").strip().splitlines()[0]
        print(f"  {experiment_id:<4} {doc}")
    return 0


def _experiment_id(text: str) -> "Optional[str]":
    """The registry key for ``text``; None, said on stderr, if unknown."""
    key = text.upper()
    if key in specs.SPECS:
        return key
    print(f"unknown experiment {text!r} (try: python -m repro list)",
          file=sys.stderr)
    return None


def _resolve_ids(args) -> "Optional[list]":
    """Upper-cased, validated experiment ids; None on a bad id."""
    if getattr(args, "all", False):
        return specs.sorted_ids()
    ids = []
    for experiment_id in args.ids:
        key = _experiment_id(experiment_id)
        if key is None:
            return None
        ids.append(key)
    return ids


def _cmd_run(args) -> int:
    ids = _resolve_ids(args)
    if ids is None:
        return 2
    if not ids:
        print("no experiments given (pass ids or --all)", file=sys.stderr)
        return 2
    from repro.analysis import engine
    from repro.analysis.tables import format_claims
    from repro.obs import metrics

    progress = None
    if args.jobs > 1:
        # Progress goes to stderr so stdout stays byte-identical to a
        # serial run (reports print in registry order after the merge).
        progress = lambda key, hit: print(
            f"  {key} {'cached' if hit else 'done'}", file=sys.stderr
        )
    run = engine.run_ids(
        ids,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        rerun=args.rerun,
        progress=progress,
    )
    records = [engine.result_record(result) for result in run.results]
    if args.json:
        print(metrics.dumps(records[0] if len(records) == 1 else records),
              end="")
    else:
        for result in run.results:
            print(result.report)
            print("\n".join(format_claims(result.claims)))
            if result.notes:
                print(f"  notes: {result.notes}")
            print(f"  shape_holds: {result.shape_holds}")
            print()
    if args.bench_out:
        doc = metrics.bench_doc(records)
        metrics.validate_bench_doc(doc)
        with open(args.bench_out, "w") as handle:
            handle.write(metrics.dumps(doc))
        print(f"bench artifact -> {args.bench_out}", file=sys.stderr)
    if not run.ok:
        failed = ", ".join(run.failed_ids())
        print(f"paper shape did NOT hold for: {failed}",
              file=sys.stderr if args.json else sys.stdout)
        return 1
    return 0


def _cmd_check(args) -> int:
    # Imported here, not at the top: the runner pulls in the experiment
    # registry, which is heavy and unneeded for the other subcommands.
    from repro.check import runner as check_runner

    ids = _resolve_ids(args)
    if ids is None:
        return 2
    progress = None if args.json else (
        lambda key: print(f"checking {key} ...")
    )
    run = check_runner.run_checked(
        ids=ids or None,
        sweep_every=args.sweep_every,
        progress=progress,
    )
    if args.json:
        from repro.obs import metrics

        print(metrics.dumps(run.to_record()), end="")
    else:
        print(run.report())
    return 0 if run.ok else 1


def _cmd_trace(args) -> int:
    import json

    from repro.analysis import engine
    from repro.obs.events import chrome_trace

    key = _experiment_id(args.id)
    if key is None:
        return 2
    if args.out is None:
        args.out = f"{key}.trace.json"
    result, observed = engine.observe(
        specs.SPECS[key], trace=True, sample_every_us=args.sample_us
    )
    tracers = [
        handle.tracer for handle in observed if handle.tracer is not None
    ]
    doc = chrome_trace(
        tracers,
        other_data={
            "experiment": key,
            "title": result.title,
            "dropped_events": sum(tracer.dropped for tracer in tracers),
        },
    )
    with open(args.out, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")
    events = len(doc["traceEvents"])
    dropped = doc["otherData"]["dropped_events"]
    print(f"{key}: {events} trace events -> {args.out}"
          + (f" ({dropped} dropped by the ring)" if dropped else ""))
    if args.folded or args.speedscope:
        from repro.obs import flame

        if args.folded:
            lines = flame.folded(tracers)
            with open(args.folded, "w") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            print(f"{key}: {len(lines)} folded stacks -> {args.folded}")
        if args.speedscope:
            scope = flame.speedscope(tracers, name=f"{key} — "
                                     f"{result.title}")
            flame.validate_speedscope(scope)
            with open(args.speedscope, "w") as handle:
                json.dump(scope, handle, sort_keys=True)
                handle.write("\n")
            print(f"{key}: {len(scope['profiles'])} lanes -> "
                  f"{args.speedscope}")
        print()
        print(flame.render_critical_path(flame.critical_path(tracers)),
              end="")
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis import engine
    from repro.obs.profiler import render_attribution

    ids = _resolve_ids(args)
    if ids is None:
        return 2
    for result in engine.run_ids(ids).results:
        record = engine.result_record(result)
        title = f"{record['id']} — {record['title']} [{record['machine']}]"
        print(render_attribution(record["attribution"], title))
        print()
    return 0


def _cmd_diff(args) -> int:
    import json

    from repro.obs import diff as obs_diff
    from repro.obs import metrics

    if args.variant:
        return _cmd_diff_variants(args)
    if args.b is None:
        print("diff needs two record paths (or one experiment id with "
              "--variant A,B)", file=sys.stderr)
        return 2
    docs = []
    for path in (args.a, args.b):
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"diff: {path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print(f"diff: {path}: a JSON {type(doc).__name__}, not a record",
                  file=sys.stderr)
            return 2
        if "experiments" in doc:
            print(f"diff: {path}: a bench doc; compare bench docs with "
                  "'repro bench compare'", file=sys.stderr)
            return 2
        docs.append(doc)
    entry = obs_diff.diff_records(docs[0], docs[1])
    if args.json:
        print(metrics.dumps(entry), end="")
        return 0
    print(obs_diff.render_diff(entry, args.a, args.b))
    return 0


def _cmd_diff_variants(args) -> int:
    from repro.analysis import engine
    from repro.obs import diff as obs_diff
    from repro.obs import metrics

    labels = [label.strip() for label in args.variant.split(",")]
    if len(labels) != 2 or not all(labels):
        print(f"--variant needs exactly two comma-separated labels, got "
              f"{args.variant!r}", file=sys.stderr)
        return 2
    key = _experiment_id(args.a)
    if key is None:
        return 2
    spec = specs.SPECS[key]
    spec_labels = [variant.label for variant in spec.variants]
    for label in labels:
        if label not in spec_labels:
            print(f"{key} has no variant {label!r} "
                  f"(variants: {', '.join(spec_labels)})", file=sys.stderr)
            return 2
    _result, observed = engine.observe(
        spec, trace=True, sample_every_us=args.sample_us
    )
    try:
        entry = obs_diff.diff_variant_labels(
            spec, observed, labels[0], labels[1]
        )
    except KeyError as exc:
        print(f"diff: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(metrics.dumps(entry), end="")
        return 0
    print(obs_diff.render_diff(
        entry, f"{key} [{labels[0]}]", f"{key} [{labels[1]}]",
    ))
    return 0


def _cmd_bench(args) -> int:
    from repro.obs import diff as obs_diff
    from repro.obs import metrics

    try:
        baseline_doc = metrics.load_bench_doc(args.baseline)
        new_doc = metrics.load_bench_doc(args.new)
    except (OSError, ValueError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    verdict = obs_diff.compare_docs(baseline_doc, new_doc)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(metrics.dumps(verdict))
        print(f"verdict -> {args.out}", file=sys.stderr)
    if args.json:
        print(metrics.dumps(verdict), end="")
    else:
        print(obs_diff.render_verdict(verdict, args.baseline, args.new))
    return 0 if verdict["ok"] else 1


def _cmd_report(args) -> int:
    from repro.analysis.capacity import validate_capacity_doc
    from repro.obs import metrics
    from repro.obs import report as obs_report

    try:
        doc = metrics.load_bench_doc(args.from_doc)
    except (OSError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    capacity = obs_report.capacity_doc(doc)
    if capacity is not None:
        try:
            validate_capacity_doc(capacity)
        except ValueError as exc:
            print(f"report: {args.from_doc}: "
                  f"{obs_report.CAPACITY_EXPERIMENT} capacity: {exc}",
                  file=sys.stderr)
            return 2
    html = obs_report.render_report(doc, title=args.title)
    with open(args.out, "w") as handle:
        handle.write(html)
    print(f"report -> {args.out} ({len(html)} bytes, "
          f"{len(doc['experiments'])} experiments)", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    # Imported here, not at the top: the lint engine is pure tooling and
    # unneeded for the simulation subcommands.
    from repro.lint import cli as lint_cli

    return lint_cli.run_lint(args)


def _cmd_machines(_args) -> int:
    print(f"{'machine':<14}{'walk':<10}{'TLB (I/D)':<12}{'L1 (I/D)':<12}"
          f"{'L2':<8}{'line fill':<12}{'word'}")
    for spec in ALL_MACHINES:
        walk = "hardware" if spec.hardware_tablewalk else "software"
        tlb = f"{spec.itlb_entries}/{spec.dtlb_entries}"
        l1 = f"{spec.icache_bytes // 1024}K/{spec.dcache_bytes // 1024}K"
        print(
            f"{spec.name:<14}{walk:<10}{tlb:<12}{l1:<12}"
            f"{spec.l2_bytes // 1024:>4}K   "
            f"{spec.mem_cycles:>5} cyc   {spec.word_cycles:>4} cyc"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Optimizing the Idle Task and Other MMU "
            "Tricks' (OSDI 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiment registry")
    run = sub.add_parser("run", help="run experiments by id (e.g. E6 E11)")
    run.add_argument("ids", nargs="*", metavar="EXPERIMENT")
    run.add_argument(
        "--all", action="store_true",
        help="run the full registry in sorted order",
    )
    run.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan experiments out across N worker processes "
             "(default 1; output is byte-identical to serial)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (no reads, no writes)",
    )
    run.add_argument(
        "--rerun", action="store_true",
        help="force execution but refresh the cache with the results",
    )
    run.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="write the bench doc (BENCH_baseline.json format)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the bench records instead of prose reports",
    )
    chk = sub.add_parser(
        "check", help="run experiments under the shadow-MMU sanitizer"
    )
    chk.add_argument("ids", nargs="*", metavar="EXPERIMENT")
    chk.add_argument(
        "--all", action="store_true",
        help="check the full registry (default when no ids given)",
    )
    chk.add_argument(
        "--sweep-every", type=_positive_int_or_zero,
        default=DEFAULT_SWEEP_EVERY, metavar="N",
        help="full invariant sweep every N checked translations "
             "(default %(default)s, 0 disables periodic sweeps)",
    )
    chk.add_argument(
        "--json", action="store_true",
        help="print a machine-readable record instead of the prose report",
    )
    trc = sub.add_parser(
        "trace", help="run one experiment under the flight recorder"
    )
    trc.add_argument("id", metavar="EXPERIMENT")
    trc.add_argument(
        "--out", default=None, metavar="FILE",
        help="output Chrome trace path (default <id>.trace.json)",
    )
    trc.add_argument(
        "--sample-us", type=_positive_number, default=TRACE_SAMPLE_US,
        metavar="US",
        help="time-series sample interval in simulated microseconds "
             "(default %(default)s)",
    )
    trc.add_argument(
        "--folded", default=None, metavar="FILE",
        help="also write collapsed-stack flamegraph lines "
             "(flamegraph.pl input) and print the critical path",
    )
    trc.add_argument(
        "--speedscope", default=None, metavar="FILE",
        help="also write a speedscope evented-profile JSON "
             "and print the critical path",
    )
    prf = sub.add_parser(
        "profile", help="run experiments and print the cycle attribution"
    )
    prf.add_argument("ids", nargs="+", metavar="EXPERIMENT")
    dff = sub.add_parser(
        "diff", help="compare two records or two config variants"
    )
    dff.add_argument(
        "a", metavar="A",
        help="record JSON, or an experiment id with --variant",
    )
    dff.add_argument("b", nargs="?", default=None, metavar="B",
                     help="second record (omit with --variant)")
    dff.add_argument(
        "--variant", default=None, metavar="LABEL_A,LABEL_B",
        help="diff the derived analytics of two variants of experiment A "
             '(e.g. E7 --variant "no reclaim,idle reclaim")',
    )
    dff.add_argument(
        "--sample-us", type=_positive_number, default=TRACE_SAMPLE_US,
        metavar="US",
        help="time-series sample interval for --variant runs "
             "(default %(default)s)",
    )
    dff.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable diff",
    )
    bench = sub.add_parser(
        "bench", help="the regression sentinel (compare)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    cmp_parser = bench_sub.add_parser(
        "compare",
        help="compare a fresh bench artifact against a baseline, leaf "
             "for leaf",
    )
    cmp_parser.add_argument("baseline", metavar="BASELINE",
                            help="baseline artifact (BENCH_baseline.json)")
    cmp_parser.add_argument("new", metavar="NEW",
                            help="freshly generated artifact to gate")
    cmp_parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable verdict instead of prose",
    )
    cmp_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the verdict record to FILE (CI artifact)",
    )
    rpt = sub.add_parser(
        "report", help="render a bench doc as the observatory dashboard"
    )
    rpt.add_argument(
        "--from", dest="from_doc", required=True, metavar="FILE",
        help="the bench doc to render (from 'run --bench-out')",
    )
    rpt.add_argument("--out", default="report.html", metavar="FILE",
                     help="output HTML path (default report.html)")
    rpt.add_argument("--title", default=None, metavar="TITLE",
                     help="dashboard heading")
    lnt = sub.add_parser(
        "lint", help="run the domain-aware static analysis"
    )
    lnt.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="restrict reported findings to these files/subtrees "
             "(relative to the cwd or the package root)",
    )
    lnt.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lnt.add_argument(
        "--json", action="store_true",
        help="print a machine-readable findings record",
    )
    lnt.add_argument(
        "--root", default=None, metavar="DIR",
        help="package directory to scan (default: the installed repro "
             "package)",
    )
    lnt.add_argument(
        "--fail-on-warn", action="store_true",
        help="exit non-zero on warn-severity findings too",
    )
    sub.add_parser("machines", help="show the modelled machines")
    args = parser.parse_args(argv)

    commands = {
        "list": _cmd_list, "run": _cmd_run, "check": _cmd_check,
        "trace": _cmd_trace, "profile": _cmd_profile, "diff": _cmd_diff,
        "bench": _cmd_bench, "report": _cmd_report, "lint": _cmd_lint,
        "machines": _cmd_machines,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
