"""Command-line front end: ``python -m repro``.

Subcommands:

* ``list`` — show the experiment registry (DESIGN.md's E1..E21 index).
* ``run E6 E11 ...`` — run experiments and print their reports, each
  with its paper-claims block (``--json`` for machine-readable records);
  exit 1 when any claim's gate fails.  ``--all`` runs the whole
  registry, ``--jobs N`` fans it out across processes (output is
  byte-identical to serial), ``--no-cache``/``--rerun`` control the
  on-disk result cache, ``--matrix NAME`` runs a config-matrix sweep,
  and ``--bench-out FILE`` writes the bench doc (the one producer of
  ``BENCH_baseline.json``-style artifacts; byte-identical across
  ``--jobs``).
* ``check [E6 ...|--all]`` — run experiments under the shadow-MMU
  coherence sanitizer and report invariant violations.
* ``trace E7 --out e7.trace.json`` — run one experiment under the flight
  recorder and write a Chrome trace (open it in Perfetto).
  ``--folded``/``--speedscope`` additionally export flamegraphs
  (collapsed stacks / speedscope JSON) and print the critical path.
* ``profile E6 ...`` — run experiments and print where the cycles went
  (every CPU's ledger; host time is ``perfbench/``'s to measure).
* ``diff A.json B.json`` / ``diff E7 --variant "no reclaim,idle
  reclaim"`` — structural comparison of two bench artifacts, or of two
  config variants of one experiment run under the recorder.
* ``bench compare BASELINE NEW`` — the regression sentinel: compare a
  fresh bench artifact against the committed baseline leaf for leaf;
  exit 1 on any changed, missing or extra leaf.  Every revision's
  baseline is in git, so ``bench compare <(git show
  REV:BENCH_baseline.json) BENCH_baseline.json`` compares any two.
* ``capacity`` — sweep offered load across flush/shootdown strategies
  with the open-loop service workload and print the throughput-vs-p99
  capacity table (``--json``/``--out`` for the machine-readable
  document).
* ``report --out report.html`` — render the observatory dashboard (a
  deterministic, self-contained HTML file; ``--capacity`` adds the
  capacity curves).
* ``lint [paths...]`` — run the domain-aware static analysis over the
  package (``--list-rules`` for the rule catalog).
* ``table1`` / ``table2`` / ``table3`` — shortcuts for the paper's tables.
* ``machines`` — show the modelled machines and their derived timings.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from repro.analysis import specs
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
    print()
    print("config-matrix sweeps (run --matrix NAME):")
    for matrix in specs.MATRICES.values():
        print(f"  {matrix.id:<14} {matrix.title}")
    return 0


def _resolve_ids(args) -> "Optional[list]":
    """Upper-cased, validated experiment ids; None on a bad id."""
    if getattr(args, "all", False):
        return specs.sorted_ids()
    ids = []
    for experiment_id in args.ids:
        key = experiment_id.upper()
        if key not in specs.SPECS:
            print(f"unknown experiment {experiment_id!r} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return None
        ids.append(key)
    return ids


def _cmd_run(args) -> int:
    if args.matrix:
        return _cmd_run_matrix(args)
    ids = _resolve_ids(args)
    if ids is None:
        return 2
    if not ids:
        print("no experiments given (pass ids, --all, or --matrix NAME)",
              file=sys.stderr)
        return 2
    if args.json:
        return _cmd_run_json(args, ids)
    from repro.analysis import engine
    from repro.analysis.tables import format_claims

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
    for result in run.results:
        print(result.report)
        print("\n".join(format_claims(result.claims)))
        if result.notes:
            print(f"  notes: {result.notes}")
        print(f"  shape_holds: {result.shape_holds}")
        print()
    if args.bench_out:
        _write_bench_artifact(args.bench_out, run)
    if not run.ok:
        print(f"paper shape did NOT hold for: {', '.join(run.failed_ids())}")
        return 1
    return 0


def _write_bench_artifact(out_path, run) -> None:
    from repro.analysis import engine
    from repro.obs import metrics

    doc = metrics.bench_doc(
        [engine.result_record(result) for result in run.results]
    )
    metrics.validate_bench_doc(doc)
    with open(out_path, "w") as handle:
        handle.write(metrics.dumps(doc))
    print(f"bench artifact -> {out_path}", file=sys.stderr)


def _cmd_run_matrix(args) -> int:
    for name in args.matrix:
        if name not in specs.MATRICES:
            known = ", ".join(sorted(specs.MATRICES))
            print(f"unknown matrix {name!r} (known: {known})",
                  file=sys.stderr)
            return 2
    for name in args.matrix:
        print(specs.MATRICES[name].run())
        print()
    return 0


def _cmd_run_json(args, ids) -> int:
    from repro.obs import metrics
    from repro.obs import session as obs_session

    records = []
    ok = True
    for key in ids:
        observed = obs_session.run_observed(key)
        records.append(observed.record())
        ok = ok and observed.result.shape_holds
    doc = records[0] if len(records) == 1 else records
    print(metrics.dumps(doc), end="")
    return 0 if ok else 1


def _cmd_check(args) -> int:
    # Imported here, not at the top: the runner pulls in the experiment
    # registry, which is heavy and unneeded for the other subcommands.
    from repro.check import runner as check_runner

    ids = None if (args.all or not args.ids) else args.ids
    progress = None if args.json else (
        lambda key: print(f"checking {key} ...")
    )
    try:
        run = check_runner.run_checked(
            ids=ids,
            sweep_every=args.sweep_every,
            progress=progress,
        )
    except KeyError as exc:
        print(f"unknown experiment {exc.args[0]!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    if args.json:
        from repro.obs import metrics

        print(metrics.dumps(run.to_record()), end="")
    else:
        print(run.report())
    return 0 if run.ok else 1


def _cmd_trace(args) -> int:
    import json

    from repro.obs import metrics
    from repro.obs import session as obs_session

    key = args.id.upper()
    if key not in specs.SPECS:
        print(f"unknown experiment {args.id!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    observed = obs_session.run_observed(
        key, trace=True, sample_every_us=args.sample_us
    )
    doc = observed.chrome_trace()
    with open(args.out, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")
    events = len(doc["traceEvents"])
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    print(f"{key}: {events} trace events -> {args.out}"
          + (f" ({dropped} dropped by the ring)" if dropped else ""))
    if args.folded or args.speedscope:
        from repro.obs import flame

        tracers = [
            handle.tracer for handle in observed.observed
            if handle.tracer is not None
        ]
        if args.folded:
            lines = flame.folded(tracers)
            with open(args.folded, "w") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            print(f"{key}: {len(lines)} folded stacks -> {args.folded}")
        if args.speedscope:
            scope = flame.speedscope(tracers, name=f"{key} — "
                                     f"{observed.result.title}")
            flame.validate_speedscope(scope)
            with open(args.speedscope, "w") as handle:
                json.dump(scope, handle, sort_keys=True)
                handle.write("\n")
            print(f"{key}: {len(scope['profiles'])} lanes -> "
                  f"{args.speedscope}")
        print()
        print(flame.render_critical_path(flame.critical_path(tracers)),
              end="")
    if args.json:
        print(metrics.dumps(observed.record()), end="")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import metrics
    from repro.obs import session as obs_session
    from repro.obs.profiler import render_attribution

    records = []
    for experiment_id in args.ids:
        key = experiment_id.upper()
        if key not in specs.SPECS:
            print(f"unknown experiment {experiment_id!r} "
                  f"(try: python -m repro list)", file=sys.stderr)
            return 2
        record = obs_session.run_observed(key).record()
        if args.json:
            records.append(record)
            continue
        title = f"{key} — {record['title']} [{record['machine']}]"
        print(render_attribution(record["attribution"], title))
        print()
    if args.json:
        doc = records[0] if len(records) == 1 else records
        print(metrics.dumps(doc), end="")
    return 0


def _cmd_diff(args) -> int:
    import json

    from repro.obs import diff as obs_diff
    from repro.obs import metrics

    if args.variant:
        return _cmd_diff_variants(args)
    if args.b is None:
        print("diff needs two artifact paths (or one experiment id with "
              "--variant A,B)", file=sys.stderr)
        return 2
    docs = []
    for path in (args.a, args.b):
        try:
            docs.append(json.loads(open(path).read()))
        except (OSError, ValueError) as exc:
            print(f"diff: {path}: {exc}", file=sys.stderr)
            return 2
    if all(isinstance(doc, dict) and "experiments" in doc for doc in docs):
        for path, doc in zip((args.a, args.b), docs):
            try:
                metrics.validate_bench_doc(doc)
            except ValueError as exc:
                print(f"diff: {path}: {exc}", file=sys.stderr)
                return 2
        per_experiment = obs_diff.diff_docs(docs[0], docs[1])
        if args.json:
            print(metrics.dumps(per_experiment), end="")
            return 0
        for line in obs_diff.render_doc_diff(per_experiment, args.a, args.b):
            print(line)
        print(f"{len(per_experiment)} experiments compared")
        return 0
    entry = obs_diff.diff_records(docs[0], docs[1])
    if args.json:
        print(metrics.dumps(entry), end="")
        return 0
    print(obs_diff.render_diff(entry, args.a, args.b))
    return 0


def _cmd_diff_variants(args) -> int:
    from repro.obs import diff as obs_diff
    from repro.obs import metrics
    from repro.obs import session as obs_session

    labels = [label.strip() for label in args.variant.split(",")]
    if len(labels) != 2 or not all(labels):
        print(f"--variant needs exactly two comma-separated labels, got "
              f"{args.variant!r}", file=sys.stderr)
        return 2
    key = args.a.upper()
    if key not in specs.SPECS:
        print(f"unknown experiment {args.a!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    spec = specs.SPECS[key]
    spec_labels = [variant.label for variant in spec.variants]
    for label in labels:
        if label not in spec_labels:
            print(f"{key} has no variant {label!r} "
                  f"(variants: {', '.join(spec_labels)})", file=sys.stderr)
            return 2
    observed = obs_session.run_observed(
        key, trace=True, sample_every_us=args.sample_us
    )
    try:
        entry = obs_diff.diff_variant_labels(
            spec, observed.observed, labels[0], labels[1]
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


def _cmd_capacity(args) -> int:
    from repro.analysis import capacity as cap
    from repro.obs import metrics

    try:
        doc = cap.capacity_sweep(
            loads=args.loads or cap.DEFAULT_LOADS,
            strategies=args.strategies or cap.DEFAULT_STRATEGIES,
            n_cpus=args.cpus,
            requests=args.requests,
            seed=args.seed,
            schedule=args.schedule,
        )
        cap.validate_capacity_doc(doc)
    except ValueError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(metrics.dumps(doc))
        print(f"capacity -> {args.out}", file=sys.stderr)
    if args.json:
        print(metrics.dumps(doc), end="")
    else:
        print(cap.render_capacity(doc), end="")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import metrics
    from repro.obs import report as obs_report

    if args.from_doc:
        try:
            doc = metrics.load_bench_doc(args.from_doc)
        except (OSError, ValueError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.analysis import engine

        if not args.ids:
            args.all = True
        ids = _resolve_ids(args)
        if ids is None:
            return 2
        progress = None
        if args.jobs > 1:
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
        doc = metrics.bench_doc(
            [engine.result_record(result) for result in run.results],
            source="python -m repro report",
        )
        metrics.validate_bench_doc(doc)
    capacity_doc = None
    if args.capacity:
        import json as json_module

        from repro.analysis import capacity as cap

        try:
            with open(args.capacity) as handle:
                capacity_doc = json_module.load(handle)
            cap.validate_capacity_doc(capacity_doc)
        except (OSError, ValueError) as exc:
            print(f"report: {args.capacity}: {exc}", file=sys.stderr)
            return 2
    html = obs_report.render_report(doc, title=args.title,
                                    capacity=capacity_doc)
    with open(args.out, "w") as handle:
        handle.write(html)
    print(f"report -> {args.out} ({len(html)} bytes, "
          f"{len(doc.get('experiments', []))} experiments)", file=sys.stderr)
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
        "--matrix", action="append", default=[], metavar="NAME",
        help="run a config-matrix sweep instead of registry experiments "
             "(vsid-scatter, flush-cutoff; repeatable)",
    )
    run.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="write the bench doc (BENCH_baseline.json format)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print machine-readable records instead of prose reports",
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
        "--sweep-every", type=_positive_int_or_zero, default=50_000,
        metavar="N",
        help="full invariant sweep every N checked translations "
             "(default 50000, 0 disables periodic sweeps)",
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
        "--sample-us", type=_positive_number, default=1000.0, metavar="US",
        help="time-series sample interval in simulated microseconds "
             "(default 1000)",
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
    trc.add_argument(
        "--json", action="store_true",
        help="also print the experiment's metrics record",
    )
    prf = sub.add_parser(
        "profile", help="run experiments and print the cycle attribution"
    )
    prf.add_argument("ids", nargs="+", metavar="EXPERIMENT")
    prf.add_argument(
        "--json", action="store_true",
        help="print machine-readable records instead of tables",
    )
    dff = sub.add_parser(
        "diff", help="compare two bench artifacts or two config variants"
    )
    dff.add_argument(
        "a", metavar="A",
        help="bench artifact / record JSON, or an experiment id with "
             "--variant",
    )
    dff.add_argument("b", nargs="?", default=None, metavar="B",
                     help="second artifact (omit with --variant)")
    dff.add_argument(
        "--variant", default=None, metavar="LABEL_A,LABEL_B",
        help="diff the derived analytics of two variants of experiment A "
             '(e.g. E7 --variant "no reclaim,idle reclaim")',
    )
    dff.add_argument(
        "--sample-us", type=_positive_number, default=1000.0, metavar="US",
        help="time-series sample interval for --variant runs "
             "(default 1000)",
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
    cap = sub.add_parser(
        "capacity",
        help="sweep offered load per flush strategy (capacity curves)",
    )
    cap.add_argument(
        "--loads", type=_positive_number, nargs="+", metavar="REQ_PER_S",
        default=None,
        help="offered-load ladder in requests per simulated second, "
             "monotone ascending (default: 2000 6000 12000)",
    )
    cap.add_argument(
        "--strategies", nargs="+", metavar="NAME", default=None,
        help="shootdown strategies to sweep (default: broadcast "
             "mmap_reuse)",
    )
    cap.add_argument(
        "--requests", type=_positive_int, default=120, metavar="N",
        help="requests per sweep point (default 120)",
    )
    cap.add_argument(
        "--seed", type=int, default=20, metavar="SEED",
        help="arrival-schedule seed (default 20)",
    )
    cap.add_argument(
        "--schedule", default="exponential", metavar="KIND",
        choices=("exponential", "uniform", "burst"),
        help="interarrival schedule kind (default exponential)",
    )
    cap.add_argument(
        "--cpus", type=_positive_int, default=2, metavar="N",
        help="CPUs in the simulated machine (default 2)",
    )
    cap.add_argument(
        "--json", action="store_true",
        help="print the machine-readable capacity document",
    )
    cap.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the capacity document to FILE (feeds "
             "'report --capacity')",
    )
    rpt = sub.add_parser(
        "report", help="render the observatory dashboard HTML"
    )
    rpt.add_argument("ids", nargs="*", metavar="EXPERIMENT",
                     help="experiments to include (default: all)")
    rpt.add_argument("--all", action="store_true",
                     help="include the full registry")
    rpt.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan experiments out across N worker processes "
             "(the report is byte-identical regardless)",
    )
    rpt.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk result cache")
    rpt.add_argument("--rerun", action="store_true",
                     help="force execution but refresh the cache")
    rpt.add_argument(
        "--from", dest="from_doc", default=None, metavar="FILE",
        help="render an existing bench artifact instead of running "
             "experiments",
    )
    rpt.add_argument(
        "--capacity", default=None, metavar="FILE",
        help="capacity document (from 'capacity --out'); adds the "
             "throughput-vs-p99 capacity-curve section",
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
    sub.add_parser("table1", help="reproduce Table 1")
    sub.add_parser("table2", help="reproduce Table 2")
    sub.add_parser("table3", help="reproduce Table 3")
    sub.add_parser("machines", help="show the modelled machines")
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "trace":
        if args.out is None:
            args.out = f"{args.id.upper()}.trace.json"
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "machines":
        return _cmd_machines(args)
    shortcut = {"table1": "E5", "table2": "E6", "table3": "E11"}
    return _cmd_run(argparse.Namespace(
        ids=[shortcut[args.command]], all=False, jobs=1, no_cache=False,
        rerun=False, matrix=[], bench_out=None, json=False,
    ))


if __name__ == "__main__":
    sys.exit(main())
