"""Tests for ``repro.lint`` — the domain-aware static analysis.

Three tiers:

* fixture pairs — for every rule, a violating snippet caught at the
  right line and a clean snippet that passes;
* mutation tests — delete a taxonomy entry / event-registry entry /
  suite registration / benchmark consumer / EXPERIMENTS.md row from a
  *copy* of the real repo and assert the closure rules fire (proving
  the gates are live, not vacuous);
* self-clean — the shipped package lints clean, which is what CI gates.
"""

import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, Baseline, KNOWN_RULE_IDS, rule_catalog
from repro.lint.cli import default_root, find_baseline
from repro.lint.engine import ALL_RULES
from repro.lint.pragmas import parse_pragmas


def build_tree(tmp_path, files):
    """Write ``{rel: source}`` under a package dir named ``repro``."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_lint(tmp_path, files, rules=None):
    return LintEngine(build_tree(tmp_path, files), lint_rules=rules).run()


def single_rule(rule_id):
    (rule,) = [r for r in ALL_RULES if r.id == rule_id]
    return [rule]


def findings_for(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


# -- determinism rules -------------------------------------------------------


class TestUnseededRandom:
    def test_global_generator_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            import random
            x = random.randint(0, 5)
        """}, rules=single_rule("unseeded-random"))
        (finding,) = result.findings
        assert finding.rule == "unseeded-random"
        assert (finding.path, finding.line) == ("kernel/a.py", 2)

    def test_from_import_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"sim/a.py": """\
            from random import shuffle
        """}, rules=single_rule("unseeded-random"))
        assert [f.line for f in result.findings] == [1]

    def test_unseeded_constructor_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"hw/a.py": """\
            import random
            rng = random.Random()
        """}, rules=single_rule("unseeded-random"))
        assert [f.line for f in result.findings] == [2]

    def test_seeded_rng_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            import random
            rng = random.Random(42)
            x = rng.randint(0, 5)
        """}, rules=single_rule("unseeded-random"))
        assert result.findings == []

    def test_outside_simulated_layers_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"lint/a.py": """\
            import random
            x = random.random()
        """}, rules=single_rule("unseeded-random"))
        assert result.findings == []


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            import time
            t = time.time()
        """}, rules=single_rule("wall-clock"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("wall-clock", 2)

    def test_from_time_import_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"sim/a.py": """\
            from time import monotonic
        """}, rules=single_rule("wall-clock"))
        assert [f.line for f in result.findings] == [1]

    def test_datetime_now_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"workloads/a.py": """\
            import datetime
            t = datetime.datetime.now()
        """}, rules=single_rule("wall-clock"))
        assert [f.line for f in result.findings] == [2]

    def test_check_layer_may_report_wall_time(self, tmp_path):
        result = run_lint(tmp_path, {"check/runner.py": """\
            import time
            started = time.monotonic()
        """}, rules=single_rule("wall-clock"))
        assert result.findings == []


class TestSetIteration:
    def test_set_literal_iteration_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            for x in {1, 2, 3}:
                print(x)
        """}, rules=single_rule("set-iteration"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("set-iteration", 1)

    def test_known_set_local_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def f(items):
                pending = set(items)
                out = []
                for x in pending:
                    out.append(x)
                return out
        """}, rules=single_rule("set-iteration"))
        assert [f.line for f in result.findings] == [4]

    def test_known_set_self_attr_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            class K:
                def __init__(self):
                    self.live = set()

                def drain(self):
                    return [x for x in self.live]
        """}, rules=single_rule("set-iteration"))
        assert [f.line for f in result.findings] == [6]

    def test_sorted_iteration_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def f(items):
                pending = set(items)
                return [x for x in sorted(pending)]
        """}, rules=single_rule("set-iteration"))
        assert result.findings == []

    def test_reassigned_to_list_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def f(items):
                pending = set(items)
                pending = sorted(pending)
                for x in pending:
                    print(x)
        """}, rules=single_rule("set-iteration"))
        assert result.findings == []


# -- layering ----------------------------------------------------------------


class TestLayering:
    def test_hw_importing_kernel_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"hw/a.py": """\
            from repro.kernel.kernel import Kernel
        """}, rules=single_rule("layering"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("layering", 1)
        assert "kernel" in finding.message

    def test_relative_import_resolved(self, tmp_path):
        result = run_lint(tmp_path, {"hw/a.py": """\
            from ..obs import events
        """}, rules=single_rule("layering"))
        assert [f.rule for f in result.findings] == ["layering"]

    def test_kernel_importing_sim_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            import repro.sim.process
        """}, rules=single_rule("layering"))
        assert [f.line for f in result.findings] == [1]

    def test_kernel_importing_hw_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            from repro.hw.clock import CycleLedger
        """}, rules=single_rule("layering"))
        assert result.findings == []

    def test_only_cli_imports_lint(self, tmp_path):
        result = run_lint(tmp_path, {
            "obs/a.py": "from repro.lint import LintEngine\n",
            "__main__.py": "from repro.lint import cli\n",
        }, rules=single_rule("layering"))
        assert [f.path for f in result.findings] == ["obs/a.py"]


# -- zero perturbation -------------------------------------------------------


class TestZeroPerturbation:
    def test_foreign_attribute_write_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"obs/a.py": """\
            def attach(machine, tracer):
                machine.tracer = tracer
        """}, rules=single_rule("zero-perturbation"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("zero-perturbation", 2)

    def test_augmented_write_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"check/a.py": """\
            def bump(kernel):
                kernel.epoch += 1
        """}, rules=single_rule("zero-perturbation"))
        assert [f.line for f in result.findings] == [2]

    def test_self_state_clean(self, tmp_path):
        result = run_lint(tmp_path, {"obs/a.py": """\
            class Sampler:
                def __init__(self):
                    self.samples = []
        """}, rules=single_rule("zero-perturbation"))
        assert result.findings == []

    def test_module_singleton_owned_not_foreign(self, tmp_path):
        result = run_lint(tmp_path, {"obs/a.py": """\
            class _State:
                active = False

            _GLOBAL = _State()

            def enable():
                _GLOBAL.active = True
        """}, rules=single_rule("zero-perturbation"))
        assert result.findings == []

    def test_simulation_layers_exempt(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def wire(machine, kernel):
                machine.kernel = kernel
        """}, rules=single_rule("zero-perturbation"))
        assert result.findings == []


# -- hook discipline ---------------------------------------------------------


class TestHookGuard:
    def test_unguarded_hook_call_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"hw/a.py": """\
            def fire(self):
                self.tracer.instant("ctxsw", "kernel")
        """}, rules=single_rule("hook-guard"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("hook-guard", 2)

    def test_if_guard_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def fire(machine):
                if machine.tracer is not None:
                    machine.tracer.instant("ctxsw", "kernel")
        """}, rules=single_rule("hook-guard"))
        assert result.findings == []

    def test_and_chain_guard_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def fire(machine, ok):
                if ok and machine.sanitizer is not None:
                    machine.sanitizer.on_flush()
        """}, rules=single_rule("hook-guard"))
        assert result.findings == []

    def test_wrong_guard_still_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def fire(machine, other):
                if other.tracer is not None:
                    machine.tracer.instant("ctxsw", "kernel")
        """}, rules=single_rule("hook-guard"))
        assert [f.line for f in result.findings] == [3]


# -- error discipline --------------------------------------------------------


class TestErrorDiscipline:
    def test_bare_except_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            try:
                x = 1
            except:
                pass
        """}, rules=single_rule("error-discipline"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("error-discipline", 3)

    def test_blind_except_without_reraise_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"analysis/a.py": """\
            try:
                x = 1
            except Exception:
                x = 2
        """}, rules=single_rule("error-discipline"))
        assert [f.line for f in result.findings] == [3]

    def test_blind_except_with_reraise_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            try:
                x = 1
            except Exception:
                raise
        """}, rules=single_rule("error-discipline"))
        assert result.findings == []

    def test_specific_except_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            try:
                x = 1
            except ValueError:
                x = 2
        """}, rules=single_rule("error-discipline"))
        assert result.findings == []


# -- closure rules (fixture trees) -------------------------------------------


TAXONOMY_FILES = {
    "obs/profiler.py": """\
        PATH_CATEGORIES = {
            "mem": "memory",
            "flush": "mmu",
        }
    """,
    "kernel/a.py": """\
        def work(kernel):
            kernel.machine.clock.add(5, "mem")
            kernel.machine.clock.add(9, "flush")
    """,
}


class TestLedgerTaxonomy:
    def test_registered_charges_clean(self, tmp_path):
        result = run_lint(tmp_path, dict(TAXONOMY_FILES),
                          rules=single_rule("ledger-taxonomy"))
        assert result.findings == []

    def test_unregistered_category_flagged(self, tmp_path):
        files = dict(TAXONOMY_FILES)
        files["kernel/b.py"] = """\
            def extra(ledger):
                ledger.add(3, "bogus")
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("ledger-taxonomy"))
        (finding,) = result.findings
        assert (finding.path, finding.line) == ("kernel/b.py", 2)
        assert "'bogus'" in finding.message

    def test_category_keyword_checked(self, tmp_path):
        files = dict(TAXONOMY_FILES)
        files["kernel/b.py"] = """\
            def extra(machine):
                machine.clear_page(7, category="bogus")
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("ledger-taxonomy"))
        assert [f.path for f in result.findings] == ["kernel/b.py"]

    def test_unused_taxonomy_entry_flagged(self, tmp_path):
        files = dict(TAXONOMY_FILES)
        files["obs/profiler.py"] = """\
            PATH_CATEGORIES = {
                "mem": "memory",
                "flush": "mmu",
                "orphan": "never charged",
            }
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("ledger-taxonomy"))
        (finding,) = result.findings
        assert finding.path == "obs/profiler.py"
        assert "'orphan'" in finding.message


EVENT_FILES = {
    "obs/events.py": """\
        EVENT_NAMES = {
            "ctxsw": "context switch",
            "syscall:*": "syscall entry",
            "tlb_miss": "tlb miss",
        }
        DEFAULT_MONITOR_EVENTS = frozenset({"tlb_miss"})
    """,
    "kernel/a.py": """\
        def publish(machine, name):
            machine.tracer.instant("ctxsw", "kernel")
            machine.tracer.instant(f"syscall:{name}", "kernel")
            machine.monitor.count("tlb_miss")
    """,
}


class TestEventRegistry:
    def test_registered_events_clean(self, tmp_path):
        result = run_lint(tmp_path, dict(EVENT_FILES),
                          rules=single_rule("event-registry"))
        assert result.findings == []

    def test_unregistered_event_flagged(self, tmp_path):
        files = dict(EVENT_FILES)
        files["kernel/b.py"] = """\
            def publish(tracer):
                tracer.instant("mystery", "kernel")
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("event-registry"))
        (finding,) = result.findings
        assert (finding.path, finding.line) == ("kernel/b.py", 2)
        assert "'mystery'" in finding.message

    def test_fstring_without_wildcard_flagged(self, tmp_path):
        files = dict(EVENT_FILES)
        files["kernel/b.py"] = """\
            def publish(tracer, name):
                tracer.instant(f"irq:{name}", "kernel")
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("event-registry"))
        assert ["irq:" in f.message for f in result.findings] == [True]

    def test_monitor_filter_must_be_registered(self, tmp_path):
        files = dict(EVENT_FILES)
        files["obs/events.py"] = """\
            EVENT_NAMES = {
                "ctxsw": "context switch",
                "syscall:*": "syscall entry",
                "tlb_miss": "tlb miss",
            }
            DEFAULT_MONITOR_EVENTS = frozenset({"tlb_miss", "ghost"})
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("event-registry"))
        (finding,) = result.findings
        assert finding.path == "obs/events.py"
        assert "'ghost'" in finding.message


class TestInvariantRegistration:
    def test_registered_suite_clean(self, tmp_path):
        result = run_lint(tmp_path, {"check/invariants.py": """\
            def check_tlbs(kernel, record):
                pass

            def full_sweep(kernel, record):
                check_tlbs(kernel, record)
        """}, rules=single_rule("invariant-registration"))
        assert result.findings == []

    def test_unregistered_invariant_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"check/invariants.py": """\
            def check_tlbs(kernel, record):
                pass

            def check_htab(kernel, record):
                pass

            def full_sweep(kernel, record):
                check_tlbs(kernel, record)
        """}, rules=single_rule("invariant-registration"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("invariant-registration", 4)
        assert "check_htab" in finding.message


# -- pragmas and baseline ----------------------------------------------------


REGISTRY_SPECS = {
    "analysis/specs.py": """\
        SPECS = {
            "E1": "spec one",
            "E2": "spec two",
        }
    """,
}

REGISTRY_BENCH = """\
from conftest import run_spec


def test_e1(benchmark):
    run_spec(benchmark, "E1")


def test_e2(benchmark):
    run_spec(benchmark, "E2")
"""

REGISTRY_DOC = """\
| Exp | Paper result | Reproduction status |
|---|---|---|
| E1 (Fig 1) | something | holds |
| E2 (§5.1) | something else | holds |
"""


def build_repo(tmp_path, files=None, bench=REGISTRY_BENCH,
               doc=REGISTRY_DOC):
    """A package tree with benchmarks/ and EXPERIMENTS.md beside it."""
    root = build_tree(tmp_path, files or dict(REGISTRY_SPECS))
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir(exist_ok=True)
    (bench_dir / "test_bench_a.py").write_text(bench)
    (tmp_path / "EXPERIMENTS.md").write_text(doc)
    return root


class TestExperimentRegistry:
    def test_consumed_and_documented_clean(self, tmp_path):
        root = build_repo(tmp_path)
        result = LintEngine(
            root, lint_rules=single_rule("experiment-registry")
        ).run()
        assert result.findings == []

    def test_missing_bench_consumer_flagged(self, tmp_path):
        bench = REGISTRY_BENCH.replace(
            'def test_e2(benchmark):\n    run_spec(benchmark, "E2")\n', ""
        )
        root = build_repo(tmp_path, bench=bench)
        result = LintEngine(
            root, lint_rules=single_rule("experiment-registry")
        ).run()
        (finding,) = result.findings
        assert finding.path == "analysis/specs.py"
        assert "'E2'" in finding.message
        assert "consumer" in finding.message

    def test_missing_doc_row_flagged(self, tmp_path):
        doc = "\n".join(
            line for line in REGISTRY_DOC.splitlines()
            if not line.startswith("| E2")
        )
        root = build_repo(tmp_path, doc=doc)
        result = LintEngine(
            root, lint_rules=single_rule("experiment-registry")
        ).run()
        (finding,) = result.findings
        assert "'E2'" in finding.message
        assert "EXPERIMENTS.md" in finding.message

    def test_stale_doc_row_flagged(self, tmp_path):
        doc = REGISTRY_DOC + "| E9 (§8) | ghost | gone |\n"
        root = build_repo(tmp_path, doc=doc)
        result = LintEngine(
            root, lint_rules=single_rule("experiment-registry")
        ).run()
        (finding,) = result.findings
        assert "'E9'" in finding.message
        assert "stale" in finding.message

    def test_bare_package_skipped(self, tmp_path):
        # No benchmarks/ or EXPERIMENTS.md anywhere above the package:
        # the rule has nothing to close over and must stay silent
        # (mutation tests lint exactly such copies).
        result = run_lint(tmp_path, dict(REGISTRY_SPECS),
                          rules=single_rule("experiment-registry"))
        assert result.findings == []


class TestPragmas:
    def test_trailing_pragma_suppresses(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            try:
                x = 1
            except:  # repro-lint: disable=error-discipline -- test stub
                pass
        """}, rules=single_rule("error-discipline"))
        assert result.findings == []
        assert result.pragma_suppressed == 1

    def test_comment_line_pragma_covers_next_code_line(self, tmp_path):
        result = run_lint(tmp_path, {"obs/a.py": """\
            def attach(machine, tracer):
                # repro-lint: disable=zero-perturbation -- attach point
                machine.tracer = tracer
        """}, rules=single_rule("zero-perturbation"))
        assert result.findings == []
        assert result.pragma_suppressed == 1

    def test_pragma_without_justification_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            x = 1  # repro-lint: disable=wall-clock
        """})
        (finding,) = findings_for(result, "pragma-hygiene")
        assert "justification" in finding.message

    def test_pragma_naming_unknown_rule_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            x = 1  # repro-lint: disable=no-such-rule -- oops
        """})
        (finding,) = findings_for(result, "pragma-hygiene")
        assert "no-such-rule" in finding.message

    def test_docstring_mention_is_not_a_pragma(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": '''\
            """Mentions # repro-lint: disable=wall-clock in prose."""
            import time
            t = time.time()
        '''}, rules=single_rule("wall-clock"))
        assert [f.rule for f in result.findings] == ["wall-clock"]
        assert result.pragma_suppressed == 0

    def test_disable_file_suppresses_whole_file(self, tmp_path):
        pragmas = parse_pragmas(
            ["# repro-lint: disable-file=wall-clock -- fixture"],
            KNOWN_RULE_IDS,
        )
        assert pragmas.suppresses("wall-clock", 99)
        assert not pragmas.suppresses("layering", 99)
        assert pragmas.problems == []


class TestBaseline:
    def test_round_trip_silences_findings(self, tmp_path):
        files = {"kernel/a.py": "import time\nt = time.time()\n"}
        root = build_tree(tmp_path, files)
        first = LintEngine(root).run()
        assert len(first.findings) == 1

        baseline_path = tmp_path / "lint-baseline.json"
        Baseline.write(baseline_path, first.findings)
        second = LintEngine(
            root, baseline=Baseline.load(baseline_path)
        ).run()
        assert second.findings == []
        assert len(second.baselined) == 1

    def test_baseline_matches_across_line_moves(self, tmp_path):
        files = {"kernel/a.py": "import time\nt = time.time()\n"}
        root = build_tree(tmp_path, files)
        baseline_path = tmp_path / "lint-baseline.json"
        Baseline.write(baseline_path, LintEngine(root).run().findings)

        # Shift the violation down; the fingerprint is line-independent.
        (root / "kernel/a.py").write_text(
            "import time\n\n\nt = time.time()\n"
        )
        moved = LintEngine(
            root, baseline=Baseline.load(baseline_path)
        ).run()
        assert moved.findings == []
        assert len(moved.baselined) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "does-not-exist.json")
        result = run_lint(tmp_path, {"kernel/a.py": "x = 1\n"})
        assert result.findings == []
        assert not any(baseline.matches(f) for f in result.findings)


# -- mutation tests on the real tree -----------------------------------------


def mutated_package(tmp_path, mutate):
    """Copy the installed package, apply ``mutate(root)``, return root."""
    root = tmp_path / "repro"
    shutil.copytree(default_root(), root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    mutate(root)
    return root


def mutated_repo(tmp_path, mutate):
    """Like :func:`mutated_package`, with the repo files the
    experiment-registry closure reads (benchmarks/, EXPERIMENTS.md)
    copied alongside at ``root.parents[1]``."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(default_root(), root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    repo = default_root().parents[1]
    shutil.copytree(repo / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "reports"))
    shutil.copy(repo / "EXPERIMENTS.md", tmp_path / "EXPERIMENTS.md")
    mutate(root)
    return root


class TestMutations:
    def test_clean_copy_is_clean(self, tmp_path):
        root = mutated_package(tmp_path, lambda _root: None)
        assert LintEngine(root).run().findings == []

    def test_deleting_taxonomy_entry_fires(self, tmp_path):
        def mutate(root):
            path = root / "obs/profiler.py"
            source = path.read_text()
            mutated = re.sub(r'\s*"flush": .*\n', "\n", source, count=1)
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_package(tmp_path, mutate)).run()
        rules = {f.rule for f in result.findings}
        assert rules == {"ledger-taxonomy"}
        assert any("'flush'" in f.message for f in result.findings)

    def test_deleting_event_registry_entry_fires(self, tmp_path):
        def mutate(root):
            path = root / "obs/events.py"
            source = path.read_text()
            mutated = re.sub(r'\n    "vsid-bump": .*?\),\n', "\n", source,
                             count=1, flags=re.S)
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_package(tmp_path, mutate)).run()
        rules = {f.rule for f in result.findings}
        assert rules == {"event-registry"}
        assert any("'vsid-bump'" in f.message for f in result.findings)

    def test_deleting_bench_consumer_fires(self, tmp_path):
        def mutate(root):
            (root.parents[1] / "benchmarks"
             / "test_bench_range_flush.py").unlink()

        result = LintEngine(mutated_repo(tmp_path, mutate)).run()
        rules = {f.rule for f in result.findings}
        assert rules == {"experiment-registry"}
        assert any(
            "'E8'" in f.message and "consumer" in f.message
            for f in result.findings
        )

    def test_deleting_experiments_md_row_fires(self, tmp_path):
        def mutate(root):
            path = root.parents[1] / "EXPERIMENTS.md"
            source = path.read_text()
            mutated = re.sub(r"\n\| E8 [^\n]*\n", "\n", source, count=1)
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_repo(tmp_path, mutate)).run()
        rules = {f.rule for f in result.findings}
        assert rules == {"experiment-registry"}
        assert any(
            "'E8'" in f.message and "EXPERIMENTS.md" in f.message
            for f in result.findings
        )

    def test_adding_taxonomy_value_without_derivation_fires(self, tmp_path):
        def mutate(root):
            path = root / "obs/profiler.py"
            source = path.read_text()
            mutated = source.replace(
                "PATH_CATEGORIES: Dict[str, str] = {",
                'PATH_CATEGORIES: Dict[str, str] = {\n'
                '    "ghost-raw": "ghost-cat",',
                1,
            )
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_package(tmp_path, mutate)).run()
        # The derived observatory tables pick the new category up by
        # construction; the never-charged key trips the ledger closure.
        rules = {f.rule for f in result.findings}
        assert rules == {"ledger-taxonomy"}
        assert any("'ghost-raw'" in f.message for f in result.findings)

    def test_deleting_suite_registration_fires(self, tmp_path):
        def mutate(root):
            path = root / "check/invariants.py"
            source = path.read_text()
            mutated = re.sub(
                r"\n\s*check_segments\(kernel, record\)\n", "\n",
                source, count=1,
            )
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_package(tmp_path, mutate)).run()
        rules = {f.rule for f in result.findings}
        assert rules == {"invariant-registration"}
        assert any("check_segments" in f.message for f in result.findings)


class TestGeometryLiteral:
    def test_divmod_by_eight_on_slot_index_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def addr(flat):
                group, slot = divmod(flat, 8)
                return group, slot
        """}, rules=single_rule("geometry-literal"))
        (finding,) = result.findings
        assert (finding.rule, finding.line) == ("geometry-literal", 2)
        assert "PTE_BYTES or PTES_PER_GROUP" in finding.message

    def test_page_index_mask_literal_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"hw/a.py": """\
            def page_index(ea):
                return (ea >> 12) & 0xFFFF
        """}, rules=single_rule("geometry-literal"))
        assert [f.line for f in result.findings] == [2]
        assert "PAGE_INDEX_MASK" in result.findings[0].message

    def test_segment_shift_literal_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"check/a.py": """\
            def segment(ea):
                return ea >> 28
        """}, rules=single_rule("geometry-literal"))
        assert [f.line for f in result.findings] == [2]

    def test_scan_cursor_wrap_literal_flagged(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def advance(position):
                return (position + 512) % 16384
        """}, rules=single_rule("geometry-literal"))
        assert [f.line for f in result.findings] == [2]
        assert "HTAB_PTE_SLOTS" in result.findings[0].message

    def test_named_constant_clean(self, tmp_path):
        result = run_lint(tmp_path, {"kernel/a.py": """\
            from repro.params import PTES_PER_GROUP

            def addr(flat):
                return divmod(flat, PTES_PER_GROUP)
        """}, rules=single_rule("geometry-literal"))
        assert result.findings == []

    def test_nongeometry_operand_clean(self, tmp_path):
        """``retries % 8`` has no address-domain identifier: not flagged."""
        result = run_lint(tmp_path, {"kernel/a.py": """\
            def backoff(retries):
                return retries % 8
        """}, rules=single_rule("geometry-literal"))
        assert result.findings == []

    def test_params_layer_exempt(self, tmp_path):
        """Top-level modules (layer of params.py) may hold raw geometry."""
        result = run_lint(tmp_path, {"params.py": """\
            def derived(page_index):
                return page_index & 0xFFFF
        """}, rules=single_rule("geometry-literal"))
        assert result.findings == []


# -- self-clean and CLI ------------------------------------------------------


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True,
    )


class TestSelfClean:
    def test_repo_lints_clean(self):
        """The acceptance gate: the shipped tree has zero findings."""
        root = default_root()
        baseline = Baseline.load(find_baseline(root))
        result = LintEngine(root, baseline=baseline).run()
        assert result.findings == []
        assert result.files_scanned > 50

    def test_committed_baseline_is_empty(self):
        baseline_path = find_baseline(default_root())
        if not baseline_path.exists():
            pytest.skip("no committed baseline")
        doc = json.loads(baseline_path.read_text())
        assert doc["findings"] == []


class TestCli:
    def test_exit_zero_and_json_shape(self):
        proc = run_cli("--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        record = json.loads(proc.stdout)
        assert record["ok"] is True
        assert record["findings"] == []
        assert record["files_scanned"] > 50

    def test_list_rules_covers_catalog(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for entry in rule_catalog():
            assert entry["id"] in proc.stdout

    def test_nonzero_exit_on_findings(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": "import time\nt = time.time()\n",
        })
        proc = run_cli("--root", str(root), "--no-baseline")
        assert proc.returncode == 1
        assert "[wall-clock]" in proc.stdout

    def test_path_scoping_filters_findings(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": "import time\nt = time.time()\n",
            "sim/b.py": "import time\nt = time.time()\n",
        })
        proc = run_cli("--root", str(root), "--no-baseline",
                       str(root / "kernel"))
        assert proc.returncode == 1
        assert "kernel/a.py" in proc.stdout
        assert "sim/b.py" not in proc.stdout

    def test_unknown_path_is_usage_error(self):
        proc = run_cli("no/such/path.py")
        assert proc.returncode == 2

    def test_write_baseline_then_clean(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": "import time\nt = time.time()\n",
        })
        baseline = tmp_path / "baseline.json"
        wrote = run_cli("--root", str(root), "--baseline", str(baseline),
                        "--write-baseline")
        assert wrote.returncode == 0
        assert json.loads(baseline.read_text())["findings"]
        clean = run_cli("--root", str(root), "--baseline", str(baseline))
        assert clean.returncode == 0


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed")
def test_mypy_clean_over_lint_package():
    """CI installs mypy; locally this runs only where mypy exists."""
    repo_root = find_baseline(default_root()).parent
    proc = subprocess.run(
        [shutil.which("mypy"), "src/repro"],
        capture_output=True, text=True, cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
