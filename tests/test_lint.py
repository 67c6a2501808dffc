"""Tests for ``repro.lint`` — the domain-aware static analysis.

Three tiers:

* fixture pairs — for every rule, a violating snippet caught at the
  right line and a clean snippet that passes;
* mutation tests — delete a taxonomy entry / event-registry entry /
  suite registration from a *copy* of the real package and assert the
  closure rules fire (proving the gates are live, not vacuous);
* self-clean and CLI — the shipped package lints clean, which is what
  CI gates, and severities, exit codes and path scoping behave.
"""

import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, KNOWN_RULE_IDS, rule_catalog
from repro.lint.cli import default_root
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

    def test_value_count_must_match_registered_keys(self, tmp_path):
        files = dict(EVENT_FILES)
        files["obs/events.py"] = """\
            EVENT_NAMES = {
                "ctxsw": Event(INSTANT, "switch", args=("to", "pid")),
                "wakeup": Event(INSTANT, "woken", args=("pid",)),
                "walk": Event(SPAN, "walk", "tlb-reload", ("ea",)),
                "curve": Event(TRACK, "curve", args=("a", "b")),
                "syscall:*": Event(INSTANT, "syscall entry"),
                "tlb_miss": Event(MONITOR, "tlb miss"),
            }
            DEFAULT_MONITOR_EVENTS = frozenset({"tlb_miss"})
        """
        files["kernel/a.py"] = """\
            def publish(machine, task, name, values):
                machine.tracer.instant("ctxsw", "sched", task.name, task.pid)
                machine.tracer.complete("walk", "mmu", 5, 0x1000)
                machine.tracer.counter("curve", *values)
                machine.monitor.count("tlb_miss", 3)
                machine.tracer.instant("wakeup", "sched")
                machine.tracer.complete("walk", "mmu", 5, 1, 2)
                machine.tracer.instant(f"syscall:{name}", "kernel", name)
                machine.tracer.instant("ctxsw", "sched", args={"pid": 1})
        """
        result = run_lint(tmp_path, files,
                          rules=single_rule("event-registry"))
        assert [(f.line, f.message.split(" passes ")[1])
                for f in result.findings] == [
            (6, "0 value(s) but its EVENT_NAMES entry registers 1 key(s)"),
            (7, "2 value(s) but its EVENT_NAMES entry registers 1 key(s)"),
            (8, "1 value(s) but its EVENT_NAMES entry registers 0 key(s)"),
            (9, "0 value(s) but its EVENT_NAMES entry registers 2 key(s)"),
        ]

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


# -- pragmas -----------------------------------------------------------------


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


# -- mutation tests on the real tree -----------------------------------------


def mutated_package(tmp_path, mutate):
    """Copy the installed package, apply ``mutate(root)``, return root."""
    root = tmp_path / "repro"
    shutil.copytree(default_root(), root,
                    ignore=shutil.ignore_patterns("__pycache__"))
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

    def test_extra_event_value_fires(self, tmp_path):
        def mutate(root):
            path = root / "kernel/sched.py"
            source = path.read_text()
            mutated = source.replace(
                'tracer.instant("wakeup", "sched", task.pid)',
                'tracer.instant("wakeup", "sched", task.pid, task.cpu)',
            )
            assert mutated != source
            path.write_text(mutated)

        result = LintEngine(mutated_package(tmp_path, mutate)).run()
        (finding,) = result.findings
        assert finding.rule == "event-registry"
        assert finding.path == "kernel/sched.py"
        assert "'wakeup' passes 2 value(s)" in finding.message

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
        result = LintEngine(default_root()).run()
        assert result.findings == []
        assert result.files_scanned > 50


class TestSeverity:
    def test_catalog_is_self_describing(self):
        for entry in rule_catalog():
            assert entry["severity"] in ("error", "warn")
            assert entry["kind"] in ("file", "project", "pseudo")
        by_id = {entry["id"]: entry for entry in rule_catalog()}
        assert by_id["geometry-literal"]["severity"] == "warn"

    def test_warn_findings_do_not_fail(self, tmp_path):
        result = run_lint(tmp_path, {
            "kernel/a.py": """\
                def page_index(ea):
                    return (ea >> 12) & 0xFFFF
            """,
        })
        assert result.ok  # warn-only trees pass by default
        assert result.warnings and not result.errors
        record = result.to_record()
        assert record["counts"]["error"] == 0
        assert record["counts"]["warn"] == len(result.warnings)
        assert all(
            f["severity"] == "warn" for f in record["findings"]
        )


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
        proc = run_cli("--root", str(root))
        assert proc.returncode == 1
        assert "[wall-clock]" in proc.stdout

    def test_path_scoping_filters_findings(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": "import time\nt = time.time()\n",
            "sim/b.py": "import time\nt = time.time()\n",
        })
        proc = run_cli("--root", str(root), str(root / "kernel"))
        assert proc.returncode == 1
        assert "kernel/a.py" in proc.stdout
        assert "sim/b.py" not in proc.stdout

    def test_unknown_path_is_usage_error(self, tmp_path):
        """A missing path, and one outside the package that would filter
        every finding away, both fail as usage errors."""
        outside = tmp_path / "README.md"
        outside.write_text("not part of the package\n")
        for raw in ("no/such/path.py", str(outside)):
            proc = run_cli(raw)
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert raw in proc.stderr

    def test_fail_on_warn(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": """\
                def page_index(ea):
                    return (ea >> 12) & 0xFFFF
            """,
        })
        lenient = run_cli("--root", str(root))
        assert lenient.returncode == 0, lenient.stdout + lenient.stderr
        strict = run_cli("--root", str(root), "--fail-on-warn")
        assert strict.returncode == 1
        assert "warn" in strict.stdout


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed")
def test_mypy_clean_over_lint_package():
    """CI installs mypy; locally this runs only where mypy exists."""
    repo_root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [shutil.which("mypy"), "src/repro"],
        capture_output=True, text=True, cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
