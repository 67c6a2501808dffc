"""Tests for ``repro.lint`` — the domain-aware static analysis.

Two tiers:

* fixture pairs — for every rule, a violating snippet caught at the
  right line and a clean snippet that passes;
* self-clean and CLI — the shipped package lints clean, which is what
  CI gates, and severities, exit codes and path scoping behave.
"""

import json
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
            assert entry["kind"] in ("file", "pseudo")
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

    def test_lint_parses_only_the_given_subtree(self, tmp_path):
        root = build_tree(tmp_path, {
            "kernel/a.py": "x = 1\n",
            "kernel/b.py": "y = 2\n",
            "sim/c.py": "z = 3\n",
            "sim/broken.py": "def (:\n",
        })
        result = LintEngine(root).run(paths=[root / "kernel"])
        assert result.files_scanned == 2
        assert result.findings == []
        proc = run_cli(str(default_root() / "kernel"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        kernel_files = list((default_root() / "kernel").rglob("*.py"))
        assert f"{len(kernel_files)} files scanned" in proc.stdout

    def test_unknown_path_is_usage_error(self, tmp_path):
        """A missing path, and one outside the package, where a file
        has no layer, both fail as usage errors."""
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
