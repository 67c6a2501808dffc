"""Host-time profiler tests (``obs/hostprof.py``).

Host seconds are nondeterministic by nature, so the tests pin the
deterministic parts: the path-to-group mapping, the folding of pstats
rows into the breakdown document, and the rendering — plus one real
``profile --host`` smoke through the CLI.
"""

from __future__ import annotations

from pathlib import Path

from repro import __main__ as cli
from repro.obs import hostprof


class FakeStats:
    """The one attribute ``breakdown_from_stats`` reads."""

    def __init__(self, rows):
        self.stats = rows


def row(tt, nc=1):
    return (nc, nc, tt, tt, {})


class TestGroupFor:
    def test_specific_file_beats_package(self):
        assert hostprof.group_for("/x/src/repro/hw/tlb.py") == "hw.tlb"
        assert hostprof.group_for("/x/src/repro/hw/bats.py") == "hw.other"

    def test_windows_separators_normalized(self):
        assert hostprof.group_for("C:\\x\\repro\\hw\\cache.py") == "hw.cache"

    def test_unmatched_falls_back(self):
        assert hostprof.group_for("/usr/lib/python3.11/json/decoder.py") \
            == hostprof.OTHER_GROUP
        assert hostprof.group_for("~") == hostprof.OTHER_GROUP

    def test_every_group_fragment_resolves_uniquely(self):
        # First match wins, so a fragment must not be shadowed by an
        # earlier, more general one.
        for index, (fragment, group) in enumerate(hostprof.KERNEL_GROUPS):
            assert hostprof.group_for(f"/x/{fragment}tail.py"
                                      if fragment.endswith("/")
                                      else f"/x/{fragment}") == group, fragment

    def test_every_group_fragment_exists_in_the_package(self):
        root = Path(hostprof.__file__).resolve().parents[2]
        for fragment, _group in hostprof.KERNEL_GROUPS:
            target = root / fragment
            exists = target.is_dir() if fragment.endswith("/") \
                else target.is_file()
            assert exists, fragment


class TestBreakdown:
    def test_rows_fold_into_groups(self):
        stats = FakeStats({
            ("/x/repro/hw/tlb.py", 10, "lookup"): row(2.0, 100),
            ("/x/repro/hw/tlb.py", 20, "insert"): row(1.0, 50),
            ("/x/repro/kernel/reload.py", 5, "refill"): row(1.0, 10),
        })
        doc = hostprof.breakdown_from_stats(stats, ["E1"], {"E1": True})
        assert doc["host_seconds"] == 4.0
        assert doc["calls"] == 160
        assert list(doc["groups"]) == ["hw.tlb", "kernel.reload"]
        tlb = doc["groups"]["hw.tlb"]
        assert tlb["seconds"] == 3.0
        assert tlb["share"] == 0.75
        assert [f["function"] for f in tlb["functions"]] == [
            "lookup (tlb.py:10)", "insert (tlb.py:20)",
        ]

    def test_functions_capped_at_five(self):
        stats = FakeStats({
            ("/x/repro/hw/tlb.py", line, f"f{line}"): row(1.0)
            for line in range(8)
        })
        doc = hostprof.breakdown_from_stats(stats, ["E1"], {"E1": True})
        assert len(doc["groups"]["hw.tlb"]["functions"]) == 5

    def test_empty_stats(self):
        doc = hostprof.breakdown_from_stats(FakeStats({}), ["E1"],
                                            {"E1": True})
        assert doc["host_seconds"] == 0.0
        assert doc["groups"] == {}

    def test_render_reports_broken_shapes(self):
        stats = FakeStats({("/x/repro/sim/simulator.py", 1, "run"): row(0.5)})
        doc = hostprof.breakdown_from_stats(
            stats, ["E1", "E2"], {"E1": True, "E2": False}
        )
        text = hostprof.render_host_profile(doc)
        assert "sim" in text
        assert "SHAPE BROKEN under profiling: E2" in text

    def test_render_clean_shapes_silent(self):
        doc = hostprof.breakdown_from_stats(FakeStats({}), ["E1"],
                                            {"E1": True})
        assert "SHAPE" not in hostprof.render_host_profile(doc)


class TestCli:
    def test_profile_host_smoke(self, capsys):
        assert cli.main(["profile", "e1", "--host"]) == 0
        out = capsys.readouterr().out
        assert "host-time profile" in out
        assert "E1" in out
        assert "SHAPE BROKEN" not in out
