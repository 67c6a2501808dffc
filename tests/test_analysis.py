"""Table rendering and the experiment registry."""

import pytest

from repro.analysis import engine, specs
from repro.analysis.spec import experiment_sort_key
from repro.analysis.tables import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 123.456]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.50" in text
        assert "123" in text

    def test_none_renders_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]


class TestRegistry:
    def test_all_twenty_one_experiments_registered(self):
        assert sorted(specs.SPECS) == sorted(
            f"E{i}" for i in range(1, 22)
        )

    def test_sort_key_orders_numerically(self):
        ordered = sorted(specs.SPECS, key=experiment_sort_key)
        assert ordered[0] == "E1"
        assert ordered[-1] == "E21"

    def test_e1_runs_and_reports(self):
        result = engine.execute(specs.SPECS["E1"])
        assert result.experiment == "E1"
        assert result.shape_holds
        assert "Figure 1" in result.report
        assert result.measured["va_bits"] <= 52

    def test_e1_custom_address(self):
        result = engine.execute(
            specs.SPECS["E1"], {"ea": 0xC0000ABC, "vsid": 1}
        )
        assert result.measured["segment"] == 12
        assert result.measured["offset"] == 0xABC
        assert result.shape_holds

    def test_run_ids_subset(self):
        run = engine.run_ids(["E1"], use_cache=False)
        assert len(run.results) == 1
        assert run.results[0].experiment == "E1"
