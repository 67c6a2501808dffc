"""The cycle ledger."""

import pytest

from repro.hw.clock import CycleLedger


class TestLedger:
    def test_add_accumulates(self):
        clock = CycleLedger()
        clock.add(10, "a")
        clock.add(5, "b")
        assert clock.total == 15

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CycleLedger().add(-1, "mem")

    def test_zero_charge_allowed(self):
        clock = CycleLedger()
        clock.add(0, "a")
        assert clock.total == 0

    def test_categories(self):
        clock = CycleLedger()
        clock.add(10, "mem")
        clock.add(3, "mem")
        clock.add(2, "syscall")
        assert clock.category("mem") == 13
        assert clock.category("missing") == 0
        assert clock.breakdown() == {"mem": 13, "syscall": 2}

    def test_breakdown_sums_to_total(self):
        clock = CycleLedger()
        for index in range(10):
            clock.add(index, f"cat{index % 3}")
        assert sum(clock.breakdown().values()) == clock.total

    def test_snapshot_since(self):
        clock = CycleLedger()
        clock.add(10, "mem")
        mark = clock.snapshot()
        clock.add(7, "mem")
        assert clock.since(mark) == 7

    def test_reset(self):
        clock = CycleLedger()
        clock.add(10, "a")
        clock.reset()
        assert clock.total == 0
        assert clock.breakdown() == {}
