"""The monitor's and the ledger's counter stores keep ``Counter`` semantics.

Both count into a ``defaultdict(int)``, which is cheaper per increment
than a ``Counter`` but adds a key on a missing-key ``[]`` read.  Every
read goes through ``.get``, so no read adds a key; a zero count still
records its key (the digests see it); and over any mix of counts,
reads and resets, both stores read exactly as a ``Counter``-backed twin
does, as plain dicts in the same key order.
"""

from collections import Counter

from hypothesis import given, strategies as st

from repro.hw.clock import CycleLedger
from repro.hw.monitor import HardwareMonitor

NAMES = st.sampled_from(["dtlb_miss", "htab_hit", "mem", "syscall", "x"])


def counter_monitor() -> HardwareMonitor:
    twin = HardwareMonitor()
    twin._counters = Counter()
    return twin


def counter_ledger() -> CycleLedger:
    twin = CycleLedger()
    twin._by_category = Counter()
    return twin


class TestReadsAddNoKey:
    def test_monitor_reads(self):
        monitor = HardwareMonitor()
        monitor.count("syscall")
        assert monitor["dtlb_miss"] == 0
        assert monitor.get("htab_hit") == 0
        assert monitor.get("htab_miss", 7) == 7
        assert monitor.delta({"itlb_miss": 2}) == {"syscall": 1}
        assert monitor.htab_hit_rate() == 0.0
        assert monitor.evict_ratio() == 0.0
        assert monitor.total_tlb_misses() == 0
        assert monitor.snapshot() == {"syscall": 1}

    def test_ledger_reads(self):
        ledger = CycleLedger()
        ledger.add(5, "mem")
        assert ledger.category("syscall") == 0
        assert ledger.breakdown() == {"mem": 5}


class TestZeroRecordsKey:
    def test_count_zero(self):
        monitor = HardwareMonitor()
        monitor.count("dcache_miss", 0)
        assert monitor.snapshot() == {"dcache_miss": 0}

    def test_add_zero(self):
        ledger = CycleLedger()
        ledger.add(0, "prefetch")
        assert ledger.breakdown() == {"prefetch": 0}
        assert ledger.total == 0


MONITOR_OPS = st.lists(st.one_of(
    st.tuples(st.just("count"), NAMES, st.integers(0, 5)),
    st.tuples(st.just("read"), NAMES),
    st.tuples(st.just("get"), NAMES, st.integers(-1, 3)),
    st.tuples(st.just("delta"), st.dictionaries(NAMES, st.integers(0, 9))),
    st.tuples(st.just("reset"), st.none() | st.lists(NAMES, max_size=3)),
), max_size=40)

LEDGER_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 50), NAMES),
    st.tuples(st.just("category"), NAMES),
    st.tuples(st.just("reset")),
), max_size=40)


class TestCounterTwin:
    @given(MONITOR_OPS)
    def test_monitor(self, ops):
        monitor, twin = HardwareMonitor(), counter_monitor()
        for op, *args in ops:
            if op == "count":
                monitor.count(*args)
                twin.count(*args)
            elif op == "read":
                assert monitor[args[0]] == twin[args[0]]
            elif op == "get":
                assert monitor.get(*args) == twin.get(*args)
            elif op == "delta":
                assert monitor.delta(args[0]) == twin.delta(args[0])
            else:
                monitor.reset(args[0])
                twin.reset(args[0])
            snapshot = monitor.snapshot()
            assert type(snapshot) is dict
            assert list(snapshot.items()) == list(twin.snapshot().items())

    @given(LEDGER_OPS)
    def test_ledger(self, ops):
        ledger, twin = CycleLedger(), counter_ledger()
        for op, *args in ops:
            if op == "add":
                assert ledger.add(*args) == twin.add(*args)
            elif op == "category":
                assert ledger.category(args[0]) == twin.category(args[0])
            else:
                ledger.reset()
                twin.reset()
            breakdown = ledger.breakdown()
            assert type(breakdown) is dict
            assert list(breakdown.items()) == list(twin.breakdown().items())
            assert ledger.total == twin.total
