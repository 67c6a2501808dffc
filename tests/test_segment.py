"""Segment register file behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.hw.segment import SegmentRegisterFile
from repro.params import NUM_SEGMENT_REGISTERS, VSID_MASK


class TestReadWrite:
    def test_initially_zero(self):
        srf = SegmentRegisterFile()
        assert all(srf.read(i) == 0 for i in range(NUM_SEGMENT_REGISTERS))

    def test_write_then_read(self):
        srf = SegmentRegisterFile()
        srf.write(3, 0xABCDEF)
        assert srf.read(3) == 0xABCDEF

    def test_rejects_bad_index(self):
        srf = SegmentRegisterFile()
        with pytest.raises(ConfigError):
            srf.write(16, 0)

    def test_rejects_oversized_vsid(self):
        srf = SegmentRegisterFile()
        with pytest.raises(ConfigError):
            srf.write(0, VSID_MASK + 1)


class TestContextLoad:
    def test_load_context_sets_all_sixteen(self):
        srf = SegmentRegisterFile()
        vsids = list(range(100, 116))
        srf.load_context(vsids)
        assert srf.snapshot() == tuple(vsids)

    def test_load_context_rejects_wrong_length(self):
        srf = SegmentRegisterFile()
        with pytest.raises(ConfigError):
            srf.load_context([1, 2, 3])

    @pytest.mark.parametrize("position", range(NUM_SEGMENT_REGISTERS))
    @pytest.mark.parametrize("bad", [VSID_MASK + 1, -1])
    def test_load_context_bad_vsid_changes_nothing(self, position, bad):
        srf = SegmentRegisterFile()
        before = tuple(range(200, 216))
        srf.load_context(before)
        vsids = list(range(100, 116))
        vsids[position] = bad
        with pytest.raises(ConfigError):
            srf.load_context(vsids)
        assert srf.snapshot() == before

    def test_vsid_for_uses_top_bits(self):
        srf = SegmentRegisterFile()
        srf.load_context(list(range(16)))
        assert srf.vsid_for(0x00000000) == 0
        assert srf.vsid_for(0x10000000) == 1
        assert srf.vsid_for(0xC0001234) == 12
        assert srf.vsid_for(0xFFFFFFFF) == 15

    @given(st.integers(0, 0xFFFFFFFF))
    def test_vsid_for_matches_segment_number(self, ea):
        srf = SegmentRegisterFile()
        srf.load_context([v * 7 for v in range(16)])
        assert srf.vsid_for(ea) == ((ea >> 28) & 0xF) * 7
