"""Block address translation registers (§3, §5.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.hw.bat import BatArray, BatRegister, block_length_mask
from repro.params import BAT_MAX_BLOCK, BAT_MIN_BLOCK


class TestBlockLengthMask:
    def test_smallest_block(self):
        assert block_length_mask(128 * 1024) == 0

    def test_doubling_sets_bits(self):
        assert block_length_mask(256 * 1024) == 0b1
        assert block_length_mask(512 * 1024) == 0b11
        assert block_length_mask(32 * 1024 * 1024) == 0xFF

    def test_largest_block(self):
        assert block_length_mask(BAT_MAX_BLOCK) == 0x7FF

    def test_rejects_too_small(self):
        with pytest.raises(ConfigError):
            block_length_mask(BAT_MIN_BLOCK // 2)

    def test_rejects_too_large(self):
        with pytest.raises(ConfigError):
            block_length_mask(BAT_MAX_BLOCK * 2)

    def test_rejects_non_power_of_two_multiple(self):
        with pytest.raises(ConfigError):
            block_length_mask(3 * 128 * 1024)


class TestBatRegister:
    def test_mapping_requires_alignment(self):
        with pytest.raises(ConfigError):
            BatRegister.mapping(0xC0020000, 0, 32 * 1024 * 1024)

    def test_match_inside_block(self):
        bat = BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        assert bat.matches(0xC0000000)
        assert bat.matches(0xC1FFFFFF)
        assert not bat.matches(0xC2000000)
        assert not bat.matches(0xBFFFFFFF)

    def test_invalid_bat_never_matches(self):
        assert not BatRegister().matches(0)

    def test_translate_preserves_block_offset(self):
        bat = BatRegister.mapping(0xC0000000, 0x02000000, 16 * 1024 * 1024)
        assert bat.translate(0xC0000000) == 0x02000000
        assert bat.translate(0xC0ABCDEF) == 0x02ABCDEF

    def test_translate_identity_mapping(self):
        bat = BatRegister.mapping(0xF8000000, 0xF8000000, 8 * 1024 * 1024)
        assert bat.translate(0xF8123456) == 0xF8123456

    def test_size_bytes(self):
        bat = BatRegister.mapping(0, 0, 512 * 1024)
        assert bat.size_bytes == 512 * 1024

    @given(st.integers(0, (32 * 1024 * 1024) - 1))
    def test_translate_offset_within_32mb_block(self, offset):
        bat = BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        ea = 0xC0000000 + offset
        assert bat.matches(ea)
        assert bat.translate(ea) == offset


class TestBatArray:
    def test_empty_array_translates_nothing(self):
        array = BatArray()
        assert array.lookup(0xC0000000, instruction=False) is None
        assert array.translate(0xC0000000, instruction=False) is None

    def test_instruction_and_data_banks_are_separate(self):
        array = BatArray()
        bat = BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        array.set(0, bat, instruction=False)
        assert array.translate(0xC0000000, instruction=False) == 0
        assert array.translate(0xC0000000, instruction=True) is None

    def test_map_both_programs_both_banks(self):
        array = BatArray()
        bat = BatRegister.mapping(0xC0000000, 0, 32 * 1024 * 1024)
        array.map_both(0, bat)
        assert array.translate(0xC0001234, instruction=True) == 0x1234
        assert array.translate(0xC0001234, instruction=False) == 0x1234

    def test_lowest_numbered_match_wins(self):
        array = BatArray()
        array.set(0, BatRegister.mapping(0xC0000000, 0x01000000,
                                         16 * 1024 * 1024), instruction=False)
        array.set(1, BatRegister.mapping(0xC0000000, 0x02000000,
                                         16 * 1024 * 1024), instruction=False)
        assert array.translate(0xC0000000, instruction=False) == 0x01000000

    def test_clear(self):
        array = BatArray()
        array.set(0, BatRegister.mapping(0, 0, 128 * 1024), instruction=True)
        array.clear(0, instruction=True)
        assert array.translate(0, instruction=True) is None

    def test_clear_all(self):
        array = BatArray()
        array.map_both(0, BatRegister.mapping(0, 0, 128 * 1024))
        array.clear_all()
        assert array.translate(0, instruction=False) is None
        assert array.translate(0, instruction=True) is None

    def test_resolved_memo_lives_until_the_bank_changes(self):
        array = BatArray()
        array.resolved["op"] = ()
        array.clear(2, instruction=False)  # already invalid: no change
        assert array.resolved == {"op": ()}
        array.set(0, BatRegister.mapping(0, 0, 128 * 1024), instruction=False)
        assert array.resolved == {}
        array.resolved["op"] = ()
        array.clear(0, instruction=False)
        assert array.resolved == {}

    def test_set_rejects_bad_index(self):
        with pytest.raises(ConfigError):
            BatArray().set(4, BatRegister(), instruction=True)
