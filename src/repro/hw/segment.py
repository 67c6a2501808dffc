"""The 16 segment registers of the 32-bit PowerPC MMU.

Each register holds a 24-bit VSID; the 4 high-order bits of every
effective address select one.  The lazy-flush optimization of §7 works
entirely through this file's ``load_context``: giving a process fresh
VSIDs makes every stale TLB and hash-table entry unreachable without
touching either structure.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.params import NUM_SEGMENT_REGISTERS, SEGMENT_SHIFT, VSID_MASK

#: Selects the segment register number from ``ea >> SEGMENT_SHIFT``.
_SEGMENT_INDEX_MASK = NUM_SEGMENT_REGISTERS - 1


class SegmentRegisterFile:
    """The per-CPU bank of 16 segment registers."""

    def __init__(self):
        self._vsids = [0] * NUM_SEGMENT_REGISTERS

    def read(self, index: int) -> int:
        """Read the VSID in segment register ``index``."""
        return self._vsids[index]

    def write(self, index: int, vsid: int) -> None:
        """Load one segment register (one ``mtsr`` instruction)."""
        if not 0 <= index < NUM_SEGMENT_REGISTERS:
            raise ConfigError(f"segment register index out of range: {index}")
        if not 0 <= vsid <= VSID_MASK:
            raise ConfigError(f"VSID out of range: {vsid:#x}")
        self._vsids[index] = vsid

    def load_context(self, vsids: Sequence[int]) -> None:
        """Load all 16 registers — the context-switch segment reload."""
        if len(vsids) != NUM_SEGMENT_REGISTERS:
            raise ConfigError(
                f"expected {NUM_SEGMENT_REGISTERS} VSIDs, got {len(vsids)}"
            )
        for vsid in vsids:
            if not 0 <= vsid <= VSID_MASK:
                raise ConfigError(f"VSID out of range: {vsid:#x}")
        # All-or-nothing: a bad VSID leaves every register unchanged.
        self._vsids[:] = vsids

    def vsid_for(self, ea: int) -> int:
        """The VSID the hardware selects for an effective address.

        Runs on every translation, so ``ea_segment`` is written inline.
        """
        return self._vsids[(ea >> SEGMENT_SHIFT) & _SEGMENT_INDEX_MASK]

    def snapshot(self) -> tuple:
        """Current contents, for assertions and context-switch checks."""
        return tuple(self._vsids)
