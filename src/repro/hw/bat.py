"""Block Address Translation (BAT) registers.

§3: "The BAT registers associate virtual blocks of 128K or more with
physical segments.  If a translation via the BAT registers succeeds, the
page table translation is abandoned."

§5.1 uses one data BAT (plus the matching instruction BAT) to map the
kernel's contiguous text+static-data region, removing kernel PTEs from
the TLB and hash table entirely.

A BAT pair is modelled by its architected fields:

* ``bepi`` — block effective page index (high 15 bits of the EA),
* ``bl`` — block length mask (11 bits; 0 selects 128 KB, all-ones 256 MB),
* ``brpn`` — block real page number (high 15 bits of the PA),
* valid bits and WIMG/PP attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.params import BAT_MAX_BLOCK, BAT_MIN_BLOCK, NUM_DBATS, NUM_IBATS

#: EAs are compared against BEPI above this bit.
_BEPI_SHIFT = 17
#: Offset bits within the smallest (128 KB) block.
_LOW_MASK = (1 << _BEPI_SHIFT) - 1
_BL_FIELD_BITS = 11


def block_length_mask(size_bytes: int) -> int:
    """Architected BL encoding for a block size.

    128 KB -> 0b00000000000, 256 KB -> 0b00000000001, ... 256 MB -> all ones.
    Raises ``ConfigError`` for sizes that are not a power-of-two multiple
    of 128 KB within the architected range.
    """
    if size_bytes < BAT_MIN_BLOCK or size_bytes > BAT_MAX_BLOCK:
        raise ConfigError(f"BAT block size out of range: {size_bytes}")
    ratio = size_bytes // BAT_MIN_BLOCK
    if ratio * BAT_MIN_BLOCK != size_bytes or ratio & (ratio - 1):
        raise ConfigError(f"BAT block size must be 128K * 2^n: {size_bytes}")
    return ratio - 1


@dataclass
class BatRegister:
    """One BAT register pair (upper + lower word, modelled as fields)."""

    bepi: int = 0
    bl: int = 0
    brpn: int = 0
    valid: bool = False
    wimg: int = 0
    writable: bool = True

    @classmethod
    def mapping(
        cls,
        ea_base: int,
        pa_base: int,
        size_bytes: int,
        writable: bool = True,
        wimg: int = 0,
    ) -> "BatRegister":
        """Build a BAT pair mapping ``size_bytes`` at ``ea_base``.

        Both bases must be aligned to the block size, as the architecture
        requires (this is exactly the "finding large, contiguous, aligned
        areas" constraint §2 mentions).
        """
        bl = block_length_mask(size_bytes)
        if ea_base % size_bytes or pa_base % size_bytes:
            raise ConfigError(
                f"BAT bases must be aligned to the block size: "
                f"ea={ea_base:#x} pa={pa_base:#x} size={size_bytes:#x}"
            )
        return cls(
            bepi=ea_base >> _BEPI_SHIFT,
            bl=bl,
            brpn=pa_base >> _BEPI_SHIFT,
            valid=True,
            wimg=wimg,
            writable=writable,
        )

    @property
    def size_bytes(self) -> int:
        return (self.bl + 1) * BAT_MIN_BLOCK

    def matches(self, ea: int) -> bool:
        """Architected compare: EA high bits equal BEPI outside the BL mask."""
        if not self.valid:
            return False
        return ((ea >> _BEPI_SHIFT) & ~self.bl) == (self.bepi & ~self.bl)

    def translate(self, ea: int) -> int:
        """Physical address for a matching EA (caller checks ``matches``)."""
        block_offset = ea & ((self.bl << _BEPI_SHIFT) | _LOW_MASK)
        return ((self.brpn & ~self.bl) << _BEPI_SHIFT) | block_offset


class BatArray:
    """The full bank: four instruction BATs and four data BATs."""

    def __init__(self):
        self.ibats = [BatRegister() for _ in range(NUM_IBATS)]
        self.dbats = [BatRegister() for _ in range(NUM_DBATS)]
        self._rebuild()

    def _bank(self, instruction: bool):
        return self.ibats if instruction else self.dbats

    def _rebuild(self) -> None:
        # Valid BATs only, with the architected compare pre-masked: the
        # lookup hot path scans ``(~bl, bepi & ~bl, bat)`` triples and
        # most banks are empty or one entry, so a miss costs almost
        # nothing instead of four method calls.
        self._valid = (
            [(~bat.bl, bat.bepi & ~bat.bl, bat) for bat in self.ibats if bat.valid],
            [(~bat.bl, bat.bepi & ~bat.bl, bat) for bat in self.dbats if bat.valid],
        )
        #: Translations resolved under this bank state, memoized by the
        #: machine (:meth:`~repro.hw.machine.MachineModel.access_visits`);
        #: every reprogramming empties it.
        self.resolved: dict = {}

    def set(self, index: int, bat: BatRegister, instruction: bool) -> None:
        bank = self._bank(instruction)
        if not 0 <= index < len(bank):
            raise ConfigError(f"BAT index out of range: {index}")
        bank[index] = bat
        self._rebuild()

    def clear(self, index: int, instruction: bool) -> None:
        """Invalidate one BAT.

        An already invalid slot is left as it is, so the bank and its
        ``resolved`` memo survive: exec clears the per-process I/O slot
        whether or not the process had a window.
        """
        bank = self._bank(instruction)
        if bank[index].valid:
            bank[index] = BatRegister()
            self._rebuild()

    def clear_all(self) -> None:
        self.ibats = [BatRegister() for _ in range(NUM_IBATS)]
        self.dbats = [BatRegister() for _ in range(NUM_DBATS)]
        self._rebuild()

    def lookup(self, ea: int, instruction: bool) -> Optional[BatRegister]:
        """First matching valid BAT, or None.

        Overlapping valid BATs are a programming error in real hardware
        (results are undefined); the simulator takes the lowest-numbered
        match, and the kernel layer never programs overlaps.
        """
        block = ea >> _BEPI_SHIFT
        for inv_bl, masked_bepi, bat in self._valid[0 if instruction else 1]:
            if block & inv_bl == masked_bepi:
                return bat
        return None

    def translate(self, ea: int, instruction: bool) -> Optional[int]:
        """Physical address if a BAT covers this EA, else None."""
        bat = self.lookup(ea, instruction)
        if bat is None:
            return None
        return bat.translate(ea)

    def map_both(self, index: int, bat: BatRegister) -> None:
        """Program the same mapping into IBAT[i] and DBAT[i] (kernel map)."""
        self.set(index, bat, instruction=True)
        self.set(
            index,
            BatRegister(**{**bat.__dict__}),
            instruction=False,
        )
