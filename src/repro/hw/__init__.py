"""Functional models of the 32-bit PowerPC memory-management hardware.

The subpackage models the translation datapath of Figure 1 in the paper:
segment registers turn a 32-bit effective address into a 52-bit virtual
address; the TLB and the hashed page table turn the virtual address into a
32-bit physical address; BAT registers provide the parallel block
translation path that bypasses paging entirely.
"""

from repro.hw.addr import (
    EffectiveAddress,
    VirtualAddress,
    ea_offset,
    ea_page_index,
    ea_segment,
    make_ea,
    make_virtual_address,
    page_of,
)
from repro.hw.bat import BatArray, BatRegister
from repro.hw.cache import Cache, CacheStats
from repro.hw.hashtable import HashedPageTable
from repro.hw.machine import AccessKind, MachineModel, TranslationResult
from repro.hw.monitor import HardwareMonitor
from repro.hw.pte import HashPte, pte_api
from repro.hw.segment import SegmentRegisterFile
from repro.hw.tlb import Tlb, TlbEntry
from repro.hw.walker import HardwareWalker

__all__ = [
    "AccessKind",
    "BatArray",
    "BatRegister",
    "Cache",
    "CacheStats",
    "EffectiveAddress",
    "HardwareMonitor",
    "HardwareWalker",
    "HashPte",
    "HashedPageTable",
    "MachineModel",
    "SegmentRegisterFile",
    "Tlb",
    "TlbEntry",
    "TranslationResult",
    "VirtualAddress",
    "ea_offset",
    "ea_page_index",
    "ea_segment",
    "make_ea",
    "make_virtual_address",
    "page_of",
    "pte_api",
]
