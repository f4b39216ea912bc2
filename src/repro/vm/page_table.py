"""x86-style 4-level page tables stored in simulated physical memory.

The page table is a radix tree with 9 bits of virtual address per level and
4 KiB leaf pages, exactly like x86-64 long mode.  Table nodes are real pages
allocated from the machine's frame allocator and their entries are stored in
the simulated :class:`~repro.memory.physical.PhysicalMemory`, so a hardware
page-table walk performs real (and therefore countable/chargeable) memory
reads.

Only the mechanisms needed by the paper are modelled: present/writable bits,
mapping, unmapping and permission changes.  Accessed/dirty bit maintenance is
not modelled because the evaluation never relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import AlignmentError, PageFaultError
from repro.memory.address import PAGE_SIZE, WORD_SIZE, is_aligned
from repro.memory.physical import FrameAllocator, PhysicalMemory

#: Number of address bits translated per page-table level.
BITS_PER_LEVEL = 9

#: Number of levels in the radix tree (PML4, PDPT, PD, PT in x86 terms).
LEVELS = 4

#: Entries per page-table node.
ENTRIES_PER_NODE = 1 << BITS_PER_LEVEL

#: Number of virtual address bits covered by the table (48-bit canonical VA).
VIRTUAL_ADDRESS_BITS = 12 + BITS_PER_LEVEL * LEVELS

# Entry flag bits.
FLAG_PRESENT = 1 << 0
FLAG_WRITABLE = 1 << 1
ADDRESS_MASK = ~0xFFF


@dataclass(frozen=True)
class PageTableEntry:
    """Decoded view of one 64-bit page-table entry."""

    raw: int

    @property
    def present(self) -> bool:
        """True when the entry maps a next-level node or a frame."""
        return bool(self.raw & FLAG_PRESENT)

    @property
    def writable(self) -> bool:
        """True when writes through this entry are permitted."""
        return bool(self.raw & FLAG_WRITABLE)

    @property
    def frame_address(self) -> int:
        """Physical address of the next-level node or mapped frame."""
        return self.raw & ADDRESS_MASK & ((1 << 52) - 1)

    @staticmethod
    def encode(frame_address: int, present: bool = True, writable: bool = True) -> int:
        """Build the raw 64-bit representation of an entry."""
        if not is_aligned(frame_address, PAGE_SIZE):
            raise AlignmentError(f"frame address {frame_address:#x} is not page aligned")
        raw = frame_address
        if present:
            raw |= FLAG_PRESENT
        if writable:
            raw |= FLAG_WRITABLE
        return raw


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of a successful translation."""

    vpn: int
    frame_address: int
    writable: bool

    def physical_address(self, vaddr: int) -> int:
        """Apply the page offset of ``vaddr`` to the mapped frame."""
        return self.frame_address + (vaddr % PAGE_SIZE)


def level_index(vaddr: int, level: int) -> int:
    """Return the index into the ``level``-th table node for ``vaddr``.

    Level 0 is the root (PML4); level ``LEVELS - 1`` is the leaf table.
    """
    shift = 12 + BITS_PER_LEVEL * (LEVELS - 1 - level)
    return (vaddr >> shift) & (ENTRIES_PER_NODE - 1)


class PageTable:
    """One process's page table, rooted at a CR3 physical address."""

    def __init__(self, memory: PhysicalMemory, frames: FrameAllocator) -> None:
        self._memory = memory
        self._frames = frames
        self.root_paddr = self._allocate_node()
        #: Number of page-table nodes (including the root) currently allocated.
        self.node_count = 1
        #: Number of leaf mappings currently installed.
        self.mapped_pages = 0
        #: VPN -> translation of its last successful hardware walk
        #: (:class:`~repro.vm.walker.PageTableWalker`).  Every method that
        #: rewrites a leaf entry drops that VPN.
        self.walk_memo: Dict[int, TranslationResult] = {}

    # ------------------------------------------------------------------ #
    # Node helpers
    # ------------------------------------------------------------------ #
    def _allocate_node(self) -> int:
        frame = self._frames.allocate()
        self._memory.zero_page(frame)
        return frame

    def _entry_paddr(self, node_paddr: int, index: int) -> int:
        return node_paddr + index * WORD_SIZE

    def _read_entry(self, node_paddr: int, index: int) -> PageTableEntry:
        raw = self._memory.read_unsigned(self._entry_paddr(node_paddr, index))
        return PageTableEntry(raw)

    def _write_entry(self, node_paddr: int, index: int, raw: int) -> None:
        self._memory.write_word(self._entry_paddr(node_paddr, index), raw)

    # ------------------------------------------------------------------ #
    # Mapping API (used by the OS model)
    # ------------------------------------------------------------------ #
    def map(self, vaddr: int, frame_address: int, writable: bool = True) -> None:
        """Install a translation from the page containing ``vaddr`` to a frame."""
        if not is_aligned(frame_address, PAGE_SIZE):
            raise AlignmentError(f"frame address {frame_address:#x} is not page aligned")
        node = self.root_paddr
        for level in range(LEVELS - 1):
            index = level_index(vaddr, level)
            entry = self._read_entry(node, index)
            if not entry.present:
                child = self._allocate_node()
                self.node_count += 1
                self._write_entry(node, index, PageTableEntry.encode(child))
                node = child
            else:
                node = entry.frame_address
        leaf_index = level_index(vaddr, LEVELS - 1)
        existing = self._read_entry(node, leaf_index)
        if not existing.present:
            self.mapped_pages += 1
        self._write_entry(node, leaf_index,
                          PageTableEntry.encode(frame_address, writable=writable))
        self.walk_memo.pop(vaddr // PAGE_SIZE, None)

    def unmap(self, vaddr: int) -> int:
        """Remove the translation for the page containing ``vaddr``.

        Returns the frame address the page was mapped to so the caller can
        free it.  Raises :class:`PageFaultError` if the page was not mapped.
        Intermediate nodes are intentionally not reclaimed (real OSes rarely
        bother either, and it keeps the model simple).
        """
        node = self.root_paddr
        for level in range(LEVELS - 1):
            entry = self._read_entry(node, level_index(vaddr, level))
            if not entry.present:
                raise PageFaultError(vaddr, f"unmap of unmapped address {vaddr:#x}")
            node = entry.frame_address
        leaf_index = level_index(vaddr, LEVELS - 1)
        entry = self._read_entry(node, leaf_index)
        if not entry.present:
            raise PageFaultError(vaddr, f"unmap of unmapped address {vaddr:#x}")
        self._write_entry(node, leaf_index, 0)
        self.walk_memo.pop(vaddr // PAGE_SIZE, None)
        self.mapped_pages -= 1
        return entry.frame_address

    def set_writable(self, vaddr: int, writable: bool) -> None:
        """Change the writable permission of an existing mapping."""
        node = self.root_paddr
        for level in range(LEVELS - 1):
            entry = self._read_entry(node, level_index(vaddr, level))
            if not entry.present:
                raise PageFaultError(vaddr, f"permission change on unmapped {vaddr:#x}")
            node = entry.frame_address
        leaf_index = level_index(vaddr, LEVELS - 1)
        entry = self._read_entry(node, leaf_index)
        if not entry.present:
            raise PageFaultError(vaddr, f"permission change on unmapped {vaddr:#x}")
        self._write_entry(node, leaf_index,
                          PageTableEntry.encode(entry.frame_address, writable=writable))
        self.walk_memo.pop(vaddr // PAGE_SIZE, None)

    # ------------------------------------------------------------------ #
    # Translation (software walk — no timing)
    # ------------------------------------------------------------------ #
    def translate(self, vaddr: int) -> Optional[TranslationResult]:
        """Walk the table for ``vaddr``; return ``None`` if not mapped."""
        node = self.root_paddr
        for level in range(LEVELS - 1):
            entry = self._read_entry(node, level_index(vaddr, level))
            if not entry.present:
                return None
            node = entry.frame_address
        entry = self._read_entry(node, level_index(vaddr, LEVELS - 1))
        if not entry.present:
            return None
        return TranslationResult(vpn=vaddr // PAGE_SIZE,
                                 frame_address=entry.frame_address,
                                 writable=entry.writable)

    def walk_entry_addresses(self, vaddr: int) -> List[int]:
        """Return the physical addresses of the entries a hardware walk reads.

        The list always has one address per level actually visited; the walk
        stops early at the first non-present entry, exactly like hardware.
        """
        addresses: List[int] = []
        node = self.root_paddr
        for level in range(LEVELS):
            index = level_index(vaddr, level)
            addresses.append(self._entry_paddr(node, index))
            entry = self._read_entry(node, index)
            if not entry.present or level == LEVELS - 1:
                break
            node = entry.frame_address
        return addresses

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def mappings(self) -> Iterator[Tuple[int, TranslationResult]]:
        """Yield ``(vpn, translation)`` for every installed leaf mapping.

        Used by tests and by the shootdown model; performs a full tree walk.
        """
        def recurse(node: int, level: int, prefix: int) -> Iterator[Tuple[int, TranslationResult]]:
            for index in range(ENTRIES_PER_NODE):
                entry = self._read_entry(node, index)
                if not entry.present:
                    continue
                vpn_part = (prefix << BITS_PER_LEVEL) | index
                if level == LEVELS - 1:
                    yield vpn_part, TranslationResult(
                        vpn=vpn_part,
                        frame_address=entry.frame_address,
                        writable=entry.writable,
                    )
                else:
                    yield from recurse(entry.frame_address, level + 1, vpn_part)

        yield from recurse(self.root_paddr, 0, 0)
