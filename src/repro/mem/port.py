"""Per-core memory ports: the translate → coherence → data path.

Every core — CPU or MTTOP — owns one :class:`CoreMemoryPort`.  A memory
operation flows through it exactly as the paper describes (Section 3.2):

1. the virtual address is looked up in the core's private TLB (unless the
   system shape disables TLBs — the ``ccsvm-no-tlb`` preset — in which
   case every access pays a hardware walk);
2. on a TLB miss the core's hardware page-table walker walks the process
   page table (identified by the CR3 the core was given);
3. if the walk faults, the fault is handled — directly by the OS for a CPU
   core, or forwarded through the MIFD to a CPU core for an MTTOP core;
4. the physical address is presented to the MOESI coherent memory hierarchy
   (L1 → directory/L2 → DRAM), which returns the access latency;
5. the data itself is read from / written to simulated physical memory, so
   programs compute real results.

Because steps 1 and 4 are overwhelmingly the common case — a TLB hit
followed by an L1 hit with sufficient permission — the port takes a
combined **fast path** for them: the TLB entry yields the physical
address with zero latency and the coherent L1 is probed through
:meth:`~repro.coherence.protocol.CoherentMemorySystem.l1_load_hit_ps` /
``l1_store_hit_ps``, which perform the identical state transitions and
counter updates but skip the per-access ``AccessResult`` allocation and
enum dispatch of the general transaction path.  Anything else — TLB miss,
L1 miss, upgrade-from-invalid — falls back to the unchanged general path,
so timing and statistics are bit-for-bit identical either way
(``fast_path=False`` keeps the legacy path selectable; the
``benchmarks/test_access_path.py`` microbenchmark measures the win).

:class:`MemoryPort` is the structural protocol all port implementations
share — this one, the APU baseline's :class:`~repro.baseline.cpu.BaselineCPUPort`,
and the GPU model's internal ports — and is what
:func:`~repro.cores.interpreter.execute_memory_operation` programs against.
"""

from __future__ import annotations

from typing import (Callable, List, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

from repro.coherence.protocol import CoherentMemorySystem
from repro.core.consistency import SequentialConsistencyChecker
from repro.errors import VirtualMemoryError
from repro.mem.batch import (BatchOp, BatchResult, OP_STORE, run_ccsvm_batch,
                             scalar_run_batch, split_ops)
from repro.memory.physical import PhysicalMemory
from repro.sim.stats import StatsRegistry
from repro.vm.manager import AddressSpace, VirtualMemoryManager
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker

#: Fault handler: ``(port, vaddr, is_write) -> latency_ps``.  CPU ports call
#: straight into the OS; MTTOP ports are wired to the MIFD's fault forwarding.
PageFaultHandler = Callable[["CoreMemoryPort", int, bool], int]


@runtime_checkable
class MemoryPort(Protocol):
    """What every memory port provides to the instruction interpreters."""

    #: Engine time of the issuing core.  Cores write this before each
    #: access; implementations default it to 0 so the interpreters can
    #: assign it unconditionally instead of ``hasattr``-probing per step.
    current_time_ps: int

    def load(self, vaddr: int) -> Tuple[int, int]:
        """Load the word at ``vaddr``; returns ``(value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def store(self, vaddr: int, value: int) -> int:
        """Store ``value`` to ``vaddr``; returns the latency."""
        ...  # pragma: no cover - protocol

    def atomic_add(self, vaddr: int, delta: int) -> Tuple[int, int]:
        """Atomic fetch-and-add; returns ``(old_value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def atomic_cas(self, vaddr: int, expected: int, new: int) -> Tuple[int, int]:
        """Atomic compare-and-swap; returns ``(old_value, latency_ps)``."""
        ...  # pragma: no cover - protocol

    def run_batch(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run a mixed batch of ``(kind, vaddr, a, b)`` ops in order;
        returns ``(values, latencies)`` with ``None`` values for stores."""
        ...  # pragma: no cover - protocol

    def load_batch(self, vaddrs: Sequence[int]) -> BatchResult:
        """Load a vector of addresses; returns ``(values, latencies)``."""
        ...  # pragma: no cover - protocol

    def store_batch(self, vaddrs: Sequence[int],
                    values: Sequence[int]) -> List[int]:
        """Store a vector of values; returns the per-op latencies."""
        ...  # pragma: no cover - protocol


class CoreMemoryPort:
    """The translation + coherence + data path for one CCSVM core.

    ``fast_path=False`` is kept only as the reference that
    ``tests/mem/test_fast_path.py`` and ``benchmarks/test_access_path.py``
    compare the combined TLB-hit + L1-hit fast path against.
    """

    def __init__(self, node: str, tlb: Optional[TLB], walker: PageTableWalker,
                 coherence: CoherentMemorySystem, physical_memory: PhysicalMemory,
                 vm_manager: VirtualMemoryManager,
                 page_fault_handler: Optional[PageFaultHandler] = None,
                 stats: Optional[StatsRegistry] = None,
                 sc_checker: Optional[SequentialConsistencyChecker] = None,
                 fast_path: bool = True, batch_enabled: bool = True) -> None:
        self.node = node
        #: ``None`` models a chip shape without TLBs (every access walks).
        self.tlb = tlb
        self.walker = walker
        self.coherence = coherence
        self.physical_memory = physical_memory
        self.vm_manager = vm_manager
        self.page_fault_handler = page_fault_handler
        self.stats = stats if stats is not None else StatsRegistry()
        self.sc_checker = sc_checker
        self.fast_path = fast_path
        #: The ``batch_access`` config knob; when off, batch calls loop
        #: over the scalar methods instead of the columnar engine.
        self.batch_enabled = batch_enabled
        self._space: Optional[AddressSpace] = None
        self._page_faults_stat = f"{node}.page_faults"
        #: Engine time of the issuing core, updated by the core before each
        #: access so SC-checker timestamps are meaningful.
        self.current_time_ps = 0

    # ------------------------------------------------------------------ #
    # Address-space (CR3) management
    # ------------------------------------------------------------------ #
    def set_address_space(self, space: AddressSpace) -> None:
        """Load a process's CR3 into this core (and flush nothing — ASIDs
        are not modelled; runtimes flush explicitly when needed)."""
        self._space = space

    @property
    def address_space(self) -> AddressSpace:
        """The process address space this core currently translates against."""
        if self._space is None:
            raise VirtualMemoryError(
                f"core {self.node} has no address space (CR3 not set)"
            )
        return self._space

    @property
    def cr3(self) -> int:
        """The physical root of the current page table."""
        return self.address_space.cr3

    @property
    def has_address_space(self) -> bool:
        """True once :meth:`set_address_space` has been called."""
        return self._space is not None

    # ------------------------------------------------------------------ #
    # Translation
    # ------------------------------------------------------------------ #
    def _default_fault_handler(self, vaddr: int, is_write: bool) -> int:
        return self.vm_manager.handle_page_fault(self.address_space, vaddr,
                                                 is_write=is_write)

    def translate(self, vaddr: int, is_write: bool) -> Tuple[int, int]:
        """Translate ``vaddr``; return ``(paddr, latency_ps)``.

        Handles TLB hits, hardware walks, page faults (possibly forwarded to
        a CPU through the MIFD) and TLB refills.
        """
        if self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                return entry.physical_address(vaddr), 0
        return self._translate_slow(vaddr, is_write)

    def _translate_slow(self, vaddr: int, is_write: bool) -> Tuple[int, int]:
        """Walk (and, on a fault, handle + re-walk), then refill the TLB."""
        space = self.address_space
        latency = 0
        walk = self.walker.walk(space.page_table, vaddr)
        latency += walk.latency_ps
        if walk.page_fault:
            if self.page_fault_handler is not None:
                latency += self.page_fault_handler(self, vaddr, is_write)
            else:
                latency += self._default_fault_handler(vaddr, is_write)
            self.stats.add(self._page_faults_stat)
            # The faulting access retries its walk after the handler returns.
            walk = self.walker.walk(space.page_table, vaddr)
            latency += walk.latency_ps
            if walk.page_fault:
                raise VirtualMemoryError(
                    f"page fault at {vaddr:#x} persists after handling"
                )
        translation = walk.translation
        assert translation is not None
        if self.tlb is not None:
            self.tlb.insert(translation.vpn, translation.frame_address,
                            translation.writable)
        return translation.physical_address(vaddr), latency

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #
    def _resolve_load(self, vaddr: int) -> Tuple[int, int]:
        """Translate + obtain read permission; returns ``(paddr, latency)``.

        The combined fast path: a TLB hit yields the physical address for
        free and the coherent L1 is probed for a read hit; everything
        else falls back to the general transaction path.
        """
        if self.fast_path and self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                paddr = entry.physical_address(vaddr)
                latency = self.coherence.l1_load_hit_ps(self.node, paddr)
                if latency is None:
                    latency = self.coherence.load(self.node, paddr,
                                                  self.current_time_ps).latency_ps
                return paddr, latency
            paddr, translate_ps = self._translate_slow(vaddr, is_write=False)
        else:
            paddr, translate_ps = self.translate(vaddr, is_write=False)
        result = self.coherence.load(self.node, paddr, self.current_time_ps)
        return paddr, translate_ps + result.latency_ps

    def _write_transaction(self, paddr: int, atomic: bool) -> int:
        """General coherence transaction for a store/atomic; returns latency."""
        if atomic:
            return self.coherence.atomic(self.node, paddr,
                                         self.current_time_ps).latency_ps
        return self.coherence.store(self.node, paddr,
                                    self.current_time_ps).latency_ps

    def _resolve_write(self, vaddr: int, atomic: bool) -> Tuple[int, int]:
        """Translate + obtain exclusive permission; returns ``(paddr, latency)``."""
        if self.fast_path and self.tlb is not None:
            entry = self.tlb.lookup(vaddr)
            if entry is not None:
                paddr = entry.physical_address(vaddr)
                latency = self.coherence.l1_store_hit_ps(self.node, paddr,
                                                         self.current_time_ps,
                                                         atomic=atomic)
                if latency is None:
                    latency = self._write_transaction(paddr, atomic)
                return paddr, latency
            paddr, translate_ps = self._translate_slow(vaddr, is_write=True)
        else:
            paddr, translate_ps = self.translate(vaddr, is_write=True)
        return paddr, translate_ps + self._write_transaction(paddr, atomic)

    def load(self, vaddr: int) -> Tuple[int, int]:
        """Coherent load of the word at ``vaddr``; returns ``(value, latency_ps)``."""
        paddr, latency = self._resolve_load(vaddr)
        value = self.physical_memory.read_word(paddr)
        if self.sc_checker is not None:
            self.sc_checker.record_load(self.node, paddr, value, self.current_time_ps)
        return value, latency

    def store(self, vaddr: int, value: int) -> int:
        """Coherent store of ``value`` to ``vaddr``; returns the latency."""
        paddr, latency = self._resolve_write(vaddr, atomic=False)
        self.physical_memory.write_word(paddr, value)
        if self.sc_checker is not None:
            self.sc_checker.record_store(self.node, paddr, value, self.current_time_ps)
        return latency

    def atomic_add(self, vaddr: int, delta: int) -> Tuple[int, int]:
        """Atomic fetch-and-add; returns ``(old_value, latency_ps)``.

        Performed at the L1 after obtaining exclusive coherence permission,
        as the paper's MTTOP cores do (Section 3.2.4).
        """
        paddr, latency = self._resolve_write(vaddr, atomic=True)
        old = self.physical_memory.read_word(paddr)
        new = old + delta
        self.physical_memory.write_word(paddr, new)
        if self.sc_checker is not None:
            self.sc_checker.record_atomic(self.node, paddr, old, new,
                                          self.current_time_ps)
        return old, latency

    def atomic_cas(self, vaddr: int, expected: int, new: int) -> Tuple[int, int]:
        """Atomic compare-and-swap; returns ``(old_value, latency_ps)``."""
        paddr, latency = self._resolve_write(vaddr, atomic=True)
        old = self.physical_memory.read_word(paddr)
        stored = new if old == expected else old
        self.physical_memory.write_word(paddr, stored)
        if self.sc_checker is not None:
            self.sc_checker.record_atomic(self.node, paddr, old, stored,
                                          self.current_time_ps)
        return old, latency

    # ------------------------------------------------------------------ #
    # Batched access
    # ------------------------------------------------------------------ #
    def _use_columnar(self) -> bool:
        """Whether the columnar engine may run instead of a scalar loop.

        The engine replicates exactly the combined fast path, so it
        requires the same preconditions: fast path on, a TLB with the
        standard page geometry, and no SC checker (the checker records
        per-access orderings the bulk path would have to replay anyway).
        """
        tlb = self.tlb
        return (self.batch_enabled and self.fast_path
                and self.sc_checker is None
                and tlb is not None and tlb.batch_shift is not None)

    def run_batch(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Run a mixed op batch in order; see :mod:`repro.mem.batch`."""
        vaddrs, kinds, vals, vals2 = split_ops(ops)
        if self._use_columnar():
            return run_ccsvm_batch(self, vaddrs, kinds, vals, vals2)
        return scalar_run_batch(self, vaddrs, kinds, vals, vals2)

    def load_batch(self, vaddrs: Sequence[int]) -> BatchResult:
        """Load a vector of addresses; returns ``(values, latencies)``."""
        if self._use_columnar():
            return run_ccsvm_batch(self, vaddrs, None, None, None)
        return scalar_run_batch(self, vaddrs, None, None, None)

    def store_batch(self, vaddrs: Sequence[int],
                    values: Sequence[int]) -> List[int]:
        """Store a vector of values; returns the per-op latencies."""
        kinds = [OP_STORE] * len(vaddrs)
        if self._use_columnar():
            return run_ccsvm_batch(self, vaddrs, kinds, values, None)[1]
        return scalar_run_batch(self, vaddrs, kinds, values, None)[1]
