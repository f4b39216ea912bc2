"""Radeon-like GPU execution model for the APU baseline.

The Llano GPU has 5 SIMD processing units of 16 VLIW Radeon cores each at
600 MHz (Table 2).  The model executes every work item's kernel program
functionally against the APU's flat memory and accounts for its off-chip
traffic in one of two modes:

* **uncached** (the default, and what the paper's OpenCL path implies): the
  kernels operate on zero-copy host-resident buffers that the GPU must not
  cache (Section 2.3 — the Fusion Control Link is only coherent "assuming
  the GPU does not cache this memory space"), so every access crosses the
  unified north bridge to DRAM.  The GPU's memory coalescer merges accesses
  from the same wavefront that fall in the same 64-byte line, which is why
  the APU's GPU generates far fewer DRAM transactions than its CPU would
  for the same strided access pattern (Section 5.1).
* **cached** (an ablation): accesses go through a small GPU cache backed by
  DRAM, approximating a hypothetical design that lets the GPU cache shared
  buffers without coherence.

Timing is a throughput model appropriate for a massively threaded device:
the kernel takes the larger of its compute-limited time and its
memory-bandwidth-limited time, plus a small per-wavefront scheduling cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set

from repro.baseline.memory import FlatMemory, PrivateCacheHierarchy
from repro.config import APUGPUConfig
from repro.cores.interpreter import execute_memory_operation, not_an_operation
from repro.cores.isa import (
    ATOMIC_ADD,
    ATOMIC_CAS,
    ATOMIC_DEC,
    ATOMIC_INC,
    COMPUTE,
    LOAD,
    MALLOC,
    STORE,
    Operation,
)
from repro.errors import KernelProgramError
from repro.memory.address import CACHE_LINE_SIZE
from repro.memory.dram import DRAMModel
from repro.sim.clock import ClockDomain, ns_to_ps
from repro.sim.stats import StatsRegistry

#: Work items per hardware wavefront (AMD wavefronts are 64 wide).
WAVEFRONT_SIZE = 64

#: Codes of the operations a GPU work item may issue besides compute.
_GPU_MEMORY_CODES = frozenset((LOAD, STORE, ATOMIC_ADD, ATOMIC_CAS,
                               ATOMIC_INC, ATOMIC_DEC))


@dataclass(frozen=True)
class GPUKernelResult:
    """Outcome of one kernel launch on the GPU model."""

    time_ps: int
    work_items: int
    compute_operations: int
    memory_operations: int
    dram_reads: int
    dram_writes: int

    @property
    def time_ns(self) -> float:
        """Kernel execution time in nanoseconds."""
        return self.time_ps / 1_000.0

    @property
    def dram_transactions(self) -> int:
        """Total DRAM transactions the launch generated."""
        return self.dram_reads + self.dram_writes


class _CachedPort:
    """Memory port for the cached ablation mode."""

    def __init__(self, memory: FlatMemory, hierarchy: PrivateCacheHierarchy) -> None:
        self.memory = memory
        self.hierarchy = hierarchy

    def load(self, vaddr: int):
        latency = self.hierarchy.access(vaddr, is_write=False)
        return self.memory.read_word(vaddr), latency

    def store(self, vaddr: int, value: int) -> int:
        latency = self.hierarchy.access(vaddr, is_write=True)
        self.memory.write_word(vaddr, value)
        return latency

    def atomic_add(self, vaddr: int, delta: int):
        latency = self.hierarchy.access(vaddr, is_write=True)
        old = self.memory.read_word(vaddr)
        self.memory.write_word(vaddr, old + delta)
        return old, latency

    def atomic_cas(self, vaddr: int, expected: int, new: int):
        latency = self.hierarchy.access(vaddr, is_write=True)
        old = self.memory.read_word(vaddr)
        if old == expected:
            self.memory.write_word(vaddr, new)
        return old, latency


class _UncachedPort:
    """Memory port for the uncached (zero-copy buffer) mode.

    Accesses are applied to memory immediately; the coalescer collects the
    lines each wavefront touches and the GPU model converts them into DRAM
    transactions when the wavefront completes.
    """

    def __init__(self, memory: FlatMemory) -> None:
        self.memory = memory
        self.read_lines: Set[int] = set()
        self.written_lines: Set[int] = set()

    def _line(self, vaddr: int) -> int:
        return vaddr & ~(CACHE_LINE_SIZE - 1)

    def load(self, vaddr: int):
        self.read_lines.add(self._line(vaddr))
        return self.memory.read_word(vaddr), 0

    def store(self, vaddr: int, value: int) -> int:
        self.written_lines.add(self._line(vaddr))
        self.memory.write_word(vaddr, value)
        return 0

    def atomic_add(self, vaddr: int, delta: int):
        line = self._line(vaddr)
        self.read_lines.add(line)
        self.written_lines.add(line)
        old = self.memory.read_word(vaddr)
        self.memory.write_word(vaddr, old + delta)
        return old, 0

    def atomic_cas(self, vaddr: int, expected: int, new: int):
        line = self._line(vaddr)
        self.read_lines.add(line)
        self.written_lines.add(line)
        old = self.memory.read_word(vaddr)
        if old == expected:
            self.memory.write_word(vaddr, new)
        return old, 0

    def drain(self) -> tuple:
        """Return and clear the coalesced (read_lines, written_lines) sets."""
        reads, writes = self.read_lines, self.written_lines
        self.read_lines, self.written_lines = set(), set()
        return reads, writes


class RadeonGPUModel:
    """Executes OpenCL-style kernels with VLIW throughput timing."""

    def __init__(self, config: APUGPUConfig, memory: FlatMemory, dram: DRAMModel,
                 stats: Optional[StatsRegistry] = None,
                 cache_buffer_accesses: bool = False,
                 gpu_cache_bytes: int = 128 * 1024,
                 memory_bandwidth_gbps: float = 12.0,
                 wavefront_overhead_ns: float = 50.0) -> None:
        self.config = config
        self.memory = memory
        self.dram = dram
        self.stats = stats if stats is not None else StatsRegistry()
        self.clock = ClockDomain.from_mhz("apu_gpu", config.frequency_mhz)
        self.cache_buffer_accesses = cache_buffer_accesses
        self.memory_bandwidth_gbps = memory_bandwidth_gbps
        self.wavefront_overhead_ps = ns_to_ps(wavefront_overhead_ns)
        self._cache = PrivateCacheHierarchy(
            name="apu_gpu_cache", dram=dram,
            l1_size_bytes=gpu_cache_bytes, l1_associativity=8,
            l1_hit_ps=self.clock.period_ps, stats=self.stats)

    # ------------------------------------------------------------------ #
    # Kernel execution
    # ------------------------------------------------------------------ #
    def execute_kernel(self, kernel: Callable[..., object], args: object,
                       work_items: Iterable[int]) -> GPUKernelResult:
        """Run ``kernel(work_item_id, args)`` for every listed work item.

        The kernel must be a generator of plain memory/compute operations —
        the GPU cannot spawn tasks, wait on condition variables or call
        ``mttop_malloc`` (that is precisely the gap between OpenCL on the
        APU and xthreads on the CCSVM chip).
        """
        items: List[int] = list(work_items)
        reads_before = self.dram.stats.get(f"{self.dram.name}.reads")
        writes_before = self.dram.stats.get(f"{self.dram.name}.writes")

        compute_operations = 0
        memory_operations = 0
        for start in range(0, len(items), WAVEFRONT_SIZE):
            wavefront = items[start:start + WAVEFRONT_SIZE]
            counted = self._execute_wavefront(kernel, args, wavefront)
            compute_operations += counted[0]
            memory_operations += counted[1]

        dram_reads = self.dram.stats.get(f"{self.dram.name}.reads") - reads_before
        dram_writes = self.dram.stats.get(f"{self.dram.name}.writes") - writes_before
        time_ps = self._kernel_time_ps(len(items), compute_operations,
                                       dram_reads + dram_writes)
        self.stats.add("apu_gpu.kernels")
        self.stats.add("apu_gpu.work_items", len(items))
        self.stats.add("apu_gpu.compute_ops", compute_operations)
        self.stats.add("apu_gpu.memory_ops", memory_operations)
        return GPUKernelResult(time_ps=time_ps, work_items=len(items),
                               compute_operations=compute_operations,
                               memory_operations=memory_operations,
                               dram_reads=dram_reads, dram_writes=dram_writes)

    def _execute_wavefront(self, kernel, args, wavefront: Sequence[int]) -> tuple:
        if self.cache_buffer_accesses:
            port = _CachedPort(self.memory, self._cache)
        else:
            port = _UncachedPort(self.memory)

        compute_operations = 0
        memory_operations = 0
        for work_item in wavefront:
            send = kernel(work_item, args).send
            value = None
            while True:
                try:
                    operation = send(value)
                except StopIteration:
                    break
                if not isinstance(operation, Operation):
                    raise not_an_operation(work_item, operation)
                code = operation.code
                if code == COMPUTE:
                    compute_operations += max(1, operation.amount)
                    value = None
                    continue
                if code == MALLOC:
                    raise KernelProgramError(
                        "OpenCL kernels cannot dynamically allocate memory on the "
                        "APU baseline (no mttop_malloc equivalent)"
                    )
                if code not in _GPU_MEMORY_CODES:
                    raise KernelProgramError(
                        f"GPU model cannot execute operation {operation!r}"
                    )
                value = execute_memory_operation(operation, port,
                                                 spin_poll_ps=0).value
                compute_operations += 1
                memory_operations += 1

        if isinstance(port, _UncachedPort):
            read_lines, written_lines = port.drain()
            for _ in read_lines:
                self.dram.read(CACHE_LINE_SIZE)
            for _ in written_lines:
                self.dram.write(CACHE_LINE_SIZE)
            self.stats.add("apu_gpu.coalesced_read_lines", len(read_lines))
            self.stats.add("apu_gpu.coalesced_written_lines", len(written_lines))
        return compute_operations, memory_operations

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _kernel_time_ps(self, work_items: int, compute_operations: int,
                        dram_transactions: int) -> int:
        # Each of the 80 VLIW lanes retires one VLIW instruction per cycle,
        # packing `vliw_utilization` (1-4) scalar operations into it, so the
        # GPU's throughput is 1x-4x that of the simulated MTTOP (Table 2).
        throughput_ops_per_cycle = max(1.0, self.config.lanes * self.config.vliw_utilization)
        compute_cycles = compute_operations / throughput_ops_per_cycle
        compute_ps = self.clock.cycles_to_ps(compute_cycles)

        bytes_moved = dram_transactions * CACHE_LINE_SIZE
        memory_ps = ns_to_ps(bytes_moved / self.memory_bandwidth_gbps) \
            if self.memory_bandwidth_gbps > 0 else 0

        wavefronts = (work_items + WAVEFRONT_SIZE - 1) // WAVEFRONT_SIZE
        overhead_ps = wavefronts * self.wavefront_overhead_ps
        return max(compute_ps, memory_ps) + overhead_ps
