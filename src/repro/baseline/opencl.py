"""OpenCL-style runtime model for the APU baseline.

The paper's APU comparison point runs OpenCL code whose host side looks like
Figure 3: get platform and device, create a context and command queue, build
the program, create buffers, map them to initialise inputs, set kernel
arguments, enqueue an NDRange, wait for it to finish, and map the output
buffer to read results.  :class:`OpenCLSession` mirrors those calls and
charges each its cost from :class:`~repro.config.OpenCLRuntimeConfig`:

* program **compilation** and context/queue **initialisation** are large
  fixed costs (the paper reports APU results both with and without them, so
  the session tracks them separately);
* every **kernel launch** pays driver overhead, flushes the CPU caches so
  the GPU sees up-to-date data (communication through off-chip DRAM), runs
  the kernel on the GPU model, and pays a completion cost;
* **mapping** buffers for reading/writing moves data through the CPU's
  caches, whose misses hit DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.baseline.cpu import BaselineCPUCore
from repro.baseline.gpu import RadeonGPUModel
from repro.baseline.memory import FlatMemory
from repro.config import OpenCLRuntimeConfig
from repro.cores.isa import Load, Store, word_addr
from repro.errors import RuntimeModelError
from repro.memory.address import CACHE_LINE_SIZE, WORD_SIZE
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry

#: Counter name of each cost phase :meth:`OpenCLSession._charge` books.
_PHASE_STATS = {phase: f"opencl.{phase}_ps"
                for phase in ("init", "compile", "buffer", "map", "host_write",
                              "host_read", "launch", "dma", "kernel", "finish")}


@dataclass
class OpenCLBuffer:
    """A ``cl_mem`` object: a region of (host-resident) memory."""

    buffer_id: int
    address: int
    size_bytes: int

    @property
    def words(self) -> int:
        """Capacity in 64-bit words."""
        return self.size_bytes // WORD_SIZE


@dataclass
class OpenCLKernel:
    """A compiled kernel: its name and device function."""

    name: str
    function: Callable[..., object]


class OpenCLSession:
    """One OpenCL context + command queue on the APU.

    All time the session spends is accumulated in :attr:`elapsed_ps`;
    compilation and context initialisation are additionally recorded in
    :attr:`setup_ps` so experiments can report the paper's "runtime without
    compilation and without OpenCL initialization code" variant.
    """

    def __init__(self, config: OpenCLRuntimeConfig, memory: FlatMemory,
                 host_core: BaselineCPUCore, gpu: RadeonGPUModel,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.config = config
        self.memory = memory
        self.host_core = host_core
        self.gpu = gpu
        self.stats = stats if stats is not None else StatsRegistry()
        self.elapsed_ps = 0
        self.setup_ps = 0
        self.breakdown_ps: Dict[str, int] = {}
        self._buffers: List[OpenCLBuffer] = []
        self._initialised = False
        self._program_built = False

    # ------------------------------------------------------------------ #
    # Cost accounting helpers
    # ------------------------------------------------------------------ #
    def _charge(self, phase: str, picoseconds: int, setup: bool = False) -> None:
        self.elapsed_ps += picoseconds
        self.breakdown_ps[phase] = self.breakdown_ps.get(phase, 0) + picoseconds
        if setup:
            self.setup_ps += picoseconds
        self.stats.add(_PHASE_STATS[phase], picoseconds)

    def _runtime_dram_traffic(self, kilobytes: int) -> None:
        """Account for DRAM traffic of the runtime/driver itself.

        The paper measures the APU's DRAM accesses with hardware performance
        counters over the whole program, which includes the JIT compiler,
        context creation and per-launch driver work — not just the kernel's
        own data.  Half the traffic is counted as reads, half as writes.
        """
        lines = (kilobytes * 1024) // CACHE_LINE_SIZE
        self.gpu.dram.book(reads=lines // 2, writes=lines - lines // 2)
        self.stats.add("opencl.runtime_dram_lines", lines)

    @property
    def elapsed_without_setup_ps(self) -> int:
        """Elapsed time excluding compilation and context initialisation."""
        return self.elapsed_ps - self.setup_ps

    # ------------------------------------------------------------------ #
    # Context / program management (Figure 3, top of main())
    # ------------------------------------------------------------------ #
    def initialise_context(self) -> None:
        """clGetPlatformIDs / clGetDeviceIDs / clCreateContext / queue."""
        if self._initialised:
            return
        self._charge("init", ns_to_ps(self.config.init_time_ms * 1e6), setup=True)
        self._runtime_dram_traffic(self.config.init_dram_kb)
        self._initialised = True
        self.stats.add("opencl.contexts_created")

    def build_program(self, kernel_names: Sequence[str]) -> None:
        """clCreateProgramWithSource + clBuildProgram (the JIT compile)."""
        self.initialise_context()
        if self._program_built:
            return
        self._charge("compile", ns_to_ps(self.config.compile_time_ms * 1e6), setup=True)
        self._runtime_dram_traffic(self.config.compile_dram_kb)
        self._program_built = True
        self.stats.add("opencl.programs_built")
        self.stats.add("opencl.kernels_compiled", len(kernel_names))

    def create_kernel(self, name: str, function: Callable[..., object]) -> OpenCLKernel:
        """clCreateKernel."""
        if not self._program_built:
            raise RuntimeModelError("clCreateKernel called before clBuildProgram")
        return OpenCLKernel(name=name, function=function)

    # ------------------------------------------------------------------ #
    # Buffers (clCreateBuffer / clEnqueueMapBuffer / unmap)
    # ------------------------------------------------------------------ #
    def create_buffer(self, size_bytes: int) -> OpenCLBuffer:
        """clCreateBuffer with CL_MEM_ALLOC_HOST_PTR (host-resident)."""
        self.initialise_context()
        address = self.memory.allocate(size_bytes)
        buffer = OpenCLBuffer(buffer_id=len(self._buffers), address=address,
                              size_bytes=size_bytes)
        self._buffers.append(buffer)
        self._charge("buffer", ns_to_ps(self.config.buffer_create_us * 1e3))
        self.stats.add("opencl.buffers_created")
        return buffer

    def map_buffer_write(self, buffer: OpenCLBuffer, values: Sequence[int],
                         offset_words: int = 0) -> None:
        """Map a buffer and have the host CPU write ``values`` into it.

        The writes run through the host core's cache hierarchy, so the data
        initially lives in the CPU caches — it reaches DRAM when the caches
        are flushed at kernel-launch time (or by capacity evictions).
        """
        self._charge("map", ns_to_ps(self.config.map_unmap_us * 1e3))
        program = _store_program(buffer.address, values, offset_words)
        result = self.host_core.run(program)
        self._charge("host_write", result.time_ps)
        self.stats.add("opencl.words_written", len(values))

    def map_buffer_read(self, buffer: OpenCLBuffer, count_words: int,
                        offset_words: int = 0) -> List[int]:
        """Map a buffer for reading and have the host CPU read it back."""
        self._charge("map", ns_to_ps(self.config.map_unmap_us * 1e3))
        values: List[int] = []
        program = _load_program(buffer.address, count_words, offset_words, values)
        result = self.host_core.run(program)
        self._charge("host_read", result.time_ps)
        self.stats.add("opencl.words_read", count_words)
        return values

    # ------------------------------------------------------------------ #
    # Kernel launch (clSetKernelArg / clEnqueueNDRangeKernel / clFinish)
    # ------------------------------------------------------------------ #
    def enqueue_nd_range(self, kernel: OpenCLKernel, global_size: int,
                         args: object) -> None:
        """clEnqueueNDRangeKernel followed by clFinish.

        ``args`` is handed to every work item (clSetKernelArg folded into
        the launch).  Charges: the driver's launch overhead, a cache flush
        + DMA setup so the GPU observes the CPU's writes (CPU→GPU
        communication goes through off-chip DRAM on the APU), the GPU
        execution itself, and the completion/synchronisation cost.
        """
        if not self._program_built:
            raise RuntimeModelError("kernel enqueued before clBuildProgram")
        self._charge("launch", ns_to_ps(self.config.kernel_launch_us * 1e3))
        self._runtime_dram_traffic(self.config.launch_dram_kb)

        # Make CPU-written data visible to the GPU: flush the host core's
        # caches and pay the DMA/flush bandwidth cost for the dirty data.
        _, dirty_lines = self.host_core.hierarchy.flush()
        flush_bytes = dirty_lines * CACHE_LINE_SIZE
        if self.config.dma_bandwidth_gbps > 0:
            self._charge("dma", ns_to_ps(self.config.dma_setup_us * 1e3
                                         + flush_bytes / self.config.dma_bandwidth_gbps))
        result = self.gpu.execute_kernel(kernel.function, args,
                                         work_items=range(global_size))
        self._charge("kernel", result.time_ps)
        self._charge("finish", ns_to_ps(self.config.kernel_finish_us * 1e3))
        self.stats.add("opencl.kernel_launches")


# --------------------------------------------------------------------------- #
# Small host-side programs used for buffer initialisation / readback
# --------------------------------------------------------------------------- #
def _store_program(base: int, values: Sequence[int], offset_words: int):
    def program():
        for index, value in enumerate(values):
            yield Store(word_addr(base, offset_words + index), value)
    return program()


def _load_program(base: int, count: int, offset_words: int, sink: List[int]):
    def program():
        for index in range(count):
            value = yield Load(word_addr(base, offset_words + index))
            sink.append(value)
    return program()
