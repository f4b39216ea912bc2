"""The assembled AMD Llano-like APU machine.

:class:`AMDAPU` wires together the baseline substrates — flat memory, DDR3
DRAM model, four out-of-order CPU cores each with a private L1 + 1 MiB L2,
and the Radeon-like GPU — and hands out the runtimes that execute workloads
on them: plain single-core runs, an OpenCL session, or a pthreads machine.
One ``AMDAPU`` instance corresponds to one measured run of the real
hardware; experiments build a fresh instance per data point so DRAM-access
counters are per-run, exactly like reading the hardware performance counters
before and after a run (Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baseline.cpu import BaselineCPUCore, BaselineRunResult
from repro.baseline.gpu import RadeonGPUModel
from repro.baseline.memory import FlatMemory
from repro.baseline.opencl import OpenCLSession
from repro.baseline.pthreads import PThreadsMachine
from repro.config import APUSystemConfig, amd_apu_system
from repro.cores.interpreter import ThreadProgram
from repro.mem.assemble import build_apu_cpu_hierarchies
from repro.memory.dram import DRAMModel
from repro.sim.clock import ClockDomain
from repro.sim.stats import StatsRegistry


class AMDAPU:
    """The loosely-coupled CPU+GPU baseline machine."""

    def __init__(self, config: Optional[APUSystemConfig] = None) -> None:
        self.config = config if config is not None else amd_apu_system()
        self.stats = StatsRegistry()
        self.memory = FlatMemory()
        self.dram = DRAMModel(self.config.dram.latency_ns, stats=self.stats,
                              name="dram")
        self.cpu_clock = ClockDomain.from_ghz("apu_cpu", self.config.cpu.frequency_ghz)

        self.cpu_cores: List[BaselineCPUCore] = [
            BaselineCPUCore(
                name=hierarchy.name, clock=self.cpu_clock,
                cycles_per_instruction=self.config.cpu.cycles_per_instruction,
                memory=self.memory, hierarchy=hierarchy, stats=self.stats)
            for hierarchy in build_apu_cpu_hierarchies(
                self.config, self.dram, self.config.cpu.count, self.stats)]

        self.gpu = RadeonGPUModel(self.config.gpu, self.memory, self.dram,
                                  stats=self.stats,
                                  memory_bandwidth_gbps=self.config.opencl.dma_bandwidth_gbps)

    # ------------------------------------------------------------------ #
    # Runtimes
    # ------------------------------------------------------------------ #
    def run_on_cpu(self, program: ThreadProgram, core_index: int = 0) -> BaselineRunResult:
        """Run a program on one CPU core (the paper's "AMD CPU" baseline)."""
        return self.cpu_cores[core_index].run(program)

    def opencl_session(self) -> OpenCLSession:
        """Create an OpenCL context/queue bound to CPU core 0 and the GPU."""
        return OpenCLSession(self.config.opencl, self.memory, self.cpu_cores[0],
                             self.gpu, stats=self.stats)

    def pthreads(self, num_threads: Optional[int] = None) -> PThreadsMachine:
        """Create a pthreads process across ``num_threads`` CPU cores."""
        count = num_threads if num_threads is not None else len(self.cpu_cores)
        if count > len(self.cpu_cores):
            count = len(self.cpu_cores)
        return PThreadsMachine(cores=self.cpu_cores[:count],
                               spawn_us=self.config.pthread_spawn_us,
                               join_us=self.config.pthread_join_us,
                               barrier_us=self.config.pthread_barrier_us,
                               stats=self.stats)

    # ------------------------------------------------------------------ #
    # Memory helpers (functional, no timing) for workload setup/readback
    # ------------------------------------------------------------------ #
    def allocate(self, size_bytes: int) -> int:
        """Allocate flat memory (setup helper; charges no time)."""
        return self.memory.allocate(size_bytes)

    def write_array(self, address: int, values: Sequence[int]) -> None:
        """Write words into memory without charging time (test setup)."""
        self.memory.write_array(address, values)

    def read_array(self, address: int, count: int) -> List[int]:
        """Read words from memory without charging time (result checking)."""
        return self.memory.read_array(address, count)

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    @property
    def dram_accesses(self) -> int:
        """Off-chip DRAM accesses so far (the Figure 9 metric)."""
        return self.dram.total_accesses
