"""Off-chip DRAM timing and access accounting.

Figure 9 of the paper compares the *number of off-chip DRAM accesses* needed
by the APU and by the CCSVM chip for the same workload, so the DRAM model's
primary job is exact access counting; timing is a simple fixed access latency
plus an optional bandwidth term, which is all the evaluation needs (the paper
uses a 100 ns latency for the simulated system and 72 ns for the APU).
"""

from __future__ import annotations

from typing import Optional

from repro.memory.address import CACHE_LINE_SIZE
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry


class DRAMModel:
    """A single off-chip DRAM channel.

    Parameters
    ----------
    latency_ns:
        Access latency charged to every read or write.
    bandwidth_bytes_per_ns:
        Optional peak bandwidth; when set, each access additionally pays a
        serialisation delay of ``size / bandwidth``.
    stats:
        Registry that receives ``<name>.reads``, ``<name>.writes``,
        ``<name>.bytes_read`` and ``<name>.bytes_written`` counters.
    """

    def __init__(self, latency_ns: float, stats: Optional[StatsRegistry] = None,
                 name: str = "dram",
                 bandwidth_bytes_per_ns: Optional[float] = None) -> None:
        self.name = name
        self.latency_ps = ns_to_ps(latency_ns)
        self.bandwidth_bytes_per_ns = bandwidth_bytes_per_ns
        self.stats = stats if stats is not None else StatsRegistry()
        self._reads_stat = f"{name}.reads"
        self._writes_stat = f"{name}.writes"
        self._bytes_read_stat = f"{name}.bytes_read"
        self._bytes_written_stat = f"{name}.bytes_written"

    # ------------------------------------------------------------------ #
    # Access API
    # ------------------------------------------------------------------ #
    def _serialisation_ps(self, size_bytes: int) -> int:
        if not self.bandwidth_bytes_per_ns:
            return 0
        return ns_to_ps(size_bytes / self.bandwidth_bytes_per_ns)

    def read(self, size_bytes: int = CACHE_LINE_SIZE) -> int:
        """Perform a read of ``size_bytes`` and return its latency in ps."""
        self.stats.add(self._reads_stat)
        self.stats.add(self._bytes_read_stat, size_bytes)
        return self.latency_ps + self._serialisation_ps(size_bytes)

    def write(self, size_bytes: int = CACHE_LINE_SIZE) -> int:
        """Perform a write of ``size_bytes`` and return its latency in ps."""
        self.stats.add(self._writes_stat)
        self.stats.add(self._bytes_written_stat, size_bytes)
        return self.latency_ps + self._serialisation_ps(size_bytes)

    def book(self, reads: int, writes: int,
             size_bytes: int = CACHE_LINE_SIZE) -> None:
        """Count ``reads`` reads and ``writes`` writes of ``size_bytes``, untimed.

        The counters end exactly as after that many :meth:`read` and
        :meth:`write` calls; a zero count touches none of its counters.
        """
        if reads:
            self.stats.add(self._reads_stat, reads)
            self.stats.add(self._bytes_read_stat, reads * size_bytes)
        if writes:
            self.stats.add(self._writes_stat, writes)
            self.stats.add(self._bytes_written_stat, writes * size_bytes)

    def access(self, is_write: bool, size_bytes: int = CACHE_LINE_SIZE) -> int:
        """Perform a read or write depending on ``is_write``."""
        if is_write:
            return self.write(size_bytes)
        return self.read(size_bytes)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_accesses(self) -> int:
        """Total number of reads plus writes performed so far."""
        return self.stats.get(self._reads_stat) + self.stats.get(self._writes_stat)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved to or from DRAM so far."""
        return (self.stats.get(self._bytes_read_stat)
                + self.stats.get(self._bytes_written_stat))
