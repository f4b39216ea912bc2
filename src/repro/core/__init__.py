"""The paper's primary contribution: the CCSVM heterogeneous chip.

This package assembles the substrates (virtual memory, caches, MOESI
directory coherence, torus interconnect, DRAM) into the tightly-coupled
CPU + MTTOP chip of Section 3, together with the xthreads programming model
of Section 4.  :class:`~repro.core.chip.CCSVMChip` is the main entry point
used by the examples and the experiment harness.
"""

from repro.mem.port import CoreMemoryPort
from repro.core.consistency import SequentialConsistencyChecker
from repro.core.chip import CCSVMChip, RunResult

__all__ = [
    "CCSVMChip",
    "CoreMemoryPort",
    "RunResult",
    "SequentialConsistencyChecker",
]
