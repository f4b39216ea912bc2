"""Every loop that interprets thread programs, held to the same contract.

The CCSVM cores (through :class:`~repro.cores.interpreter.ThreadContext`),
the APU baseline's CPU core and GPU wavefront, and the Barnes-Hut
functional reference each drive generators themselves.  All of them must
reject a yield that is not an operation with an error naming the thread,
and the MTTOP core's warp bookkeeping must keep its exact timing.
"""

import pytest

from repro.baseline.apu import AMDAPU
from repro.cores.cpu import CPUCore
from repro.cores.interpreter import ThreadContext
from repro.cores.isa import (
    Compute,
    Load,
    LoadVector,
    Malloc,
    Store,
    WaitValue,
)
from repro.cores.mttop import MTTOPCore
from repro.errors import KernelProgramError
from repro.mem.batch import scalar_run_batch, split_ops
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.workloads.barnes_hut import _FunctionalMemory
from tests.cores.test_interpreter import FakePort


class BatchFakePort(FakePort):
    """A :class:`FakePort` the MTTOP core drives through ``run_batch``."""

    batch_enabled = True

    def run_batch(self, ops):
        return scalar_run_batch(self, *split_ops(ops))


def bad_program(tid=0, args=None):
    yield Load(8)
    yield "junk"


def make_mttop(port, simd_width=4, contexts=16):
    clock = ClockDomain.from_mhz("mttop", 1000)  # 1000 ps / cycle
    return MTTOPCore("mttop0", clock, simd_width=simd_width,
                     thread_contexts=contexts, memory_port=port)


def run_agent(core):
    engine = Engine()
    engine.add_agent(core)
    engine.run()


# --------------------------------------------------------------------------- #
# A yield that is not an operation
# --------------------------------------------------------------------------- #
def test_cpu_core_rejects_non_operation():
    core = CPUCore("cpu0", ClockDomain.from_ghz("cpu", 1.0), 2.0, FakePort())
    core.run_program(bad_program(), tid=3)
    with pytest.raises(KernelProgramError, match="thread 3 yielded 'junk'"):
        run_agent(core)


@pytest.mark.parametrize("port", [FakePort, BatchFakePort])
def test_mttop_core_rejects_non_operation(port):
    core = make_mttop(port())
    core.assign_warp([ThreadContext(tid=tid, program=bad_program(tid))
                      for tid in (4, 5)], 0)
    core.request_halt(0)
    with pytest.raises(KernelProgramError, match="thread 4 yielded 'junk'"):
        run_agent(core)


def test_baseline_cpu_rejects_non_operation():
    apu = AMDAPU()
    with pytest.raises(KernelProgramError, match="thread 0 yielded 'junk'"):
        apu.run_on_cpu(bad_program())


def test_gpu_wavefront_rejects_non_operation():
    apu = AMDAPU()
    with pytest.raises(KernelProgramError, match="thread 2 yielded 'junk'"):
        apu.gpu.execute_kernel(bad_program, None, [2, 3])


def test_barnes_hut_reference_rejects_non_operation():
    with pytest.raises(KernelProgramError, match="thread 0 yielded 'junk'"):
        _FunctionalMemory().run(bad_program())


# --------------------------------------------------------------------------- #
# What the GPU refuses
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("operation, message", [
    (Malloc(8), "cannot dynamically allocate"),
    (WaitValue(8, 1), r"cannot execute operation WaitValue\(vaddr=8"),
    (LoadVector((8, 16)), r"cannot execute operation LoadVector\(vaddrs="),
])
def test_gpu_rejects_operations_outside_its_set(operation, message):
    apu = AMDAPU()
    base = apu.allocate(64)

    def kernel(tid, args):
        yield Store(base, tid)
        yield operation

    with pytest.raises(KernelProgramError, match=message):
        apu.gpu.execute_kernel(kernel, None, range(2))


# --------------------------------------------------------------------------- #
# MTTOP warps of unequal length
# --------------------------------------------------------------------------- #
FLAG = 4096


def uneven_kernel(tid, args):
    """Lanes run 1-3 rounds; lane 5 spins until lane 7's final store."""
    if tid == 5:
        yield WaitValue(FLAG, 1)
    for index in range(tid % 3 + 1):
        yield Store(tid * 64 + index * 8, index)
        value = yield Load(tid * 64 + index * 8)
        yield Compute(value + 1)
    if tid == 7:
        yield Compute(5)
        yield Store(FLAG, 1)


@pytest.mark.parametrize("port", [FakePort, BatchFakePort])
def test_uneven_warps_keep_their_timing_and_counters(port):
    core = make_mttop(port())
    # The first warp ends while the others run: its retirement shifts the
    # round-robin order, and with it how often lane 5 polls.
    for tids in ([0, 3], [4, 5], [6, 7, 8]):
        core.assign_warp([ThreadContext(tid=tid, program=uneven_kernel(tid, None))
                          for tid in tids], 0)
    core.request_halt(0)
    run_agent(core)
    # Pinned: warp order and retirement points decide MTTOP timing.
    assert core.finished
    assert core.local_time_ps == 1_442_280
    assert core.stats.get("mttop0.warp_instructions") == 32
    assert core.stats.get("mttop0.lane_instructions") == 49
    assert core.stats.get("mttop0.warps_retired") == 3
    assert core.free_contexts == core.thread_contexts
