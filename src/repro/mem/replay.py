"""Cache-only replay: walk a captured trace through a bare hierarchy.

``repro.mem.trace`` replay still pays for the whole machine — cores, the
sim engine, the MIFD, the xthreads runtime — even though a fixed trace's
reference stream is identical under every hierarchy shape.  This module
drops everything except the memory system itself.
:class:`CCSVMReplayHierarchy` and :class:`~repro.core.chip.CCSVMChip`
both extend :class:`~repro.mem.assemble.CCSVMMemory`, so the TLBs,
private L1s, MOESI-directory L2 banks, optional L3 and DRAM model are the
chip's by construction; the flat lane builds the APU's per-core stacks
with the builder :class:`~repro.baseline.apu.AMDAPU` uses.  The recorded
per-thread operation streams are then fed through the ports directly,
interleaved in global capture order.

Because the ports, the coherence controller and the VM manager are the
*identical* classes direct simulation uses, every hierarchy counter —
``tlb.*``, ``walker.*``, ``l1d.*``, ``l2.*``, ``l3.*``, ``coherence.*``,
``dram.*``, ``network.*``, ``os.*`` — matches a full simulation of the
same stream exactly.  What cache-only replay does *not* reproduce are the
core/engine-side counters (instructions, engine steps, xthreads service
stats) and the simulated makespan: :attr:`ReplayResult.time_ps` is the sum
of per-access latencies (a serial cost proxy), not the parallel schedule's
finish time.

Synchronisation operations expand to their deterministic memory footprint
(the footprint the runtime performs when the condition is already true):

* ``WaitValue``/``WaitCond`` poll each watched slot once — the recorded
  stream embeds the captured interleaving, so the poll succeeds by
  construction;
* ``SignalCond`` stores its value into every slot in ``[first, last]``,
  exactly like ``XThreadsRuntime._cpu_signal``;
* ``CpuMttopBarrier`` reads each slot, clears it, then flips the sense
  word — the satisfied-barrier sequence.

Spin *re*-polls are timing-dependent and are not recorded in traces, so a
trace whose capture involved spinning replays with fewer poll loads than
the original run; for single-threaded (host-only) traces the replay is
counter-exact, which is what the equivalence gate in
``tests/mem/test_replay_equivalence.py`` locks down.

Device streams are placed on MTTOP nodes with the MIFD's round-robin
chunk rule (SIMD-width chunks, one core per chunk, cursor persisting
across tasks), which matches the real MIFD whenever thread contexts never
run out — true for every builtin workload at default sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.baseline.cpu import BaselineCPUPort
from repro.baseline.memory import FlatMemory
from repro.config import (
    APUSystemConfig,
    CCSVMSystemConfig,
    amd_apu_system,
    ccsvm_system,
)
from repro.core.xthreads.api import (
    CPU_MTTOP_BARRIER,
    CREATE_MTHREAD,
    SIGNAL_COND,
    WAIT_COND,
    cond_entry,
)
from repro.cores.isa import (
    ATOMIC_ADD,
    ATOMIC_CAS,
    ATOMIC_DEC,
    ATOMIC_INC,
    COMPUTE,
    FREE,
    LOAD,
    LOAD_VECTOR,
    MALLOC,
    STORE,
    STORE_VECTOR,
    WAIT_VALUE,
)
from repro.mem.assemble import CCSVMMemory, build_apu_cpu_hierarchies
from repro.mem.batch import (
    OP_ATOMIC_ADD,
    OP_ATOMIC_CAS,
    OP_LOAD,
    OP_STORE,
    scalar_run_batch,
    split_ops,
)
from repro.mem.trace import Trace, TraceError
from repro.memory.dram import DRAMModel
from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one cache-only replay."""

    #: Sum of every access's latency — a serial cost proxy for comparing
    #: hierarchy shapes, *not* the parallel makespan a full run reports.
    time_ps: int
    #: Operations replayed (memory + allocation + expanded sync footprint).
    operations: int
    stats: StatsRegistry

    @property
    def dram_accesses(self) -> int:
        """Off-chip DRAM accesses performed during the replay."""
        return self.stats.get("dram.reads") + self.stats.get("dram.writes")

    def stats_snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of every counter (useful for diffing)."""
        return self.stats.to_dict()


# --------------------------------------------------------------------------- #
# CCSVM hierarchy — the chip's memory system without the chip
# --------------------------------------------------------------------------- #
class CCSVMReplayHierarchy(CCSVMMemory):
    """The CCSVM memory system a :class:`CCSVMChip` builds, bare.

    Both extend :class:`~repro.mem.assemble.CCSVMMemory`, so node names,
    cache geometry, walker latencies and the coherence fabric are the
    chip's by construction; cores, engine, MIFD and runtime are absent.
    Every port shares one process address space, and MTTOP ports keep
    the port's default page-fault handler (the chip routes theirs through
    the MIFD).
    """

    def __init__(self, config: CCSVMSystemConfig) -> None:
        super().__init__(config, StatsRegistry())
        self.space = self.vm.create_address_space()
        for port in self.ports.values():
            port.set_address_space(self.space)


# --------------------------------------------------------------------------- #
# Trace programs — interleave and dispatch once, replay per shape
# --------------------------------------------------------------------------- #
def _mifd_placement(trace: Trace, simd_width: int,
                    mttop_nodes: List[str]) -> Dict[Tuple[int, int], str]:
    """Map every ``(task_seq, tid)`` to its MTTOP node.

    Replicates ``MIFD.submit_task``: tasks in submission (seq) order, each
    split into SIMD-width chunks of ascending tids, chunks assigned
    round-robin with a cursor that persists across tasks.
    """
    placement: Dict[Tuple[int, int], str] = {}
    if not trace.tasks:
        return placement
    if not mttop_nodes:
        raise TraceError("trace has device streams but the target shape "
                         "has no MTTOP cores")
    cursor = 0
    count = len(mttop_nodes)
    for seq in sorted(trace.tasks):
        tids = sorted(trace.tasks[seq])
        for start in range(0, len(tids), simd_width):
            node = mttop_nodes[cursor % count]
            cursor += 1
            for tid in tids[start:start + simd_width]:
                placement[(seq, tid)] = node
    return placement


class _ProgramBuilder:
    """Compiles one interleaved trace into a flat replay program.

    Instructions (plain tuples, shape-independent):

    * ``("B", node, ops)`` — a coalesced run of plain memory op tuples;
    * ``("M", size)`` / ``("F", vaddr)`` — allocator calls;
    * ``("X", node, sense_vaddr)`` — a barrier's sense read-and-flip
      (value-dependent, so it stays scalar at run time).

    Consecutive plain memory ops bound for the same node coalesce into
    one ``"B"`` run, which :func:`_run_program` hands to
    ``port.run_batch`` (the batch engine is counter- and
    latency-identical to the scalar loop, so coalescing is free); any
    other instruction closes the pending run first.  Runs are capped at
    :data:`_BATCH_CAP` ops: the engine's per-segment gather window
    scales with the batch, so an unbounded batch turns segment restarts
    (cold misses, atomics) super-linear.  The cap is invisible —
    splitting a batch anywhere is counter- and latency-identical.

    The grouping depends only on the trace (never on the hierarchy
    shape), so each trace is compiled once and every subsequent shape
    evaluation replays the program without re-interleaving streams or
    re-dispatching operation types.
    """

    _BATCH_CAP = 1024

    def __init__(self) -> None:
        self.program: List[tuple] = []
        self._pending: List[tuple] = []
        self._pending_node: Optional[str] = None

    def _flush(self) -> None:
        if self._pending:
            self.program.append(("B", self._pending_node, self._pending))
            self._pending = []

    def _push(self, node: str, op: tuple) -> None:
        if self._pending and (self._pending_node != node or
                              len(self._pending) >= self._BATCH_CAP):
            self._flush()
        self._pending_node = node
        self._pending.append(op)

    def emit(self, instruction: tuple) -> None:
        self._flush()
        self.program.append(instruction)

    def memory_op(self, node: str, operation) -> bool:
        """Push ``operation`` if it is a plain memory op; False otherwise."""
        code = operation.code
        if code == LOAD:
            self._push(node, (OP_LOAD, operation.vaddr, 0, 0))
        elif code == STORE:
            self._push(node, (OP_STORE, operation.vaddr, operation.value, 0))
        elif code == LOAD_VECTOR:
            for vaddr in operation.vaddrs:
                self._push(node, (OP_LOAD, vaddr, 0, 0))
        elif code == STORE_VECTOR:
            for vaddr, value in zip(operation.vaddrs, operation.values):
                self._push(node, (OP_STORE, vaddr, value, 0))
        elif code == ATOMIC_ADD:
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr,
                              operation.delta, 0))
        elif code == ATOMIC_INC:
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr, 1, 0))
        elif code == ATOMIC_DEC:
            self._push(node, (OP_ATOMIC_ADD, operation.vaddr, -1, 0))
        elif code == ATOMIC_CAS:
            self._push(node, (OP_ATOMIC_CAS, operation.vaddr,
                              operation.expected, operation.new))
        elif code == WAIT_VALUE:
            # One poll: the captured interleaving satisfied the wait.
            self._push(node, (OP_LOAD, operation.vaddr, 0, 0))
        else:
            return False
        return True


def _compile_ccsvm(trace: Trace, simd_width: int,
                   mttop_count: int) -> List[tuple]:
    """Compile a trace against a MTTOP layout (CCSVM op set)."""
    mttop_nodes = [f"mttop{i}" for i in range(mttop_count)]
    placement = _mifd_placement(trace, simd_width, mttop_nodes)
    builder = _ProgramBuilder()
    for key, operation in trace.interleaved():
        node = (f"cpu{key[1]}" if key[0] == "h"
                else placement[(key[1], key[2])])
        if builder.memory_op(node, operation):
            continue
        code = operation.code
        if code in (COMPUTE, CREATE_MTHREAD):
            continue
        if code == MALLOC:
            builder.emit(("M", operation.size))
            continue
        if code == FREE:
            builder.emit(("F", operation.vaddr))
            continue
        if code == WAIT_COND:
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_LOAD, cond_entry(
                    operation.condition_vaddr, tid), 0, 0))
            continue
        if code == SIGNAL_COND:
            # Mirrors XThreadsRuntime._cpu_signal: one store per slot.
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_STORE, cond_entry(
                    operation.condition_vaddr, tid), operation.value, 0))
            continue
        if code == CPU_MTTOP_BARRIER:
            # The satisfied-barrier sequence: read every slot, clear every
            # slot, flip the sense word.
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_LOAD, cond_entry(
                    operation.barrier_vaddr, tid), 0, 0))
            for tid in range(operation.first_thread,
                             operation.last_thread + 1):
                builder._push(node, (OP_STORE, cond_entry(
                    operation.barrier_vaddr, tid), 0, 0))
            builder.emit(("X", node, operation.sense_vaddr))
            continue
        raise TraceError(f"cache replay cannot execute {operation!r}")
    builder._flush()
    return builder.program


def _compile_flat(trace: Trace) -> List[tuple]:
    """Compile a host-only trace (flat-memory op subset)."""
    builder = _ProgramBuilder()
    for key, operation in trace.interleaved():
        node = f"cpu{key[1]}"
        if builder.memory_op(node, operation):
            continue
        code = operation.code
        if code == COMPUTE:
            continue
        if code == MALLOC:
            builder.emit(("M", operation.size))
            continue
        if code == FREE:
            builder.emit(("F", operation.vaddr))
            continue
        raise TraceError(f"the flat-memory replayer cannot execute "
                         f"{operation!r}")
    builder._flush()
    return builder.program


def _compiled_program(trace: Trace, key: tuple, compile_fn) -> List[tuple]:
    """The trace's compiled program for ``key``, built at most once.

    Programs depend only on the trace and the MTTOP layout — never on
    cache/TLB shape — so a DSE sweep re-interleaves and re-dispatches the
    stream exactly once, not once per design point.
    """
    programs = trace.__dict__.setdefault("_replay_programs", {})
    program = programs.get(key)
    if program is None:
        program = programs[key] = compile_fn()
    return program


def _run_program(program: List[tuple], ports: Dict[str, object],
                 batched: bool, do_malloc, do_free) -> Tuple[int, int]:
    """Execute a compiled program; returns ``(time_ps, operations)``.

    A ``"B"`` run goes through ``port.run_batch`` when ``batched`` and at
    least 4 ops long; shorter runs (device streams interleave nodes op by
    op) and the scalar engine take the reference per-op loop, which is
    counter- and latency-identical at any split.
    """
    time_ps = 0
    operations = 0
    for ins in program:
        tag = ins[0]
        if tag == "B":
            ops = ins[2]
            port = ports[ins[1]]
            if batched and len(ops) >= 4:
                _values, lats = port.run_batch(ops)
            else:
                _values, lats = scalar_run_batch(port, *split_ops(ops))
            time_ps += sum(lats)
            operations += len(ops)
        elif tag == "M":
            do_malloc(ins[1])
            operations += 1
        elif tag == "F":
            do_free(ins[1])
            operations += 1
        else:  # "X": barrier sense read-and-flip
            port = ports[ins[1]]
            sense, lat = port.load(ins[2])
            time_ps += lat
            time_ps += port.store(ins[2], 1 - sense)
            operations += 2
    return time_ps, operations


def _check_engine(engine: str) -> None:
    if engine not in ("batch", "scalar"):
        raise TraceError(f"unknown replay engine {engine!r} "
                         "(expected 'batch' or 'scalar')")


#: Small FIFO of parsed traces keyed by (path, mtime, size): a DSE sweep
#: hands every design point the same trace *path*, and parsing a large
#: JSON stream per point would dwarf the replay itself.
_TRACE_CACHE: Dict[tuple, Trace] = {}
_TRACE_CACHE_MAX = 8


def load_trace_cached(trace: Union[Trace, str]) -> Trace:
    """A trace object as is, or a trace file, parsed once while unchanged.

    The cached :class:`Trace` also carries its compiled replay programs,
    so repeated shape evaluations of one capture skip both the JSON parse
    and the stream interleave.  Callers must not mutate the result.
    """
    if isinstance(trace, Trace):
        return trace
    st = os.stat(trace)
    key = (os.path.abspath(trace), st.st_mtime_ns, st.st_size)
    loaded = _TRACE_CACHE.get(key)
    if loaded is None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        loaded = _TRACE_CACHE[key] = Trace.load(trace)
    return loaded


# --------------------------------------------------------------------------- #
# CCSVM replay
# --------------------------------------------------------------------------- #
def replay_trace(trace: Union[Trace, str],
                 config: Optional[CCSVMSystemConfig] = None,
                 engine: str = "batch") -> ReplayResult:
    """Replay a trace (object or file path) through a CCSVM hierarchy
    shape, cache-only.

    ``engine='batch'`` coalesces same-node runs of plain memory ops
    through the batch engine; ``'scalar'`` walks the unchanged
    per-word port methods.  Both produce identical counters and time.
    """
    _check_engine(engine)
    trace = load_trace_cached(trace)
    hierarchy = CCSVMReplayHierarchy(config if config is not None
                                     else ccsvm_system())
    cfg = hierarchy.config
    if len(trace.hosts) > len(hierarchy.cpu_nodes):
        raise TraceError(
            f"{len(trace.hosts)} host streams exceed {cfg.cpu.count} "
            "CPU cores")
    simd = cfg.mttop.simd_width
    count = len(hierarchy.mttop_nodes)
    program = _compiled_program(
        trace, ("ccsvm", simd, count),
        lambda: _compile_ccsvm(trace, simd, count))
    vm, space = hierarchy.vm, hierarchy.space
    # The deterministic bump allocator hands back the captured run's
    # addresses, so recorded pointers stay valid.
    time_ps, operations = _run_program(
        program, hierarchy.ports, engine == "batch",
        lambda size: vm.malloc(space, size),
        lambda vaddr: vm.free(space, vaddr))
    return ReplayResult(time_ps=time_ps, operations=operations,
                        stats=hierarchy.stats)


# --------------------------------------------------------------------------- #
# Baseline (flat-memory) replay — the APU presets
# --------------------------------------------------------------------------- #
def replay_trace_flat(trace: Union[Trace, str],
                      config: Optional[APUSystemConfig] = None,
                      engine: str = "batch") -> ReplayResult:
    """Replay a trace's host streams through the APU cache hierarchy.

    Builds one per-core stack per host stream with
    :func:`~repro.mem.assemble.build_apu_cpu_hierarchies`, the builder
    :class:`~repro.baseline.apu.AMDAPU` uses (private L2s, or one pooled
    L2 when ``config.cpu.l2_shared``), and walks host stream ``i``
    through core ``i``'s port.  Device streams have no APU CPU analog,
    so traces with device tasks are rejected.
    """
    _check_engine(engine)
    trace = load_trace_cached(trace)
    if config is None:
        config = amd_apu_system()
    if trace.tasks:
        raise TraceError("the flat-memory replayer takes host-only traces "
                         "(device streams have no APU CPU analog)")
    if len(trace.hosts) > config.cpu.count:
        raise TraceError(f"{len(trace.hosts)} host streams exceed "
                         f"{config.cpu.count} APU CPU cores")

    stats = StatsRegistry()
    memory = FlatMemory()
    dram = DRAMModel(config.dram.latency_ns, stats=stats, name="dram")
    ports = {f"cpu{index}": BaselineCPUPort(memory, hierarchy)
             for index, hierarchy in enumerate(build_apu_cpu_hierarchies(
                 config, dram, len(trace.hosts), stats))}

    program = _compiled_program(trace, ("flat",),
                                lambda: _compile_flat(trace))
    # BaselineCPUCore services Malloc from the flat bump allocator without
    # touching the hierarchy (and treats Free as a no-op); mirror it for
    # state parity.
    time_ps, operations = _run_program(
        program, ports, engine == "batch",
        lambda size: memory.allocate(size),
        lambda vaddr: None)
    return ReplayResult(time_ps=time_ps, operations=operations, stats=stats)
