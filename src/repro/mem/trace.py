"""Address-trace capture and replay.

Capturing a workload records the exact operation stream every simulated
thread yields — the host program on its CPU core and each MTTOP device
thread — without perturbing the run: the recorder is a transparent
generator wrapper, so the traced simulation is bit-for-bit identical to an
untraced one.  A saved trace can then be *replayed* under a different
memory-hierarchy shape (``ccsvm-l3``, ``ccsvm-no-tlb``, a resized L2, ...)
without re-deriving the workload: the replay feeds the recorded operations
back through a fresh chip, so a fixed-workload shape sweep costs one
generator pass per point instead of a full workload recomputation.

Replay is exact — byte-identical to simulating the target shape directly —
when the workload's operation stream does not depend on cross-thread
timing.  That holds for data-parallel workloads whose only synchronisation
is signal/wait (``vector_add``: each device thread's stream is a function
of its ``tid`` and the input data).  Workloads whose control flow embeds
arrival order (sense-reversing barriers, atomic-ticket loops) may yield
different streams under different shapes, so their traces replay the
*captured* interleaving rather than the target shape's own; replay is
still a valid simulation, but no longer byte-equal to a direct run.

Traces serialise to a small JSON format (one list entry per operation), so
they can be stored next to benchmark results and replayed by
``repro sweep`` through the ``trace_replay`` workload variant.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.xthreads.api import (
    CPU_MTTOP_BARRIER,
    CREATE_MTHREAD,
    SIGNAL_COND,
    WAIT_COND,
    CpuMttopBarrier,
    CreateMThread,
    SignalCond,
    WaitCond,
)
from repro.cores.interpreter import ThreadProgram
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
    AtomicAdd,
    AtomicCAS,
    AtomicDec,
    AtomicInc,
    Compute,
    Free,
    Load,
    LoadVector,
    Malloc,
    Operation,
    Store,
    StoreVector,
    WaitValue,
)
from repro.errors import ReproError

#: Trace file format version.  Format 2 added the global ``order`` column
#: (the interleaving of stream ops in capture order); format-1 files still
#: load, falling back to the canonical hosts-then-tasks order.
TRACE_FORMAT = 2

#: Formats :meth:`Trace.from_dict` accepts.
_SUPPORTED_FORMATS = (1, 2)

#: Stream key of the ``i``-th host thread: ``("h", i)``; of device thread
#: ``tid`` of the ``seq``-th submitted task: ``("t", seq, tid)``.
StreamKey = tuple


class TraceError(ReproError):
    """A trace could not be recorded, serialised or replayed."""


# --------------------------------------------------------------------------- #
# Operation <-> JSON row encoding
# --------------------------------------------------------------------------- #
def encode_operation(operation: Operation) -> list:
    """Encode one operation as a compact JSON-serialisable list."""
    code = getattr(operation, "code", 0)
    if code == LOAD:
        return ["ld", operation.vaddr]
    if code == STORE:
        return ["st", operation.vaddr, operation.value]
    if code == LOAD_VECTOR:
        return ["ldv", list(operation.vaddrs)]
    if code == STORE_VECTOR:
        return ["stv", list(operation.vaddrs), list(operation.values)]
    if code == ATOMIC_ADD:
        return ["aadd", operation.vaddr, operation.delta]
    if code == ATOMIC_INC:
        return ["ainc", operation.vaddr]
    if code == ATOMIC_DEC:
        return ["adec", operation.vaddr]
    if code == ATOMIC_CAS:
        return ["acas", operation.vaddr, operation.expected, operation.new]
    if code == WAIT_VALUE:
        return ["wait", operation.vaddr, operation.value,
                1 if operation.negate else 0]
    if code == COMPUTE:
        return ["cmp", operation.amount]
    if code == MALLOC:
        return ["mal", operation.size]
    if code == FREE:
        return ["fre", operation.vaddr]
    if code == CREATE_MTHREAD:
        args = list(operation.args) if isinstance(operation.args, (list, tuple)) \
            else operation.args
        kernel = operation.kernel if isinstance(operation.kernel, str) \
            else getattr(operation.kernel, "__qualname__", "?")
        return ["cmt", kernel, args,
                operation.first_thread, operation.last_thread]
    if code == WAIT_COND:
        return ["wcond", operation.condition_vaddr, operation.first_thread,
                operation.last_thread, operation.value]
    if code == SIGNAL_COND:
        return ["scond", operation.condition_vaddr, operation.first_thread,
                operation.last_thread, operation.value]
    if code == CPU_MTTOP_BARRIER:
        return ["cbar", operation.barrier_vaddr, operation.sense_vaddr,
                operation.first_thread, operation.last_thread]
    raise TraceError(f"operation {operation!r} is not traceable")


def decode_operation(row: list) -> Operation:
    """Decode one :func:`encode_operation` row back into an operation.

    A decoded :class:`CreateMThread` carries its recorded kernel *name*
    in place of the callable; the replayer substitutes the recorded
    device streams for it (see :func:`replay_host_program`).
    """
    tag = row[0]
    if tag == "ld":
        return Load(row[1])
    if tag == "st":
        return Store(row[1], row[2])
    if tag == "ldv":
        return LoadVector(tuple(row[1]))
    if tag == "stv":
        return StoreVector(tuple(row[1]), tuple(row[2]))
    if tag == "aadd":
        return AtomicAdd(row[1], row[2])
    if tag == "ainc":
        return AtomicInc(row[1])
    if tag == "adec":
        return AtomicDec(row[1])
    if tag == "acas":
        return AtomicCAS(row[1], row[2], row[3])
    if tag == "wait":
        return WaitValue(row[1], row[2], bool(row[3]))
    if tag == "cmp":
        return Compute(row[1])
    if tag == "mal":
        return Malloc(row[1])
    if tag == "fre":
        return Free(row[1])
    if tag == "cmt":
        args = tuple(row[2]) if isinstance(row[2], list) else row[2]
        return CreateMThread(row[1], args, row[3], row[4])
    if tag == "wcond":
        return WaitCond(row[1], row[2], row[3], row[4])
    if tag == "scond":
        return SignalCond(row[1], row[2], row[3], row[4])
    if tag == "cbar":
        return CpuMttopBarrier(row[1], row[2], row[3], row[4])
    raise TraceError(f"unknown trace row tag {tag!r}")


# --------------------------------------------------------------------------- #
# The trace itself
# --------------------------------------------------------------------------- #
@dataclass
class Trace:
    """One recorded (workload, params, seed) run.

    ``hosts[i]`` is the ``i``-th host thread's stream (index 0 is the main
    host, further entries are ``extra_hosts``); ``tasks[seq][tid]`` is the
    stream of device thread ``tid`` of the ``seq``-th submitted task.
    ``meta`` carries whatever the capturing workload wants to remember —
    conventionally ``output_vaddr``/``output_length``/``expected`` so a
    replay can verify its produced results.
    """

    workload: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    preset: str = ""
    hosts: List[List[Operation]] = field(default_factory=list)
    tasks: Dict[int, Dict[int, List[Operation]]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    #: Global capture order: one :data:`StreamKey` per recorded operation,
    #: in the order the simulation issued them across all threads.  Empty
    #: for hand-built traces; :meth:`effective_order` falls back to the
    #: canonical hosts-then-tasks order when it does not cover every op.
    order: List[StreamKey] = field(default_factory=list)

    @property
    def host_ops(self) -> List[Operation]:
        """The main host thread's stream (shorthand for ``hosts[0]``)."""
        return self.hosts[0] if self.hosts else []

    @property
    def operation_count(self) -> int:
        """Total recorded operations across every host and device thread."""
        total = sum(len(ops) for ops in self.hosts)
        for streams in self.tasks.values():
            total += sum(len(ops) for ops in streams.values())
        return total

    def stream(self, key: StreamKey) -> List[Operation]:
        """The operation list a :data:`StreamKey` names."""
        if key[0] == "h":
            return self.hosts[key[1]]
        if key[0] == "t":
            return self.tasks[key[1]][key[2]]
        raise TraceError(f"unknown stream key {key!r}")

    def _canonical_order(self) -> List[StreamKey]:
        """Hosts in index order, then tasks by ``(seq, tid)`` — the order
        format-1 traces (and hand-built ones) replay in."""
        order: List[StreamKey] = []
        for index, ops in enumerate(self.hosts):
            order.extend([("h", index)] * len(ops))
        for seq in sorted(self.tasks):
            streams = self.tasks[seq]
            for tid in sorted(streams):
                order.extend([("t", seq, tid)] * len(streams[tid]))
        return order

    def effective_order(self) -> List[StreamKey]:
        """The capture order if it covers every op, else the canonical one.

        The returned list may alias :attr:`order`; treat it as read-only.
        """
        if len(self.order) == self.operation_count and self.order:
            return self.order
        return self._canonical_order()

    def interleaved(self) -> Iterator[tuple]:
        """Yield ``(stream_key, operation)`` in global capture order."""
        cursors: Dict[StreamKey, int] = {}
        streams: Dict[StreamKey, List[Operation]] = {}
        for key in self.effective_order():
            stream = streams.get(key)
            if stream is None:
                stream = streams[key] = self.stream(key)
            index = cursors.get(key, 0)
            cursors[key] = index + 1
            yield key, stream[index]

    def to_dict(self) -> dict:
        """Serialise to the JSON trace format."""
        table: List[list] = []
        table_index: Dict[StreamKey, int] = {}
        order_ints: List[int] = []
        for key in self.effective_order():
            ix = table_index.get(key)
            if ix is None:
                ix = table_index[key] = len(table)
                table.append(list(key))
            order_ints.append(ix)
        return {
            "format": TRACE_FORMAT,
            "workload": self.workload,
            "params": self.params,
            "seed": self.seed,
            "preset": self.preset,
            "meta": self.meta,
            "hosts": [[encode_operation(op) for op in ops]
                      for ops in self.hosts],
            "tasks": {
                str(seq): {str(tid): [encode_operation(op) for op in ops]
                           for tid, ops in streams.items()}
                for seq, streams in self.tasks.items()
            },
            "streams": table,
            "order": order_ints,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Load from the JSON trace format (formats 1 and 2)."""
        if data.get("format") not in _SUPPORTED_FORMATS:
            raise TraceError(
                f"unsupported trace format {data.get('format')!r} "
                f"(expected one of {_SUPPORTED_FORMATS})"
            )
        table = [tuple(key) for key in data.get("streams", [])]
        try:
            order = [table[ix] for ix in data.get("order", [])]
        except IndexError:
            raise TraceError("trace order references an unknown stream") \
                from None
        return cls(
            workload=data.get("workload", ""),
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            preset=data.get("preset", ""),
            meta=dict(data.get("meta", {})),
            hosts=[[decode_operation(row) for row in ops]
                   for ops in data.get("hosts", [])],
            tasks={
                int(seq): {int(tid): [decode_operation(row) for row in ops]
                           for tid, ops in streams.items()}
                for seq, streams in data.get("tasks", {}).items()
            },
            order=order,
        )

    def save(self, path) -> None:
        """Write the trace as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a JSON trace from ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
class TraceRecorder:
    """Records every operation stream of one chip run.

    Attach to a chip with :meth:`repro.core.chip.CCSVMChip.attach_trace_recorder`
    before calling ``run``; afterwards :attr:`trace` holds the full trace.
    The wrappers are transparent: operations and the values sent back flow
    through unchanged, and a retried operation (spin-wait) is recorded
    once, because cores re-execute a pending operation without resuming
    the generator.
    """

    def __init__(self, workload: str = "", params: Optional[dict] = None,
                 seed: int = 0, preset: str = "") -> None:
        self.trace = Trace(workload=workload, params=dict(params or {}),
                           seed=seed, preset=preset)

    def wrap_host(self, program: ThreadProgram) -> ThreadProgram:
        """Wrap one host thread's program, appending a new host stream."""
        stream: List[Operation] = []
        key = ("h", len(self.trace.hosts))
        self.trace.hosts.append(stream)
        return self._record(program, stream, key)

    def wrap_device(self, task_seq: int, tid: int,
                    program: ThreadProgram) -> ThreadProgram:
        """Wrap one device thread's program (the MIFD ``program_wrapper``)."""
        streams = self.trace.tasks.setdefault(task_seq, {})
        return self._record(program, streams.setdefault(tid, []),
                            ("t", task_seq, tid))

    def _record(self, program: ThreadProgram, stream: List[Operation],
                key: tuple) -> ThreadProgram:
        order = self.trace.order
        value = None
        while True:
            try:
                operation = program.send(value)
            except StopIteration:
                return
            stream.append(operation)
            order.append(key)
            value = yield operation


#: Recorder auto-attached to every chip built while a :func:`capture`
#: context is active (:meth:`repro.core.chip.CCSVMChip.run` checks it).
_ACTIVE_RECORDER: Optional[TraceRecorder] = None


def active_recorder() -> Optional[TraceRecorder]:
    """The recorder of the enclosing :func:`capture` context, if any."""
    return _ACTIVE_RECORDER


@contextmanager
def capture(workload: str = "", params: Optional[dict] = None,
            seed: int = 0, preset: str = "") -> Iterator[TraceRecorder]:
    """Record every chip run in the ``with`` body into one recorder.

    Lets a registered workload variant be traced without exposing its
    internal chip: any :class:`~repro.core.chip.CCSVMChip` constructed and
    run inside the context attaches the recorder automatically.
    """
    global _ACTIVE_RECORDER
    if _ACTIVE_RECORDER is not None:
        raise TraceError("a trace capture is already active")
    recorder = TraceRecorder(workload=workload, params=params, seed=seed,
                             preset=preset)
    _ACTIVE_RECORDER = recorder
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER = None


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
def replay_host_program(trace: Trace) -> ThreadProgram:
    """Build a host program that re-yields the trace's operation streams.

    Each recorded :class:`CreateMThread` is re-issued with a kernel that
    serves the recorded device streams by ``tid``, matched to tasks in
    submission order.  Values the simulator sends back are ignored — the
    recorded stream already embeds the run's control flow.  Only
    single-host traces replay: with several host threads the mapping from
    a host's ``CreateMThread`` ordinal to the MIFD's global submission
    order would depend on timing.
    """
    if len(trace.hosts) != 1:
        raise TraceError(
            f"replay needs a single-host trace, got {len(trace.hosts)} "
            "host streams"
        )
    task_counter = [0]

    def host():
        for operation in trace.host_ops:
            if operation.code == CREATE_MTHREAD:
                seq = task_counter[0]
                task_counter[0] += 1
                operation = CreateMThread(_replay_kernel(trace, seq),
                                          operation.args,
                                          operation.first_thread,
                                          operation.last_thread)
            yield operation

    return host()


def _replay_kernel(trace: Trace, task_seq: int) -> Callable:
    streams = trace.tasks.get(task_seq)
    if streams is None:
        raise TraceError(f"trace has no recorded task #{task_seq}")

    def kernel(tid: int, args) -> ThreadProgram:
        ops = streams.get(tid)
        if ops is None:
            raise TraceError(
                f"trace task #{task_seq} has no stream for thread {tid}"
            )
        for operation in ops:
            yield operation

    return kernel
