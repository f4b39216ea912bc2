"""Shared machinery for executing thread programs on a core.

Both core models (CPU and MTTOP) drive thread programs the same way: resume
the generator, get an operation, execute it against the core's memory port,
and send the result back in.  The only differences between core types are
issue cost, how many lanes execute together, and which runtime handles the
non-memory operations — so everything else lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.cores.isa import (
    AtomicAdd,
    AtomicCAS,
    AtomicDec,
    AtomicInc,
    Load,
    LoadVector,
    Operation,
    Store,
    StoreVector,
    WaitValue,
)
from repro.errors import KernelProgramError
from repro.mem.batch import (OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE,
                             BatchOp)

#: A thread program: a generator yielding operations and receiving results.
ThreadProgram = Generator[Operation, object, None]


@dataclass
class OpOutcome:
    """Result of executing (or attempting) one operation.

    ``retry`` means the operation did not complete (a spin-wait whose
    condition is not yet true) and must be re-executed on the lane's next
    turn; the latency charged covers the poll that was performed.

    ``ops`` is how many scalar operations this outcome stands for: 1 for
    everything except the vector memory operations, which count (and are
    charged issue cost) as one instruction per element.
    """

    latency_ps: int = 0
    value: object = None
    retry: bool = False
    ops: int = 1


@dataclass
class ThreadContext:
    """Execution state of one software thread (one SIMT lane or CPU thread)."""

    tid: int
    program: ThreadProgram
    finished: bool = False
    #: Operation to retry before pulling the next one from the generator.
    pending_op: Optional[Operation] = None
    #: Value to send into the generator on the next resume.
    next_send: object = None
    #: Count of operations this thread has completed (for tests/stats).
    operations_executed: int = field(default=0)

    def next_operation(self) -> Optional[Operation]:
        """Return the operation this thread should execute next.

        Returns the pending (retried) operation if there is one, otherwise
        resumes the generator.  Returns ``None`` when the program is done.
        """
        if self.finished:
            return None
        if self.pending_op is not None:
            return self.pending_op
        try:
            operation = self.program.send(self.next_send)
        except StopIteration:
            self.finished = True
            return None
        self.next_send = None
        if not isinstance(operation, Operation):
            raise KernelProgramError(
                f"thread {self.tid} yielded {operation!r}, which is not an Operation"
            )
        return operation

    def complete(self, operation: Operation, outcome: OpOutcome) -> None:
        """Record the outcome of ``operation`` (retry or completion)."""
        if outcome.retry:
            self.pending_op = operation
            return
        self.pending_op = None
        self.next_send = outcome.value
        self.operations_executed += outcome.ops


#: Handler for operations the core itself does not know how to execute
#: (allocation, task creation, CPU/MTTOP synchronisation primitives, ...).
#: Receives the issuing core, the lane and the operation.
RuntimeHandler = Callable[[object, ThreadContext, Operation], OpOutcome]


def execute_memory_operation(operation: Operation, memory_port,
                             spin_poll_ps: int) -> Optional[OpOutcome]:
    """Execute ``operation`` if it is a plain memory operation.

    Returns ``None`` for operations this function does not handle (compute
    and runtime operations), so the calling core can deal with them.  The
    ``memory_port`` must provide ``load``, ``store``, ``atomic_add`` and
    ``atomic_cas`` methods that return ``(value, latency_ps)`` /
    ``latency_ps`` pairs — see :class:`repro.mem.port.CoreMemoryPort`.
    """
    if isinstance(operation, Load):
        value, latency = memory_port.load(operation.vaddr)
        return OpOutcome(latency_ps=latency, value=value)
    if isinstance(operation, Store):
        latency = memory_port.store(operation.vaddr, operation.value)
        return OpOutcome(latency_ps=latency)
    if isinstance(operation, AtomicAdd):
        old, latency = memory_port.atomic_add(operation.vaddr, operation.delta)
        return OpOutcome(latency_ps=latency, value=old)
    if isinstance(operation, AtomicInc):
        old, latency = memory_port.atomic_add(operation.vaddr, 1)
        return OpOutcome(latency_ps=latency, value=old)
    if isinstance(operation, AtomicDec):
        old, latency = memory_port.atomic_add(operation.vaddr, -1)
        return OpOutcome(latency_ps=latency, value=old)
    if isinstance(operation, AtomicCAS):
        old, latency = memory_port.atomic_cas(operation.vaddr, operation.expected,
                                              operation.new)
        return OpOutcome(latency_ps=latency, value=old)
    if isinstance(operation, WaitValue):
        value, latency = memory_port.load(operation.vaddr)
        satisfied = (value != operation.value) if operation.negate \
            else (value == operation.value)
        if satisfied:
            return OpOutcome(latency_ps=latency, value=value)
        return OpOutcome(latency_ps=latency + spin_poll_ps, retry=True)
    if isinstance(operation, LoadVector):
        values, latencies = memory_port.load_batch(operation.vaddrs)
        return OpOutcome(latency_ps=sum(latencies), value=tuple(values),
                         ops=max(1, len(latencies)))
    if isinstance(operation, StoreVector):
        latencies = memory_port.store_batch(operation.vaddrs, operation.values)
        return OpOutcome(latency_ps=sum(latencies),
                         ops=max(1, len(latencies)))
    return None


# --------------------------------------------------------------------------- #
# Batch collection (used by the MTTOP warp loop)
# --------------------------------------------------------------------------- #
def batch_request(operation: Operation) -> Optional[BatchOp]:
    """Encode ``operation`` as a ``(kind, vaddr, a, b)`` batch op.

    Returns ``None`` for operations that cannot join a mixed batch —
    compute, runtime services, and the vector operations (which batch
    internally through ``load_batch``/``store_batch`` already).  A
    :class:`WaitValue` is encoded as the load its poll performs; the
    spin/retry decision is re-applied by :func:`batch_outcome`.
    """
    if isinstance(operation, Load):
        return (OP_LOAD, operation.vaddr, 0, 0)
    if isinstance(operation, Store):
        return (OP_STORE, operation.vaddr, operation.value, 0)
    if isinstance(operation, AtomicAdd):
        return (OP_ATOMIC_ADD, operation.vaddr, operation.delta, 0)
    if isinstance(operation, AtomicInc):
        return (OP_ATOMIC_ADD, operation.vaddr, 1, 0)
    if isinstance(operation, AtomicDec):
        return (OP_ATOMIC_ADD, operation.vaddr, -1, 0)
    if isinstance(operation, AtomicCAS):
        return (OP_ATOMIC_CAS, operation.vaddr, operation.expected,
                operation.new)
    if isinstance(operation, WaitValue):
        return (OP_LOAD, operation.vaddr, 0, 0)
    return None


def batch_outcome(operation: Operation, value: object, latency_ps: int,
                  spin_poll_ps: int) -> OpOutcome:
    """Build the :class:`OpOutcome` for one batched operation's result.

    Mirrors exactly what :func:`execute_memory_operation` would have
    produced for the same operation and port result.
    """
    if isinstance(operation, WaitValue):
        satisfied = (value != operation.value) if operation.negate \
            else (value == operation.value)
        if satisfied:
            return OpOutcome(latency_ps=latency_ps, value=value)
        return OpOutcome(latency_ps=latency_ps + spin_poll_ps, retry=True)
    if isinstance(operation, Store):
        return OpOutcome(latency_ps=latency_ps)
    return OpOutcome(latency_ps=latency_ps, value=value)
