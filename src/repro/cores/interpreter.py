"""Shared machinery for executing thread programs on a core.

Both core models (CPU and MTTOP) drive thread programs the same way: resume
the generator, get an operation, execute it against the core's memory port,
and send the result back in.  The only differences between core types are
issue cost, how many lanes execute together, and which runtime handles the
non-memory operations — so everything else lives here.

Every function here dispatches on the operation's integer ``code`` (see
:mod:`repro.cores.isa`), which is the one way the package tells operations
apart.  Loops that need no :class:`ThreadContext` or :class:`OpOutcome`
(the APU baseline's CPU core and GPU wavefront, the Barnes-Hut functional
reference) drive the generator themselves and raise
:func:`not_an_operation` for a yield that is not an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.cores.isa import (
    ATOMIC_ADD,
    ATOMIC_CAS,
    ATOMIC_DEC,
    ATOMIC_INC,
    LOAD,
    LOAD_VECTOR,
    STORE,
    STORE_VECTOR,
    WAIT_VALUE,
    Operation,
)
from repro.errors import KernelProgramError
from repro.mem.batch import (OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE,
                             BatchOp)

#: A thread program: a generator yielding operations and receiving results.
ThreadProgram = Generator[Operation, object, None]


class OpOutcome:
    """Result of executing (or attempting) one operation.

    ``retry`` means the operation did not complete (a spin-wait whose
    condition is not yet true) and must be re-executed on the lane's next
    turn; the latency charged covers the poll that was performed.

    ``ops`` is how many scalar operations this outcome stands for: 1 for
    everything except the vector memory operations, which count (and are
    charged issue cost) as one instruction per element.
    """

    __slots__ = ("latency_ps", "value", "retry", "ops")

    def __init__(self, latency_ps: int = 0, value: object = None,
                 retry: bool = False, ops: int = 1) -> None:
        self.latency_ps = latency_ps
        self.value = value
        self.retry = retry
        self.ops = ops


def not_an_operation(tid: int, value: object) -> KernelProgramError:
    """The error for thread ``tid`` yielding ``value``, which is no operation."""
    return KernelProgramError(
        f"thread {tid} yielded {value!r}, which is not an Operation")


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
            raise not_an_operation(self.tid, operation)
        return operation

    def complete(self, operation: Operation, outcome: OpOutcome) -> None:
        """Record the outcome of ``operation`` (retry or completion)."""
        if outcome.retry:
            self.pending_op = operation
            return
        self.pending_op = None
        self.next_send = outcome.value


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
    code = operation.code
    if code == LOAD:
        value, latency = memory_port.load(operation.vaddr)
        return OpOutcome(latency, value)
    if code == STORE:
        return OpOutcome(memory_port.store(operation.vaddr, operation.value))
    if code == ATOMIC_ADD:
        old, latency = memory_port.atomic_add(operation.vaddr, operation.delta)
        return OpOutcome(latency, old)
    if code == ATOMIC_INC:
        old, latency = memory_port.atomic_add(operation.vaddr, 1)
        return OpOutcome(latency, old)
    if code == ATOMIC_DEC:
        old, latency = memory_port.atomic_add(operation.vaddr, -1)
        return OpOutcome(latency, old)
    if code == ATOMIC_CAS:
        old, latency = memory_port.atomic_cas(operation.vaddr, operation.expected,
                                              operation.new)
        return OpOutcome(latency, old)
    if code == WAIT_VALUE:
        value, latency = memory_port.load(operation.vaddr)
        return _wait_outcome(operation, value, latency, spin_poll_ps)
    if code == LOAD_VECTOR:
        values, latencies = memory_port.load_batch(operation.vaddrs)
        return OpOutcome(sum(latencies), tuple(values), ops=max(1, len(latencies)))
    if code == STORE_VECTOR:
        latencies = memory_port.store_batch(operation.vaddrs, operation.values)
        return OpOutcome(sum(latencies), ops=max(1, len(latencies)))
    return None


def _wait_outcome(operation, value: object, latency_ps: int,
                  spin_poll_ps: int) -> OpOutcome:
    """A :class:`~repro.cores.isa.WaitValue` poll that read ``value``."""
    satisfied = (value != operation.value) if operation.negate \
        else (value == operation.value)
    if satisfied:
        return OpOutcome(latency_ps, value)
    return OpOutcome(latency_ps + spin_poll_ps, retry=True)


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
    code = operation.code
    if code in (LOAD, WAIT_VALUE):
        return (OP_LOAD, operation.vaddr, 0, 0)
    if code == STORE:
        return (OP_STORE, operation.vaddr, operation.value, 0)
    if code == ATOMIC_ADD:
        return (OP_ATOMIC_ADD, operation.vaddr, operation.delta, 0)
    if code == ATOMIC_INC:
        return (OP_ATOMIC_ADD, operation.vaddr, 1, 0)
    if code == ATOMIC_DEC:
        return (OP_ATOMIC_ADD, operation.vaddr, -1, 0)
    if code == ATOMIC_CAS:
        return (OP_ATOMIC_CAS, operation.vaddr, operation.expected,
                operation.new)
    return None


def batch_outcome(operation: Operation, value: object, latency_ps: int,
                  spin_poll_ps: int) -> OpOutcome:
    """Build the :class:`OpOutcome` for one batched operation's result.

    Mirrors exactly what :func:`execute_memory_operation` would have
    produced for the same operation and port result.
    """
    code = operation.code
    if code == WAIT_VALUE:
        return _wait_outcome(operation, value, latency_ps, spin_poll_ps)
    if code == STORE:
        return OpOutcome(latency_ps)
    return OpOutcome(latency_ps, value)
