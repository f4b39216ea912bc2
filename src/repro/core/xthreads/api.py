"""The xthreads API (Table 1 of the paper).

Host programs (running on CPU cores) yield the operation classes defined
here; MTTOP kernels use the ``mttop_*`` helper generators with ``yield from``.
Condition variables, barrier arrays and sense flags are ordinary words in
the process's shared virtual address space — which is the whole point of
CCSVM: synchronisation is just coherent loads, stores and atomics, with no
driver round-trips.

Table 1 mapping:

===============================  ==========================================
Paper API                         This module
===============================  ==========================================
``create_mthread(fn, args, ...)``  :class:`CreateMThread`
CPU ``wait(cond, first, last)``    :class:`WaitCond`
CPU ``signal(cond, first, last)``  :class:`SignalCond`
CPU ``cpu_mttop_barrier(...)``     :class:`CpuMttopBarrier`
MTTOP ``wait`` / ``signal``        :func:`mttop_wait` / :func:`mttop_signal`
MTTOP ``cpu_mttop_barrier``        :func:`mttop_barrier`
MTTOP ``mttop_malloc(size)``       :class:`repro.cores.isa.Malloc` yielded
                                   from an MTTOP thread
===============================  ==========================================
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.cores.isa import Operation, Store, WaitValue, word_addr

#: Condition-variable states used by wait/signal (arbitrary distinct values).
READY = 1
WAITING_ON_MTTOP = 2
WAITING_ON_CPU = 3

#: Value an MTTOP thread writes into its barrier-array slot on arrival.
BARRIER_ARRIVED = 1


def cond_entry(condition_vaddr: int, thread_id: int) -> int:
    """Address of ``thread_id``'s slot in a condition/barrier array."""
    return word_addr(condition_vaddr, thread_id)


# --------------------------------------------------------------------------- #
# Host-side (CPU) operations
# --------------------------------------------------------------------------- #
#: Operation codes of the runtime operations, continuing
#: :mod:`repro.cores.isa`'s numbering.
CREATE_MTHREAD = 13
WAIT_COND = 14
SIGNAL_COND = 15
CPU_MTTOP_BARRIER = 16


class CreateMThread(Operation):
    """Spawn MTTOP threads ``first_thread``..``last_thread`` running ``kernel``.

    Equivalent to the paper's ``create_mthread(void* fn, args* fnArgs,
    ThreadID firstThread, ThreadID lastThread)``.  ``kernel`` must be a
    generator function of signature ``kernel(tid, args)`` compiled by the
    xthreads toolchain; ``args`` is passed through untouched (it normally
    holds virtual addresses of shared arrays, exactly like the ``args``
    struct in Figure 4).
    """

    __slots__ = ("kernel", "args", "first_thread", "last_thread")
    code = CREATE_MTHREAD

    def __init__(self, kernel: Callable[..., object], args: object,
                 first_thread: int, last_thread: int) -> None:
        self.kernel = kernel
        self.args = args
        self.first_thread = first_thread
        self.last_thread = last_thread


class WaitCond(Operation):
    """CPU-side ``wait``: spin until every condition slot equals ``value``.

    The CPU thread polls ``condition[first_thread..last_thread]`` until all
    slots hold ``value`` (``READY`` by default), generating coherent loads
    while it waits — the paper's CPU thread does exactly this over the
    condition-variable array.
    """

    __slots__ = ("condition_vaddr", "first_thread", "last_thread", "value")
    code = WAIT_COND

    def __init__(self, condition_vaddr: int, first_thread: int,
                 last_thread: int, value: int = READY) -> None:
        self.condition_vaddr = condition_vaddr
        self.first_thread = first_thread
        self.last_thread = last_thread
        self.value = value


class SignalCond(Operation):
    """CPU-side ``signal``: set every condition slot to ``value`` (READY)."""

    __slots__ = ("condition_vaddr", "first_thread", "last_thread", "value")
    code = SIGNAL_COND

    def __init__(self, condition_vaddr: int, first_thread: int,
                 last_thread: int, value: int = READY) -> None:
        self.condition_vaddr = condition_vaddr
        self.first_thread = first_thread
        self.last_thread = last_thread
        self.value = value


class CpuMttopBarrier(Operation):
    """CPU side of the global CPU+MTTOP barrier.

    The CPU waits for every MTTOP thread to write its slot in the barrier
    array, then clears the slots and flips the sense word, releasing the
    MTTOP threads spinning on the sense (Table 1).
    """

    __slots__ = ("barrier_vaddr", "sense_vaddr", "first_thread", "last_thread")
    code = CPU_MTTOP_BARRIER

    def __init__(self, barrier_vaddr: int, sense_vaddr: int,
                 first_thread: int, last_thread: int) -> None:
        self.barrier_vaddr = barrier_vaddr
        self.sense_vaddr = sense_vaddr
        self.first_thread = first_thread
        self.last_thread = last_thread


# --------------------------------------------------------------------------- #
# MTTOP-side helpers (used inside kernels with ``yield from``)
# --------------------------------------------------------------------------- #
def mttop_signal(condition_vaddr: int, thread_id: int,
                 value: int = READY) -> Iterator[Operation]:
    """MTTOP ``signal``: mark this thread's condition slot as ``value``."""
    yield Store(cond_entry(condition_vaddr, thread_id), value)


def mttop_wait(condition_vaddr: int, thread_id: int,
               value: int = READY) -> Iterator[Operation]:
    """MTTOP ``wait``: announce waiting, then spin until signalled.

    Matches Table 1: the MTTOP thread sets its slot to ``WaitingOnCPU`` and
    waits until the CPU changes it to ``Ready``.
    """
    slot = cond_entry(condition_vaddr, thread_id)
    yield Store(slot, WAITING_ON_CPU)
    yield WaitValue(slot, value)


def mttop_barrier(barrier_vaddr: int, sense_vaddr: int, thread_id: int,
                  release_sense: int) -> Iterator[Operation]:
    """MTTOP side of the CPU+MTTOP barrier.

    The thread writes its barrier-array entry and then spins until the CPU
    flips the sense word to ``release_sense``.
    """
    yield Store(cond_entry(barrier_vaddr, thread_id), BARRIER_ARRIVED)
    yield WaitValue(sense_vaddr, release_sense)
