"""The operation vocabulary thread programs are written in.

A *thread program* is a Python generator that yields operation objects and
receives each operation's result back through ``send``.  The same program
can therefore run on every machine model in this package — the CCSVM chip's
CPU and MTTOP cores, the APU baseline's CPU and GPU, or a plain functional
interpreter used to produce golden reference results — because each backend
interprets the operations with its own timing.

The operation set mirrors what the paper's MTTOP ISA provides: loads,
stores, simple OpenCL-style atomics (``atomic_add``, ``atomic_inc``,
``atomic_dec``, ``atomic_cas``), plain compute, and the memory-based
spin-wait that the xthreads synchronisation primitives are built from.
Runtime services (task creation, CPU/MTTOP signalling, dynamic allocation)
are separate operation classes defined by :mod:`repro.core.xthreads.api`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.memory.address import WORD_SIZE


class Operation:
    """Base class for everything a thread program may yield."""

    __slots__ = ()


# --------------------------------------------------------------------------- #
# Memory operations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Load(Operation):
    """Load the 64-bit word at virtual address ``vaddr``; yields its value."""

    vaddr: int


@dataclass(frozen=True)
class Store(Operation):
    """Store ``value`` to the 64-bit word at virtual address ``vaddr``."""

    vaddr: int
    value: int


@dataclass(frozen=True)
class AtomicAdd(Operation):
    """Atomically add ``delta`` to the word at ``vaddr``; yields the old value."""

    vaddr: int
    delta: int


@dataclass(frozen=True)
class AtomicInc(Operation):
    """Atomically increment the word at ``vaddr``; yields the old value."""

    vaddr: int


@dataclass(frozen=True)
class AtomicDec(Operation):
    """Atomically decrement the word at ``vaddr``; yields the old value."""

    vaddr: int


@dataclass(frozen=True)
class AtomicCAS(Operation):
    """Atomic compare-and-swap; yields the old value.

    The word at ``vaddr`` is replaced with ``new`` only if it equals
    ``expected``.
    """

    vaddr: int
    expected: int
    new: int


@dataclass(frozen=True)
class LoadVector(Operation):
    """Load every word in ``vaddrs``; yields the tuple of their values.

    Semantically and in timing this is exactly the same as yielding one
    :class:`Load` per address back to back — each element is charged the
    core's issue cost plus its own memory latency, and counts as one
    executed instruction — but it lets the memory port run the batch
    through the columnar access engine (:mod:`repro.mem.batch`) instead
    of one full call chain per word.
    """

    vaddrs: Tuple[int, ...]


@dataclass(frozen=True)
class StoreVector(Operation):
    """Store ``values[i]`` to ``vaddrs[i]`` for every element (no result).

    The vector analogue of :class:`Store`, with the same equivalence to a
    back-to-back scalar sequence as :class:`LoadVector`.
    """

    vaddrs: Tuple[int, ...]
    values: Tuple[int, ...]


@dataclass(frozen=True)
class WaitValue(Operation):
    """Spin until the word at ``vaddr`` compares against ``value``.

    ``negate`` False waits for equality; True waits for inequality.  The
    executing core models the spin as a coherent load per polling interval,
    so waiting generates realistic coherence traffic without simulating
    millions of back-to-back loads.
    """

    vaddr: int
    value: int
    negate: bool = False


# --------------------------------------------------------------------------- #
# Non-memory operations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Compute(Operation):
    """Execute ``amount`` arithmetic operations with no memory access."""

    amount: int = 1


@dataclass(frozen=True)
class Malloc(Operation):
    """Dynamically allocate ``size`` bytes; yields the virtual address.

    On a CPU core this is a normal heap allocation.  On an MTTOP thread it
    becomes the paper's ``mttop_malloc``: the MTTOP thread asks a CPU thread
    to perform the allocation on its behalf (Section 5.3.2), which is slow —
    deliberately so, since that cost is part of what Figure 8 measures.
    """

    size: int


@dataclass(frozen=True)
class Free(Operation):
    """Release a previous allocation at ``vaddr`` (no result)."""

    vaddr: int


# --------------------------------------------------------------------------- #
# Address arithmetic helpers for kernel authors
# --------------------------------------------------------------------------- #
def word_addr(base: int, index: int) -> int:
    """Address of the ``index``-th 64-bit word of an array starting at ``base``."""
    return base + index * WORD_SIZE
