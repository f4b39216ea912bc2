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

Every operation is a ``__slots__`` class carrying a class-level integer
``code`` (one of the constants below), and every interpreter dispatches on
that code rather than on the class.  Operations are immutable by
convention: nothing assigns to their fields after construction.  Two
operations are equal when they are of the same class with equal fields;
hash, ``repr`` and pickling follow the fields.
"""

from __future__ import annotations

from typing import Tuple

from repro.memory.address import WORD_SIZE

#: Operation codes (the ``code`` class attribute of each operation).  The
#: xthreads runtime operations continue the numbering after ``FREE``.
LOAD = 1
STORE = 2
ATOMIC_ADD = 3
ATOMIC_INC = 4
ATOMIC_DEC = 5
ATOMIC_CAS = 6
WAIT_VALUE = 7
LOAD_VECTOR = 8
STORE_VECTOR = 9
COMPUTE = 10
MALLOC = 11
FREE = 12


class Operation:
    """Base class for everything a thread program may yield.

    Subclasses list their fields in ``__slots__`` (in constructor order)
    and set a distinct nonzero ``code``.
    """

    __slots__ = ()
    code = 0

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


# --------------------------------------------------------------------------- #
# Memory operations
# --------------------------------------------------------------------------- #
class Load(Operation):
    """Load the 64-bit word at virtual address ``vaddr``; yields its value."""

    __slots__ = ("vaddr",)
    code = LOAD

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr


class Store(Operation):
    """Store ``value`` to the 64-bit word at virtual address ``vaddr``."""

    __slots__ = ("vaddr", "value")
    code = STORE

    def __init__(self, vaddr: int, value: int) -> None:
        self.vaddr = vaddr
        self.value = value


class AtomicAdd(Operation):
    """Atomically add ``delta`` to the word at ``vaddr``; yields the old value."""

    __slots__ = ("vaddr", "delta")
    code = ATOMIC_ADD

    def __init__(self, vaddr: int, delta: int) -> None:
        self.vaddr = vaddr
        self.delta = delta


class AtomicInc(Operation):
    """Atomically increment the word at ``vaddr``; yields the old value."""

    __slots__ = ("vaddr",)
    code = ATOMIC_INC

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr


class AtomicDec(Operation):
    """Atomically decrement the word at ``vaddr``; yields the old value."""

    __slots__ = ("vaddr",)
    code = ATOMIC_DEC

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr


class AtomicCAS(Operation):
    """Atomic compare-and-swap; yields the old value.

    The word at ``vaddr`` is replaced with ``new`` only if it equals
    ``expected``.
    """

    __slots__ = ("vaddr", "expected", "new")
    code = ATOMIC_CAS

    def __init__(self, vaddr: int, expected: int, new: int) -> None:
        self.vaddr = vaddr
        self.expected = expected
        self.new = new


class LoadVector(Operation):
    """Load every word in ``vaddrs``; yields the tuple of their values.

    Semantically and in timing this is exactly the same as yielding one
    :class:`Load` per address back to back — each element is charged the
    core's issue cost plus its own memory latency, and counts as one
    executed instruction — but it lets the memory port run the batch
    through the columnar access engine (:mod:`repro.mem.batch`) instead
    of one full call chain per word.
    """

    __slots__ = ("vaddrs",)
    code = LOAD_VECTOR

    def __init__(self, vaddrs: Tuple[int, ...]) -> None:
        self.vaddrs = vaddrs


class StoreVector(Operation):
    """Store ``values[i]`` to ``vaddrs[i]`` for every element (no result).

    The vector analogue of :class:`Store`, with the same equivalence to a
    back-to-back scalar sequence as :class:`LoadVector`.
    """

    __slots__ = ("vaddrs", "values")
    code = STORE_VECTOR

    def __init__(self, vaddrs: Tuple[int, ...], values: Tuple[int, ...]) -> None:
        self.vaddrs = vaddrs
        self.values = values


class WaitValue(Operation):
    """Spin until the word at ``vaddr`` compares against ``value``.

    ``negate`` False waits for equality; True waits for inequality.  The
    executing core models the spin as a coherent load per polling interval,
    so waiting generates realistic coherence traffic without simulating
    millions of back-to-back loads.
    """

    __slots__ = ("vaddr", "value", "negate")
    code = WAIT_VALUE

    def __init__(self, vaddr: int, value: int, negate: bool = False) -> None:
        self.vaddr = vaddr
        self.value = value
        self.negate = negate


# --------------------------------------------------------------------------- #
# Non-memory operations
# --------------------------------------------------------------------------- #
class Compute(Operation):
    """Execute ``amount`` arithmetic operations with no memory access."""

    __slots__ = ("amount",)
    code = COMPUTE

    def __init__(self, amount: int = 1) -> None:
        self.amount = amount


class Malloc(Operation):
    """Dynamically allocate ``size`` bytes; yields the virtual address.

    On a CPU core this is a normal heap allocation.  On an MTTOP thread it
    becomes the paper's ``mttop_malloc``: the MTTOP thread asks a CPU thread
    to perform the allocation on its behalf (Section 5.3.2), which is slow —
    deliberately so, since that cost is part of what Figure 8 measures.
    """

    __slots__ = ("size",)
    code = MALLOC

    def __init__(self, size: int) -> None:
        self.size = size


class Free(Operation):
    """Release a previous allocation at ``vaddr`` (no result)."""

    __slots__ = ("vaddr",)
    code = FREE

    def __init__(self, vaddr: int) -> None:
        self.vaddr = vaddr


# --------------------------------------------------------------------------- #
# Address arithmetic helpers for kernel authors
# --------------------------------------------------------------------------- #
def word_addr(base: int, index: int) -> int:
    """Address of the ``index``-th 64-bit word of an array starting at ``base``."""
    return base + index * WORD_SIZE
