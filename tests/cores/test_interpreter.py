"""Tests for thread contexts and the shared operation interpreter."""

import pytest

from repro.cores.interpreter import OpOutcome, ThreadContext, execute_memory_operation
from repro.cores.isa import (
    AtomicAdd,
    AtomicCAS,
    AtomicDec,
    AtomicInc,
    Compute,
    Load,
    Store,
    WaitValue,
)
from repro.errors import KernelProgramError


class FakePort:
    """Memory port over a plain dict, with unit latencies."""

    def __init__(self):
        self.words = {}

    def load(self, vaddr):
        return self.words.get(vaddr, 0), 10

    def store(self, vaddr, value):
        self.words[vaddr] = value
        return 20

    def atomic_add(self, vaddr, delta):
        old = self.words.get(vaddr, 0)
        self.words[vaddr] = old + delta
        return old, 30

    def atomic_cas(self, vaddr, expected, new):
        old = self.words.get(vaddr, 0)
        if old == expected:
            self.words[vaddr] = new
        return old, 30


class TestThreadContext:
    def test_values_flow_back_into_generator(self):
        seen = []

        def program():
            value = yield Load(0)
            seen.append(value)

        context = ThreadContext(tid=0, program=program())
        op = context.next_operation()
        context.complete(op, OpOutcome(value=99))
        assert context.next_operation() is None
        assert context.finished
        assert seen == [99]

    def test_retry_replays_same_operation(self):
        def program():
            yield WaitValue(0, 1)

        context = ThreadContext(tid=0, program=program())
        op = context.next_operation()
        context.complete(op, OpOutcome(retry=True))
        assert context.next_operation() is op

    def test_non_operation_yield_rejected(self):
        def program():
            yield "not an op"

        context = ThreadContext(tid=0, program=program())
        with pytest.raises(KernelProgramError):
            context.next_operation()


class TestExecuteMemoryOperation:
    def test_load(self):
        port = FakePort()
        port.words[8] = 5
        outcome = execute_memory_operation(Load(8), port, 0)
        assert outcome.value == 5 and outcome.latency_ps == 10

    def test_store(self):
        port = FakePort()
        outcome = execute_memory_operation(Store(8, 7), port, 0)
        assert port.words[8] == 7 and outcome.latency_ps == 20

    def test_atomic_add_inc_dec(self):
        port = FakePort()
        assert execute_memory_operation(AtomicAdd(0, 5), port, 0).value == 0
        assert execute_memory_operation(AtomicInc(0), port, 0).value == 5
        assert execute_memory_operation(AtomicDec(0), port, 0).value == 6
        assert port.words[0] == 5

    def test_atomic_cas(self):
        port = FakePort()
        port.words[0] = 3
        execute_memory_operation(AtomicCAS(0, 3, 9), port, 0)
        assert port.words[0] == 9
        execute_memory_operation(AtomicCAS(0, 3, 1), port, 0)
        assert port.words[0] == 9

    def test_waitvalue_satisfied(self):
        port = FakePort()
        port.words[0] = 1
        outcome = execute_memory_operation(WaitValue(0, 1), port, 500)
        assert not outcome.retry

    def test_waitvalue_unsatisfied_retries_and_charges_poll(self):
        port = FakePort()
        outcome = execute_memory_operation(WaitValue(0, 1), port, 500)
        assert outcome.retry and outcome.latency_ps == 510

    def test_waitvalue_negated(self):
        port = FakePort()
        port.words[0] = 0
        assert execute_memory_operation(WaitValue(0, 5, negate=True), port, 0).retry is False

    def test_non_memory_operation_returns_none(self):
        assert execute_memory_operation(Compute(3), FakePort(), 0) is None
