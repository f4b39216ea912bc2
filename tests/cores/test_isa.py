"""Tests for the operation protocol: codes, value semantics, pickling."""

import pickle

import pytest

from repro.core.xthreads import api
from repro.core.xthreads.api import (
    READY,
    CpuMttopBarrier,
    CreateMThread,
    SignalCond,
    WaitCond,
)
from repro.cores import isa
from repro.cores.isa import (
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
from repro.mem.trace import decode_operation, encode_operation

#: One instance of every operation class, runtime operations included
#: (``CreateMThread`` carries a kernel name, which is what a trace keeps).
EXAMPLES = [
    Load(8),
    Store(8, 1),
    AtomicAdd(8, 3),
    AtomicInc(8),
    AtomicDec(8),
    AtomicCAS(8, 1, 2),
    WaitValue(8, 1, negate=True),
    LoadVector((8, 16)),
    StoreVector((8, 16), (1, 2)),
    Compute(4),
    Malloc(64),
    Free(64),
    CreateMThread("kernel", (1, 2), 0, 7),
    WaitCond(64, 0, 7, 2),
    SignalCond(64, 0, 7),
    CpuMttopBarrier(64, 72, 0, 7),
]


def _op_classes():
    classes = [value for module in (isa, api) for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Operation)
               and value is not Operation]
    return sorted(set(classes), key=lambda cls: cls.code)


def test_every_op_class_has_a_distinct_nonzero_code():
    classes = _op_classes()
    codes = [cls.code for cls in classes]
    assert all(codes)
    assert len(set(codes)) == len(codes)
    assert {type(op) for op in EXAMPLES} == set(classes)


def test_equality_needs_same_class_and_fields():
    assert Load(8) == Load(8)
    assert Load(8) != AtomicInc(8)
    assert Store(8, 1) != Store(8, 2)
    assert Load(8) != 8


def test_equal_ops_hash_equal():
    assert hash(Load(8)) == hash(Load(8))
    assert hash(WaitValue(8, 1)) == hash(WaitValue(8, 1, False))
    assert len({Load(8), Load(8), AtomicInc(8)}) == 2


def test_repr_names_every_field():
    assert repr(Load(8)) == "Load(vaddr=8)"
    assert repr(WaitValue(8, 1)) == "WaitValue(vaddr=8, value=1, negate=False)"


def test_keyword_construction_and_defaults():
    assert AtomicCAS(vaddr=8, expected=1, new=2) == AtomicCAS(8, 1, 2)
    assert Compute().amount == 1
    assert WaitValue(8, 1).negate is False
    assert SignalCond(64, 0, 7).value == READY
    with pytest.raises(TypeError):
        Store(8)


def test_ops_are_slotted():
    with pytest.raises(AttributeError):
        Load(8).value = 3


@pytest.mark.parametrize("op", EXAMPLES, ids=lambda op: type(op).__name__)
def test_pickle_round_trip(op):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(op, protocol)) == op


@pytest.mark.parametrize("op", EXAMPLES, ids=lambda op: type(op).__name__)
def test_trace_encoding_round_trip(op):
    assert decode_operation(encode_operation(op)) == op
