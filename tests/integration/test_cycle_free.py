"""A finished point leaves no cyclic garbage.

Reference counting must free a point's machine as soon as its workload
returns: a chip, APU or replay hierarchy left in a reference cycle stays
in memory until a full collection, and a sweep of thousands of small
points then holds many dead machines at once.  Each case runs one
warm-up point (imports, trace parsing and other one-off caches), then the
same point with the cyclic collector off; a ``gc.collect()`` afterwards
must find nothing to free.

Trace capture is left out: it writes JSON through the stdlib encoder,
whose closures are cyclic garbage of their own.
"""

import gc

import pytest

from repro.workloads.registry import get_variant, variants_for, workload_names
from repro.workloads.trace_replay import capture_trace

#: The smallest input of each workload; every registered workload needs
#: an entry, so a new one cannot skip this gate.
SMALLEST = {
    "apsp": {"size": 4},
    "barnes_hut": {"bodies": 4, "timesteps": 1},
    "matmul": {"size": 4},
    "mem_stream": {"ops": 100, "words": 64},
    "sparse_matmul": {"size": 4},
    "vector_add": {"size": 16},
}

#: Workloads that replay a pre-captured trace instead of taking a size.
TRACE_WORKLOADS = ("cache_replay", "trace_replay")

VARIANTS = [(workload, system)
            for workload in workload_names() if workload not in TRACE_WORKLOADS
            for system in variants_for(workload)]

#: (workload, system, trace) for the replay variants: host-only traces
#: replay on both machines, device traces only on the CCSVM chip.
TRACE_CASES = [(workload, system, trace)
               for workload in TRACE_WORKLOADS
               for system, trace in (("ccsvm", "host"), ("ccsvm", "device"),
                                     ("pthreads", "host"))]


def _cyclic_garbage_after(point):
    point()
    gc.collect()
    gc.disable()
    try:
        point()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traces")
    host = directory / "mem_stream.trace.json"
    device = directory / "matmul.trace.json"
    capture_trace("mem_stream", seed=3, path=str(host), **SMALLEST["mem_stream"])
    capture_trace("matmul", seed=7, path=str(device), **SMALLEST["matmul"])
    return {"host": str(host), "device": str(device)}


def test_every_workload_has_a_smallest_size():
    assert sorted(SMALLEST) == sorted(set(workload_names()) - set(TRACE_WORKLOADS))


@pytest.mark.parametrize("workload,system", VARIANTS)
def test_point_leaves_no_cyclic_garbage(workload, system):
    variant = get_variant(workload, system)
    assert _cyclic_garbage_after(
        lambda: variant.func(None, **SMALLEST[workload])) == 0


@pytest.mark.parametrize("workload,system,trace", TRACE_CASES)
def test_replay_point_leaves_no_cyclic_garbage(traces, workload, system, trace):
    variant = get_variant(workload, system)
    assert _cyclic_garbage_after(
        lambda: variant.func(None, trace=traces[trace])) == 0
