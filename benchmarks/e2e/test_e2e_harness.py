"""Checks of the end-to-end benchmark's own arithmetic, checks and spec.

These run in seconds on tiny inputs; the benchmark itself is
``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import bench
import pytest
import run as driver
from tracing import Tracer

from repro.harness import HarnessError, PointResult, SweepPoint, SweepRunner
from repro.workloads.base import WorkloadVerificationError

SMALL_STREAM = {"ops": 2000, "words": 1024, "locality": 0.9,
                "atomics": 0.10}


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(n) for n in range(1, 41)]
    assert bench.percentile(samples, 75) == pytest.approx(30.25)
    with pytest.raises(ValueError):
        bench.percentile(samples[:39], 75)


def test_self_time_subtracts_child_spans():
    now = [0]

    def advance(ns):
        now[0] += ns

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.wrap("cache", lambda: advance(30))

    def inner():
        advance(5)
        leaf()

    inner = tracer.wrap("coherence", inner)

    def middle():
        advance(10)
        inner()   # coherence inside coherence, like load() -> access()
        advance(5)

    middle = tracer.wrap("coherence", middle)

    def outer():
        advance(100)
        middle()
        middle()

    tracer.wrap("port", outer)()
    advance(50)  # outside every layer
    totals = tracer.totals
    assert (totals["cache"].calls, totals["cache"].self_ns) == (2, 60)
    assert (totals["coherence"].calls, totals["coherence"].self_ns) == (4, 40)
    assert totals["coherence"].inclusive_ns == 100  # outermost spans only
    assert totals["port"].self_ns == 100
    summary = tracer.summary(pass_s=250e-9)
    assert summary["other"]["self_s"] == pytest.approx(50e-9)
    assert sum(row["self_frac"] for row in summary.values()) \
        == pytest.approx(1.0)


def _point(value):
    return {"value": value}


def _unverified(value):
    raise WorkloadVerificationError(f"value {value} is wrong")


class _Sweep:
    """A three-point sweep; the middle point fails its verification."""

    name = "sweep"
    nominal_pass_s = 1.0
    min_passes = 14   # 42 samples, enough for p75

    def __init__(self, failing: bool = True) -> None:
        self.points = [
            SweepPoint("sweep", str(index),
                       _unverified if failing and index == 1 else _point,
                       {"value": index})
            for index in range(3)]

    key = staticmethod(lambda point: point.point_id)
    check_key = staticmethod(lambda key: key)

    def run_pass(self, backend):
        try:
            SweepRunner(backend=backend).run_points(self.points)
        except HarnessError:
            pass
        return {record.key: bench.digest(record.result.rows)
                for record in backend.records
                if isinstance(record.result, PointResult)}

    def cross_check(self, passes):
        return set()


def test_failed_point_is_counted_and_the_run_continues():
    workload = _Sweep()
    passes = [bench.run_pass(workload) for _ in range(2)]
    assert [len(p.records) for p in passes] == [3, 3]
    assert bench.check(workload, passes, {}) == {
        "attempted": 6, "failed": 2, "correct": False}
    pinned = {"2": "not-the-digest"}
    assert bench.check(workload, passes, pinned)["failed"] == 4


def test_digest_ignores_key_order():
    assert bench.digest({"a": 1, "b": [1, 2]}) == \
        bench.digest({"b": [1, 2], "a": 1})


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("e2e"))
    return bench.DseGrid("small", "cache_replay", SMALL_STREAM, 1.0,
                         seed=3, workdir=workdir)


def test_replay_matches_full_simulation_on_two_shapes(small_grid):
    records = bench.run_pass(small_grid).records
    assert len(records) == 16
    assert small_grid.cross_check([records]) == set()
    first = records[0]
    stats = dict(first.result.stats)
    stats["l1d.cpu0.hits"] += 1
    tampered = first._replace(result=PointResult(first.result.rows, stats))
    assert small_grid.cross_check([[tampered]]) == {first.key}


def test_digests_do_not_depend_on_the_hash_seed(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    code = ("import json, sys, bench\n"
            "grid = bench.DseGrid('small', 'cache_replay', "
            f"{SMALL_STREAM!r}, 1.0, seed=3, workdir=sys.argv[1])\n"
            "print(json.dumps(bench.run_pass(grid).outputs))\n")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                               here]))
        completed = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env,
            capture_output=True, text=True, check=True, timeout=120)
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 16


def test_tracer_reaches_every_layer_and_restores(small_grid):
    from repro.cache.cache import SetAssociativeCache
    from repro.mem import port as port_module
    from repro.workloads import registry

    lookup = SetAssociativeCache.__dict__["lookup"]
    batch = port_module.run_ccsvm_batch
    variants = dict(registry._VARIANTS)
    tracer = Tracer()
    tracer.install()
    try:
        records = bench.run_pass(small_grid, tracer).records
    finally:
        tracer.restore()
    counters = bench.merged_counters(records)
    assert bench.coverage_failures(tracer, counters, len(records)) == []
    assert tracer.totals["replay"].calls == 16
    assert tracer.totals["batch"].units > 0
    assert [span["kind"] for span in tracer.spans].count("build") == 16
    assert SetAssociativeCache.__dict__["lookup"] is lookup
    assert port_module.run_ccsvm_batch is batch
    assert registry._VARIANTS == variants


def test_coverage_flags_a_layer_with_work_but_no_calls():
    tracer = Tracer()
    counters = {"l1d.cpu0.hits": 5, "l1d.cpu0.misses": 1}
    assert bench.coverage_failures(tracer, counters, points=0) == ["cache"]
    tracer.totals["cache"].calls = 3
    assert bench.coverage_failures(tracer, counters, points=0) == []


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = driver.load_spec()   # raises on a malformed file
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    report = bench.timed_run(_Sweep(failing=False), seconds=0, pinned={})
    assert report["correct"] and report["attempted"] == 42
    assert {m["name"] for m in spec["end_to_end"]} == \
        set(report["metrics"]) | {"setup_s"}
    tracer = Tracer()
    layers = bench.layer_metrics(tracer, tracer.summary(1.0), {}, points=1,
                                 pass_s=1.0, untraced_s=1.0, coverage_ok=True)
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
