"""One benchmark workload in one fresh process (started by ``run.py``).

Prints one JSON report as the last line of stdout.  ``--setup-only``
stops after set-up (import, inputs, warm-up) and reports just its time;
the parent starts several such processes to take a median.

Every workload is a closed loop with one client: the serial backend runs
the next point only when the previous one has finished.  Simulated
results are checked, never timed.

Times are host wall-clock seconds scaled to the reference host's speed.
The host is shared, and its speed drifts by tens of percent over seconds
to minutes.  So a fixed pure-Python kernel (:func:`calibration_kernel`)
is timed between every two points and around set-up, and each measured
interval is multiplied by ``CALIBRATION_S / kernel time next to it``.  A
slow phase slows both and cancels; a change to the simulator changes
only the interval.  The raw host seconds are in the ``--out`` reports.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Set

from tracing import Tracer, render_table

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "seed0.json")

KIB = 1024
MIB = 1024 * KIB

#: The DSE grid: 16 ccsvm shapes, the same for all three DSE workloads.
GRID = (("cpu.l1_size_bytes", (16 * KIB, 64 * KIB)),
        ("l2.total_size_bytes", (1 * MIB, 4 * MIB)),
        ("cpu.tlb_entries", (16, 64)),
        ("l3.enabled", (False, True)))

#: mem_stream captures.  LOCAL hits in L1 and TLB on every shape (16 KiB
#: footprint, sequential); THRASH misses (512 KiB, random) and its stores
#: and atomics push the replay off the batch path onto scalar MOESI.
LOCAL_STREAM = {"ops": 20_000, "words": 2048, "locality": 0.95,
                "atomics": 0.0}
THRASH_STREAM = {"ops": 2000, "words": 65536, "locality": 0.3,
                 "atomics": 0.10}

#: Counters that belong to cores and runtimes rather than the memory
#: hierarchy; cache-only replay does not reproduce them.
NON_HIERARCHY = ("cpu", "mttop", "engine.", "xthreads.", "mifd.", "sched")


def digest(document: object) -> str:
    """Short stable hash of a JSON-able document (key order ignored)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hierarchy(counters: Dict[str, int]) -> Dict[str, int]:
    return {name: value for name, value in counters.items()
            if not name.startswith(NON_HIERARCHY)}


def total(counters: Dict[str, int], prefix: str, suffix: str = "") -> int:
    return sum(value for name, value in counters.items()
               if name.startswith(prefix) and name.endswith(suffix))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def l1_accesses(counters: Dict[str, int]) -> int:
    """Simulated L1 accesses: ``l1d.*.hits`` + ``l1d.*.misses``."""
    return (total(counters, "l1d.", ".hits")
            + total(counters, "l1d.", ".misses"))


#: The calibration kernel's time on the reference host, by definition.
CALIBRATION_S = 0.010


class _Counter:
    __slots__ = ("tag", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.hits = 0

    def touch(self, amount: int) -> int:
        self.hits += amount
        return self.hits


def calibration_kernel() -> float:
    """Host seconds of a fixed loop with the simulator's kind of work
    (attribute, dict and call traffic); ~10 ms on the reference host.
    It must never change: every scaled time is relative to it."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    counters = [_Counter(tag) for tag in range(64)]
    checksum = 0
    for i in range(36_000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + counters[i & 63].touch(i & 7)
        if i & 1:
            checksum += len(table) & 15
    return time.perf_counter() - started


class PointRecord(NamedTuple):
    key: str
    seconds: float   #: host seconds
    kernel: int      #: index of the calibration sample taken just before
    result: object   #: PointResult or PointFailure


def timed_backend(key_of, tracer: Optional[Tracer] = None,
                  calibrate: bool = False):
    """A serial backend that records each point's host latency, and with
    ``calibrate`` times the calibration kernel between points."""
    from repro.harness import SerialBackend

    class TimedBackend(SerialBackend):
        def __init__(self) -> None:
            super().__init__()
            self.records: List[PointRecord] = []
            self.kernel_s: List[float] = []

        def _kernel(self) -> None:
            if calibrate:
                self.kernel_s.append(calibration_kernel())

        def run_iter(self, points):
            inner = super().run_iter(points)
            self._kernel()
            # Serial: the next result is always the next point in order.
            for position in itertools.count():
                span = None
                if tracer is not None and position < len(points):
                    span = tracer.open_span("point",
                                            key_of(points[position]))
                started = time.perf_counter()
                item = next(inner, None)
                seconds = time.perf_counter() - started
                if span is not None:
                    tracer.close_span(span)
                if item is None:
                    return
                index, result = item
                self.records.append(PointRecord(
                    key_of(points[index]), seconds, len(self.kernel_s) - 1,
                    result))
                self._kernel()
                yield index, result

    return TimedBackend()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
#: Sweeps whose simulated work does not depend on their input values
#: (dense matmul): seed S != 0 gives them new matrices.  With other
#: inputs figures 6-8 (APSP, Barnes-Hut, sparse matmul) do 2-28% more or
#: less work, which would swamp the timing, so every seed runs them on
#: the paper's own inputs and checks them against the seed-0 digests.
SEEDED_SWEEPS = ("figure5", "figure9")


class PaperEval:
    """The seven registered sweeps at default grids (``repro run all``)."""

    nominal_pass_s = 9.6
    min_passes = 3   # 33 points a pass; three samples of each point

    def __init__(self, seed: int) -> None:
        from repro.harness import get_spec, spec_names

        self.name = "paper_eval"
        self.specs = [get_spec(name) for name in spec_names()]
        # Seed 0 keeps every figure's own default seed: the paper's
        # evaluation as pinned by the golden tables.
        self.params = {
            spec.name: {"seed": seed}
            if seed and spec.name in SEEDED_SWEEPS else {}
            for spec in self.specs}

    def pinned(self, reference: Dict[str, str]) -> Dict[str, str]:
        """The seed-0 digests that hold at this seed."""
        return {name: value for name, value in reference.items()
                if not self.params.get(name)}

    @staticmethod
    def key(point) -> str:
        return f"{point.spec}:{point.point_id}"

    @staticmethod
    def check_key(point_key: str) -> str:
        return point_key.split(":", 1)[0]

    def warm_up(self) -> None:
        from repro.harness import execute_point, get_spec

        execute_point(get_spec("figure5").build_points(
            **self.params["figure5"])[0])

    def run_pass(self, backend) -> Dict[str, str]:
        """Run every sweep; returns each rendering's digest by sweep."""
        from repro.harness import HarnessError, SweepRunner

        runner = SweepRunner(backend=backend)
        outputs = {}
        for spec in self.specs:
            try:
                outcome = runner.run_spec(spec, **self.params[spec.name])
            except HarnessError:
                continue  # the failed points are in the backend's records
            outputs[spec.name] = digest(spec.render(outcome.result))
        return outputs

    def cross_check(self, passes: List[List[PointRecord]]) -> Set[str]:
        return set()


class DseGrid:
    """The 16-shape grid through ``Explorer`` + ``GridSearch``."""

    min_passes = 3   # 16 points a pass; p75 needs 40 samples

    def __init__(self, name: str, workload: str, stream: Dict[str, object],
                 nominal_pass_s: float, seed: int, workdir: str) -> None:
        from repro.dse import BoolAxis, CategoricalAxis, ShapeSpace
        from repro.mem.replay import load_trace_cached
        from repro.workloads.trace_replay import capture_trace

        self.name = name
        self.nominal_pass_s = nominal_pass_s
        self.seed = seed
        path = os.path.join(workdir, f"{name}-{os.getpid()}.trace.json")
        capture_trace("mem_stream", seed=seed, path=path, **stream)
        axes = [BoolAxis(p) if values == (False, True)
                else CategoricalAxis(p, values) for p, values in GRID]
        self.space = ShapeSpace(workload=workload, system="ccsvm", axes=axes,
                                params={"trace": path}, name=f"e2e-{name}")
        self.full_space = ShapeSpace(workload="trace_replay", system="ccsvm",
                                     axes=axes, params={"trace": path},
                                     name=f"e2e-{name}-full")
        if workload == "cache_replay":
            load_trace_cached(path)  # parse once, as `repro dse --replay` does
        self.replay = workload == "cache_replay"

    def pinned(self, reference: Dict[str, str]) -> Dict[str, str]:
        """The seed-0 digests that hold at this seed."""
        return reference if self.seed == 0 else {}

    @staticmethod
    def key(point) -> str:
        return ",".join(f"{path}={value}" for path, value
                        in point.kwargs["overrides"].items())

    @staticmethod
    def check_key(point_key: str) -> str:
        return point_key

    def warm_up(self) -> None:
        from repro.harness import execute_point

        execute_point(self.space.scenario(self.space.shapes()[0]).points()[0])

    def run_pass(self, backend) -> Dict[str, str]:
        """Explore the grid; returns each point's digest by shape."""
        from repro.dse import DseError, Explorer, GridSearch
        from repro.harness import PointResult

        try:
            Explorer(self.space, backend=backend).explore(GridSearch())
        except DseError:
            pass  # the failed points are in the backend's records
        outputs = {}
        for record in backend.records:
            if isinstance(record.result, PointResult):
                rows = [{k: v for k, v in row.items() if k != "trace"}
                        for row in record.result.rows]
                outputs[record.key] = digest({
                    "rows": rows,
                    "counters": hierarchy(record.result.stats)})
        return outputs

    def cross_check(self, passes: List[List[PointRecord]]) -> Set[str]:
        """Shapes whose replayed hierarchy counters differ from a full
        simulation of the same trace (untimed; first and last shape)."""
        from repro.harness import PointResult, execute_point

        if not self.replay:
            return set()
        shapes = self.space.shapes()
        mismatched = set()
        for shape in (shapes[0], shapes[-1]):
            point = self.full_space.scenario(shape).points()[0]
            expected = hierarchy(execute_point(point).stats)
            for records in passes:
                for record in records:
                    if record.key == shape.shape_id and (
                            not isinstance(record.result, PointResult)
                            or hierarchy(record.result.stats) != expected):
                        mismatched.add(record.key)
        return mismatched


#: DSE workload -> (registered workload scoring each shape, captured
#: stream, seconds one pass takes on the reference host).
DSE_WORKLOADS = {
    "dse_full": ("trace_replay", LOCAL_STREAM, 4.2),
    "dse_replay_local": ("cache_replay", LOCAL_STREAM, 1.3),
    "dse_replay_thrash": ("cache_replay", THRASH_STREAM, 5.5),
}
WORKLOADS = ("paper_eval", *DSE_WORKLOADS)


def make_workload(name: str, seed: int, workdir: str):
    if name == "paper_eval":
        return PaperEval(seed)
    return DseGrid(name, *DSE_WORKLOADS[name], seed, workdir)


# --------------------------------------------------------------------------- #
# Passes and checks
# --------------------------------------------------------------------------- #
#: Calibration samples on each side of a point whose median scales it.
CALIBRATION_WINDOW = 2


class Pass(NamedTuple):
    wall_s: float        #: host seconds, calibration kernels excluded
    scaled_s: float      #: the same at reference-host speed
    records: List[PointRecord]
    scales: List[float]  #: per record, host to reference-host speed
    kernel_s: List[float]
    outputs: Dict[str, str]


def run_pass(workload, tracer: Optional[Tracer] = None,
             calibrate: bool = False) -> Pass:
    backend = timed_backend(workload.key, tracer, calibrate)
    started = time.perf_counter()
    outputs = workload.run_pass(backend)
    kernel_s = backend.kernel_s
    wall_s = time.perf_counter() - started - sum(kernel_s)
    records = backend.records
    scales = [1.0] * len(records)
    between_scale = 1.0
    if kernel_s:
        # A point scales by the median kernel around it (a lone slow
        # sample does not skew it); the runner/explorer work between
        # points by the pass's median kernel.
        scales = [CALIBRATION_S / statistics.median(kernel_s[
            max(r.kernel - CALIBRATION_WINDOW + 1, 0):
            r.kernel + CALIBRATION_WINDOW + 1]) for r in records]
        between_scale = CALIBRATION_S / statistics.median(kernel_s)
    between_s = wall_s - sum(r.seconds for r in records)
    scaled_s = (sum(r.seconds * scale for r, scale in zip(records, scales))
                + between_s * between_scale)
    return Pass(wall_s, scaled_s, records, scales, kernel_s, outputs)


def check(workload, passes: List[Pass],
          pinned: Dict[str, str]) -> Dict[str, object]:
    """Count failed points and whether every expected output appeared.

    A point fails when it raised (e.g. ``WorkloadVerificationError``),
    when the output it contributes to differs from its pinned seed-0
    digest or, without one, from the first pass, or when its replayed
    counters differ from full simulation.
    """
    from repro.harness import PointFailure

    expected = {**passes[0].outputs, **pinned}
    mismatched = workload.cross_check([p.records for p in passes])
    attempted = failed = 0
    for one_pass in passes:
        for record in one_pass.records:
            attempted += 1
            output = one_pass.outputs.get(workload.check_key(record.key))
            if (isinstance(record.result, PointFailure) or output is None
                    or output != expected.get(workload.check_key(record.key))
                    or record.key in mismatched):
                failed += 1
    complete = all(set(p.outputs) == set(expected) for p in passes)
    return {"attempted": attempted, "failed": failed,
            "correct": complete and failed == 0}


def merged_counters(records: List[PointRecord]) -> Dict[str, int]:
    counters: Dict[str, int] = {}
    for record in records:
        for name, value in getattr(record.result, "stats", {}).items():
            counters[name] = counters.get(name, 0) + value
    return counters


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2 ** 20 if sys.platform == "darwin" else rss / 1024


def timed_run(workload, seconds: float,
              pinned: Dict[str, str]) -> Dict[str, object]:
    """Fixed number of passes, sized to ``seconds`` on the reference host,
    so both sides of a comparison do the same work."""
    count = max(workload.min_passes,
                round(seconds / workload.nominal_pass_s))
    passes = [run_pass(workload, calibrate=True) for _ in range(count)]
    records = [r for p in passes for r in p.records]
    samples_ms = [1e3 * r.seconds * scale
                  for p in passes for r, scale in zip(p.records, p.scales)]
    metrics = {
        "wall_s": statistics.median(p.scaled_s for p in passes),
        "point_ms_p50": statistics.median(samples_ms),
        "point_ms_p75": percentile(samples_ms, 75),
        "sim_accesses_per_s": (l1_accesses(merged_counters(records))
                               / sum(p.scaled_s for p in passes)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {**check(workload, passes, pinned), "metrics": metrics,
            "passes": count, "samples": len(samples_ms),
            "host_pass_s": [p.wall_s for p in passes],
            "host_point_ms": [[r.key, 1e3 * r.seconds, r.kernel]
                              for r in records],
            "kernel_ms": [[1e3 * k for k in p.kernel_s] for p in passes],
            "digests": passes[0].outputs}


def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile; refuses one with fewer than 10 samples above."""
    if len(samples) * (100 - q) / 100 < 10:
        raise ValueError(f"p{q} of {len(samples)} samples has fewer than "
                         "10 samples beyond it")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def coverage_failures(tracer: Tracer, counters: Dict[str, int],
                      points: int) -> List[str]:
    """Layers whose counters show work but whose wrappers saw no call —
    an entry point the tracer failed to patch where callers look it up."""
    instructions = (total(counters, "cpu", ".instructions")
                    + total(counters, "mttop", ".warp_instructions"))
    evidence = {
        "build": points,
        "sim": instructions,
        "cores": instructions,
        "vm": total(counters, "tlb.") + total(counters, "walker."),
        "cache": l1_accesses(counters),
        "coherence": total(counters, "coherence.accesses."),
        "noc": counters.get("network.messages", 0),
        "dram": (counters.get("dram.reads", 0)
                 + counters.get("dram.writes", 0)),
    }
    return [layer for layer, work in evidence.items()
            if work and not tracer.totals[layer].calls]


def layer_metrics(tracer: Tracer, summary: Dict[str, Dict[str, float]],
                  counters: Dict[str, int], points: int, pass_s: float,
                  untraced_s: float, coverage_ok: bool) -> Dict[str, float]:
    totals = tracer.totals
    tlb_hits = total(counters, "tlb.", ".hits")
    tlb_misses = total(counters, "tlb.", ".misses")
    l1_hits = total(counters, "l1d.", ".hits")
    l1_misses = total(counters, "l1d.", ".misses")
    l2_hits = counters.get("coherence.l2_hits", 0)
    l2_misses = counters.get("coherence.l2_misses", 0)
    metrics: Dict[str, float] = {
        "build.calls": totals["build"].calls,
        "build.ms_per_point": 1e3 * summary["build"]["self_s"] / points,
        "sim.steps": totals["sim"].units,
        "cores.instructions": total(counters, "cpu", ".instructions"),
        "cores.warp_instructions": total(counters, "mttop",
                                         ".warp_instructions"),
        "baseline.calls": totals["baseline"].calls,
        "port.scalar_accesses": totals["port"].calls,
        "batch.calls": totals["batch"].calls,
        "batch.accesses": totals["batch"].units,
        "batch.fallback_frac": ratio(totals["port"].nested,
                                     totals["batch"].units),
        "vm.tlb_hits": tlb_hits,
        "vm.tlb_misses": tlb_misses,
        "vm.tlb_hit_ratio": ratio(tlb_hits, tlb_hits + tlb_misses),
        "vm.walks": total(counters, "walker.", ".walks"),
        "vm.page_faults": counters.get("os.page_faults", 0),
        "cache.l1_hits": l1_hits,
        "cache.l1_misses": l1_misses,
        "cache.l1_hit_ratio": ratio(l1_hits, l1_hits + l1_misses),
        "coherence.accesses": total(counters, "coherence.accesses."),
        "coherence.messages": total(counters, "coherence.msg."),
        "coherence.invalidations": counters.get("coherence.invalidations", 0),
        "coherence.l2_hit_ratio": ratio(l2_hits, l2_hits + l2_misses),
        "noc.messages": counters.get("network.messages", 0),
        "noc.hops": counters.get("network.hops", 0),
        "dram.accesses": (counters.get("dram.reads", 0)
                          + counters.get("dram.writes", 0)),
        "trace.wall_s": pass_s,
        "trace.overhead_frac": pass_s / untraced_s - 1,
        "trace.coverage_ok": int(coverage_ok),
    }
    for layer, row in summary.items():
        metrics[f"{layer}.self_frac"] = row["self_frac"]
    return metrics


def traced_run(workload,
               pinned: Dict[str, str]) -> Dict[str, object]:
    """One untraced pass, then one pass with every layer wrapped."""
    untraced = run_pass(workload)
    tracer = Tracer()
    try:
        tracer.install()
        span = tracer.open_span("pass", workload.name)
        traced = run_pass(workload, tracer)
        tracer.close_span(span)
    finally:
        tracer.restore()
    summary = tracer.summary(traced.wall_s)
    counters = merged_counters(traced.records)
    points = len(traced.records)
    uncovered = coverage_failures(tracer, counters, points)
    result = check(workload, [untraced, traced], pinned)
    result["correct"] = result["correct"] and not uncovered
    return {**result,
            "metrics": layer_metrics(tracer, summary, counters, points,
                                     traced.wall_s, untraced.wall_s,
                                     not uncovered),
            "uncovered_layers": uncovered,
            "digests": traced.outputs,
            "trace": {"summary": summary, "spans": tracer.spans,
                      "table": render_table(workload.name, traced.wall_s,
                                            summary)}}


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: importing repro (every repro import is inside the workload
    # code), building the inputs and one warm-up point.
    kernel_before = calibration_kernel()
    started = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.workdir)
    workload.warm_up()
    host_setup_s = time.perf_counter() - started
    setup_s = host_setup_s * 2 * CALIBRATION_S / (kernel_before
                                                  + calibration_kernel())
    report: Dict[str, object] = {"setup_s": setup_s,
                                 "host_setup_s": host_setup_s}
    if not args.setup_only:
        with open(REFERENCE, encoding="utf-8") as handle:
            pinned = workload.pinned(json.load(handle).get(args.workload, {}))
        report.update(traced_run(workload, pinned) if args.trace
                      else timed_run(workload, args.seconds, pinned))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
