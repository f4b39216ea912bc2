"""Layer spans for the traced benchmark run.

The benchmark times the simulator from the outside: :class:`Tracer`
wraps the public entry points of each layer (listed in :data:`LAYERS`)
for the length of one pass and restores them afterwards.  A wrapped call
is a span with a layer, a start, an end and a parent (the enclosing
span); a layer's *self* time is its spans' durations minus the time
their child spans cover, so self times of all layers plus ``other`` add
up to the pass's wall time.

Methods are patched on their class, module-level functions at every
``repro`` module that imported them (``from x import f`` binds a second
name), and workload variants in the workload registry, which is where
sweep points look them up.  Patches are installed before any hierarchy
is built, so bound methods cached at construction see the wrapper.

This module does not import ``repro``: the parent process uses its
table renderer without loading the simulator.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> "module:Class.method" / "module:function" entry points.
#: ``Class.*`` means every public method the class itself defines.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "harness": ("repro.harness.runner:SweepRunner.run_spec",),
    "dse": ("repro.dse.search:Explorer.explore",),
    "workloads": (),  # every registered workload variant, see _variant_patches
    "build": ("repro.core.chip:CCSVMChip.__init__",
              "repro.baseline.apu:AMDAPU.__init__",
              "repro.mem.replay:CCSVMReplayHierarchy.__init__"),
    "replay": ("repro.mem.replay:replay_trace",),
    "sim": ("repro.sim.engine:Engine.run",),
    "cores": ("repro.cores.cpu:CPUCore.step",
              "repro.cores.mttop:MTTOPCore.step"),
    "baseline": ("repro.baseline.gpu:RadeonGPUModel.execute_kernel",
                 "repro.baseline.opencl:OpenCLSession.*",
                 "repro.baseline.cpu:BaselineCPUCore.run",
                 "repro.baseline.pthreads:PThreadsMachine.run_sequential",
                 "repro.baseline.pthreads:PThreadsMachine.run_parallel"),
    "batch": ("repro.mem.batch:run_ccsvm_batch",
              "repro.mem.batch:run_flat_batch"),
    "port": ("repro.mem.port:CoreMemoryPort.load",
             "repro.mem.port:CoreMemoryPort.store",
             "repro.mem.port:CoreMemoryPort.atomic_add",
             "repro.mem.port:CoreMemoryPort.atomic_cas"),
    "vm": ("repro.vm.tlb:TLB.lookup",
           "repro.vm.tlb:TLB.translate_batch",
           "repro.vm.walker:PageTableWalker.walk"),
    "cache": ("repro.cache.cache:SetAssociativeCache.lookup",
              "repro.cache.cache:SetAssociativeCache.probe",
              "repro.cache.cache:SetAssociativeCache.insert",
              "repro.cache.cache:SetAssociativeCache.evict",
              "repro.cache.cache:SetAssociativeCache.gather_batch"),
    "coherence": ("repro.coherence.protocol:CoherentMemorySystem.access",
                  "repro.coherence.protocol:CoherentMemorySystem.load",
                  "repro.coherence.protocol:CoherentMemorySystem.store",
                  "repro.coherence.protocol:CoherentMemorySystem.atomic",
                  "repro.coherence.protocol:CoherentMemorySystem.l1_load_hit_ps",
                  "repro.coherence.protocol:CoherentMemorySystem.l1_store_hit_ps"),
    "noc": ("repro.interconnect.network:NetworkModel.send",
            "repro.interconnect.network:NetworkModel.round_trip"),
    "dram": ("repro.memory.dram:DRAMModel.access",
             "repro.memory.dram:DRAMModel.read",
             "repro.memory.dram:DRAMModel.write"),
}

#: Time inside a pass that no layer span covers.
OTHER = "other"


def _batch_size(args: tuple) -> int:
    return len(args[1])  # run_*_batch(port, vaddrs, ...)


#: layer -> (before, after): integer "units" of work added per call,
#: evaluated on the call's positional arguments around the call.
_UNITS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "sim": (lambda args: -args[0].steps_executed,
            lambda args: args[0].steps_executed),
    "batch": (_batch_size, None),
}


class LayerTotals:
    """Aggregate of one layer's spans over a pass."""

    __slots__ = ("calls", "self_ns", "inclusive_ns", "depth", "units",
                 "nested")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.inclusive_ns = 0   #: outermost spans only (no double count)
        self.depth = 0          #: open spans of this layer right now
        self.units = 0          #: layer-specific work count (_UNITS)
        self.nested = 0         #: port calls made under a batch span


class Tracer:
    """Per-layer span aggregation, installed around one pass.

    Only ``pass``, ``point`` and ``build`` spans are kept individually
    (:attr:`spans`); every other span is folded into
    :attr:`totals` as it closes, which keeps memory flat however many
    accesses a pass makes.
    """

    #: Layers whose spans are also kept one by one.
    KEPT = ("build",)

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self._clock = clock
        # Child-time accumulators of the open spans; the bottom one
        # belongs to no layer (time spent there is ``other``).
        self._stack: List[List[int]] = [[0]]
        self.totals: Dict[str, LayerTotals] = {
            layer: LayerTotals() for layer in LAYERS}
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []   # ids of the open pass/point spans
        self._patches: List[Tuple[object, Optional[str], object]] = []

    # ------------------------------------------------------------------ #
    # Kept spans (pass / point / build)
    # ------------------------------------------------------------------ #
    def _parent(self) -> Optional[int]:
        return self._open[-1] if self._open else None

    def open_span(self, kind: str, name: str) -> int:
        """Start a kept span inside the innermost open one."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "kind": kind, "name": name,
                           "parent": self._parent(),
                           "start_ns": self._clock(), "end_ns": None})
        self._open.append(span_id)
        return span_id

    def close_span(self, span_id: int) -> None:
        self.spans[span_id]["end_ns"] = self._clock()
        self._open.remove(span_id)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, func: Callable) -> Callable:
        """``func`` timed as a span of ``layer``."""
        stack = self._stack
        totals = self.totals[layer]
        clock = self._clock
        before, after = _UNITS.get(layer, (None, None))
        batch = self.totals["batch"] if layer == "port" else None
        keep = layer in self.KEPT
        spans = self.spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            totals.depth += 1
            if before is not None:
                totals.units += before(args)
            if batch is not None and batch.depth:
                totals.nested += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                totals.calls += 1
                totals.self_ns += elapsed - frame[0]
                totals.depth -= 1
                if not totals.depth:
                    totals.inclusive_ns += elapsed
                if after is not None:
                    totals.units += after(args)
                if keep:
                    spans.append({"id": len(spans), "kind": layer,
                                  "name": func.__qualname__,
                                  "parent": self._parent(),
                                  "start_ns": start, "end_ns": end})

        return traced

    def _patch(self, owner: object, name: str, layer: str) -> None:
        original = getattr(owner, name) if isinstance(owner, types.ModuleType) \
            else owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                if "." not in qualname:
                    self._patch_function(module, qualname, layer)
                    continue
                class_name, _, method = qualname.partition(".")
                cls = getattr(module, class_name)
                methods = [method] if method != "*" else [
                    name for name, value in vars(cls).items()
                    if isinstance(value, types.FunctionType)
                    and not name.startswith("_")]
                for name in methods:
                    self._patch(cls, name, layer)
        self._patch_variants()

    def _patch_function(self, module: types.ModuleType, name: str,
                        layer: str) -> None:
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") \
                    and loaded.__dict__.get(name) is original:
                self._patch(loaded, name, layer)

    def _patch_variants(self) -> None:
        # Sweep points resolve variants through the registry's table, so
        # that table is the one import site that matters.
        from repro.workloads import registry

        registry.load_builtin_workloads()
        table = registry._VARIANTS
        originals = dict(table)
        for key, variant in originals.items():
            table[key] = dataclasses.replace(
                variant, func=self.wrap("workloads", variant.func))
        self._patches.append((table, None, originals))

    def restore(self) -> None:
        """Undo :meth:`install`, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if name is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def summary(self, pass_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, inclusive and self seconds, and self share."""
        rows: Dict[str, Dict[str, float]] = {}
        covered = 0.0
        for layer, totals in self.totals.items():
            self_s = totals.self_ns / 1e9
            covered += self_s
            rows[layer] = {"calls": totals.calls,
                           "inclusive_s": totals.inclusive_ns / 1e9,
                           "self_s": self_s, "self_frac": self_s / pass_s}
        other = max(pass_s - covered, 0.0)
        rows[OTHER] = {"calls": 0, "inclusive_s": other, "self_s": other,
                       "self_frac": other / pass_s}
        return rows


def render_table(workload: str, pass_s: float,
                 summary: Dict[str, Dict[str, float]]) -> str:
    """The per-layer table of one traced pass, heaviest layer first."""
    lines = [f"{workload}: traced pass {pass_s:.3f} s",
             f"  {'layer':<10} {'calls':>10} {'inclusive_s':>12} "
             f"{'self_s':>10} {'self %':>7}"]
    for layer, row in sorted(summary.items(),
                             key=lambda item: -item[1]["self_s"]):
        lines.append(f"  {layer:<10} {int(row['calls']):>10} "
                     f"{row['inclusive_s']:>12.4f} {row['self_s']:>10.4f} "
                     f"{100 * row['self_frac']:>6.1f}%")
    return "\n".join(lines)
