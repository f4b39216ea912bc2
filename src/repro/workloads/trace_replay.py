"""Replay a recorded address trace under any CCSVM hierarchy shape.

The :mod:`repro.mem.trace` machinery records the complete operation stream
of one (workload, params, seed) run; this module turns a saved trace back
into a registered workload, so the standard sweep tooling can replay it
across hierarchy presets without re-deriving the workload::

    python - <<'PY'
    from repro.workloads.trace_replay import capture_trace
    capture_trace("vector_add", seed=1, size=64, path="va64.trace.json")
    PY
    python -m repro sweep trace_replay \
        --system ccsvm,ccsvm-l3,ccsvm-no-tlb --grid trace=va64.trace.json

Replay re-executes Malloc live (the allocator is deterministic, so the
recorded addresses come back unchanged on any hierarchy shape) and keeps
the real synchronisation operations (WaitValue, WaitCond, barriers), so a
replayed run is a full timing simulation — only the workload's *compute*
is gone, replaced by the recorded memory behaviour.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import APUSystemConfig, CCSVMSystemConfig, ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.replay import load_trace_cached
from repro.mem.trace import Trace, TraceError, capture, replay_host_program
from repro.workloads.base import WorkloadResult
from repro.workloads.registry import get_variant, register_variant

WORKLOAD = "trace_replay"


def capture_trace(workload: str, *, seed: Optional[int] = None,
                  path: Optional[str] = None, **params) -> Trace:
    """Run ``workload``'s ``ccsvm`` variant once, recording its trace.

    The traced run is bit-for-bit identical to an untraced one; its
    headline results are kept in ``trace.meta`` so replays can report
    against them.  The trace is also written to ``path`` when given.
    """
    variant = get_variant(workload, "ccsvm")
    kwargs = dict(params)
    if seed is not None:
        kwargs["seed"] = seed
    with capture(workload=workload, params=params,
                 seed=seed if seed is not None else 0,
                 preset="ccsvm") as recorder:
        result = variant.func(None, **kwargs)
    trace = recorder.trace
    trace.meta.update(time_ps=result.time_ps,
                      dram_accesses=result.dram_accesses,
                      verified=result.verified)
    if path is not None:
        trace.save(path)
    return trace


def run_replay(trace: Union[Trace, str],
               config: Optional[CCSVMSystemConfig] = None) -> WorkloadResult:
    """Replay a trace (object or file path) on a fresh CCSVM chip.

    A path is parsed once per process (:func:`load_trace_cached`), so a
    sweep replaying one capture across many shapes decodes it once.
    """
    loaded = load_trace_cached(trace)
    system = config if config is not None else ccsvm_system()
    chip = CCSVMChip(system)
    chip.create_process(f"replay_{loaded.workload or 'trace'}")
    result = chip.run(replay_host_program(loaded))
    # Stores replay their recorded values, so the replayed run's memory
    # contents equal the capture run's — which the capture verified.
    return WorkloadResult(system="ccsvm_replay", workload=WORKLOAD,
                          params={"workload": loaded.workload,
                                  **loaded.params},
                          time_ps=result.time_ps,
                          dram_accesses=result.dram_accesses,
                          verified=bool(loaded.meta.get("verified", True)),
                          counters=result.stats.to_dict())


def run_replay_flat(trace: Union[Trace, str],
                    config: Optional[APUSystemConfig] = None) -> WorkloadResult:
    """Replay a host-only trace on one APU baseline CPU core (full sim).

    The recorded stream embeds its captured addresses, so the baseline
    core executes the identical reference sequence the CCSVM capture
    produced — which is what makes the APU hierarchy presets comparable
    points in a trace-driven shape sweep (and gives the cache-only
    replayer its full-simulation comparator on ``apu-shared-l2``).
    """
    from repro.baseline.apu import AMDAPU

    loaded = load_trace_cached(trace)
    if loaded.tasks:
        raise TraceError("the APU baseline replays host-only traces "
                         "(device streams have no APU CPU analog)")
    if len(loaded.hosts) != 1:
        raise TraceError(f"APU replay needs a single-host trace, got "
                         f"{len(loaded.hosts)} host streams")
    machine = AMDAPU(config)

    def host():
        for operation in loaded.host_ops:
            yield operation

    result = machine.run_on_cpu(host())
    return WorkloadResult(system="apu_replay", workload=WORKLOAD,
                          params={"workload": loaded.workload,
                                  **loaded.params},
                          time_ps=result.time_ps,
                          dram_accesses=machine.dram.total_accesses,
                          verified=bool(loaded.meta.get("verified", True)),
                          counters=machine.stats.to_dict())


# --------------------------------------------------------------------------- #
# Registry variants — uniform signature run(config, *, seed, **params)
# --------------------------------------------------------------------------- #
@register_variant(WORKLOAD, "ccsvm",
                  description="replay a recorded address trace on any CCSVM "
                              "hierarchy shape")
def ccsvm_variant(config: Optional[CCSVMSystemConfig] = None, *,
                  seed: int = 0,
                  trace: Union[Trace, str] = "trace.json") -> WorkloadResult:
    # ``seed`` is part of the uniform variant signature; the trace already
    # pins the captured run's seed.
    return run_replay(trace, config=config)


@register_variant(WORKLOAD, "pthreads",
                  description="replay a recorded host-only trace on one APU "
                              "baseline CPU core")
def pthreads_variant(config: Optional[APUSystemConfig] = None, *,
                     seed: int = 0,
                     trace: Union[Trace, str] = "trace.json") -> WorkloadResult:
    return run_replay_flat(trace, config=config)
