"""Unified sweep-runner subsystem.

Every experiment of the reproduction — the paper's Figures 5-9, Table 2 and
the ablation grid — is declared as a :class:`~repro.harness.spec.SweepSpec`:
a named registry entry that expands into independent
:class:`~repro.harness.spec.SweepPoint` s.  A
:class:`~repro.harness.runner.SweepRunner` executes the points through a
pluggable :class:`~repro.harness.backends.ExecutionBackend` — sequentially,
across a ``multiprocessing`` pool, or streamed over TCP to ``repro worker``
processes on other hosts — merges their
:class:`~repro.sim.stats.StatsRegistry` counters, and persists completed
points to a content-addressed, provenance-stamped result store
(:mod:`repro.store`) keyed by a hash of their full configuration (store
access is coordinator-side only; workers never touch it).

``python -m repro run figure5 --full --jobs 4`` drives it from the shell;
``python -m repro run table2 --backend distributed --workers 2`` fans out
to ``python -m repro worker --connect HOST:PORT`` processes through a
private sweep service started in-process.  Backends stream results as
points complete (``run_iter``) and are cancellable, so the runner caches
incrementally and early-stopping callers can abandon in-flight work;
``--backend service`` runs the same points as a job on an always-on
``repro serve`` fleet (see :mod:`repro.service`), the same coordinator
``--backend distributed`` runs privately.
"""

from repro.harness.backends import (
    DistributedBackend,
    ExecutionBackend,
    PointFailure,
    ProcessPoolBackend,
    SerialBackend,
    WorkerRunStats,
    create_backend,
    default_service_address,
)
from repro.harness.runner import (
    SweepOutcome,
    SweepRunner,
    cache_clear,
    cache_info,
    default_cache_dir,
)
from repro.harness.spec import (
    HarnessError,
    PointResult,
    SweepPoint,
    SweepSpec,
    execute_point,
    get_spec,
    load_builtin_specs,
    point_func_ref,
    register,
    resolve_point_func,
    spec_names,
)
from repro.harness.worker import default_worker_jobs, run_worker

__all__ = [
    "DistributedBackend",
    "ExecutionBackend",
    "HarnessError",
    "PointFailure",
    "PointResult",
    "ProcessPoolBackend",
    "SerialBackend",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "SweepSpec",
    "WorkerRunStats",
    "cache_clear",
    "cache_info",
    "create_backend",
    "default_cache_dir",
    "default_service_address",
    "default_worker_jobs",
    "execute_point",
    "get_spec",
    "load_builtin_specs",
    "point_func_ref",
    "register",
    "resolve_point_func",
    "run_worker",
    "spec_names",
]
