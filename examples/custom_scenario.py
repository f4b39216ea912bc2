#!/usr/bin/env python3
"""A non-paper scenario through ``repro.api``: Barnes-Hut MTTOP core scaling.

The paper fixes the CCSVM chip at 10 MTTOP cores; this script asks a
question the paper never did — how does Barnes-Hut scale as the chip's
MTTOP core count grows? — without writing a new experiment module.  A
:class:`~repro.api.Scenario` composes it from registered parts:

* the ``barnes_hut`` workload from the workload registry,
* the ``ccsvm-small`` system preset (fast to simulate),
* a grid over a *dotted-path configuration override* ``mttop.count``,
* the distributed execution backend — a private sweep service started in
  this process — fed by two spawned workers.

Each MTTOP core count is its own scenario (overrides are per-scenario
configuration, grids are workload parameters), so the script builds the
point list by concatenating one scenario per core count — still pure data,
and every point travels to the workers as registry names, never as pickled
functions or config objects.

The equivalent shell one-liner for a single core count is::

    python -m repro sweep barnes_hut --system ccsvm-small \
        --grid bodies=16,32 --param timesteps=1 --set mttop.count=4

Run with::

    PYTHONPATH=src python examples/custom_scenario.py
"""

import os
import subprocess
import sys
import time

from repro.api import ResultSet, Scenario
from repro.harness import DistributedBackend, SweepRunner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MTTOP_COUNTS = (1, 2, 4, 8)
BODIES = 32
TIMESTEPS = 1


def spawn_worker(address: str, jobs: int = 2) -> "subprocess.Popen[bytes]":
    """Start one ``repro worker --jobs N`` subprocess aimed at ``address``."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", address,
         "--jobs", str(jobs)],
        env=env)


def core_scaling_points():
    """One scenario per MTTOP core count, concatenated in declared order."""
    points = []
    for count in MTTOP_COUNTS:
        scenario = Scenario(
            workload="barnes_hut",
            systems=("ccsvm-small",),
            grid={"bodies": (BODIES,)},
            params={"timesteps": TIMESTEPS},
            overrides={"mttop.count": count},
            seed=5,
            name="bh-core-scaling",
        )
        points.extend(scenario.points())
    return points


def main() -> int:
    points = core_scaling_points()

    backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                 start_timeout=60.0)
    host, port = backend.listen()
    print(f"coordinator listening on {host}:{port}; spawning 2 workers")
    workers = [spawn_worker(f"{host}:{port}") for _ in range(2)]
    try:
        started = time.monotonic()
        with backend:  # close() sends the workers 'shutdown' on exit
            runner = SweepRunner(backend=backend)
            outcome = runner.run_points(points, spec_name="bh-core-scaling")
        elapsed = time.monotonic() - started
    finally:
        for worker in workers:
            worker.wait(timeout=30)

    results = ResultSet.from_outcome(outcome)
    print(f"\n{outcome.points_total} points in {elapsed:.1f}s over "
          f"2 distributed workers\n")
    # The rows don't record the override (it is chip configuration, not a
    # workload parameter), so zip the core counts back in for the table.
    scaling = ResultSet(groups={"rows": [
        {"mttop_cores": count, "bodies": row["bodies"],
         "time_ms": row["time_ms"], "dram_accesses": row["dram_accesses"]}
        for count, row in zip(MTTOP_COUNTS, results.rows)]})
    print(scaling.render(
        title=f"Barnes-Hut ({BODIES} bodies) vs CCSVM MTTOP core count"))

    times = scaling.column("time_ms")
    monotone = all(later <= earlier * 1.05
                   for earlier, later in zip(times, times[1:]))
    print(f"\nruntime non-increasing with core count: {monotone}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
