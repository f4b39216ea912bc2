#!/usr/bin/env python3
"""Multi-host sweep execution: a coordinator plus two multi-slot workers.

The :class:`~repro.harness.backends.DistributedBackend` starts a private
sweep service — the same coordinator ``repro serve`` runs — inside this
process and streams sweep points over TCP to the ``repro worker``
processes that connect to it.  Here both workers run on localhost, but
``--connect HOST:PORT`` works just as well across machines sharing the
repository.  Each worker is started with ``--jobs 2``, so it executes two
points at once on a local process pool and replies out of order as they
finish; the service pipelines up to ``slots`` points per connection and
matches replies back by task id.  The coordinator keeps the point cache
and the declaration-order row merge, so the result is identical to a
serial run no matter how many workers (or slots per worker) serve it —
this script checks exactly that, and waits for both workers to exit on
the ``shutdown`` that closing the backend sends.

Run with::

    PYTHONPATH=src python examples/distributed_sweep.py
"""

import os
import subprocess
import sys
import time

from repro.config import small_ccsvm_system
from repro.harness import DistributedBackend, SweepRunner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (6, 8, 12)


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


def main() -> int:
    small = small_ccsvm_system()

    # Baseline: the same sweep, serially in this process.
    serial = SweepRunner().run("figure5", sizes=SIZES, ccsvm_config=small)

    # Distributed: bind an ephemeral port, point two workers at it.
    backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                 start_timeout=60.0)
    host, port = backend.listen()
    print(f"coordinator listening on {host}:{port}; "
          f"spawning 2 workers with 2 slots each")
    workers = [spawn_worker(f"{host}:{port}", jobs=2) for _ in range(2)]
    try:
        started = time.monotonic()
        with backend:  # close() sends the workers 'shutdown' on exit
            runner = SweepRunner(backend=backend)
            outcome = runner.run("figure5", sizes=SIZES, ccsvm_config=small)
        elapsed = time.monotonic() - started
    finally:
        for worker in workers:
            worker.wait(timeout=30)

    print(f"\nfigure5 over 2 workers x 2 slots: {outcome.points_total} "
          f"points in {elapsed:.1f}s")
    for row in outcome.rows:
        print(f"  size={row['size']:3d}  "
              f"ccsvm={row['ccsvm_xthreads_ms']:.3f} ms  "
              f"rel_ccsvm={row['rel_ccsvm']:.3f}")

    identical = outcome.rows == serial.rows
    print(f"\nrows identical to the serial run: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
