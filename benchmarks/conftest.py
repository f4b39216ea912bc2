"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  They run
the full simulators, so every sweep is executed exactly once per benchmark
(``rounds=1``); pytest-benchmark still records the wall-clock cost, and the
rendered table for each figure is attached to the benchmark's ``extra_info``
and written to ``benchmarks/results/`` so the numbers can be inspected after
the run.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(__file__), capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


@pytest.fixture
def record_figure():
    """Return a helper that saves a rendered figure/table to disk."""
    def _record(name: str, text: str) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    return _record


TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "trajectory.jsonl")


def _append_trajectory(document: dict) -> None:
    """Append one provenance-stamped record to ``trajectory.jsonl``.

    The trajectory is the long-lived, append-only history of benchmark
    numbers: one JSON line per recorded result, stamped like the result
    store's provenance (release, git sha, host, timestamp), so rates can
    be plotted across commits from the accumulated CI artifacts.
    """
    import repro
    from repro.store import current_git_sha, utc_now_iso

    record = dict(document)
    record["repro_version"] = repro.__version__
    record["git_sha"] = current_git_sha()
    record["created_at"] = utc_now_iso()
    with open(TRAJECTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


@pytest.fixture
def record_results():
    """Return a helper that saves machine-readable results to disk.

    Writes ``benchmarks/results/<name>.json`` next to the rendered text
    tables and appends a provenance-stamped line to
    ``benchmarks/results/trajectory.jsonl``.  Every document carries the
    host fingerprint and the git revision so numbers archived from
    different runners (CI artifacts, laptops) stay attributable and
    comparable.
    """
    def _record(name: str, payload: dict) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        document = dict(payload)
        document.setdefault("benchmark", name)
        document["host"] = {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        }
        document["git_sha"] = _git_sha()
        path = os.path.join(RESULTS_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _append_trajectory(document)
        return path

    return _record


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def interleaved_seconds(fast, slow, pairs: int):
    """Seconds of two timed sides, measured in alternating pairs.

    ``fast`` and ``slow`` are zero-argument callables that each run one
    sample and return the seconds its timed region took (per unit of
    work, if they like; only the per-pair ratio is gated).  Each side runs
    once untimed to warm imports, allocator paths and caches; then the
    two alternate ``pairs`` times, so a slow phase of a shared host hits
    both sides of a pair rather than all samples of one side (Kalibera &
    Jones, "Rigorous Benchmarking in Reasonable Time", ISMM 2013).

    Every sample starts from a collected heap (an untimed
    ``gc.collect()``), so no sample pays for garbage an earlier one left:
    a full simulation leaves thousands of cyclic objects per point, and
    inside a whole test session the collections that reclaim them also
    walk the session's heap, landing in whichever side runs next.
    Returns ``(fast_seconds, slow_seconds)``, one entry per pair.
    """
    def sample(side):
        gc.collect()
        return side()

    fast()
    slow()
    times = [(sample(fast), sample(slow)) for _ in range(pairs)]
    return [fast_s for fast_s, _ in times], [slow_s for _, slow_s in times]


def ratio_summary(fast_seconds, slow_seconds):
    """``(median, min, max)`` of the per-pair ``slow / fast`` ratios."""
    ratios = sorted(slow_s / fast_s
                    for fast_s, slow_s in zip(fast_seconds, slow_seconds))
    return statistics.median(ratios), ratios[0], ratios[-1]
