"""End-to-end benchmark of the simulator, as a user runs it.

    python3 benchmarks/e2e/run.py --workload dse_full --seed 0 --seconds 15
    python3 benchmarks/e2e/run.py --trace 1 --out /tmp/e2e   # all workloads

Each workload runs in fresh child processes (``bench.py``), one at a
time: set-up is timed in three of them (median), the measurement in the
last.  Metric names, units and the workload list come from
``BENCHMARK.json`` at the repository root, which this script validates
first.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch inputs (captured traces) live inside the checkout, removed
#: at exit.
SCRATCH = os.path.join(ROOT, ".bench_e2e")

SETUP_SAMPLES = 3
#: Every workload's child processes together must end within this.
DEADLINE_S = 175.0

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load_spec() -> Dict[str, object]:
    """Read ``BENCHMARK.json`` and refuse it if it breaks its format."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    problems += [f"bad name {n!r}" for n in names if not _NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for key, most in (("workloads", 8), ("end_to_end", 16), ("per_layer", 128)):
        if not 1 <= len(spec[key]) <= most:
            problems.append(f"{key} needs 1 to {most} entries")
    metrics = spec["end_to_end"] + spec["per_layer"]
    problems += [f"bad unit {m['unit']!r}" for m in metrics
                 if not _UNIT.match(m["unit"])]
    problems += [f"{m['name']}: bound above 0.25" for m in spec["end_to_end"]
                 if not 0 < m["bound"] <= 0.25]
    if problems:
        raise SystemExit(f"BENCHMARK.json: {'; '.join(problems)}")
    return spec


def run_child(workload: str, args: argparse.Namespace, workdir: str,
              deadline: float, setup_only: bool) -> Dict[str, object]:
    """Run ``bench.py`` once and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if setup_only:
        command.append("--setup-only")
    # On timeout, run() kills the child and waits for it before raising.
    completed = subprocess.run(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               timeout=max(deadline - time.monotonic(), 1.0),
                               check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload}: bench.py exited with "
                           f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(workload: str, args: argparse.Namespace,
            workdir: str) -> Dict[str, object]:
    """Child reports for one workload, set-up samples folded in."""
    deadline = time.monotonic() + DEADLINE_S
    setups: List[float] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, args, workdir, deadline,
                                    setup_only=True)["setup_s"])
    report = run_child(workload, args, workdir, deadline, setup_only=False)
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    report["metrics"]["setup_s"] = statistics.median(setups)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=workloads,
                        default=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measurement length; sets the pass count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="directory for the full reports")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        reports = {name: measure(name, args, workdir)
                   for name in args.workload}
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch is still there

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, report in reports.items():
        prefix = f"{name}." if len(reports) > 1 else ""
        if args.trace:
            print(report["trace"]["table"])
        for metric in declared:
            value = report["metrics"][metric["name"]]
            metrics[prefix + metric["name"]] = {"value": value,
                                                "unit": metric["unit"]}
            print(f"{name:<18} {metric['name']:<26} {value:>16.6f} "
                  f"{metric['unit']}")
    if args.out:
        write_reports(args.out, reports, args.trace)
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics}))
    return 0


def write_reports(out: str, reports: Dict[str, Dict[str, object]],
                  traced: int) -> None:
    """``<workload>.json`` per workload; traced runs also get the
    combined ``layers.json``/``layers.txt`` and the kept spans in
    ``trace.json``."""
    os.makedirs(out, exist_ok=True)
    for name, report in reports.items():
        with open(os.path.join(out, f"{name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({k: v for k, v in report.items() if k != "trace"},
                      handle, indent=1, sort_keys=True)
    if not traced:
        return
    with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump({name: r["trace"]["spans"] for name, r in reports.items()},
                  handle)
    with open(os.path.join(out, "layers.json"), "w", encoding="utf-8") as handle:
        json.dump({name: {"layers": r["trace"]["summary"],
                          "metrics": r["metrics"]}
                   for name, r in reports.items()},
                  handle, indent=1, sort_keys=True)
    with open(os.path.join(out, "layers.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n\n".join(r["trace"]["table"]
                                 for r in reports.values()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
