"""Tests for ``repro sweep``, ``repro list --json``, argument validation
and the distributed backend's per-worker throughput stats."""

import json
import threading

import pytest

from repro.api import ResultSet, Scenario
from repro.harness import DistributedBackend, SweepRunner, run_worker
from repro.harness.backends import WorkerRunStats
from repro.harness.cli import main as cli_main

SWEEP_ARGS = ["sweep", "matmul", "--system", "cpu,ccsvm",
              "--grid", "size=8,16", "--set", "mttop.count=4"]


def _start_worker_thread(host, port, jobs=1):
    thread = threading.Thread(target=run_worker, args=(f"{host}:{port}",),
                              kwargs={"retry_seconds": 10.0, "jobs": jobs},
                              daemon=True)
    thread.start()
    return thread


class TestListJson:
    def test_json_enumerates_sweeps_workloads_systems(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sweeps = {entry["name"]: entry for entry in payload["sweeps"]}
        assert set(sweeps) == {"ablations", "figure5", "figure6", "figure7",
                               "figure8", "figure9", "table2"}
        assert sweeps["figure5"]["points"] == 5
        assert sweeps["figure5"]["points_full"] == 7
        workloads = {entry["name"]: entry for entry in payload["workloads"]}
        assert workloads["matmul"]["systems"] == ["apu", "ccsvm", "cpu"]
        systems = {entry["name"]: entry for entry in payload["systems"]}
        assert systems["ccsvm-small"]["variant"] == "ccsvm"

    def test_plain_listing_shows_point_counts(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "5 points" in out
        assert "matmul" in out  # workloads section


class TestSweepCommand:
    def test_serial_process_and_cache_render_identically(self, capsys,
                                                         tmp_path):
        cache = str(tmp_path / "cache")
        outputs = []
        for extra in (["--no-cache"],
                      ["--no-cache", "--backend", "process", "--workers", "2"],
                      ["--cache-dir", cache],
                      ["--cache-dir", cache]):
            assert cli_main(SWEEP_ARGS + extra) == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
        # Same bytes on every backend and on the cache-warm re-run.
        assert len(set(outputs)) == 1
        assert "matmul on cpu, ccsvm [mttop.count=4]" in outputs[0]
        # The second cache run was served entirely from disk.
        assert "0 simulated, 4 cached" in captured.err

    def test_distributed_matches_serial(self):
        scenario = Scenario(workload="matmul", systems=("cpu", "ccsvm"),
                            grid={"size": (8, 16)},
                            overrides={"mttop.count": 4})
        serial = SweepRunner().run_points(scenario.points(),
                                          spec_name=scenario.name)
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2)
        with backend:
            host, port = backend.listen()
            for _ in range(2):
                _start_worker_thread(host, port)
            runner = SweepRunner(backend=backend)
            distributed = runner.run_points(scenario.points(),
                                            spec_name=scenario.name)
        assert ResultSet.from_outcome(distributed).render() == \
            ResultSet.from_outcome(serial).render()

    def test_sweep_csv_output(self, capsys):
        assert cli_main(["sweep", "matmul", "--system", "cpu", "--grid",
                         "size=6", "--no-cache", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("workload,system,size,time_ms")

    def test_sweep_param_and_seed(self, capsys):
        assert cli_main(["sweep", "barnes_hut", "--system", "ccsvm-small",
                         "--grid", "bodies=8", "--param", "timesteps=1",
                         "--seed", "2", "--no-cache"]) == 0
        assert "barnes_hut" in capsys.readouterr().out

    def test_unknown_workload_is_clean_error(self, capsys):
        assert cli_main(["sweep", "quicksort", "--no-cache"]) == 2
        assert "known workloads" in capsys.readouterr().err

    def test_unknown_system_is_clean_error(self, capsys):
        assert cli_main(["sweep", "matmul", "--system", "gpu9000",
                         "--no-cache"]) == 2
        assert "known systems" in capsys.readouterr().err

    def test_inapplicable_override_is_clean_error(self, capsys):
        assert cli_main(["sweep", "matmul", "--system", "cpu", "--set",
                         "mttop.count=4", "--no-cache"]) == 2
        assert "applies to none" in capsys.readouterr().err

    def test_bad_override_path_is_clean_error(self, capsys):
        assert cli_main(["sweep", "matmul", "--system", "ccsvm", "--set",
                         "mttop.bogus=4", "--no-cache"]) == 2
        assert "available fields" in capsys.readouterr().err

    def test_malformed_grid_is_clean_error(self, capsys):
        assert cli_main(["sweep", "matmul", "--grid", "size", "--no-cache"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestArgumentValidation:
    """--jobs/--workers < 1 fail at parse time, before any backend exists."""

    @pytest.mark.parametrize("argv", [
        ["run", "table2", "--no-cache", "--jobs", "0"],
        ["run", "table2", "--no-cache", "--workers", "-3"],
        ["run", "table2", "--no-cache", "--backend", "serial",
         "--workers", "0"],
        ["sweep", "matmul", "--no-cache", "--jobs", "0"],
        ["sweep", "matmul", "--no-cache", "--backend", "serial",
         "--workers", "0"],
        ["worker", "--connect", "127.0.0.1:1", "--jobs", "0"],
    ])
    def test_nonpositive_counts_rejected_cleanly(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_non_integer_jobs_rejected_cleanly(self, capsys):
        assert cli_main(["run", "table2", "--jobs", "lots"]) == 2
        assert "expected an integer" in capsys.readouterr().err


class TestWorkerThroughputStats:
    def test_distributed_run_records_per_worker_stats(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2)
        scenario = Scenario(workload="vector_add", systems=("ccsvm-small",),
                            grid={"size": (8, 12, 16, 24)}, seed=3)
        with backend:
            host, port = backend.listen()
            for _ in range(2):
                _start_worker_thread(host, port, jobs=2)
            outcome = SweepRunner(backend=backend).run_points(
                scenario.points(), spec_name=scenario.name)
        assert outcome.points_total == 4
        stats = backend.last_run_worker_stats
        assert len(stats) == 2
        assert sum(entry.points for entry in stats) == 4
        for entry in stats:
            assert entry.slots == 2
            assert entry.wall_s > 0 and entry.busy_s >= 0
            if entry.points:
                assert entry.busy_s > 0  # real dispatch-to-result time
            assert "pid=" in entry.worker
            assert entry.points_per_s == pytest.approx(
                entry.points / entry.wall_s)

    def test_stats_flag_prints_worker_summary(self, capsys):
        from repro.harness.cli import _print_run_stats

        outcome = SweepRunner().run("table2")

        class FakeBackend:
            last_run_worker_stats = [WorkerRunStats(
                worker="127.0.0.1:5555 pid=42", slots=2, points=3,
                busy_s=1.5, wall_s=2.0)]

        _print_run_stats(outcome, FakeBackend())
        out = capsys.readouterr().out
        assert "per-worker throughput" in out
        assert "127.0.0.1:5555 pid=42" in out
        assert "1.50 points/s" in out

    def test_fully_cached_sweep_does_not_reuse_previous_worker_summary(
            self, capsys, tmp_path):
        # A sweep served entirely from cache never calls backend.run(), so
        # the CLI must reset the per-worker summary or --stats would
        # attribute the previous sweep's throughput to it.
        from repro.harness.cli import _print_run_stats, _reset_worker_stats

        class FakeBackend:
            last_run_worker_stats = [WorkerRunStats(
                worker="stale", slots=1, points=9, busy_s=1.0, wall_s=1.0)]

        backend = FakeBackend()
        _reset_worker_stats(backend)
        assert backend.last_run_worker_stats == []
        outcome = SweepRunner().run("table2")
        _print_run_stats(outcome, backend)
        assert "per-worker throughput" not in capsys.readouterr().out
