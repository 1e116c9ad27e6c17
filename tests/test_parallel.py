"""Tests for the multiprocess parallel simulation driver."""

import os

import pytest

from repro.resilience.supervisor import Supervisor
from repro.simulators.parallel import default_worker_count, simulate_apps_parallel
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu


APPS = ["bfs", "gemm", "sm"]


class TestParallelDriver:
    def test_default_worker_count_bounds(self):
        workers = default_worker_count()
        assert 1 <= workers <= 50

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU must not fan out to every CPU the
        # host has; the supervisor's default is the same number.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_worker_count() == 1
        assert Supervisor().workers == 1

    def test_default_worker_count_without_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_worker_count() == 3

    def test_sequential_path_matches_direct(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS]
        sim = SwiftSimBasic(tiny_gpu)
        results = simulate_apps_parallel(sim, apps, workers=1)
        assert set(results) == set(APPS)
        for app in apps:
            direct = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
            assert results[app.name].total_cycles == direct.total_cycles

    def test_parallel_matches_sequential_cycles(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS]
        sim = SwiftSimBasic(tiny_gpu)
        sequential = simulate_apps_parallel(sim, apps, workers=1)
        parallel = simulate_apps_parallel(sim, apps, workers=2)
        for name in APPS:
            assert parallel[name].total_cycles == sequential[name].total_cycles

    @pytest.mark.parametrize("simulator_cls", [SwiftSimBasic, SwiftSimMemory])
    def test_parallel_matches_serial_exactly(self, tiny_gpu, simulator_cls):
        """Pooled workers must reproduce the serial gather_metrics=False
        path bit-exactly, down to per-kernel boundaries: workers rebuild
        the simulator from (config, plan), so any state leaking through
        pickling would show up here."""
        apps = [make_app(name, scale="tiny") for name in APPS]
        pooled = simulate_apps_parallel(simulator_cls(tiny_gpu), apps, workers=2)
        for app in apps:
            serial = simulator_cls(tiny_gpu).simulate(app, gather_metrics=False)
            result = pooled[app.name]
            assert result.total_cycles == serial.total_cycles
            assert [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in result.kernels
            ] == [
                (k.name, k.start_cycle, k.end_cycle, k.instructions)
                for k in serial.kernels
            ]

    def test_parallel_with_analytical_memory(self, tiny_gpu):
        apps = [make_app(name, scale="tiny") for name in APPS[:2]]
        sim = SwiftSimMemory(tiny_gpu)
        results = simulate_apps_parallel(sim, apps, workers=2)
        assert all(r.total_cycles > 0 for r in results.values())

    def test_results_carry_identity(self, tiny_gpu):
        apps = [make_app("bfs", scale="tiny")]
        results = simulate_apps_parallel(SwiftSimBasic(tiny_gpu), apps, workers=2)
        result = results["bfs"]
        assert result.simulator_name == "swift-basic"
        assert result.gpu_name == tiny_gpu.name
        assert result.metrics is None  # metrics stay in the worker
