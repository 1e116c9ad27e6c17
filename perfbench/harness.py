"""One benchmark run: set-up, timed ops, output checks and metrics.

An op is one app simulated (``suite-*``), one app evaluated over the
64-lane grid (``sweep-analytic``) or, for ``fanout-basic``, one batch
of all 24 apps through ``simulate_apps_parallel``.  Ops run in passes
over the suite, each pass in its own seeded order; a run makes whole
passes until ``seconds`` have passed, so every app is measured equally
often.  In the serial and sweep workloads, runs of :func:`probe`
between the ops gauge the shared host's speed over the run, and
host-time metrics are reported scaled to the probe's reference speed.
The fan-out's are reported as measured.

With tracing on, every op runs twice back to back: untraced, then
traced.  The untraced time is the base of the tracing overhead, and the
traced run must reproduce the untraced cycles exactly.
"""

from __future__ import annotations

import json
import os
import random
import resource
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import stats
import tracer as tracing
from repro import (
    SwiftSimAnalytic,
    SwiftSimBasic,
    SwiftSimMemory,
    get_preset,
    make_app,
    simulate_apps_parallel,
)
from repro.utils.fastpath import fastpaths
from workloads import (
    APPS,
    GPU,
    SETUP_REPEATS,
    SWEEP_BASE_LANE,
    Workload,
    app_order,
    sweep_configs,
    sweep_lanes,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Sweep lanes per op re-checked against scalar ``simulate``.
SAMPLED_LANES = 2

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("sim_kips", "kips"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("oracle_err_pct", "%"),
)

#: Exact simulated counts, read from ``SimulationResult.metrics``.
COUNTS = (
    "memory.l1.hit_ratio",
    "memory.l2.hit_ratio",
    "memory.dram.row_hit_ratio",
    "memory.sector_transactions",
    "core.instructions_committed",
    "sim.simulated_cycles",
)

#: Layers every traced op of a workload must open a span of; an op that
#: misses one fails (see :meth:`tracer.Tracer.check_op`).
REQUIRED_LAYERS = {
    "suite-basic": (
        tracing.MAKE_APP, tracing.SIMULATE, tracing.ENGINE_RUN, tracing.SM_TICK,
        tracing.SUBCORE_TICK, tracing.ACCESS_GLOBAL, tracing.COALESCE,
        tracing.L1_ACCESS, tracing.L2_ACCESS, tracing.NOC_SEND,
        tracing.DRAM_RESERVE, tracing.GATHER,
    ),
    "suite-memory": (
        tracing.MAKE_APP, tracing.SIMULATE, tracing.PROFILE,
        tracing.ACCESS_FUNCTIONAL, tracing.ANALYTICAL_ACCESS, tracing.ENGINE_RUN,
        tracing.SM_TICK, tracing.SUBCORE_TICK, tracing.COALESCE, tracing.GATHER,
    ),
    "sweep-analytic": (
        tracing.MAKE_APP, tracing.EVALUATE_BATCH, tracing.PRECHARACTERIZE,
        tracing.COALESCE,
    ),
    "fanout-basic": (tracing.MAKE_APP, tracing.PARALLEL),
}

RESILIENCE = (
    ("resilience.worker_busy_s", "s"),
    ("resilience.idle_s", "s"),
    ("resilience.worker_util", "ratio"),
)


#: The probe's time on the reference host speed (a round number near
#: the fastest the probe ran on a 2-vCPU Xeon VM).
PROBE_REFERENCE_S = 0.010
_PROBE_TABLE = list(range(1024))


def probe() -> float:
    """Time a fixed pure-Python loop: a gauge of the host's current speed.

    Other tenants of a shared host slow every op by up to 2x, in bursts
    of seconds and in shifts over minutes.  The probe is the benchmark's
    own code, so no program change moves it, and it does the kind of
    work the simulator does (integer arithmetic, list indexing, dict
    updates) without allocating, so garbage collection does not touch
    it.  On a 2-vCPU Xeon VM the probe's per-pass total tracked the
    suite's pass time with correlation 0.93.
    """
    started = time.perf_counter()
    table = _PROBE_TABLE
    counts = {}
    total = 0
    for i in range(40000):
        key = (i * 2654435761) & 1023
        total += table[key]
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
    return time.perf_counter() - started


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def worker_count() -> int:
    """Workers for the fan-out: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class Tally:
    """What the ops of one run did."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: app -> untraced op wall, per pass (serial and sweep).
    walls: Dict[str, List[float]] = field(default_factory=dict)
    #: app -> simulated warp instructions of one op (x lanes for the sweep).
    instructions: Dict[str, int] = field(default_factory=dict)
    #: app -> cycles of the first pass (the base lane for the sweep).
    cycles: Dict[str, int] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    #: fan-out: (batch wall, instructions, busy seconds) per untraced batch.
    batches: List[tuple] = field(default_factory=list)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    #: Host-speed probe times (see :func:`probe`).
    probes: List[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def count_metrics(report) -> Counter:
    """The integer counters behind :data:`COUNTS` for one result."""
    out: Counter = Counter()
    if report is None:
        return out
    out["l1_hits"] = report.total("sector_hits", "l1_sm")
    out["l1_accesses"] = report.total("sector_accesses", "l1_sm")
    out["l2_hits"] = report.total("sector_hits", "l2_slice")
    out["l2_accesses"] = report.total("sector_accesses", "l2_slice")
    out["row_hits"] = report.total("row_hits", "dram")
    out["row_misses"] = report.total("row_misses", "dram")
    out["sector_transactions"] = report.total("sector_transactions", "memory")
    out["instructions_committed"] = report.total("instructions_committed")
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def counts_from(counters: Counter) -> Dict[str, float]:
    c = counters
    return {
        "memory.l1.hit_ratio": _ratio(c["l1_hits"], c["l1_accesses"]),
        "memory.l2.hit_ratio": _ratio(c["l2_hits"], c["l2_accesses"]),
        "memory.dram.row_hit_ratio": _ratio(
            c["row_hits"], c["row_hits"] + c["row_misses"]),
        "memory.sector_transactions": c["sector_transactions"],
        "core.instructions_committed": c["instructions_committed"],
        "sim.simulated_cycles": c["cycles"],
    }


class Run:
    """Set-up, ops and checks of one workload run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, reference: dict,
                 apps: Sequence[str] = APPS) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = reference
        self.apps = list(apps)
        self.gpu = get_preset(GPU)
        self.make_app = make_app
        self.tally = Tally()
        self.tracer = tracing.Tracer() if trace else None
        self.traced_make_app = (
            self.tracer.wrap(make_app, tracing.MAKE_APP) if trace else None
        )
        self.configs = sweep_configs(self.gpu)
        self.base_lane = sweep_lanes().index(SWEEP_BASE_LANE)
        self._op_id = 0

    # ------------------------------------------------------------------
    # set-up

    def setup(self, fixed_s: float) -> None:
        """Generate every trace ``SETUP_REPEATS`` times uncached, then
        once more to fill the ``make_app`` memo.

        ``setup_s`` is ``fixed_s`` (the import and reference load, done
        once) plus the median generation time.
        """
        samples = []
        for repeat in range(SETUP_REPEATS + 1):
            memo = repeat == SETUP_REPEATS
            started = time.perf_counter()
            with nullcontext() if memo else fastpaths(trace_cache=False):
                traces = [self.make_app(n, self.workload.scale) for n in self.apps]
            samples.append(time.perf_counter() - started)
            del traces
        self.setup_s = fixed_s + stats.median(samples)

    # ------------------------------------------------------------------
    # the op loop

    def run_ops(self) -> None:
        """Run the timed ops.

        The ``make_app`` memo keeps every trace alive for the whole run,
        as the program's own suite paths (the Fig. 5 reproduction, the
        CLI's suite commands) do, so garbage collections during an op
        scan them too.
        """
        fanout = self.workload.kind == "fanout"
        started = time.perf_counter()
        pass_index = 0
        while pass_index == 0 or time.perf_counter() - started < self.seconds:
            order = app_order(self.seed, pass_index, self.apps)
            if fanout:
                self._fanout_op(order, pass_index == 0)
            else:
                for name in order:
                    self.tally.probes.append(probe())
                    self._app_op(name, pass_index == 0)
            pass_index += 1
        if not fanout:
            self.tally.probes.append(probe())

    def _guarded(self, label: str, fn: Callable):
        """Run one op leg; an exception fails the op, not the run."""
        try:
            return fn()
        except Exception:  # noqa: BLE001 — report the op as failed, go on
            self.tally.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def _traced(self, label: str, fn: Callable, install: bool = True):
        """Run ``fn`` as one traced op and check its coverage; return
        (wall, outcome)."""
        tracer = self.tracer
        with tracing.instrument(tracer) if install else nullcontext():
            started = time.perf_counter()
            frame = tracer.begin_op(self._op_id)
            try:
                outcome = fn()
            finally:
                wall = tracer.end_op(frame, label)
                outer_wall = time.perf_counter() - started
        self._op_id += 1
        tracer.check_op(outer_wall, REQUIRED_LAYERS[self.workload.name])
        return wall, outcome

    # ------------------------------------------------------------------
    # serial and sweep ops

    def _simulate(self, name: str, make) -> object:
        app = make(name, self.workload.scale)
        simulator = self.workload.simulator
        if simulator == "swift-analytic":
            lanes = SwiftSimAnalytic(self.gpu).evaluate_batch(app, self.configs)
            return app, lanes
        cls = SwiftSimBasic if simulator == "swift-basic" else SwiftSimMemory
        return app, cls(self.gpu).simulate(app)

    def _app_op(self, name: str, first_pass: bool) -> None:
        tally = self.tally
        tally.attempted += 1
        failed_before = tally.failed

        def untraced():
            started = time.perf_counter()
            outcome = self._simulate(name, self.make_app)
            return time.perf_counter() - started, outcome

        timed = self._guarded(name, untraced)
        if timed is None:
            return
        wall, (app, outcome) = timed
        cycles = self._check_app(name, app, outcome)
        if tally.failed != failed_before:
            return
        tally.walls.setdefault(name, []).append(wall)
        lanes = len(self.configs) if self.workload.kind == "sweep" else 1
        tally.instructions[name] = app.num_instructions * lanes
        if first_pass:
            tally.cycles[name] = cycles
            if self.workload.kind == "sweep":
                tally.counters["cycles"] += sum(int(c) for c in outcome)
            else:
                tally.counters["cycles"] += outcome.total_cycles
                tally.counters.update(count_metrics(outcome.metrics))
        if self.trace:
            traced = self._guarded(f"{name} (traced)", lambda: self._traced(
                name, lambda: self._simulate(name, self.traced_make_app)))
            if traced is None:
                return
            traced_wall, (__, traced_outcome) = traced
            if self._cycles_of(traced_outcome) != self._cycles_of(outcome):
                tally.fail(f"{name}: traced cycles differ from untraced")
                return
            tally.untraced_s += wall
            tally.traced_s += traced_wall

    def _cycles_of(self, outcome) -> object:
        if self.workload.kind == "sweep":
            return [int(c) for c in outcome]
        return outcome.total_cycles

    def _check_app(self, name: str, app, outcome) -> Optional[int]:
        """Check one op's output; return its cycles (base lane for the
        sweep) or fail the op."""
        expected = self.reference["cycles"][self.workload.simulator][name]
        got = self._cycles_of(outcome)
        if got != expected:
            self.tally.fail(f"{name}: cycles {got} != pinned {expected}")
            return None
        if self.workload.kind != "sweep":
            return got
        rng = random.Random(f"{self.seed}:{name}:{self.tally.attempted}")
        for lane in rng.sample(range(len(self.configs)), SAMPLED_LANES):
            scalar = SwiftSimAnalytic(self.configs[lane]).simulate(app).total_cycles
            if scalar != got[lane]:
                self.tally.fail(
                    f"{name}: lane {lane} batch {got[lane]} != scalar {scalar}")
                return None
        return got[self.base_lane]

    # ------------------------------------------------------------------
    # fan-out ops

    def _fan_out(self, order: Sequence[str], make) -> Dict[str, object]:
        apps = [make(name, self.workload.scale) for name in order]
        return simulate_apps_parallel(
            SwiftSimBasic(self.gpu), apps, workers=worker_count())

    def _fanout_op(self, order: List[str], first_pass: bool) -> None:
        tally = self.tally
        tally.attempted += len(order)
        failed_before = tally.failed

        def untraced():
            started = time.perf_counter()
            results = self._fan_out(order, self.make_app)
            return time.perf_counter() - started, results

        timed = self._guarded("fan-out batch", untraced)
        if timed is None:
            tally.failed = failed_before + len(order)
            return
        wall, results = timed
        expected = self.reference["cycles"][self.workload.simulator]
        for name in order:
            got = results[name].total_cycles
            if got != expected[name]:
                tally.fail(f"{name}: fan-out cycles {got} != serial {expected[name]}")
        if tally.failed != failed_before:
            return
        busy = sum(r.wall_time_seconds + r.profile_seconds
                   for r in results.values())
        tally.batches.append(
            (wall, sum(r.instructions for r in results.values()), busy))
        if first_pass:
            for name in order:
                tally.cycles[name] = results[name].total_cycles
                tally.counters["cycles"] += results[name].total_cycles
        if self.trace:
            parallel = self.tracer.wrap(self._fan_out, tracing.PARALLEL)
            # Worker processes are forked: patched classes would follow
            # them, so only the parent-side calls are wrapped.
            traced = self._guarded("fan-out batch (traced)", lambda: self._traced(
                "fan-out batch",
                lambda: parallel(order, self.traced_make_app), install=False))
            if traced is None:
                return
            traced_wall, traced_results = traced
            if any(traced_results[n].total_cycles != results[n].total_cycles
                   for n in order):
                tally.fail("fan-out: traced cycles differ from untraced")
                return
            tally.untraced_s += wall
            tally.traced_s += traced_wall

    # ------------------------------------------------------------------
    # metrics

    def host_slowdown(self) -> float:
        """Mean probe time over the reference probe time (2.0: the host
        ran at half the reference speed)."""
        probes = self.tally.probes
        return sum(probes) / len(probes) / PROBE_REFERENCE_S

    def end_to_end(self):
        """End-to-end metrics as measured, and as reported.

        Serial and sweep runs report host times scaled by the run's
        :meth:`host_slowdown`.  The fan-out reports them as measured: a
        probe cannot run beside its workers without competing with them,
        and probes run between batches tracked neither the batches nor
        set-up (scaling by them widened the spreads).
        """
        tally = self.tally
        if self.workload.kind == "fanout":
            # An op is a batch.
            op_p50_s = stats.median([b[0] for b in tally.batches])
            instructions = sum(b[1] for b in tally.batches)
            wall = sum(b[0] for b in tally.batches)
        else:
            # n = 24: an app's mean over the run's passes.
            op_p50_s = stats.median_of_means(tally.walls.values())
            instructions = sum(tally.instructions[n] * len(w)
                               for n, w in tally.walls.items())
            wall = sum(map(sum, tally.walls.values()))
        measured = {
            "sim_kips": instructions / wall / 1e3,
            "op_p50_s": op_p50_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": peak_rss_mb(self.workload.kind == "fanout"),
            "oracle_err_pct": self.oracle_error_pct(),
        }
        if self.workload.kind == "fanout":
            return measured, measured
        slowdown = self.host_slowdown()
        return measured, dict(
            measured,
            sim_kips=measured["sim_kips"] * slowdown,
            op_p50_s=op_p50_s / slowdown,
            setup_s=self.setup_s / slowdown,
        )

    def oracle_error_pct(self) -> float:
        oracle = self.reference["oracle"][self.workload.scale]
        errors = [100.0 * abs(c - oracle[n]) / oracle[n]
                  for n, c in self.tally.cycles.items()]
        return sum(errors) / len(errors)

    def counts(self) -> Dict[str, float]:
        return counts_from(self.tally.counters)

    def resilience(self) -> Dict[str, float]:
        batches = self.tally.batches
        if not batches:
            return {name: 0.0 for name, __ in RESILIENCE}
        workers = worker_count()
        capacity = sum(b[0] for b in batches) * workers
        busy = sum(b[2] for b in batches)
        return {
            "resilience.worker_busy_s": busy,
            "resilience.idle_s": capacity - busy,
            "resilience.worker_util": busy / capacity,
        }

    def trace_overhead(self) -> float:
        tally = self.tally
        return tally.traced_s / tally.untraced_s if tally.untraced_s else 0.0


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0
