"""Supervised multiprocess parallel simulation (paper §IV-B2).

The paper credits Swift-Sim's modular design with making parallel
simulation easy and reports a further ~5x from running simulations
concurrently (50 threads on a 2-socket server).  Applications are
independent, so the parallel driver fans application traces out to
supervised worker processes — the same throughput-level concurrency,
sized to this machine, but fault-tolerant: workers that crash, hang, or
OOM are reaped and their tasks retried under a
:class:`~repro.resilience.policy.RetryPolicy` (see
:mod:`repro.resilience`).  Worker processes rebuild the simulator from
its (picklable) configuration and plan, simulate, and ship back the
result without the metrics report (module trees do not cross process
boundaries).
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Optional, Sequence, Type

from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.trace import ApplicationTrace
from repro.guard import GuardConfig, SimulationGuard
from repro.resilience.chaos import ChaosPlan
from repro.resilience.journal import RunJournal
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.resilience.supervisor import (
    Supervisor,
    Task,
    TaskOutcome,
    default_worker_count,
)
from repro.sim.plan import ModelingPlan
from repro.simulators.base import PlanSimulator
from repro.simulators.results import SimulationResult


def _simulate_one(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    plan: ModelingPlan,
    hit_rate_source: str,
    app: ApplicationTrace,
) -> SimulationResult:
    simulator = simulator_cls(config, plan=plan, hit_rate_source=hit_rate_source)
    # Metrics hold live module references; skip them for cross-process runs.
    return simulator.simulate(app, gather_metrics=False)


def _simulate_one_guarded(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    plan: ModelingPlan,
    hit_rate_source: str,
    app: ApplicationTrace,
    guard_config: GuardConfig,
    resume: bool,
) -> SimulationResult:
    """Worker entry for guarded runs (module-level for spawn support).

    ``resume`` is True on retry attempts: the run restores the newest
    intact checkpoint in its per-run directory — written by the attempt
    that crashed or timed out — instead of starting from cycle 0.
    """
    simulator = simulator_cls(config, plan=plan, hit_rate_source=hit_rate_source)
    guard = SimulationGuard(
        guard_config,
        app_name=app.name,
        simulator_name=simulator.name,
        gpu_config=config,
        auto_resume=resume,
    )
    return simulator.simulate(app, gather_metrics=False, guard=guard)


def validate_picklable(simulator: PlanSimulator,
                       apps: Sequence[ApplicationTrace]) -> None:
    """Pre-flight the pool: everything a worker rebuilds from must
    pickle.

    Without this, a stray live reference (an engine, an open handle)
    surfaces as an opaque ``ProcessPoolExecutor``-style error deep in
    the pool machinery; here it is a typed
    :class:`~repro.errors.SimulationError` naming the offending field
    before any worker launches.
    """
    fields = [
        ("simulator class", type(simulator)),
        ("config", simulator.config),
        ("plan", simulator.plan),
        ("hit_rate_source", simulator.hit_rate_source),
    ]
    fields.extend((f"app {app.name!r} trace", app) for app in apps)
    for label, value in fields:
        try:
            pickle.dumps(value)
        except Exception as exc:  # noqa: BLE001 — any pickling failure
            raise SimulationError(
                f"cannot ship {label} to worker processes: not picklable "
                f"({type(exc).__name__}: {exc})"
            ) from exc


def _result_validator(app: ApplicationTrace):
    """Domain validation for a worker-delivered result (corruption
    detection for the supervisor — see ``docs/resilience.md``)."""
    expected_kernels = len(app.kernels)
    app_name = app.name

    def validate(result: object) -> None:
        if not isinstance(result, SimulationResult):
            raise SimulationError(
                f"worker returned {type(result).__name__}, "
                f"not a SimulationResult"
            )
        if result.app_name != app_name:
            raise SimulationError(
                f"result names app {result.app_name!r}, expected {app_name!r}"
            )
        if result.total_cycles < 0:
            raise SimulationError(
                f"impossible cycle count {result.total_cycles}"
            )
        if len(result.kernels) != expected_kernels:
            raise SimulationError(
                f"result has {len(result.kernels)} kernels, "
                f"expected {expected_kernels}"
            )

    return validate


def _guarded_task(
    simulator: PlanSimulator,
    app: ApplicationTrace,
    guard_config: GuardConfig,
    chaos: Optional[ChaosPlan],
) -> Task:
    """Build a checkpoint-aware supervised task for one app.

    The per-attempt argument hook is where kill-and-resume happens:
    attempt 1 runs clean, any retry (after a timeout or crash) passes
    ``resume=True`` so the worker restores the checkpoint its
    predecessor left behind.  Chaos in-simulation faults draw per
    attempt from the independent ``decide_sim`` stream.
    """
    base = (
        type(simulator),
        simulator.config,
        simulator.plan,
        simulator.hit_rate_source,
        app,
    )
    per_run = guard_config.with_(
        checkpoint_dir=str(
            Path(guard_config.checkpoint_dir)
            / f"{app.name}_{simulator.name}"
        )
    ) if guard_config.checkpoint_dir else guard_config

    def args_for_attempt(attempt: int):
        cfg = per_run
        kind = (
            chaos.decide_sim(app.name, attempt)
            if chaos is not None else None
        )
        if kind is not None:
            cfg = cfg.with_(inject=(kind,))
        return base + (cfg, attempt > 1)

    return Task(
        key=app.name,
        fn=_simulate_one_guarded,
        args=base + (per_run, False),
        args_for_attempt=args_for_attempt,
        validate=_result_validator(app),
    )


def simulate_apps_supervised(
    simulator: PlanSimulator,
    apps: Sequence[ApplicationTrace],
    workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Optional[RunJournal] = None,
    guard: Optional[GuardConfig] = None,
) -> Dict[str, TaskOutcome]:
    """Run apps under full supervision and return per-task outcomes.

    This is the resilient entry point: failures do not raise — each
    :class:`~repro.resilience.supervisor.TaskOutcome` carries either a
    result or a typed :class:`~repro.errors.TaskFailure` with its full
    attempt history.  Triples already present in ``journal`` are served
    from it without simulating; fresh completions are durably appended.

    ``guard`` is a :class:`~repro.guard.GuardConfig` *template*: each
    app gets its own copy with ``checkpoint_dir`` nested per
    ``(app, simulator)``, so checkpoints from concurrent workers never
    collide, and retry attempts resume from the checkpoint the killed
    attempt wrote instead of replaying from cycle 0.
    """
    if workers is None:
        workers = default_worker_count()
    workers = min(workers, max(len(apps), 1))
    if workers > 1:
        validate_picklable(simulator, apps)
    supervisor = Supervisor(
        policy=retry_policy,
        workers=workers,
        chaos=chaos,
        context=f"{simulator.name} on {simulator.config.name}",
    )
    outcomes: Dict[str, TaskOutcome] = {}
    pending = []
    for app in apps:
        journaled = (
            journal.get(app.name, simulator.config.name, simulator.name)
            if journal is not None else None
        )
        if journaled is not None:
            outcomes[app.name] = TaskOutcome(key=app.name, result=journaled)
        else:
            pending.append(app)
    if guard is not None:
        tasks = [
            _guarded_task(simulator, app, guard, chaos) for app in pending
        ]
    else:
        tasks = [
            Task(
                key=app.name,
                fn=_simulate_one,
                args=(
                    type(simulator),
                    simulator.config,
                    simulator.plan,
                    simulator.hit_rate_source,
                    app,
                ),
                validate=_result_validator(app),
            )
            for app in pending
        ]
    outcomes.update(supervisor.run(tasks))
    if journal is not None:
        for app in pending:
            outcome = outcomes[app.name]
            if outcome.ok:
                journal.record(outcome.result, attempts=outcome.num_attempts)
    return outcomes


def simulate_apps_parallel(
    simulator: PlanSimulator,
    apps: Sequence[ApplicationTrace],
    workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Optional[RunJournal] = None,
    guard: Optional[GuardConfig] = None,
) -> Dict[str, SimulationResult]:
    """Simulate many applications concurrently with ``simulator``'s plan.

    Returns results keyed by application name.  With ``workers=1`` the
    apps run sequentially in-process (useful as the single-thread leg of
    the Figure 5 contribution analysis).  By default failures are not
    retried (the historical contract: the first worker error raises);
    pass a :class:`~repro.resilience.policy.RetryPolicy` to get
    supervised retry/timeout behaviour, and use
    :func:`simulate_apps_supervised` when per-task failure outcomes are
    wanted instead of an exception.
    """
    if retry_policy is None:
        retry_policy = NO_RETRY
    outcomes = simulate_apps_supervised(
        simulator, apps, workers=workers, retry_policy=retry_policy,
        chaos=chaos, journal=journal, guard=guard,
    )
    results: Dict[str, SimulationResult] = {}
    for app in apps:
        outcome = outcomes[app.name]
        if outcome.failure is not None:
            raise outcome.failure
        results[app.name] = outcome.result
    return results
