"""Supervised task execution: the fault-tolerant parallel driver core.

The paper's bulk-evaluation workflow (§IV-B2) runs tens of independent
simulations concurrently for hours; a bare ``ProcessPoolExecutor`` lets
one crashed or hung worker unwind the whole campaign.  The
:class:`Supervisor` replaces it with per-task worker processes it
actually supervises:

* per-task state machine (pending → running → done/failed) with a full
  attempt history;
* per-attempt wall-clock timeouts — hung workers are reaped (killed and
  joined) and the task retried;
* retries with exponential backoff + deterministic jitter
  (:class:`~repro.resilience.policy.RetryPolicy`);
* dead workers are reaped and a fresh process spawned for the retry;
* failures classified into the typed taxonomy in :mod:`repro.errors`
  (:class:`~repro.errors.WorkerCrash`,
  :class:`~repro.errors.TaskTimeout`,
  :class:`~repro.errors.ResourceExhausted`,
  :class:`~repro.errors.CorruptResult`), each carrying task/attempt
  context;
* optional seeded fault injection
  (:class:`~repro.resilience.chaos.ChaosPlan`) so all of the above is
  provable, not aspirational.

With ``workers <= 1`` the supervisor runs attempts in-process (no pool
overhead, same retry/backoff/chaos semantics); injected crashes and
true-hangs are then simulated as exceptions since the supervisor cannot
kill its own process.  Real (non-injected) hangs are only reapable in
subprocess mode.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptResult,
    ResourceExhausted,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
)
from repro.resilience.chaos import (
    CRASH_EXIT_CODE,
    ChaosPlan,
    CorruptedResult,
)
from repro.resilience.policy import RetryPolicy

#: How long (seconds) to wait for a terminated worker before escalating
#: to SIGKILL.
_REAP_GRACE = 0.5


@dataclass(frozen=True)
class Task:
    """One unit of supervised work.

    ``fn(*args)`` runs in a worker process (or in-process with
    ``workers <= 1``) and must return a picklable result.  ``validate``,
    when given, runs *in the supervisor* on every delivered result and
    raises to reject it (the rejection is classified as a retryable
    :class:`~repro.errors.CorruptResult`).

    ``args_for_attempt``, when given, computes the argument tuple for a
    specific 1-based attempt number (overriding ``args``).  This is how
    checkpoint-aware tasks resume: attempt 1 starts clean, and a retry
    after a :class:`~repro.errors.TaskTimeout` or
    :class:`~repro.errors.WorkerCrash` builds arguments that pick up
    from the newest mid-run checkpoint instead of cycle 0.
    """

    key: str
    fn: Callable
    args: Tuple = ()
    validate: Optional[Callable[[object], None]] = None
    args_for_attempt: Optional[Callable[[int], Tuple]] = None

    def attempt_args(self, attempt: int) -> Tuple:
        """The argument tuple to run attempt ``attempt`` with."""
        if self.args_for_attempt is not None:
            return self.args_for_attempt(attempt)
        return self.args


@dataclass(frozen=True)
class AttemptRecord:
    """What happened on one attempt of one task."""

    index: int        #: 1-based attempt number
    outcome: str      #: "ok", "crash", "timeout", "exhausted", "corrupt", "error"
    duration: float   #: wall-clock seconds the attempt consumed
    backoff: float    #: delay scheduled before the *next* attempt (0 if none)
    message: str = ""


@dataclass
class TaskOutcome:
    """Terminal state of one task after supervision."""

    key: str
    result: object = None
    failure: Optional[TaskFailure] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: True when a retry the policy's ``max_attempts`` would have allowed
    #: was suppressed because attempt time + backoff would exceed
    #: ``RetryPolicy.max_total_seconds``.
    retry_cap_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

    @property
    def total_seconds(self) -> float:
        """Cumulative wall-clock this task consumed: every attempt's
        duration plus every backoff delay scheduled between attempts —
        the quantity ``RetryPolicy.max_total_seconds`` caps."""
        return sum(
            record.duration + record.backoff for record in self.attempts
        )


def _safe_send(conn, payload) -> None:
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):
        pass


def _attempt_entry(conn, fn, args, chaos: Optional[ChaosPlan], key: str,
                   attempt: int) -> None:
    """Worker-process entry point for one attempt (module-level so it
    survives both fork and spawn start methods)."""
    action = chaos.decide(key, attempt) if chaos is not None else None
    if action == "crash":
        conn.close()
        os._exit(CRASH_EXIT_CODE)
    try:
        if action == "hang":
            time.sleep(chaos.hang_seconds)
        result = fn(*args)
        if action == "corrupt":
            result = chaos.corrupt(result)
        _safe_send(conn, ("ok", result))
    except MemoryError as exc:
        _safe_send(conn, ("exhausted", repr(exc)))
    except BaseException as exc:  # noqa: BLE001 — full report, then die
        _safe_send(conn, ("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


_FAILURE_CLASSES = {
    "crash": WorkerCrash,
    "timeout": TaskTimeout,
    "exhausted": ResourceExhausted,
    "corrupt": CorruptResult,
    "error": TaskFailure,
}


def classify_failure(outcome: str, message: str, *, task: str,
                     attempt: int, context: str = "") -> TaskFailure:
    """Map an attempt outcome string onto the typed failure taxonomy."""
    cls = _FAILURE_CLASSES.get(outcome, TaskFailure)
    return cls(message, task=task, attempt=attempt, context=context)


@dataclass
class _Running:
    task: Task
    attempt: int
    process: multiprocessing.Process
    conn: object
    started: float
    deadline: Optional[float]


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say: the CPUs
    this process may run on (its affinity mask, so a pinned or
    cpuset-limited run starts no more workers than it can use), capped
    at the paper's 50 threads."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        usable = os.cpu_count() or 1
    return max(1, min(usable, 50))


class Supervisor:
    """Runs tasks under a retry policy with optional fault injection."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        workers: Optional[int] = None,
        chaos: Optional[ChaosPlan] = None,
        context: str = "",
        poll_interval: float = 0.005,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        if workers is None:
            workers = default_worker_count()
        self.workers = max(1, workers)
        self.chaos = chaos
        self.context = context
        self.poll_interval = poll_interval
        #: Workers spawned over the supervisor's lifetime (respawns
        #: included) — observability for tests and reports.
        self.workers_spawned = 0
        self.workers_reaped = 0

    # ------------------------------------------------------------------
    # public API

    def run(self, tasks: Sequence[Task]) -> Dict[str, TaskOutcome]:
        """Run every task to a terminal state; never raises for task
        failures (inspect the returned outcomes)."""
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise TaskFailure("duplicate task keys in submission",
                              task=str(keys), attempt=0)
        if self.workers <= 1:
            return {task.key: self._run_inline(task) for task in tasks}
        return self._run_pooled(tasks)

    # ------------------------------------------------------------------
    # shared bookkeeping

    def _finish_attempt(
        self,
        outcome: TaskOutcome,
        task: Task,
        attempt: int,
        status: str,
        message: str,
        duration: float,
    ) -> Optional[float]:
        """Record one attempt; return the backoff delay if the task will
        be retried, else ``None`` (outcome is then terminal)."""
        if status == "ok":
            outcome.attempts.append(AttemptRecord(
                index=attempt, outcome="ok", duration=duration, backoff=0.0,
            ))
            return None
        failure = classify_failure(
            status, message, task=task.key, attempt=attempt,
            context=self.context,
        )
        retrying = failure.retryable and attempt < self.policy.max_attempts
        backoff = self.policy.backoff(task.key, attempt) if retrying else 0.0
        cap = self.policy.max_total_seconds
        if retrying and cap is not None:
            elapsed = outcome.total_seconds + duration
            if elapsed + backoff >= cap:
                # Retrying would blow through the task's total wall-clock
                # budget — stop here and let the failure stand.
                retrying = False
                backoff = 0.0
                outcome.retry_cap_hit = True
                message = (
                    f"{message} [retry suppressed: {elapsed:.3g}s consumed "
                    f"of {cap:.3g}s total budget]"
                )
                failure = classify_failure(
                    status, message, task=task.key, attempt=attempt,
                    context=self.context,
                )
        outcome.attempts.append(AttemptRecord(
            index=attempt, outcome=status, duration=duration,
            backoff=backoff, message=message,
        ))
        if retrying:
            return backoff
        outcome.failure = failure
        return None

    def _validate(self, task: Task, result: object) -> Tuple[str, str, object]:
        """Supervisor-side result validation (corruption detection)."""
        if isinstance(result, CorruptedResult):
            return "corrupt", "result failed integrity check (marker)", None
        if task.validate is not None:
            try:
                task.validate(result)
            except Exception as exc:  # noqa: BLE001 — validator says no
                return "corrupt", f"result failed validation: {exc}", None
        return "ok", "", result

    # ------------------------------------------------------------------
    # inline (workers <= 1) execution

    def _run_inline(self, task: Task) -> TaskOutcome:
        outcome = TaskOutcome(key=task.key)
        attempt = 0
        while outcome.failure is None and outcome.result is None:
            attempt += 1
            started = time.perf_counter()
            status, message, result = self._attempt_inline(task, attempt)
            if status == "ok":
                status, message, result = self._validate(task, result)
            duration = time.perf_counter() - started
            backoff = self._finish_attempt(
                outcome, task, attempt, status, message, duration
            )
            if status == "ok":
                outcome.result = result
                break
            if backoff is None:
                break
            if backoff > 0:
                time.sleep(backoff)
        return outcome

    def _attempt_inline(self, task: Task, attempt: int):
        action = (
            self.chaos.decide(task.key, attempt)
            if self.chaos is not None else None
        )
        if action == "crash":
            return "crash", "injected worker crash (inline)", None
        if action == "hang":
            timeout = self.policy.timeout_seconds
            if timeout is not None and self.chaos.hang_seconds >= timeout:
                # A true hang: in-process we cannot kill ourselves, so
                # simulate the reap the pooled supervisor would perform.
                return (
                    "timeout",
                    f"injected hang exceeded {timeout:.3g}s budget (inline)",
                    None,
                )
            time.sleep(self.chaos.hang_seconds)
        try:
            result = task.fn(*task.attempt_args(attempt))
        except MemoryError as exc:
            return "exhausted", repr(exc), None
        except Exception as exc:  # noqa: BLE001
            return "error", f"{type(exc).__name__}: {exc}", None
        if action == "corrupt":
            result = self.chaos.corrupt(result)
        return "ok", "", result

    # ------------------------------------------------------------------
    # pooled (subprocess) execution

    def _spawn(self, task: Task, attempt: int) -> _Running:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_attempt_entry,
            args=(child_conn, task.fn, task.attempt_args(attempt),
                  self.chaos, task.key, attempt),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.workers_spawned += 1
        started = time.monotonic()
        timeout = self.policy.timeout_seconds
        return _Running(
            task=task, attempt=attempt, process=process, conn=parent_conn,
            started=started,
            deadline=None if timeout is None else started + timeout,
        )

    def _reap(self, running: _Running, force: bool = False) -> None:
        """Join (and if needed kill) a finished or condemned worker."""
        process = running.process
        if force and process.is_alive():
            process.terminate()
            process.join(_REAP_GRACE)
            if process.is_alive():
                process.kill()
        process.join()
        running.conn.close()
        self.workers_reaped += 1

    def _poll_worker(self, running: _Running):
        """Inspect one running attempt; return (status, message, result)
        or ``None`` if it is still in flight."""
        # Message first: a worker may send its result and exit before we
        # look at liveness.
        if running.conn.poll():
            try:
                status, payload = running.conn.recv()
            except (EOFError, OSError):
                self._reap(running)
                return "crash", "worker closed its pipe mid-send", None
            except Exception as exc:  # unpicklable / torn payload
                self._reap(running, force=True)
                return "corrupt", f"undecodable worker payload: {exc}", None
            self._reap(running)
            if status == "ok":
                return "ok", "", payload
            return status, str(payload), None
        if not running.process.is_alive():
            exitcode = running.process.exitcode
            self._reap(running)
            detail = (
                "injected chaos crash"
                if exitcode == CRASH_EXIT_CODE
                else f"worker died with exit code {exitcode}"
            )
            return "crash", detail, None
        if (running.deadline is not None
                and time.monotonic() > running.deadline):
            self._reap(running, force=True)
            budget = self.policy.timeout_seconds
            return (
                "timeout",
                f"exceeded {budget:.3g}s wall-clock budget; worker reaped",
                None,
            )
        return None

    def _run_pooled(self, tasks: Sequence[Task]) -> Dict[str, TaskOutcome]:
        outcomes = {task.key: TaskOutcome(key=task.key) for task in tasks}
        #: (ready_at, submission_index, task, attempt)
        ready: List[Tuple[float, int, Task, int]] = [
            (0.0, index, task, 1) for index, task in enumerate(tasks)
        ]
        running: List[_Running] = []
        while ready or running:
            now = time.monotonic()
            # Launch everything whose backoff has elapsed, oldest first.
            ready.sort(key=lambda item: (item[0], item[1]))
            while ready and len(running) < self.workers:
                ready_at, index, task, attempt = ready[0]
                if ready_at > now:
                    break
                ready.pop(0)
                running.append(self._spawn(task, attempt))
            progressed = False
            for slot in list(running):
                polled = self._poll_worker(slot)
                if polled is None:
                    continue
                progressed = True
                running.remove(slot)
                status, message, result = polled
                if status == "ok":
                    status, message, result = self._validate(
                        slot.task, result
                    )
                duration = time.monotonic() - slot.started
                outcome = outcomes[slot.task.key]
                backoff = self._finish_attempt(
                    outcome, slot.task, slot.attempt, status, message,
                    duration,
                )
                if status == "ok":
                    outcome.result = result
                elif backoff is not None:
                    ready.append((
                        time.monotonic() + backoff,
                        len(tasks) + len(outcome.attempts),
                        slot.task,
                        slot.attempt + 1,
                    ))
            if not progressed:
                time.sleep(self.poll_interval)
        return outcomes


def raise_first_failure(outcomes: Dict[str, TaskOutcome]) -> None:
    """Raise the first task failure (in key order), if any."""
    for key in sorted(outcomes):
        if outcomes[key].failure is not None:
            raise outcomes[key].failure
