"""Supervision for process-pool workloads: one pool, one retry loop.

Two very different subsystems supervise CPU-bound work on worker
processes: the batch :class:`~repro.runtime.runner.CampaignRunner`
(finite shard sets, run to completion) and the long-lived
:class:`~repro.service.backend.ProcessPoolBackend` behind the macro
server (requests arrive forever).  Both run their keyed tasks on one
:class:`SupervisedPool`, so the supervision rules exist once:

* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  plus the crash-retry budget that separates "try again" from
  "quarantine".
* :class:`CrashBlame` — solo-reflight crash accounting.  When a worker
  process dies, every task in flight is a *suspect*; suspects are
  re-flown alone so the next death identifies its killer, and a task
  that exceeds its crash budget is quarantined — it can never take a
  pool down again.
* :class:`SupervisedPool` — the single thread-safe owner of the
  ``ProcessPoolExecutor`` generation.  At most ``workers`` tasks are in
  flight; a task's deadline clock starts when it takes a slot (a hung
  worker cannot be joined, so past its deadline the generation is
  killed); a task whose pool another task killed is requeued as
  innocent.  Crash reflights and innocent requeues never use up
  ``max_attempts``.
* :func:`terminate_pool` — the only reliable way to stop hung or
  half-dead ``ProcessPoolExecutor`` workers.

Also home to :func:`classify_error`, the error-taxonomy mapper the
campaign journal and the service WAL both persist.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, fields
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.errors import (
    ConfigError,
    RepairExhausted,
    ReproError,
    ServiceUnavailable,
    SpiceConvergenceError,
)

# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

_TAXONOMY = (
    (ConfigError, "config"),
    (SpiceConvergenceError, "convergence"),
    (RepairExhausted, "repair_exhausted"),
    (ReproError, "repro"),
    (TimeoutError, "timeout"),
    (OSError, "io"),
)


def classify_error(error: BaseException) -> str:
    """Map an exception onto the supervision error taxonomy."""
    for errtype, name in _TAXONOMY:
        if isinstance(error, errtype):
            return name
    return "unexpected"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, per task.

    The same policy shape as
    :class:`~repro.bisr.escalation.EscalationPolicy`, applied one level
    up: attempts instead of test/repair cycles, seconds instead of
    simulated maintenance cycles.

    Attributes:
        max_attempts: dispatches per task before it is finalised as
            failed (``config`` errors never retry — they are
            deterministic misuse, not weather).
        backoff_base: seconds waited before the second attempt.
        backoff_factor: multiplier applied to the wait per attempt.
        crash_retries: times a task may take a worker down with it
            before being quarantined.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    crash_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.crash_retries < 0:
            raise ConfigError("crash_retries must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt``."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


# ---------------------------------------------------------------------------
# crash blame
# ---------------------------------------------------------------------------


class CrashBlame:
    """Solo-reflight crash accounting for :class:`SupervisedPool`.

    When a pool breaks, guilt is ambiguous — several tasks were in
    flight.  :meth:`accuse` charges every suspect one crash and splits
    them into *quarantined* (budget exceeded; never dispatch again)
    and *suspects* (re-fly, but strictly alone, so the next death has
    exactly one candidate killer).

    Not thread-safe by itself; the pool holds its lock around it.
    """

    def __init__(self, crash_retries: int) -> None:
        if crash_retries < 0:
            raise ConfigError("crash_retries must be >= 0")
        self.crash_retries = crash_retries
        self._crashes: Counter = Counter()
        self._quarantined: set = set()

    def accuse(self, keys) -> Tuple[List[Hashable], List[Hashable]]:
        """Charge each key one crash; -> (quarantined, solo_suspects)."""
        quarantined: List[Hashable] = []
        suspects: List[Hashable] = []
        for key in keys:
            self._crashes[key] += 1
            if self._crashes[key] > self.crash_retries:
                self._quarantined.add(key)
                quarantined.append(key)
            else:
                suspects.append(key)
        return quarantined, suspects

    def crashes(self, key: Hashable) -> int:
        """How many worker deaths this key has been charged with."""
        return self._crashes[key]

    def is_quarantined(self, key: Hashable) -> bool:
        return key in self._quarantined

    @property
    def quarantined(self) -> frozenset:
        return frozenset(self._quarantined)


# ---------------------------------------------------------------------------
# pool teardown
# ---------------------------------------------------------------------------


def terminate_pool(pool) -> None:
    """Terminate a ``ProcessPoolExecutor`` and its workers, hung ones
    included.

    ``shutdown()`` alone leaves hung/killed workers running; the
    private-but-stable ``_processes`` map is the only way to reclaim
    them without abandoning ``ProcessPoolExecutor``.
    """
    if pool is None:
        return
    for process in list(getattr(pool, "_processes", {}).values() or []):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# the supervised pool
# ---------------------------------------------------------------------------

#: Requeues a task tolerates for pool deaths it did not cause (someone
#: else's timeout or crash) before giving up.  Generous: it exists only
#: to bound a pathological kill loop, not to police load.
MAX_INNOCENT_REQUEUES = 32

#: Failure taxonomies that are deterministic and never retry: misuse
#: and a failed signoff would fail the same way again.
FINAL_TAXONOMIES = ("config", "signoff")


@dataclass
class PoolStats:
    """Supervision counters of one pool (callers may subclass to add
    their own); :meth:`add` is the thread-safe way to bump one."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    quarantined: int = 0
    innocent_requeues: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def to_dict(self) -> dict:
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TaskOutcome:
    """Final state of one :meth:`SupervisedPool.run`.

    ``status`` is ``ok``, ``failed`` (``payload`` then always carries
    ``taxonomy`` and ``message``) or ``quarantined`` (the task kept
    killing workers; ``crashes`` says how often).  ``attempts`` counts
    the attempts used, which crash reflights and innocent requeues do
    not.
    """

    status: str
    attempts: int
    payload: dict
    crashes: int = 0


def _failure(taxonomy: str, message: str) -> dict:
    return {"status": "failed", "taxonomy": taxonomy, "message": message}


def _shut_down() -> ServiceUnavailable:
    return ServiceUnavailable("process pool is shut down",
                              reason="draining")


def _suspect(future) -> bool:
    """Could this task have killed its worker?  Not if it never
    reached the pool, or delivered its result before the death."""
    if future is None or future.cancelled():
        return False
    return not future.done() or isinstance(future.exception(),
                                           BrokenExecutor)


class _Flight:
    """One task holding a slot: its clock and its pool generation."""

    __slots__ = ("key", "solo", "started", "generation", "future")

    def __init__(self, key: Hashable, solo: bool) -> None:
        self.key = key
        self.solo = solo
        self.started = time.monotonic()
        self.generation = 0
        self.future = None


class SupervisedPool:
    """Runs keyed tasks on one supervised process pool; thread-safe.

    Callers run one task per thread with :meth:`run`, whose ``attempt``
    callable dispatches through :meth:`submit` exactly once per call.
    Workers follow one contract: they return (never raise) a dict whose
    ``status`` is ``ok`` or ``failed``, the latter with ``taxonomy`` and
    ``message``, so typed details survive the pickle boundary.

    Args:
        workers: worker processes, and the number of tasks in flight.
        retry: the attempt/backoff/crash budget of every task.
        deadline_s: per-attempt wall-clock budget from the moment a task
            takes a slot, or None for unbounded.
        stats: counters to update (a fresh :class:`PoolStats` if None).
    """

    def __init__(self, workers: int, retry: RetryPolicy,
                 deadline_s: Optional[float] = None,
                 stats: Optional[PoolStats] = None) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers = workers
        self.retry = retry
        self.deadline_s = deadline_s
        self.stats = stats if stats is not None else PoolStats()
        self._cond = threading.Condition()
        self._local = threading.local()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        # generation -> (cause, keys accused of killing it)
        self._retired: Dict[int, Tuple[str, frozenset]] = {}
        self._flights: set = set()
        self._blame = CrashBlame(retry.crash_retries)
        self._solo_pending: set = set()  # suspects that must fly alone
        self._solo_waiting = 0
        self._closed = False

    # -- the retry loop -----------------------------------------------------

    def run(self, key: Hashable,
            attempt: Callable[[int], Tuple[str, Optional[dict]]]
            ) -> TaskOutcome:
        """Supervise one task until it succeeds, fails for good, or is
        quarantined.

        ``attempt(n)`` runs attempt number ``n`` while holding a slot
        and returns ``(outcome, payload)`` — usually what
        :meth:`submit` returned, or ``("failed", payload)`` after a
        caller-side check.

        Raises:
            ServiceUnavailable: the pool was closed.
        """
        attempts = requeues = 0
        while True:
            flight = self._acquire(key)
            if flight is None:  # a quarantined key's count is final
                crashes = self._blame.crashes(key)
                return TaskOutcome(
                    "quarantined", attempts + 1,
                    _failure("crash", f"worker died {crashes} time(s) "
                                      f"running this task"),
                    crashes=crashes)
            try:
                outcome, payload = attempt(attempts + 1)
            finally:
                self._release(flight)
            if outcome == "crashed":
                continue  # the crash budget bounds these reflights
            if outcome == "innocent":
                requeues += 1
                self.stats.add("innocent_requeues")
                if requeues > MAX_INNOCENT_REQUEUES:
                    return TaskOutcome("failed", attempts, _failure(
                        "requeue", f"re-queued {requeues} times by other "
                                   f"tasks' pool failures; giving up"))
                continue
            attempts += 1
            if outcome == "ok":
                return TaskOutcome("ok", attempts, payload)
            if outcome == "timeout":
                payload = _failure(
                    "timeout", f"exceeded its {self.deadline_s:g}s "
                               f"wall-clock deadline (worker killed)")
            if (payload["taxonomy"] in FINAL_TAXONOMIES
                    or attempts >= self.retry.max_attempts):
                return TaskOutcome("failed", attempts, payload)
            self.stats.add("retries")
            time.sleep(self.retry.backoff_s(attempts))

    def submit(self, fn: Callable, *args) -> Tuple[str, Optional[dict]]:
        """Dispatch ``fn(*args)`` for the task this thread is running
        and wait for it; -> ``(outcome, payload)`` with outcome ``ok`` /
        ``failed`` (the worker's payload), ``timeout``, ``crashed``
        (accused of killing the pool) or ``innocent``."""
        flight = self._local.flight
        with self._cond:
            self._check_open()
            if self._executor is None:
                self._generation += 1
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            flight.generation, executor = self._generation, self._executor
        try:
            flight.future = executor.submit(fn, *args)
        except (BrokenExecutor, RuntimeError):
            return self._broken(flight), None  # died before accepting it
        timeout = None if self.deadline_s is None else max(
            0.0, flight.started + self.deadline_s - time.monotonic())
        try:
            payload = flight.future.result(timeout=timeout)
        except FutureTimeout:
            if self._retire(flight.generation, "timeout")[0] != "timeout":
                return self._broken(flight), None
            self.stats.add("timeouts")
            return "timeout", None
        except (BrokenExecutor, CancelledError):
            return self._broken(flight), None
        except Exception as error:
            # Parent-side failure (e.g. an unpicklable result): goes
            # through the same retry ladder as a worker-reported one.
            return "failed", _failure(classify_error(error),
                                      f"{type(error).__name__}: {error}")
        return ("ok" if payload["status"] == "ok" else "failed"), payload

    # -- lifecycle and introspection ----------------------------------------

    def close(self) -> None:
        """Stop the pool — gracefully when idle, by killing the workers
        otherwise; later :meth:`run` calls raise ServiceUnavailable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            generation, busy = self._generation, bool(self._flights)
            executor = None
            if not busy:
                executor, self._executor = self._executor, None
        if busy:
            self._retire(generation, "closed")
        elif executor is not None:
            executor.shutdown(wait=True)

    @property
    def quarantined(self) -> frozenset:
        with self._cond:
            return self._blame.quarantined

    def worker_pids(self) -> tuple:
        """Pids of the current generation's worker processes."""
        with self._cond:
            processes = getattr(self._executor, "_processes", None)
            return tuple(processes) if processes else ()

    # -- slots --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise _shut_down()

    def _acquire(self, key: Hashable) -> Optional[_Flight]:
        """Wait for a slot; None if the key is quarantined.  Crash
        suspects fly strictly alone, and ahead of everyone else."""
        with self._cond:
            solo = key in self._solo_pending
            self._solo_waiting += solo
            try:
                while True:
                    self._check_open()
                    if self._blame.is_quarantined(key):
                        return None
                    if solo and not self._flights:
                        break
                    if (not solo and not self._solo_waiting
                            and len(self._flights) < self.workers
                            and not any(f.solo for f in self._flights)):
                        break
                    self._cond.wait()
            finally:
                self._solo_waiting -= solo
            self._solo_pending.discard(key)
            flight = _Flight(key, solo)
            self._flights.add(flight)
            self._local.flight = flight
            return flight

    def _release(self, flight: _Flight) -> None:
        with self._cond:
            self._flights.discard(flight)
            self._local.flight = None
            self._cond.notify_all()

    # -- pool deaths --------------------------------------------------------

    def _broken(self, flight: _Flight) -> str:
        """Classify a flight whose pool died: its crash, or collateral?"""
        cause, accused = self._retire(flight.generation, "crash")
        if cause == "closed":
            raise _shut_down()
        return "crashed" if flight.key in accused else "innocent"

    def _retire(self, generation: int, cause: str) -> Tuple[str, frozenset]:
        """Tear one generation down exactly once; the first claimant's
        cause wins.  A crash charges every suspect still in flight on it.
        -> (recorded cause, accused keys)."""
        with self._cond:
            if generation in self._retired:
                return self._retired[generation]
            accused: frozenset = frozenset()
            if cause == "crash":
                accused = frozenset(
                    f.key for f in self._flights
                    if f.generation == generation and _suspect(f.future))
                quarantined, suspects = self._blame.accuse(accused)
                self._solo_pending.update(suspects)
                self.stats.add("crashes")
                self.stats.add("quarantined", len(quarantined))
            self._retired[generation] = (cause, accused)
            executor = None
            if generation == self._generation:
                executor, self._executor = self._executor, None
        terminate_pool(executor)
        return cause, accused
