"""Tests for the shared supervision primitives (repro.runtime).

The pool tasks live at module top level because process-pool dispatch
pickles them by qualified name.
"""

import os
import sys
import threading
import time

import pytest

from repro.core.errors import (
    ConfigError,
    RepairExhausted,
    ReproError,
    ServiceUnavailable,
    SpiceConvergenceError,
)
from repro.runtime.supervision import (
    CrashBlame,
    RetryPolicy,
    SupervisedPool,
    classify_error,
    terminate_pool,
)

# ---------------------------------------------------------------------------
# pool tasks (top level: picklable by name)
# ---------------------------------------------------------------------------


def sleep_task(seconds):
    time.sleep(seconds)
    return {"status": "ok", "slept": seconds}


def first_try_fails(attempt):
    if attempt == 1:
        return {"status": "failed", "taxonomy": "io", "message": "flaky"}
    return {"status": "ok"}


def die_task(seconds):
    """Kill the worker process after ``seconds``."""
    time.sleep(seconds)
    os._exit(17)


def run_concurrently(pool, jobs, delays=None):
    """Run ``{key: (task, seconds)}`` on ``pool`` from one thread per
    key; -> (outcomes, flights) with every attempt's (key, attempt
    number, start, end) as the parent saw it."""
    outcomes, flights = {}, []
    lock = threading.Lock()

    def run(key, task, seconds):
        time.sleep((delays or {}).get(key, 0.0))

        def attempt(number):
            start = time.monotonic()
            result = pool.submit(task, seconds)
            with lock:
                flights.append((key, number, start, time.monotonic()))
            return result

        outcomes[key] = pool.run(key, attempt)

    threads = [threading.Thread(target=run, args=(key, *job))
               for key, job in jobs.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    return outcomes, flights


class TestClassifyError:
    def test_taxonomy_mapping(self):
        assert classify_error(ConfigError("x")) == "config"
        assert classify_error(SpiceConvergenceError("x")) == \
            "convergence"
        assert classify_error(RepairExhausted("x")) == \
            "repair_exhausted"
        assert classify_error(ReproError("x")) == "repro"
        assert classify_error(KeyError("x")) == "unexpected"

    def test_timeout_wins_over_io(self):
        """TimeoutError subclasses OSError since 3.10; the taxonomy
        must classify it as a timeout, not generic io."""
        assert classify_error(TimeoutError("x")) == "timeout"
        assert classify_error(OSError("x")) == "io"


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(crash_retries=-1)


class TestCrashBlame:
    def test_suspects_within_budget_refly(self):
        blame = CrashBlame(crash_retries=1)
        quarantined, suspects = blame.accuse(["a", "b"])
        assert quarantined == []
        assert suspects == ["a", "b"]
        assert blame.crashes("a") == 1
        assert not blame.is_quarantined("a")

    def test_budget_exceeded_quarantines(self):
        blame = CrashBlame(crash_retries=1)
        blame.accuse(["a"])
        quarantined, suspects = blame.accuse(["a"])
        assert quarantined == ["a"]
        assert suspects == []
        assert blame.is_quarantined("a")
        assert blame.quarantined == frozenset(["a"])

    def test_zero_budget_quarantines_on_first_crash(self):
        blame = CrashBlame(crash_retries=0)
        quarantined, _ = blame.accuse(["a"])
        assert quarantined == ["a"]


class TestTerminatePool:
    def test_none_is_a_no_op(self):
        terminate_pool(None)

    def test_terminates_live_workers(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(sum, (1, 2)).result()  # force a worker to spawn
        processes = list(pool._processes.values())
        terminate_pool(pool)
        for process in processes:
            process.join(timeout=10.0)
            assert not process.is_alive()


class TestSupervisedPool:
    def test_deadline_starts_when_a_task_takes_a_slot(self):
        """workers=1: the second caller waits for the slot, and that
        wait is not charged against its deadline."""
        pool = SupervisedPool(1, RetryPolicy(max_attempts=1),
                              deadline_s=1.0)
        try:
            outcomes, flights = run_concurrently(
                pool, {"a": (sleep_task, 0.6), "b": (sleep_task, 0.6)})
        finally:
            pool.close()
        assert {k: o.status for k, o in outcomes.items()} == \
            {"a": "ok", "b": "ok"}
        assert pool.stats.timeouts == 0
        first, second = sorted(flights, key=lambda f: f[2])
        assert second[2] >= first[3] - 0.05  # one slot: never overlapped

    def test_crash_suspects_refly_alone_and_a_killer_is_quarantined(self):
        pool = SupervisedPool(2, RetryPolicy(crash_retries=1,
                                             backoff_base=0.0))
        try:
            outcomes, flights = run_concurrently(
                pool, {"killer": (die_task, 0.3),
                       "bystander": (sleep_task, 0.8)})
            # Quarantine is sticky: no further dispatch happens.
            again = pool.run("killer", lambda n: pytest.fail("dispatched"))
        finally:
            pool.close()
        killer, bystander = outcomes["killer"], outcomes["bystander"]
        assert killer.status == "quarantined" and killer.crashes == 2
        assert killer.payload["taxonomy"] == "crash"
        assert bystander.status == "ok" and bystander.attempts == 1
        assert again.status == "quarantined"
        assert pool.quarantined == frozenset(["killer"])
        assert pool.stats.crashes == 2
        assert pool.stats.quarantined == 1
        # The first flights overlapped; every reflight after the crash
        # flew alone.
        flights.sort(key=lambda f: f[2])
        assert flights[1][2] < flights[0][3]
        reflights = flights[2:]
        assert len(reflights) == 2
        assert reflights[1][2] >= reflights[0][3] - 0.05
        # Crash reflights re-use the attempt number: they cost nothing.
        assert [f[1] for f in flights] == [1, 1, 1, 1]

    def test_innocent_requeue_keeps_its_attempt_count(self):
        """A bystander whose pool another task's deadline tore down
        re-runs without spending one of its max_attempts=1."""
        pool = SupervisedPool(2, RetryPolicy(max_attempts=1),
                              deadline_s=1.5)
        try:
            outcomes, flights = run_concurrently(
                pool, {"hung": (sleep_task, 30.0),
                       "bystander": (sleep_task, 1.2)},
                delays={"bystander": 0.5})
        finally:
            pool.close()
        hung, bystander = outcomes["hung"], outcomes["bystander"]
        assert hung.status == "failed"
        assert hung.payload["taxonomy"] == "timeout"
        assert "wall-clock" in hung.payload["message"]
        assert bystander.status == "ok" and bystander.attempts == 1
        assert [f[1] for f in flights if f[0] == "bystander"] == [1, 1]
        assert pool.stats.timeouts == 1
        assert pool.stats.innocent_requeues == 1
        assert pool.stats.crashes == 0

    def test_closed_pool_refuses_work(self):
        pool = SupervisedPool(1, RetryPolicy())
        pool.close()
        with pytest.raises(ServiceUnavailable, match="shut down"):
            pool.run("k", lambda n: pool.submit(sleep_task, 0.0))

    def test_many_threads_share_few_slots(self):
        """More callers and workers than cores, with frequent thread
        switches: never more than ``workers`` flights at once, and no
        lost counter update."""
        pool = SupervisedPool(4, RetryPolicy(backoff_base=0.0))
        in_flight, peak, outcomes = [0], [0], []
        lock = threading.Lock()

        def attempt(number):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                return pool.submit(first_try_fails, number)
            finally:
                with lock:
                    in_flight[0] -= 1

        def caller(key):
            outcomes.append(pool.run(key, attempt))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(key,))
                       for key in range(24)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert len(outcomes) == 24
        assert all(o.status == "ok" and o.attempts == 2 for o in outcomes)
        assert 1 <= peak[0] <= 4
        assert pool.stats.retries == 24
