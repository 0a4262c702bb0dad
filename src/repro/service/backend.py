"""The supervised process-pool build backend of the macro server.

The thread-pool server (PR 4) executes builds on threads, so every
concurrent compile fights the GIL and a worker that dies, hangs, or
corrupts an artifact mid-publish takes the process (or the truth) with
it.  This backend moves builds onto supervised *worker processes*:
one :class:`~repro.runtime.supervision.SupervisedPool` call per build
(the pool the campaign runner uses too), plus the store read-back and
typed-error reconstruction:

* **Per-request deadlines** — a hung worker cannot be joined; past its
  deadline the pool is terminated and the request retried (innocent
  co-flighted builds are re-dispatched without blame or attempt cost).
  The clock starts when the build takes a pool slot, not while it
  waits for one.
* **Bounded-backoff retry** — transient failures re-fly up to
  ``RetryPolicy.max_attempts`` with exponential backoff; ``config``
  and ``signoff`` failures are deterministic and never retry.
* **Solo-reflight crash blame** — when a worker dies, every in-flight
  request is a suspect; suspects re-fly strictly alone so the next
  death identifies its killer, and a request that exceeds its crash
  budget is **quarantined** as a poison config
  (:class:`~repro.core.errors.BuildCrashed`, raised fast on every
  later attempt).
* **Store-mediated results** — workers *publish to the artifact
  store* and return only a status; the parent then serves the
  integrity-checked bytes from disk.  Megabytes never cross the pickle
  boundary, and a torn or corrupt publish is detected (and rebuilt)
  instead of served.
* **Cross-process single-flight** — per-digest claim files in the
  store (``O_EXCL``; stale claims from dead builders are broken and
  adopted) mean N servers sharing one store still build each bundle
  once.

Deterministic fault injection for all of the above is plumbed through
``chaos``: an object with ``spec_for(key, attempt) -> Optional[dict]``
(see :mod:`repro.service.chaos`) whose spec rides into the worker and
fires at named points.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bist.march import IFA_9, MarchTest
from repro.core.config import RamConfig
from repro.core.errors import (
    BuildCrashed,
    ConfigError,
    ReproError,
    SignoffError,
)
from repro.runtime.supervision import (
    PoolStats,
    RetryPolicy,
    SupervisedPool,
    classify_error,
)
from repro.service.bundle import build_bundle
from repro.service.store import ArtifactStore


# ---------------------------------------------------------------------------
# the worker side (top level: pickled by name)
# ---------------------------------------------------------------------------

_STAGE_CACHE = None


def _worker_stage_cache():
    """One StageCache per worker process, reused across its builds."""
    global _STAGE_CACHE
    if _STAGE_CACHE is None:
        from repro.core.stages import StageCache

        _STAGE_CACHE = StageCache()
    return _STAGE_CACHE


def build_in_worker(
    store_root: str,
    byte_budget: Optional[int],
    config_dict: dict,
    march: MarchTest,
    signoff: Optional[str],
    key: str,
    attempt: int,
    chaos_spec: Optional[dict],
    claim_stale_s: float,
    claim_poll_s: float,
    wait_timeout_s: float,
) -> dict:
    """Build (or await) one bundle inside a worker process.

    Returns a small status payload — never artifact bytes; the parent
    reads those from the store with integrity checks.  Anticipated
    failures return (never raise) so typed details survive the pickle
    boundary: the :class:`SupervisedPool` worker contract.
    """
    try:
        if chaos_spec is not None:
            from repro.service.chaos import apply_chaos

            apply_chaos("spawn", chaos_spec, None, key)
        store = ArtifactStore(store_root, byte_budget=byte_budget)
        if store.contains(key) and store.verify(key):
            return {"status": "ok", "source": "store"}
        config = RamConfig.from_dict(config_dict)

        # Cross-process single-flight: one claim holder builds, the
        # rest wait for its publish (and adopt the claim if it dies).
        deadline = time.monotonic() + wait_timeout_s
        claimed = store.try_claim(key, stale_s=claim_stale_s)
        while not claimed:
            if store.contains(key) and store.verify(key):
                return {"status": "ok", "source": "waited"}
            if time.monotonic() > deadline:
                return {
                    "status": "failed", "taxonomy": "timeout",
                    "message": (
                        "timed out waiting for the claim holder "
                        f"of {key[:16]} to publish"),
                }
            time.sleep(claim_poll_s)
            claimed = store.try_claim(key, stale_s=claim_stale_s)
        try:
            # The claim may have been won only after the previous
            # holder published and released.
            if store.contains(key) and store.verify(key):
                return {"status": "ok", "source": "store"}
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("pre_build", chaos_spec, store, key)
            bundle = build_bundle(config, march, signoff=signoff,
                                  stage_cache=_worker_stage_cache())
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("pre_publish", chaos_spec, store, key)
                if apply_chaos("publish", chaos_spec, store, key,
                               bundle=bundle):
                    return {"status": "ok", "source": "built"}
            store.put(key, bundle)
            if chaos_spec is not None:
                from repro.service.chaos import apply_chaos

                apply_chaos("post_publish", chaos_spec, store, key)
            return {"status": "ok", "source": "built"}
        finally:
            store.release_claim(key)
    except SignoffError as error:
        return {
            "status": "failed", "taxonomy": "signoff",
            "message": str(error), "report": error.report,
            "failure_class": error.failure_class,
        }
    except Exception as error:
        return {
            "status": "failed", "taxonomy": classify_error(error),
            "message": f"{type(error).__name__}: {error}",
        }


# ---------------------------------------------------------------------------
# results and stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildResult:
    """What :meth:`ProcessPoolBackend.build` hands the server."""

    artifacts: Dict[str, bytes]
    cached: bool
    elapsed_s: float
    source: str  # "store" | "waited" | "built"
    attempts: int


@dataclass
class BackendStats(PoolStats):
    """JSON-serializable counters for one backend instance: the pool's
    supervision counters plus the backend's own."""

    builds: int = 0
    store_hits: int = 0
    post_build_misses: int = 0


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class ProcessPoolBackend:
    """Supervised multi-process build executor (see module docstring).

    Args:
        store: the shared :class:`ArtifactStore` — mandatory, because
            workers return results *through* it.
        workers: worker processes.
        deadline_s: per-attempt wall-clock budget for one build.
        retry: bounded-retry/backoff/quarantine policy (the
            :class:`~repro.runtime.supervision.RetryPolicy` shared
            with the campaign runner).
        chaos: optional deterministic fault injector — an object with
            ``spec_for(key, attempt) -> Optional[dict]``.
        claim_stale_s: age past which another process's claim file is
            presumed abandoned (its holder is also declared dead the
            moment its pid vanishes).  Defaults to ``2 * deadline_s``.
        poll_s: claim-wait poll interval inside workers.
    """

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        deadline_s: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        claim_stale_s: Optional[float] = None,
        poll_s: float = 0.02,
    ) -> None:
        if store is None:
            raise ConfigError(
                "the process-pool backend needs an artifact store: "
                "workers publish results through it")
        if deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")
        self.store = store
        self.workers = workers
        self.deadline_s = deadline_s
        self.retry = retry or RetryPolicy()
        self.chaos = chaos
        self.claim_stale_s = claim_stale_s if claim_stale_s is not None \
            else max(2.0 * deadline_s, 10.0)
        self.poll_s = poll_s
        self.stats = BackendStats()
        self._pool = SupervisedPool(workers, self.retry, deadline_s,
                                    stats=self.stats)

    # -- public API ---------------------------------------------------------

    def build(self, key: str, config: RamConfig,
              march: MarchTest = IFA_9,
              signoff: Optional[str] = None) -> BuildResult:
        """Execute one build under full supervision; thread-safe.

        Raises:
            BuildCrashed: the request was quarantined as a poison
                config (it kept killing workers).
            ConfigError / SignoffError: deterministic failures,
                reconstructed from the worker payload, never retried.
            ReproError: retries exhausted (taxonomy in the message).
            ServiceUnavailable: the backend is shut down.
        """
        t0 = time.monotonic()

        def attempt(number: int):
            outcome, payload = self._dispatch(key, config, march, signoff,
                                              number)
            if outcome != "ok":
                return outcome, payload
            artifacts = self.store.get(key)
            if artifacts is None:
                # Published, then lost before we could read it back
                # (eviction race, torn disk): a retryable failure.
                self.stats.add("post_build_misses")
                return "failed", {
                    "taxonomy": "store_miss",
                    "message": "bundle vanished between publish and "
                               "read-back (evicted or torn)"}
            return "ok", dict(payload, artifacts=artifacts)

        task = self._pool.run(key, attempt)
        payload = task.payload
        if task.status == "quarantined":
            raise BuildCrashed(
                f"request {key[:16]} killed {task.crashes} worker(s) and "
                f"is quarantined as a poison config",
                key=key, crashes=task.crashes)
        if task.status == "failed":
            if payload["taxonomy"] == "config":
                raise ConfigError(payload["message"])
            if payload["taxonomy"] == "signoff":
                raise SignoffError(
                    payload["message"], report=payload.get("report"),
                    failure_class=payload.get("failure_class", ""))
            raise ReproError(
                f"build of {key[:16]} failed after {task.attempts} "
                f"attempt(s) [{payload['taxonomy']}]: {payload['message']}")
        built = payload["source"] == "built"
        self.stats.add("builds" if built else "store_hits")
        return BuildResult(
            artifacts=payload["artifacts"],
            cached=not built,
            elapsed_s=time.monotonic() - t0,
            source=payload["source"],
            attempts=task.attempts,
        )

    def shutdown(self) -> None:
        """Stop the pool; subsequent builds raise ServiceUnavailable."""
        self._pool.close()

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def quarantined_keys(self) -> frozenset:
        return self._pool.quarantined

    def worker_pids(self) -> tuple:
        """Pids of the current pool generation's worker processes.

        For the resource governor's RSS probe; empty between
        generations or before the first dispatch.
        """
        return self._pool.worker_pids()

    def stats_dict(self) -> dict:
        return dict(self.stats.to_dict(), workers=self.workers,
                    quarantined=len(self._pool.quarantined))

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, key, config, march, signoff, attempt):
        """One attempt on the pool; returns (outcome, payload)."""
        chaos_spec = (self.chaos.spec_for(key, attempt)
                      if self.chaos is not None else None)
        return self._pool.submit(
            build_in_worker,
            os.fspath(self.store.root), self.store.byte_budget,
            config.to_dict(), march, signoff, key, attempt,
            chaos_spec, self.claim_stale_s, self.poll_s, self.deadline_s,
        )
