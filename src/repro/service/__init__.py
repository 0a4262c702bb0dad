"""Compile-as-a-service: store, bundles, and the macro server.

* :mod:`~repro.service.store` — content-addressed on-disk artifact
  store with atomic publish, integrity-checked reads, and LRU
  eviction under a byte budget,
* :mod:`~repro.service.bundle` — bundle keys (the canonical digest
  over config + march + rule deck + signoff policy) and the shared
  cached-compile path,
* :mod:`~repro.service.server` — the concurrent macro server:
  thread-pool builds, single-flight dedup, bounded-queue
  backpressure, latency metrics, graceful drain,
* :mod:`~repro.service.backend` — the supervised multi-process build
  backend: per-request deadlines, crash blame and quarantine,
  claim-file cross-process single-flight,
* :mod:`~repro.service.wal` — the request-lifecycle write-ahead log
  that lets a killed server replay unfinished requests on restart,
* :mod:`~repro.service.ha` — the liveness lease behind warm-standby
  failover (acquire / heartbeat / release-with-handoff),
* :mod:`~repro.service.governor` — resource-pressure admission
  control (shed before ENOSPC/OOM, read-only degraded mode),
* :mod:`~repro.service.chaos` — deterministic fault injection and
  the recovery scenarios behind ``repro chaos``,
* :mod:`~repro.service.http` — the stdlib HTTP front-end behind
  ``repro serve`` and the matching :class:`ServiceClient`.
"""

from repro.service.bundle import (
    CORE_ARTIFACTS,
    build_bundle,
    bundle_key,
    compile_cached,
    render_bundle,
)
from repro.service.server import (
    CompileResponse,
    MacroServer,
    latency_summary,
    percentile,
)
from repro.service.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "bundle_key",
    "build_bundle",
    "render_bundle",
    "compile_cached",
    "CORE_ARTIFACTS",
    "MacroServer",
    "CompileResponse",
    "latency_summary",
    "percentile",
    "ServiceClient",
    "make_http_server",
    "serve_forever_in_thread",
    "ProcessPoolBackend",
    "BuildResult",
    "RequestLog",
    "Lease",
    "ResourceGovernor",
    "ChaosPlan",
    "ChaosSpec",
    "run_scenario",
    "run_scenarios",
]

#: Lazily imported names -> home module (keeps
#: `from repro.service import ArtifactStore` light: http pulls in the
#: march registry + HTTP stack, backend pulls in multiprocessing,
#: chaos pulls in both).
_LAZY = {
    "ServiceClient": "repro.service.http",
    "make_http_server": "repro.service.http",
    "serve_forever_in_thread": "repro.service.http",
    "ProcessPoolBackend": "repro.service.backend",
    "BuildResult": "repro.service.backend",
    "RequestLog": "repro.service.wal",
    "Lease": "repro.service.ha",
    "ResourceGovernor": "repro.service.governor",
    "ChaosPlan": "repro.service.chaos",
    "ChaosSpec": "repro.service.chaos",
    "run_scenario": "repro.service.chaos",
    "run_scenarios": "repro.service.chaos",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
