"""Request-lifecycle write-ahead log for the macro server.

A server that is SIGKILLed mid-build loses its queue.  The artifact
store already guarantees no *corrupt* result survives, but the killed
requests themselves would simply vanish — a client that fire-and-forgot
a warm-up sweep, or a replicated front-end that acked admission, has
lost work.  The WAL closes that hole as a record schema on the same
:class:`~repro.core.durability.JsonlLog` as the campaign
:class:`~repro.runtime.journal.CheckpointJournal`:

* An ``admit`` record — the full request (bundle key, canonical config
  dict, march name + notation, signoff policy) — is appended and
  **fsynced before the build is dispatched**, so an admitted request is
  durable by the time any work happens.
* A ``done`` record retires it on completion (``ok`` / ``failed``);
  deterministic failures are done too — replaying a config error
  forever would be a crash loop, not recovery.
* On restart, :meth:`RequestLog.open` replays the file — forgiving a
  torn *final* line (the record a kill interrupted mid-append),
  refusing corruption anywhere earlier — and returns every admitted-
  but-not-done request for the server to re-execute.  Replay is
  idempotent by construction: requests are content-addressed, so a
  build that actually published before the crash becomes a store hit.
* The file is **compacted** on open and periodically afterwards
  (rewritten atomically with only the still-pending admits, then
  directory-fsynced), so the log tracks the in-flight set instead of
  growing with traffic.

The format is deliberately self-contained: a WAL can be replayed by a
*different* server process pointed at the same store, which is exactly
what the chaos harness's kill-and-restart scenario does.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.durability import JsonlLog
from repro.core.errors import ConfigError

WAL_VERSION = 1

#: ``done`` records absorbed since the last compaction before the log
#: is rewritten.  Chosen so steady-state traffic compacts a few times a
#: minute at worst while a burst never grows the file unboundedly.
COMPACT_EVERY = 256


class RequestLog:
    """One macro server's write-ahead log of admitted requests.

    Usage::

        wal = RequestLog(path)
        pending = wal.open()          # replayable requests, oldest first
        rid = wal.admit(key=..., config=..., march_name=...,
                        march_notation=..., signoff=...)
        ...build...
        wal.done(rid, "ok")
        wal.close()

    Thread-safe: the server appends from many request threads.
    """

    def __init__(self, path) -> None:
        self._log = JsonlLog(path, WAL_VERSION, "request log",
                             types=("admit", "done"))
        self.path = self._log.path
        self._lock = threading.Lock()
        self._pending: Dict[str, dict] = {}
        self._sequence = 0
        self._finished_since_compact = 0

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> List[dict]:
        """Load (or create) the log; return pending admits, oldest
        first, and compact the file down to exactly those."""
        with self._lock:
            if self._log.is_open:
                raise ConfigError("request log is already open")
            if self.path.exists():
                self._load()
            self._compact_locked()
            return list(self._pending.values())

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "RequestLog":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request lifecycle ----------------------------------------------

    def admit(self, key: str, config: dict, march_name: str,
              march_notation: str,
              signoff: Optional[str] = None) -> str:
        """Record one admitted request; durable once this returns."""
        with self._lock:
            if not self._log.is_open:
                raise ConfigError("admit() before open()")
            self._sequence += 1
            record = {
                "type": "admit",
                "id": f"r{self._sequence:08d}",
                "key": key,
                "config": dict(config),
                "march_name": march_name,
                "march_notation": march_notation,
                "signoff": signoff,
            }
            self._log.append(record)
            self._pending[record["id"]] = {
                k: v for k, v in record.items() if k != "type"}
            return record["id"]

    def done(self, request_id: str, status: str = "ok") -> None:
        """Retire one admitted request (idempotent for unknown ids —
        e.g. a replayed request that was also compacted away)."""
        if status not in ("ok", "failed"):
            raise ConfigError(
                f"done status must be 'ok' or 'failed', got {status!r}")
        with self._lock:
            if not self._log.is_open:
                raise ConfigError("done() before open()")
            if request_id not in self._pending:
                return
            self._log.append({"type": "done", "id": request_id,
                              "status": status})
            del self._pending[request_id]
            self._finished_since_compact += 1
            if self._finished_since_compact >= COMPACT_EVERY:
                self._compact_locked()

    def pending(self) -> List[dict]:
        """Still-admitted requests, oldest first."""
        with self._lock:
            return list(self._pending.values())

    @property
    def is_open(self) -> bool:
        """Whether this log currently owns its file handle.

        A warm standby carries an *unopened* RequestLog until it
        promotes — the primary owns the file until then — so drain and
        stats paths must be able to ask before touching it.
        """
        with self._lock:
            return self._log.is_open

    def compact(self) -> None:
        """Rewrite the file down to the header + pending admits.

        Refused before :meth:`open`: compacting an unloaded log would
        rewrite the file from an *empty* pending set, destroying a
        live primary's journal out from under it.
        """
        with self._lock:
            if not self._log.is_open:
                raise ConfigError("compact() before open()")
            self._compact_locked()

    # -- internals ----------------------------------------------------------

    def _load(self) -> None:
        """Replay an existing log into ``self._pending``; a file torn
        mid-header is a fresh log that died before its first admit."""
        loaded = self._log.load()
        if loaded is None:
            return
        for record in loaded[1]:
            rid = record.get("id")
            if not isinstance(rid, str):
                raise ConfigError(
                    f"request log {self.path} has a {record['type']} "
                    f"record without a string id: {rid!r}")
            if record["type"] == "admit":
                self._pending[rid] = {
                    k: v for k, v in record.items() if k != "type"}
                self._sequence = max(self._sequence,
                                     self._sequence_of(rid))
            else:
                self._pending.pop(rid, None)

    @staticmethod
    def _sequence_of(rid: str) -> int:
        try:
            return int(rid.lstrip("r"))
        except ValueError:
            return 0

    def _compact_locked(self) -> None:
        self._log.rewrite({"type": "admit", **record}
                          for record in self._pending.values())
        self._finished_since_compact = 0
