"""High-availability primitives: the liveness lease.

Warm-standby failover needs exactly one piece of shared truth: *who is
the primary right now?*  The lease file answers it with the same
file-based, crash-tolerant discipline as the artifact store's claim
files — in fact it shares their liveness logic
(:mod:`repro.core.liveness`), so a recycled pid cannot impersonate a
dead primary here either.

The lease is one small JSON document, always rewritten whole via
tmp + ``os.replace`` + directory fsync (readers never observe a torn
record)::

    {"pid": 1234, "host": "buildbox", "start": 8891021,
     "time": 1722e9, "epoch": 7, "state": "active"}

* ``(pid, host, start)`` is the holder's robust identity.
* ``time`` is the last heartbeat wall-clock; a record older than the
  TTL is **expired** even if the pid looks alive (the primary may be
  wedged — a heartbeat it cannot write is a lease it cannot keep).
* ``epoch`` increments on every acquisition, so stats and logs can
  tell the third primary from the first.
* ``state: released`` is the cooperative path: a draining primary
  writes it after fsyncing WAL + store, and the standby may promote
  immediately instead of waiting out the TTL.

Failure modes and their outcomes:

=====================  ==================================================
primary fate           standby's view
=====================  ==================================================
clean drain            ``state: released`` → promote immediately
SIGKILL                heartbeats stop → TTL expiry → promote
pid recycled           ``same_process`` false → expired → promote
wedged (alive, stuck)  heartbeats stop → TTL expiry → promote; the old
                       primary notices its own failed heartbeat and
                       self-demotes to draining (split-brain guard)
=====================  ==================================================
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Optional

from repro.core.durability import fsync_dir, replace_atomically
from repro.core.errors import ConfigError
from repro.core.liveness import process_start_time, same_process


class Lease:
    """A single-holder liveness lease backed by one JSON file.

    Args:
        path: the lease file; its directory must exist.
        ttl_s: staleness horizon — a record whose last heartbeat is
            older than this is expired regardless of pid liveness.

    Not thread-safe by itself; the server serialises access under its
    own lock (heartbeat thread vs drain vs stats).
    """

    def __init__(self, path, ttl_s: float = 10.0) -> None:
        if ttl_s <= 0:
            raise ConfigError("lease ttl_s must be positive")
        self.path = Path(path)
        self.ttl_s = ttl_s
        self._epoch: Optional[int] = None  # set while we hold it

    # -- reading ------------------------------------------------------------

    def read(self) -> Optional[dict]:
        """The current record, or None (absent / torn / unparsable —
        all equivalent to 'no one holds it' for expiry purposes)."""
        try:
            record = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def expired(self, record: Optional[dict] = None) -> bool:
        """Whether the lease is up for grabs.

        True for: no record, a released record, a heartbeat older than
        the TTL, or a local holder whose ``(pid, start)`` no longer
        names a live process (dead or recycled).  A *remote* holder is
        judged by heartbeat age alone — pids don't travel.
        """
        if record is None:
            record = self.read()
        if record is None:
            return True
        if record.get("state") == "released":
            return True
        if time.time() - record.get("time", 0.0) > self.ttl_s:
            return True
        pid = record.get("pid")
        if (record.get("host") == socket.gethostname()
                and isinstance(pid, int)
                and not same_process(pid, record.get("start"))):
            return True
        return False

    def owned(self, record: Optional[dict] = None) -> bool:
        """Whether *this process* holds the lease right now."""
        if record is None:
            record = self.read()
        return (record is not None
                and record.get("state") == "active"
                and record.get("pid") == os.getpid()
                and record.get("host") == socket.gethostname()
                and record.get("start")
                == process_start_time(os.getpid()))

    @property
    def epoch(self) -> Optional[int]:
        """The epoch we acquired under, or None when not holding."""
        return self._epoch

    def describe(self) -> dict:
        """JSON-serializable snapshot for ``/stats``."""
        record = self.read()
        return {
            "path": str(self.path),
            "ttl_s": self.ttl_s,
            "held_by_us": self.owned(record),
            "expired": self.expired(record),
            "epoch": (record or {}).get("epoch"),
            "state": (record or {}).get("state"),
            "holder_pid": (record or {}).get("pid"),
        }

    # -- holding ------------------------------------------------------------

    def acquire(self) -> bool:
        """Take the lease if it is free, expired, or already ours.

        Returns False when a live holder exists — the caller must not
        start a second primary against the same store.
        """
        record = self.read()
        if record is not None and not self.expired(record) \
                and not self.owned(record):
            return False
        epoch = ((record or {}).get("epoch") or 0) + 1
        self._write(self._record(epoch, "active"))
        self._epoch = epoch
        return True

    def heartbeat(self) -> bool:
        """Refresh our heartbeat; False when the lease slipped away.

        A False return is the split-brain guard firing: someone else
        acquired the lease (we were presumed dead), or the file was
        replaced.  The caller must stop acting as primary.
        """
        record = self.read()
        if not self.owned(record):
            self._epoch = None
            return False
        self._write(self._record(record["epoch"], "active"))
        return True

    def release(self, handoff: bool = True) -> None:
        """Give the lease up cooperatively.

        ``handoff=True`` writes ``state: released`` so a watching
        standby promotes immediately; ``handoff=False`` deletes the
        file outright.  A no-op when we do not hold it (never clobber
        a successor's record).
        """
        record = self.read()
        if not self.owned(record):
            self._epoch = None
            return
        if handoff:
            self._write(self._record(record["epoch"], "released"))
        else:
            try:
                self.path.unlink()
            except OSError:
                pass
            fsync_dir(self.path.parent)
        self._epoch = None

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _record(epoch: int, state: str) -> dict:
        pid = os.getpid()
        return {
            "pid": pid,
            "host": socket.gethostname(),
            "start": process_start_time(pid),
            "time": time.time(),
            "epoch": epoch,
            "state": state,
        }

    def _write(self, record: dict) -> None:
        replace_atomically(self.path, json.dumps(record, sort_keys=True))
