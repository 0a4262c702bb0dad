"""Power-loss durability helpers and the one durable JSON-lines log.

An ``fsync`` on a file makes its *bytes* durable; it does not make the
file's *directory entry* durable.  After an atomic
``tmp -> final`` rename, a power cut can therefore still lose the file
(the data blocks survive, the name does not) unless the parent
directory is fsynced too.  Every atomic-publish site in the repo — the
artifact store, the HA lease, and :class:`JsonlLog` behind the
campaign checkpoint journal and the service WAL — funnels through
:func:`fsync_dir` after its rename.

:class:`JsonlLog` is the append-only format both of those logs share:
a versioned header line, then one JSON record per line, each appended
and fsynced whole.  A kill can only tear the *final* line, so a load
forgives an unterminated tail and refuses damage anywhere earlier —
that would mean the file was edited, not interrupted.

Must stay import-light (stdlib plus :mod:`repro.core.errors`): it is
pulled in from the lowest layers.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ConfigError


def fsync_dir(path) -> None:
    """fsync a directory so renames/creates inside it survive power
    loss.

    Best-effort: platforms (and some filesystems) that cannot open a
    directory for reading simply skip the sync — the rename is still
    atomic, only its crash-durability window widens, which is the
    pre-existing behaviour everywhere this helper is called.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_file(handle) -> None:
    """Flush + fsync an open file handle (bytes, not directory entry)."""
    handle.flush()
    os.fsync(handle.fileno())


def replace_atomically(path, text: str) -> None:
    """Replace ``path`` with ``text`` so a crash leaves the old file or
    the new one, never a mix: write a sibling ``.tmp``, fsync it,
    rename it over ``path``, then fsync the directory."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        fsync_file(handle)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def _line(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class JsonlLog:
    """An append-only JSON-lines file with a versioned header.

    Line 1 is ``{"type": "header", "version": N, ...}``; every later
    line is one record whose ``type`` is one of ``types``.  A line
    counts once its newline is on disk, so an unterminated final line
    is the record a kill interrupted: :meth:`load` ignores it and
    :meth:`reopen` cuts it off before appending.  Any complete line
    that is not valid UTF-8 JSON, or is a record of an unknown type,
    raises :class:`~repro.core.errors.ConfigError`.

    Args:
        path: the log file.
        version: the header version this code reads and writes.
        label: what the file is called in error messages.
        types: the record types the schema on top knows.

    Thread-safe: appends and rewrites are serialised by one lock.
    """

    def __init__(self, path, version: int, label: str,
                 types: Tuple[str, ...]) -> None:
        self.path = Path(path)
        self.version = version
        self.label = label
        self.types = types
        self._handle = None
        self._lock = threading.Lock()
        self._end: Optional[int] = None  # bytes of the lines load() kept

    def load(self) -> Optional[Tuple[dict, List[dict]]]:
        """Parse the file; -> ``(header, records)``, or ``None`` when
        it holds no complete header line (empty, or torn mid-header)."""
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        self._end = len(data) - len(lines.pop())  # drop the torn tail
        if not lines:
            return None
        header = self._parse(lines[0], 1)
        if not isinstance(header, dict) or header.get("type") != "header":
            raise ConfigError(
                f"{self.label} {self.path} does not start with a header")
        if header.get("version") != self.version:
            raise ConfigError(
                f"{self.label} {self.path} is version "
                f"{header.get('version')!r}; this code reads version "
                f"{self.version}")
        records = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = self._parse(line, lineno)
            kind = record.get("type") if isinstance(record, dict) else None
            if kind not in self.types:
                raise ConfigError(
                    f"{self.label} {self.path} has an unknown record "
                    f"type {kind!r} at line {lineno}")
            records.append(record)
        return header, records

    def _parse(self, line: bytes, lineno: int):
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError:  # bad UTF-8 or bad JSON
            raise ConfigError(
                f"{self.label} {self.path} is corrupt at line {lineno} "
                f"(not a torn tail; refusing to guess)") from None

    def rewrite(self, records: Iterable[Mapping] = (), **header) -> None:
        """Atomically replace the file with a fresh header (plus
        ``header`` fields) and ``records``; then open it for appends."""
        text = _line({"type": "header", "version": self.version, **header})
        text += "".join(_line(record) for record in records)
        with self._lock:
            self._close_locked()
            replace_atomically(self.path, text)
            self._handle = open(self.path, "a", encoding="utf-8")

    def reopen(self) -> None:
        """Open for appends after :meth:`load`, cutting off the torn
        tail it ignored so the next record starts on a fresh line."""
        with self._lock:
            if self.path.stat().st_size > self._end:
                os.truncate(self.path, self._end)
            self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Mapping) -> None:
        """Append one record (after :meth:`rewrite` or :meth:`reopen`);
        durable once this returns."""
        with self._lock:
            self._handle.write(_line(record))
            fsync_file(self._handle)

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def _close_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
