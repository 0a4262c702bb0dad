"""Named counters: the one stats type of the service and runtime tiers.

The supervised pool, the build backend, the artifact store, the macro
server and the stage cache each count events (hits, retries, crashes,
sheds...).  They all use :class:`Counters`: a fixed set of names
declared up front, bumped under one lock, read as attributes
(``store.stats.hits``) and serialised with :meth:`Counters.to_dict`.
"""

from __future__ import annotations

import threading


class Counters:
    """Thread-safe integer counters with names fixed at construction.

    Reads are plain attribute reads; :meth:`add` is the only way to
    change a value, so a misspelt name fails loudly instead of quietly
    starting a new counter.
    """

    def __init__(self, *names: str) -> None:
        self._names = names
        self._lock = threading.Lock()
        for name in names:
            if name.startswith("_") or hasattr(Counters, name):
                raise ValueError(f"invalid counter name {name!r}")
            setattr(self, name, 0)

    def add(self, name: str, count: int = 1) -> None:
        if name not in self._names:
            raise KeyError(f"undeclared counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def to_dict(self) -> dict:
        """The counters in declaration order, read under the lock."""
        with self._lock:
            return {name: getattr(self, name) for name in self._names}

    def reset(self) -> None:
        with self._lock:
            for name in self._names:
                setattr(self, name, 0)

    def snapshot(self, **derived) -> "Counters":
        """A detached copy with ``derived`` values (a footprint, a
        ratio) appended after the counters; its reads never change."""
        values = dict(self.to_dict(), **derived)
        copy = Counters(*values)
        copy.__dict__.update(values)
        return copy


def hit_rate(hits: int, misses: int) -> float:
    """Hits over lookups, rounded for reports; 0.0 before any lookup."""
    total = hits + misses
    return round(hits / total, 4) if total else 0.0
