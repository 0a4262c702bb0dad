"""The translation lookaside buffer (TLB) of the BISR circuit.

"The faulty row addresses detected by BIST are stored in a translation
lookaside buffer (TLB).  This circuit uses an innovative design that
associates a sequence of faulty addresses with a unique, predetermined,
strictly increasing sequence of redundant addresses. ... In the second
pass, the incoming address is compared in parallel with all the stored
addresses in the TLB.  If a match is found, then an address diversion
occurs to a redundant location. ... The strictly increasing sequence of
redundant addresses guarantees that provided enough spares are
available, any faulty (nonspare or spare) row can be replaced."

The model is entry-accurate: entries are CAM rows; ``record`` assigns
spares strictly in increasing order; re-recording a still-faulty row
(because its assigned spare turned out faulty in a later pass) advances
it to the next spare — which is how iterated 2k-pass repair fixes
faults *within* the spares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class TlbEntry:
    """One CAM row: a faulty row address mapped to a spare index."""

    row: int
    spare: int


class SpareSequence:
    """Faulty resources mapped onto a strictly increasing spare sequence.

    The TLB (rows) and the column steer (bit lines) are both this
    register file.  A subclass names its entry type, built as
    ``entry_type(key, spare)``, and range-checks keys in ``_check``.
    """

    entry_type: type

    def __init__(self, spares: int) -> None:
        self.spares = spares
        self._entries: dict = {}
        self._next_spare = 0
        self.overflowed = False

    # -- test-mode operations ------------------------------------------------

    def reset(self) -> None:
        """Clear all entries (start of a fresh self-test)."""
        self._entries.clear()
        self._next_spare = 0
        self.overflowed = False

    def record(self, key: int, remap: bool = False) -> bool:
        """Record a faulty resource; returns False when out of spares.

        A key already present is a no-op unless ``remap`` is set —
        repeated detections within one test pass hit the parallel
        compare and are swallowed.  With ``remap`` (the caller saw the
        failure *despite* active diversion, i.e. the assigned spare is
        itself faulty), the key advances to the next spare in the
        strictly increasing sequence — the property that makes
        iterated 2k-pass repair converge on faulty spares.
        """
        self._check(key)
        existing = self._find(key)
        if existing is not None and not remap:
            return True
        if self._next_spare >= self.spares:
            self.overflowed = True
            return False
        if existing is not None:
            existing.spare = self._next_spare
        else:
            self._entries[key] = self.entry_type(key, self._next_spare)
        self._next_spare += 1
        return True

    def _check(self, key: int) -> None:
        raise NotImplementedError

    # -- introspection -------------------------------------------------------------

    def _find(self, key: int):
        return self._entries.get(key)

    @property
    def entries(self) -> tuple:
        return tuple(self._entries.values())

    @property
    def spares_used(self) -> int:
        return self._next_spare

    @property
    def spares_left(self) -> int:
        return self.spares - self._next_spare

    def __len__(self) -> int:
        return len(self._entries)


class Tlb(SpareSequence):
    """A ``spares``-entry TLB over ``regular_rows`` row addresses.

    Spare row ``s`` is addressed as row ``regular_rows + s``; because
    spares are themselves addressable, a faulty spare can be recorded
    and re-diverted in a later test pass.
    """

    entry_type = TlbEntry

    def __init__(self, regular_rows: int, spares: int) -> None:
        if regular_rows < 1:
            raise ValueError("need at least one regular row")
        if spares < 1:
            raise ValueError("need at least one spare row")
        super().__init__(spares)
        self.regular_rows = regular_rows

    def _check(self, row: int) -> None:
        if not 0 <= row < self.regular_rows + self.spares:
            raise ValueError(f"row {row} outside the address space")

    # -- normal-mode operation --------------------------------------------------

    def translate(self, row: int) -> Tuple[int, bool]:
        """Parallel compare-and-divert: returns (physical row, diverted).

        All entries compare simultaneously in hardware; at most one can
        match because ``record`` never duplicates a row key.
        """
        entry = self._find(row)
        if entry is None:
            return row, False
        return self.regular_rows + entry.spare, True

    # -- introspection -------------------------------------------------------------

    def mapped_rows(self) -> Dict[int, int]:
        """Current diversion map: faulty row -> physical spare row."""
        return {
            e.row: self.regular_rows + e.spare
            for e in self._entries.values()
        }

    def assigned_spares(self) -> List[int]:
        """Spare indices in recording order — strictly increasing."""
        order = sorted(self._entries.values(), key=lambda e: e.spare)
        return [e.spare for e in order]
