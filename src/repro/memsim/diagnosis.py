"""Fault diagnosis from BIST failure signatures.

The repair decision needs more than "address X failed": a column
defect "will quickly swamp the row redundancy" and must be recognised
as unrepairable *before* burning every spare, while a row defect is the
ideal one-spare repair.  This module classifies the failure log of a
test pass:

* ``cell`` — isolated failing word bits in one (row, column) spot,
* ``row`` — many failing words sharing one row,
* ``column`` — failures in the same word-column position across many
  rows, with the same failing bit lane (the signature of a broken
  bit line).

The classifier is the software twin of what a repair allocator in
hardware would infer from the fault-capture stream.

Edge-case behaviour is deterministic and part of the contract:

* **empty failure log** — an empty, row-repairable diagnosis with zero
  spares needed (a clean device is trivially repairable);
* **row/column tie-break** — columns are classified first and their
  contributions removed before row analysis, so when one physical
  event could be read either way the *column* verdict wins; but a lane
  must fail in at least two distinct rows to be called a column, and a
  row must fail in at least two distinct words to be called a row, so
  a single-row event can never masquerade as a column (or vice versa)
  regardless of how small the array is;
* **all addresses failing on all bits** — every lane meets the column
  rule, so the verdict is all-columns (rows and cells empty) and not
  row-repairable: the columns-first precedence applied consistently.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.bist.controller import BistResult, BistScheduler, FailRecord


@dataclass(frozen=True)
class Diagnosis:
    """Classified fault regions of one device."""

    cell_faults: Tuple[Tuple[int, int], ...]   # (row, column) spots
    row_faults: Tuple[int, ...]                # whole rows
    column_faults: Tuple[Tuple[int, int], ...]  # (column, bit lane)
    repairable_with_rows: bool
    spares_needed: int

    def summary(self) -> str:
        return (
            f"cells={list(self.cell_faults)}, rows={list(self.row_faults)}, "
            f"columns={list(self.column_faults)}, "
            f"row-repairable={self.repairable_with_rows} "
            f"({self.spares_needed} spares needed)"
        )

    def to_dict(self) -> dict:
        """JSON-ready representation with a ``kind`` discriminator."""
        data = asdict(self)
        data["kind"] = "diagnosis"
        return data


def diagnose(
    records: Sequence[FailRecord],
    rows: int,
    bpw: int,
    bpc: int,
    spares: int,
    row_threshold: float = 0.5,
    column_threshold: float = 0.5,
) -> Diagnosis:
    """Classify a failure log.

    Args:
        records: comparator hits from one (non-diverted) test pass.
        rows/bpw/bpc/spares: the array organisation.
        row_threshold: fraction of a row's words that must fail to call
            the whole row bad.
        column_threshold: fraction of rows that must fail at one
            (column, bit-lane) to call the bit line bad (at least two
            distinct rows regardless, so a single-row event is never
            read as a column).
    """
    if rows < 1:
        raise ValueError("rows must be positive")
    fail_words: Dict[Tuple[int, int], int] = defaultdict(int)
    for record in records:
        row, column = divmod(record.address, bpc)
        fail_words[(row, column)] |= record.failing_bits()

    # Column analysis first: a (column, bit lane) failing in most rows
    # is a bit-line defect; its contributions are removed before row
    # analysis so a broken column does not masquerade as many bad rows.
    lane_rows: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
    for (row, column), bits in fail_words.items():
        for bit in range(bpw):
            if (bits >> bit) & 1:
                lane_rows[(column, bit)].add(row)
    column_faults = sorted(
        lane for lane, hit_rows in lane_rows.items()
        if len(hit_rows) >= max(2, column_threshold * rows)
    )
    column_set = set(column_faults)

    residual: Dict[Tuple[int, int], int] = {}
    for (row, column), bits in fail_words.items():
        kept = 0
        for bit in range(bpw):
            if (bits >> bit) & 1 and (column, bit) not in column_set:
                kept |= 1 << bit
        if kept:
            residual[(row, column)] = kept

    words_per_row: Dict[int, int] = Counter(
        row for (row, _c) in residual
    )
    row_faults = sorted(
        row for row, count in words_per_row.items()
        if count >= max(2, row_threshold * bpc)
    )
    row_set = set(row_faults)

    cell_faults = sorted(
        (row, column) for (row, column) in residual
        if row not in row_set
    )

    # Row repair covers rows and cells (a cell fault costs one spare
    # row for its whole row) but never columns.
    rows_needing_spares = row_set | {row for row, _ in cell_faults}
    repairable = (
        not column_faults and len(rows_needing_spares) <= spares
    )
    return Diagnosis(
        cell_faults=tuple(cell_faults),
        row_faults=tuple(row_faults),
        column_faults=tuple(column_faults),
        repairable_with_rows=repairable,
        spares_needed=len(rows_needing_spares),
    )


def diagnosis_from_dict(data: Mapping) -> Diagnosis:
    """Rebuild a :meth:`Diagnosis.to_dict` payload.

    Tolerates a JSON round-trip (tuples come back as lists); rejects
    payloads carrying the wrong ``kind``.
    """
    data = dict(data)
    kind = data.pop("kind", "diagnosis")
    if kind != "diagnosis":
        raise ValueError(f"not a diagnosis payload: kind={kind!r}")
    return Diagnosis(
        cell_faults=tuple((r, c) for r, c in data["cell_faults"]),
        row_faults=tuple(data["row_faults"]),
        column_faults=tuple((c, b) for c, b in data["column_faults"]),
        repairable_with_rows=bool(data["repairable_with_rows"]),
        spares_needed=data["spares_needed"],
    )


def fault_bitmap(records: Sequence[FailRecord], bpw: int, bpc: int,
                 ) -> Tuple[Tuple[int, int], ...]:
    """Failure log -> sorted (row, physical column) fault coordinates.

    The bitmap the 2-D allocator consumes: word address ``a`` failing
    on bit ``b`` means cell (``a // bpc``, ``b * bpc + a % bpc``) per
    the Fig. 2 addressing.  Bits beyond ``bpw`` are masked (a defensive
    guard against corrupt comparator payloads); duplicates fold.
    """
    cells: Set[Tuple[int, int]] = set()
    mask = (1 << bpw) - 1
    for record in records:
        row, column = divmod(record.address, bpc)
        bits = record.failing_bits() & mask
        for bit in range(bpw):
            if (bits >> bit) & 1:
                cells.add((row, bit * bpc + column))
    return tuple(sorted(cells))


def collect_fail_records(march, device, bpw: int) -> List[FailRecord]:
    """Run one diagnostic pass of ``march`` and log every comparator
    hit with observed/expected data (a richer log than the production
    controller keeps — this is the diagnosis mode).

    It is the scheduler's pass run as a verification pass, so nothing
    is recorded into the TLB.  The device's repair mode is the
    caller's: setting it here would re-arm the device's remap guard.
    """
    return BistScheduler(march, bpw).run_pass(device, 1, True, BistResult())
