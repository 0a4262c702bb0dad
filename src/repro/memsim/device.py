"""The complete BISR-RAM device: array + TLB + address diversion.

Implements the :class:`~repro.bist.controller.TestTarget` protocol, so
both controller implementations can drive it, and the normal-mode API a
system would use after self-repair.  "After a fault or defect has been
diagnosed and the system switches back to normal operational mode, any
incoming address intended for a faulty memory location is diverted to a
new address."

With ``spare_cols > 0`` the device also carries a
:class:`~repro.bisr.colsteer.ColumnSteer`: in repair mode, bit lines
recorded as faulty are steered onto spare columns in the data path,
composing freely with TLB row diversion (spare rows have spare-column
cells too, so a diverted row still benefits from steering).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bisr.colsteer import ColumnSteer
from repro.bisr.target import sweep
from repro.bisr.tlb import Tlb
from repro.memsim.array import MemoryArray


class BisrRam:
    """A self-repairable RAM.

    Args:
        rows: regular rows.
        bpw: bits per word.
        bpc: bits per column (column-mux factor).
        spares: spare rows (also the TLB entry count).
        spare_cols: spare bit-line pairs (also the steer entry count).
        ports: access ports (1 or 2).  Both ports see the same storage
            through the same TLB diversion and column steering — the
            physical cell is shared; only the access path is doubled.
    """

    def __init__(self, rows: int, bpw: int, bpc: int, spares: int,
                 spare_cols: int = 0, ports: int = 1) -> None:
        if spares < 1:
            raise ValueError("a BISR RAM needs at least one spare row")
        if ports not in (1, 2):
            raise ValueError("ports must be 1 or 2")
        self.array = MemoryArray(rows, bpw, bpc, spares, spare_cols)
        self.tlb = Tlb(regular_rows=rows, spares=spares)
        self.colsteer = ColumnSteer(
            regular_cols=self.array.phys_cols, spares=spare_cols)
        self.ports = ports
        self.repair_mode = False
        self.diversion_count = 0
        self.port_ops = [0] * ports
        self._remapped_rows = set()

    # -- TestTarget protocol -------------------------------------------------

    @property
    def word_count(self) -> int:
        """The CPU-visible address space: regular words only."""
        return self.array.words

    def read(self, address: int, port: int = 0) -> int:
        self._check_port(port)
        row = self._physical_row(address)
        return self.array.read_word(
            address, row_override=row, col_map=self._col_map())

    def write(self, address: int, word: int, port: int = 0) -> None:
        self._check_port(port)
        row = self._physical_row(address)
        self.array.write_word(
            address, word, row_override=row, col_map=self._col_map())

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.ports:
            raise ValueError(
                f"port {port} out of range for a {self.ports}-port device")
        self.port_ops[port] += 1

    def set_repair_mode(self, enabled: bool) -> None:
        """Enable/disable TLB diversion (BIST pass 1 runs with it off).

        Called at the start of every test pass; also re-arms the
        one-remap-per-pass guard (see :meth:`record_fail`).
        """
        self.repair_mode = bool(enabled)
        self._remapped_rows = set()

    def record_fail(self, address: int) -> None:
        """Record the row of a failing *incoming* address in the TLB.

        The incoming (pre-diversion) row is recorded.  When diversion
        is active (an iterated repair pass), a failure of an
        already-mapped row means its spare is faulty, so the row
        re-records and advances to the next spare — at most once per
        pass: right after a mid-march remap, one read can still see the
        fresh spare's stale contents, and that echo must not burn
        another spare.
        """
        row = address // self.array.bpc
        remap = self.repair_mode
        if remap and row in self._remapped_rows:
            return
        if remap and self.tlb.translate(row)[1]:
            self._remapped_rows.add(row)
        self.tlb.record(row, remap=remap)

    def retention_wait(self) -> None:
        """The embedded processor tristates the interface; cells leak."""
        self.array.apply_retention()

    # -- internals ---------------------------------------------------------------

    def _physical_row(self, address: int) -> Optional[int]:
        if not self.repair_mode:
            return None
        row = address // self.array.bpc
        physical, diverted = self.tlb.translate(row)
        if diverted:
            self.diversion_count += 1
            return physical
        return None

    def _col_map(self) -> Optional[Dict[int, int]]:
        if not self.repair_mode or not len(self.colsteer):
            return None
        return self.colsteer.active_map()

    # -- normal-mode conveniences ---------------------------------------------------

    def reset_for_test(self) -> None:
        """Fresh self-test: clear the TLB/steer, leave repair mode off."""
        self.tlb.reset()
        self.colsteer.reset()
        self.repair_mode = False
        self.diversion_count = 0
        self._remapped_rows = set()

    def check_pattern(self, pattern_word: int) -> int:
        """Write-then-read the whole visible space; count mismatches.

        A quick post-repair sanity sweep used by the examples: with a
        successful repair it returns 0 even on a fault-injected array.
        """
        return len(sweep(self, pattern_word))

    def describe(self) -> str:
        a = self.array
        steer = (f", spare_cols={a.spare_cols}, "
                 f"steer_used={self.colsteer.spares_used}"
                 if a.spare_cols else "")
        return (
            f"BisrRam(rows={a.rows}, bpw={a.bpw}, bpc={a.bpc}, "
            f"spares={a.spares}, words={a.words}, "
            f"tlb_used={self.tlb.spares_used}{steer})"
        )
