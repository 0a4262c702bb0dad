"""Column steering: the spare-column twin of the TLB.

Where the TLB diverts a faulty *row* address to a spare row, the column
steer diverts a faulty *bit line* to a spare bit-line pair: a small
register file holds (faulty physical column -> spare column) entries,
and a mux tree in the data path substitutes the spare column's
sense/write circuits for the faulty one's.  Both are one
:class:`~repro.bisr.tlb.SpareSequence`, so the same strictly
increasing spare-assignment rule applies, for the same reason: if a
spare column itself turns out faulty, re-recording the logical column
advances it to the next spare, so the iterated 2k-pass flow converges
on faulty spares without any erase capability in hardware.

Unlike the TLB (whose CAM sits in the address path), the steer sits in
the *data* path after the column mux; its delay is a mux stage per
datum, modelled in :class:`ColumnSteerDelayModel` and accounted in the
datasheet when ``spare_cols > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bisr.tlb import SpareSequence
from repro.circuit.mosfet import effective_resistance
from repro.tech.process import Process


@dataclass
class ColumnSteerEntry:
    """One steering register: a faulty physical column -> spare index."""

    col: int
    spare: int


class ColumnSteer(SpareSequence):
    """A ``spares``-entry column steer over ``regular_cols`` bit lines.

    ``spares = 0`` is legal (a row-only device): every ``record`` then
    overflows immediately, which is exactly the hardware a config
    without spare columns has.  Only regular columns are recordable:
    spare columns have no logical lane of their own, so a bad spare is
    always reached — and replaced — through the logical column steered
    onto it.
    """

    entry_type = ColumnSteerEntry

    def __init__(self, regular_cols: int, spares: int) -> None:
        if regular_cols < 1:
            raise ValueError("need at least one regular column")
        if spares < 0:
            raise ValueError("spare columns must be non-negative")
        super().__init__(spares)
        self.regular_cols = regular_cols

    def _check(self, col: int) -> None:
        if not 0 <= col < self.regular_cols:
            raise ValueError(f"column {col} outside the regular array")

    # -- normal-mode operation --------------------------------------------------

    def steer(self, col: int) -> Tuple[Optional[int], bool]:
        """Returns (spare column index, steered) for a physical column."""
        entry = self._find(col)
        if entry is None:
            return None, False
        return entry.spare, True

    def active_map(self) -> Dict[int, int]:
        """Current steering map: faulty physical column -> spare index."""
        return {e.col: e.spare for e in self._entries.values()}

    def steered_cols(self) -> List[int]:
        """Logical columns currently steered, ascending."""
        return sorted(self._entries)


@dataclass(frozen=True)
class ColumnSteerDelayModel:
    """Analytic data-path penalty of the steering mux.

    The steer adds one 2:1 mux stage per data bit (select between the
    regular column's sense line and the spare bus), plus the spare bus
    wire spanning ``spare_cols`` column pitches.  Entry count only
    loads the spare bus, so like the TLB the delay grows gently with
    the number of spares.
    """

    process: Process
    spare_cols: int

    def __post_init__(self) -> None:
        if self.spare_cols < 0:
            raise ValueError("spare_cols must be non-negative")

    def breakdown(self) -> Dict[str, float]:
        """Per-stage delays in seconds (empty penalty at 0 spares)."""
        if self.spare_cols == 0:
            return {"steer_mux": 0.0, "spare_bus": 0.0}
        p = self.process
        f = p.feature_um
        # Stage 1: the 2:1 pass mux in the data path — one transmission
        # gate driving the sense-amp input.
        r_pass = effective_resistance(p.nmos, p.vdd, 6 * f, f)
        gate_cap = p.nmos.cox * (8 * f * 1e-6) * (f * 1e-6)
        t_mux = 0.69 * r_pass * (gate_cap + 60e-15)
        # Stage 2: the spare bus spanning the spare columns (48 lambda
        # of column pitch each) with one tristate drain junction per
        # spare column hanging off it.
        junction = 3.0 * p.nmos.cj * (4 * f * 1e-6) * (1.5 * f * 1e-6)
        bus_wire = self.spare_cols * 48 * f * p.wire_c_af_um * 1e-18
        r_drv = effective_resistance(p.pmos, p.vdd, 6 * f, f)
        t_bus = 0.69 * r_drv * (
            self.spare_cols * junction + bus_wire + 40e-15)
        return {"steer_mux": t_mux, "spare_bus": t_bus}

    def total(self) -> float:
        """Total steering penalty in seconds."""
        return sum(self.breakdown().values())


def colsteer_delay_s(process: Process, spare_cols: int) -> float:
    """Convenience wrapper: total column-steer delay in seconds."""
    return ColumnSteerDelayModel(process, spare_cols).total()
