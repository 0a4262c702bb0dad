"""Flat transistor-level netlists.

Nodes are plain strings; ``GND`` ("0") is the reference.  Devices are
immutable records.  The netlist offers convenience constructors for the
gate structures the RAM circuitry is made of (inverters, NAND/NOR
pull-up/pull-down stacks), which keeps the leaf-cell generators short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.tech.spice_params import MosParams

GND = "0"


@dataclass(frozen=True)
class Mosfet:
    """A MOSFET instance: terminals plus drawn W/L in microns."""

    name: str
    drain: str
    gate: str
    source: str
    params: MosParams
    w_um: float
    l_um: float

    def __post_init__(self) -> None:
        if self.w_um <= 0 or self.l_um <= 0:
            raise ValueError(f"{self.name}: W and L must be positive")
        if self.l_um < self.params.min_l_um - 1e-12:
            raise ValueError(
                f"{self.name}: L={self.l_um} um below process minimum "
                f"{self.params.min_l_um} um"
            )

    def gate_cap(self) -> float:
        """Lumped gate capacitance in farads (Cox * W * L)."""
        return self.params.cox * (self.w_um * 1e-6) * (self.l_um * 1e-6)

    def diff_cap(self) -> float:
        """Per-terminal source/drain junction capacitance in farads.

        Uses a fixed diffusion extension of 3 lambda ~ 1.5 L for area.
        """
        ext = 1.5 * self.l_um * 1e-6
        area = (self.w_um * 1e-6) * ext
        perim = 2 * (self.w_um * 1e-6 + ext)
        return self.params.cj * area + self.params.cjsw * perim


@dataclass(frozen=True)
class Resistor:
    name: str
    a: str
    b: str
    ohms: float

    def __post_init__(self) -> None:
        if self.ohms <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")


@dataclass(frozen=True)
class Capacitor:
    name: str
    a: str
    b: str
    farads: float

    def __post_init__(self) -> None:
        if self.farads <= 0:
            raise ValueError(f"{self.name}: capacitance must be positive")


@dataclass(frozen=True)
class VoltageSource:
    """A source pinning a node; ``waveform`` maps time (s) to volts.

    A constant source stores a float; a time-varying source stores a
    callable (e.g. :class:`repro.spice.waveforms.Pwl`).
    """

    name: str
    node: str
    waveform: object  # float volts or callable time->volts

    def volts(self, t: float) -> float:
        if callable(self.waveform):
            return float(self.waveform(t))
        return float(self.waveform)


class Netlist:
    """A mutable flat netlist."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.mosfets: List[Mosfet] = []
        self.resistors: List[Resistor] = []
        self.capacitors: List[Capacitor] = []
        self.sources: List[VoltageSource] = []
        self._counter = itertools.count()

    # -- device addition ---------------------------------------------------

    def _auto(self, prefix: str) -> str:
        return f"{prefix}{next(self._counter)}"

    def add_mosfet(
        self,
        drain: str,
        gate: str,
        source: str,
        params: MosParams,
        w_um: float,
        l_um: Optional[float] = None,
        name: Optional[str] = None,
    ) -> Mosfet:
        m = Mosfet(
            name=name or self._auto("M"),
            drain=drain,
            gate=gate,
            source=source,
            params=params,
            w_um=w_um,
            l_um=l_um if l_um is not None else params.min_l_um,
        )
        self.mosfets.append(m)
        return m

    def add_resistor(self, a: str, b: str, ohms: float,
                     name: Optional[str] = None) -> Resistor:
        r = Resistor(name or self._auto("R"), a, b, ohms)
        self.resistors.append(r)
        return r

    def add_capacitor(self, a: str, b: str, farads: float,
                      name: Optional[str] = None) -> Capacitor:
        c = Capacitor(name or self._auto("C"), a, b, farads)
        self.capacitors.append(c)
        return c

    def add_source(self, node: str, waveform, name: Optional[str] = None
                   ) -> VoltageSource:
        v = VoltageSource(name or self._auto("V"), node, waveform)
        self.sources.append(v)
        return v

    # -- gate-level helpers --------------------------------------------------

    def add_inverter(
        self,
        inp: str,
        out: str,
        nmos: MosParams,
        pmos: MosParams,
        wn_um: float,
        wp_um: float,
        vdd_node: str = "vdd",
    ) -> Tuple[Mosfet, Mosfet]:
        """A CMOS inverter between ``vdd_node`` and GND."""
        mp = self.add_mosfet(out, inp, vdd_node, pmos, wp_um)
        mn = self.add_mosfet(out, inp, GND, nmos, wn_um)
        return mn, mp

    def add_nand(
        self,
        inputs: Sequence[str],
        out: str,
        nmos: MosParams,
        pmos: MosParams,
        wn_um: float,
        wp_um: float,
        vdd_node: str = "vdd",
    ) -> None:
        """An n-input CMOS NAND: series NMOS stack, parallel PMOS."""
        if not inputs:
            raise ValueError("NAND needs at least one input")
        node = out
        for i, inp in enumerate(inputs):
            lower = GND if i == len(inputs) - 1 else self._auto("n_nand")
            self.add_mosfet(node, inp, lower, nmos, wn_um)
            node = lower
        for inp in inputs:
            self.add_mosfet(out, inp, vdd_node, pmos, wp_um)

    def add_nor(
        self,
        inputs: Sequence[str],
        out: str,
        nmos: MosParams,
        pmos: MosParams,
        wn_um: float,
        wp_um: float,
        vdd_node: str = "vdd",
    ) -> None:
        """An n-input CMOS NOR: parallel NMOS, series PMOS stack."""
        if not inputs:
            raise ValueError("NOR needs at least one input")
        for inp in inputs:
            self.add_mosfet(out, inp, GND, nmos, wn_um)
        node = "vdd" if vdd_node == "vdd" else vdd_node
        node = vdd_node
        for i, inp in enumerate(inputs):
            lower = out if i == len(inputs) - 1 else self._auto("n_nor")
            self.add_mosfet(lower, inp, node, pmos, wp_um)
            node = lower

    # -- queries --------------------------------------------------------------

    def nodes(self) -> Set[str]:
        """Every node name referenced by any device."""
        names: Set[str] = set()
        for m in self.mosfets:
            names.update((m.drain, m.gate, m.source))
        for r in self.resistors:
            names.update((r.a, r.b))
        for c in self.capacitors:
            names.update((c.a, c.b))
        for v in self.sources:
            names.add(v.node)
        return names

    def node_capacitance(self, vdd_node: str = "vdd") -> Dict[str, float]:
        """Total lumped capacitance to ground seen at each node.

        Gate caps land on gates; diffusion caps land on drain and source;
        explicit caps land on both terminals (caps to a supply count as
        caps to ground for small-signal loading purposes).
        """
        caps: Dict[str, float] = {}

        def bump(node: str, f: float) -> None:
            caps[node] = caps.get(node, 0.0) + f

        for m in self.mosfets:
            bump(m.gate, m.gate_cap())
            bump(m.drain, m.diff_cap())
            bump(m.source, m.diff_cap())
        for c in self.capacitors:
            bump(c.a, c.farads)
            bump(c.b, c.farads)
        return caps

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, M={len(self.mosfets)}, "
            f"R={len(self.resistors)}, C={len(self.capacitors)}, "
            f"V={len(self.sources)})"
        )
