"""LVS-lite: extracted connectivity vs. the intended netlist.

The assembled module connects by abutment — "signals in adjacent
modules are perfectly aligned and connected by abutments" — so the
extracted netlist is the port-abutment graph of
:mod:`repro.pnr.connectivity`, extended here with *drawn-geometry*
conduction: any routing shape added at the top level that touches two
port landings electrically bridges them, exactly how a routing
regression creates a short the abutment graph alone cannot see.

The intended netlist is derived from the configuration, not from the
layout: one ``bl_<c>``/``blb_<c>`` net per column, each required to
span the precharge row, the array (bottom and top landings), and the
column-mux row.  The cross-check classifies every discrepancy:

* **open** — an intended net's endpoints fall into more than one
  extracted component (or an endpoint is missing outright);
* **short** — one extracted component contains endpoints of two or
  more intended nets;
* **floating-port** — a bit-line port with no connection at all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RamConfig
from repro.layout.cell import Cell
from repro.layout.drc import close_pairs, group_labels, merged_mask, rect_array
from repro.pnr.connectivity import connectivity_graph
from repro.tech.process import Process
from repro.verify.report import SignoffFinding

#: An endpoint of a net: (instance name, port name).
Endpoint = Tuple[str, str]


def intended_netlist(config: RamConfig) -> Dict[str, FrozenSet[Endpoint]]:
    """The nets the compiler is supposed to form, from the config alone.

    Bit lines are the module's abutment-routed signals: every column's
    ``bl``/``blb`` must run precharge → array → mux.  The array exports
    both its bottom landing (``bl_<c>``) and its top-edge feed-through
    twin (``bl_t_<c>``); both belong to the net.  Spare columns are
    full bit-line pairs and carry the same nets, so the intended
    netlist covers ``total_columns`` (the compiled layout is always the
    BISR build, which includes them).
    """
    nets: Dict[str, FrozenSet[Endpoint]] = {}
    for c in range(config.total_columns):
        for polarity in ("bl", "blb"):
            name = f"{polarity}_{c}"
            endpoints = {
                ("precharge_row", name),
                ("array", name),
                ("array", f"{polarity}_t_{c}"),
                ("mux_row", name),
            }
            if config.ports == 2:
                # Port-A lines additionally pass through the port-B
                # precharge row sitting between the mux and the array.
                endpoints |= {
                    ("precharge_row_b", name),
                    ("precharge_row_b", f"{polarity}_t_{c}"),
                }
            nets[name] = frozenset(endpoints)
        if config.ports == 2:
            # Port-B bit lines: array bottom landing to the port-B
            # precharge row's top edge (they do not reach the mux, and
            # the port-A precharge row on top has no bl2 landing).
            for polarity in ("bl2", "blb2"):
                name = f"{polarity}_{c}"
                nets[name] = frozenset({
                    ("array", name),
                    ("array", f"{polarity}_t_{c}"),
                    ("precharge_row_b", f"{polarity}_t_{c}"),
                })
    return nets


def _geometry_bridges(parent: Cell, process: Process,
                      nodes: Sequence[Endpoint],
                      ) -> List[Tuple[Endpoint, Endpoint]]:
    """Port pairs bridged by geometry drawn at the parent level.

    Groups the parent's own shapes per layer with the deck's
    connectivity semantics, then connects any two ports whose landing
    rectangles touch the same conducting group — the path by which a
    stray routing shape shorts two bit lines.
    """
    own: Dict[str, List] = {}
    for layer, rect in parent.shapes():
        if rect.area > 0:
            own.setdefault(layer, []).append(rect)
    if not own:
        return []
    corner_touch = process.rules.corner_touch_connects()
    port_rects: Dict[str, List[Tuple[Endpoint, object]]] = {}
    for inst in parent.instances():
        if not inst.name:
            continue
        for port in inst.ports():
            port_rects.setdefault(port.layer, []).append(
                ((inst.name, port.name), port.rect))

    bridges: List[Tuple[Endpoint, Endpoint]] = []
    for layer, rects in own.items():
        landings = port_rects.get(layer, [])
        if not landings:
            continue
        shapes = rect_array(rects)
        labels = group_labels(shapes, corner_touch)
        ports = rect_array([prect for _, prect in landings])
        # Each landing joins the group of the first shape it touches.
        p, r = close_pairs(ports, shapes)
        hit = merged_mask(ports[p], shapes[r], corner_touch)
        touched = np.full(len(ports), len(shapes))
        np.minimum.at(touched, p[hit], r[hit])
        by_group: Dict[int, List[Endpoint]] = {}
        for (endpoint, _), i in zip(landings, touched):
            if i < len(shapes):
                by_group.setdefault(int(labels[i]), []).append(endpoint)
        for members in by_group.values():
            first = members[0]
            for other in members[1:]:
                bridges.append((first, other))
    return bridges


def extract_nets(parent: Cell, process: Process,
                 ) -> List[FrozenSet[Endpoint]]:
    """Extracted electrical components over (instance, port) endpoints.

    Port-abutment edges and feed-through twins come from
    :func:`repro.pnr.connectivity.connectivity_graph`; parent-level
    drawn geometry adds bridges on top.
    """
    graph = connectivity_graph(parent)
    nodes = list(graph.nodes)
    for a, b in _geometry_bridges(parent, process, nodes):
        graph.add_edge(a, b, kind="geometry")
    import networkx as nx

    return [frozenset(c) for c in nx.connected_components(graph)]


def check_connectivity(
    parent: Cell,
    config: RamConfig,
    process: Process,
    max_findings: int = 100,
) -> Tuple[List[SignoffFinding], Dict[str, object]]:
    """Cross-check extracted connectivity against the intended netlist."""
    intended = intended_netlist(config)
    components = extract_nets(parent, process)
    by_endpoint: Dict[Endpoint, int] = {}
    for i, comp in enumerate(components):
        for endpoint in comp:
            by_endpoint[endpoint] = i

    findings: List[SignoffFinding] = []

    def add(kind: str, subject: str, message: str, **data: object) -> None:
        if len(findings) < max_findings:
            findings.append(SignoffFinding(
                checker="lvs", stage="assembly", kind=kind,
                subject=subject, message=message, data=data,
            ))

    # Opens: intended endpoints missing or split across components.
    for name, endpoints in sorted(intended.items()):
        present = [e for e in endpoints if e in by_endpoint]
        missing = sorted(e for e in endpoints if e not in by_endpoint)
        comps = {by_endpoint[e] for e in present}
        if missing:
            add("open", name,
                f"net {name}: endpoint(s) "
                f"{', '.join('/'.join(e) for e in missing)} not connected",
                missing=[list(e) for e in missing])
        elif len(comps) > 1:
            islands = [sorted("/".join(e) for e in endpoints
                              if by_endpoint[e] == c)
                       for c in sorted(comps)]
            add("open", name,
                f"net {name} is split into {len(comps)} islands: "
                + " | ".join(",".join(i) for i in islands),
                islands=islands)

    # Shorts: one component touching two or more intended nets.
    endpoint_net: Dict[Endpoint, str] = {
        e: name for name, endpoints in intended.items() for e in endpoints
    }
    for comp in components:
        nets_hit = sorted({endpoint_net[e] for e in comp
                           if e in endpoint_net})
        if len(nets_hit) > 1:
            add("short", "+".join(nets_hit),
                f"nets {', '.join(nets_hit)} are electrically connected "
                f"({len(comp)} endpoints in one component)",
                nets=nets_hit)

    # Floating bit-line ports: an intended-net endpoint alone in its
    # component (no abutment partner and no geometry bridge).
    for endpoint, net in sorted(endpoint_net.items()):
        i = by_endpoint.get(endpoint)
        if i is not None and len(components[i]) == 1:
            add("floating-port", "/".join(endpoint),
                f"port {endpoint[1]} of {endpoint[0]} (net {net}) "
                f"touches nothing", net=net)

    stats = {
        "intended_nets": len(intended),
        "extracted_components": len(components),
        "endpoints": len(by_endpoint),
    }
    return findings, stats
