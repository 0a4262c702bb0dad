"""Scalar reference DRC kernel, kept only as a differential oracle.

These are the rectangle-at-a-time rule checks the array kernel of
:mod:`repro.layout.drc` replaced: a union-find x-sweep for connected
groups, an all-pairs closest-pair search per close group pair for
spacing, an ``any(contains_rect)`` scan for enclosure and a poly x
diffusion double loop for gate endcaps, plus the hierarchical sweep's
cross-source spacing and gate checks.  ``tests/test_drc_kernel.py``
requires the kernel to return exactly the violation lists computed
here, in the same order and with the same ``measured`` and ``where``.

:func:`zone_shapes` is the hierarchical sweep's interaction-zone query
as a plain recursive descent: every visited cell's shapes are placed in
the zone's frame before they are tested, and every child is visited to
test its placed bounding box.  ``tests/test_hierdrc_zones.py``
requires the local-frame descent to return the same rows in the same
order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, Transform
from repro.layout.cell import Cell
from repro.layout.drc import (
    DrcChecker,
    DrcViolation,
    own_layers,
    placed,
    solid,
    touching,
)
from repro.tech.process import Process


class _DisjointSet:
    """Union-find over shape indices, for merging touching rectangles."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def merged(a: Rect, b: Rect, corner_touch: bool) -> bool:
    """Whether two rectangles belong to one electrical/DRC group."""
    if corner_touch:
        return a.intersects(b)
    return a.overlaps(b) or a.abuts(b)


def connected_groups(
    rects: Sequence[Rect], corner_touch: bool = True
) -> List[List[Rect]]:
    """Partition rectangles into groups that touch or overlap."""
    n = len(rects)
    ds = _DisjointSet(n)
    order = sorted(range(n), key=lambda i: rects[i].x1)
    active: List[int] = []
    for idx in order:
        r = rects[idx]
        active = [a for a in active if rects[a].x2 >= r.x1]
        for a in active:
            if merged(rects[a], r, corner_touch):
                ds.union(a, idx)
        active.append(idx)
    groups: Dict[int, List[Rect]] = defaultdict(list)
    for i in range(n):
        groups[ds.find(i)].append(rects[i])
    return list(groups.values())


def close_box_pairs(boxes: Sequence[Rect], required: int):
    """Yield index pairs of boxes closer than ``required`` (x-sweep)."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].x1)
    active: List[int] = []
    for idx in order:
        b = boxes[idx]
        active = [a for a in active if boxes[a].x2 + required > b.x1]
        for a in active:
            other = boxes[a]
            if other.y1 - required < b.y2 and b.y1 - required < other.y2 \
                    and other.spacing_to(b) < required:
                yield (a, idx) if a < idx else (idx, a)
        active.append(idx)


def _bbox(rects: Sequence[Rect]) -> Rect:
    box = rects[0]
    for r in rects[1:]:
        box = box.union_bbox(r)
    return box


def _endcap_margin(poly: Rect, diff: Rect) -> int:
    if poly.x1 <= diff.x1 and poly.x2 >= diff.x2:
        return min(diff.x1 - poly.x1, poly.x2 - diff.x2)
    if poly.y1 <= diff.y1 and poly.y2 >= diff.y2:
        return min(diff.y1 - poly.y1, poly.y2 - diff.y2)
    return -1


class ScalarDrcChecker:
    """The rectangle-at-a-time checker, same rule classes and order."""

    def __init__(self, process: Process) -> None:
        self.process = process

    def _rule(self, name: str) -> Optional[int]:
        return self.process.rules.rules.get(name)

    def check_layers(
        self,
        by_layer: Dict[str, List[Rect]],
        max_violations: int = 1000,
        widths: bool = True,
    ) -> List[DrcViolation]:
        violations: List[DrcViolation] = []
        for layer, rects in sorted(by_layer.items()):
            if widths:
                violations.extend(self.check_width(layer, rects))
                if len(violations) >= max_violations:
                    return violations[:max_violations]
            violations.extend(self.check_spacing(layer, rects))
            if len(violations) >= max_violations:
                return violations[:max_violations]
        violations.extend(self.check_enclosures(by_layer))
        violations.extend(self.check_gates(by_layer))
        return violations[:max_violations]

    def check_width(self, layer: str,
                    rects: Sequence[Rect]) -> List[DrcViolation]:
        required = self._rule(f"width.{layer}")
        if required is None:
            return []
        out = []
        for r in rects:
            if r.area == 0:
                continue
            measured = min(r.width, r.height)
            if measured < required:
                out.append(
                    DrcViolation("min-width", layer, measured, required, r))
        return out

    def check_spacing(self, layer: str,
                      rects: Sequence[Rect]) -> List[DrcViolation]:
        required = self._rule(f"space.{layer}")
        if required is None or len(rects) < 2:
            return []
        solid = [r for r in rects if r.area > 0]
        corner_touch = self.process.rules.corner_touch_connects()
        groups = connected_groups(solid, corner_touch)
        if len(groups) < 2:
            return []
        boxes = [_bbox(g) for g in groups]
        out = []
        for i, j in close_box_pairs(boxes, required):
            gap, pair = min(
                ((a.spacing_to(b), (a, b))
                 for a in groups[i] for b in groups[j]),
                key=lambda item: item[0],
            )
            if gap < required and (gap > 0 or not corner_touch):
                where = pair[0].union_bbox(pair[1])
                out.append(
                    DrcViolation("min-space", layer, gap, required, where))
        return out

    def check_enclosures(
        self, by_layer: Dict[str, List[Rect]]
    ) -> List[DrcViolation]:
        out = []
        for cut_layer, enclosers in DrcChecker._CUT_ENCLOSURES.items():
            cuts = by_layer.get(cut_layer, [])
            if not cuts:
                continue
            for encloser in enclosers:
                required = self._rule(f"enclose.{encloser}_{cut_layer}")
                if required is None:
                    continue
                metal = by_layer.get(encloser, [])
                for cut in cuts:
                    grown = cut.expanded(required)
                    if not any(m.contains_rect(grown) for m in metal):
                        out.append(DrcViolation(
                            f"enclosure-{encloser}", cut_layer,
                            self.best_margin(cut, metal), required, cut))
        return out

    def check_gates(
        self, by_layer: Dict[str, List[Rect]]
    ) -> List[DrcViolation]:
        endcap = self._rule("overhang.gate_poly")
        if endcap is None:
            return []
        polys = by_layer.get("poly", [])
        out: List[DrcViolation] = []
        for diff_layer in ("ndiff", "pdiff"):
            for diff in by_layer.get(diff_layer, []):
                if diff.area == 0:
                    continue
                for poly in polys:
                    channel = poly.intersection(diff)
                    if channel is None or channel.area == 0:
                        continue
                    margin = _endcap_margin(poly, diff)
                    if margin < endcap:
                        out.append(DrcViolation(
                            "gate-endcap", "poly", max(margin, 0), endcap,
                            channel))
        return out

    @staticmethod
    def best_margin(cut: Rect, metal: Sequence[Rect]) -> int:
        best = -1
        for m in metal:
            if not m.contains_rect(cut):
                continue
            margin = min(
                cut.x1 - m.x1, m.x2 - cut.x2, cut.y1 - m.y1, m.y2 - cut.y2)
            best = max(best, margin)
        return best


def cross_spacing(process: Process, layer: str,
                  items: Sequence[Tuple[Rect, int]]) -> List[DrcViolation]:
    """Spacing between shapes of *different* sources only (hierarchical)."""
    required = process.rules.rules.get(f"space.{layer}")
    if required is None or len(items) < 2:
        return []
    corner_touch = process.rules.corner_touch_connects()
    rects = [r for r, _ in items]
    sources = [s for _, s in items]
    n = len(rects)
    ds = _DisjointSet(n)
    order = sorted(range(n), key=lambda i: rects[i].x1)
    active: List[int] = []
    for idx in order:
        r = rects[idx]
        active = [a for a in active if rects[a].x2 >= r.x1]
        for a in active:
            if merged(rects[a], r, corner_touch):
                ds.union(a, idx)
        active.append(idx)
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(ds.find(i), []).append(i)
    members = list(groups.values())
    if len(members) < 2:
        return []
    boxes = [_bbox([rects[i] for i in g]) for g in members]
    out: List[DrcViolation] = []
    for i, j in close_box_pairs(boxes, required):
        cand_a = [a for a in members[i]
                  if rects[a].spacing_to(boxes[j]) < required]
        cand_b = [b for b in members[j]
                  if rects[b].spacing_to(boxes[i]) < required]
        if not cand_a or not cand_b:
            continue
        gap, pair = min(
            ((rects[a].spacing_to(rects[b]), (a, b))
             for a in cand_a for b in cand_b),
            key=lambda item: item[0],
        )
        if gap >= required or (gap == 0 and corner_touch):
            continue
        a, b = pair
        if sources[a] == sources[b] and sources[a] != 0:
            continue
        out.append(DrcViolation(
            "min-space", layer, gap, required,
            rects[a].union_bbox(rects[b])))
    return out


def cross_gates(process: Process,
                polys: Sequence[Tuple[Rect, int]],
                diffs: Sequence[Tuple[Rect, int]]) -> List[DrcViolation]:
    """Gate-endcap check for poly/diffusion pairs from different sources,
    or both drawn by the parent (source 0)."""
    endcap = process.rules.rules.get("overhang.gate_poly")
    if endcap is None or not polys or not diffs:
        return []
    by_x1 = sorted(polys, key=lambda item: item[0].x1)
    x1s = [item[0].x1 for item in by_x1]
    out: List[DrcViolation] = []
    for diff, src_d in diffs:
        for poly, src_p in by_x1[:bisect_right(x1s, diff.x2)]:
            if (src_p == src_d and src_p != 0) or poly.x2 < diff.x1:
                continue
            if not poly.overlaps(diff):
                continue
            channel = poly.intersection(diff)
            if channel is None or channel.area == 0:
                continue
            margin = _endcap_margin(poly, diff)
            if margin < endcap:
                out.append(DrcViolation(
                    "gate-endcap", "poly", max(margin, 0), endcap, channel))
    return out


def geometry_bridges(parent, process: Process):
    """LVS bridge extraction with its own union-find sweep, as
    ``repro.verify.lvs._geometry_bridges`` did before it shared the
    kernel's group labels."""
    own: Dict[str, List[Rect]] = {}
    for layer, rect in parent.shapes():
        if rect.area > 0:
            own.setdefault(layer, []).append(rect)
    corner_touch = process.rules.corner_touch_connects()
    port_rects: Dict[str, list] = {}
    for inst in parent.instances():
        if not inst.name:
            continue
        for port in inst.ports():
            port_rects.setdefault(port.layer, []).append(
                ((inst.name, port.name), port.rect))
    bridges = []
    for layer, rects in own.items():
        landings = port_rects.get(layer, [])
        if not landings:
            continue
        groups = _DisjointSet(len(rects))
        order = sorted(range(len(rects)), key=lambda i: rects[i].x1)
        active: List[int] = []
        for idx in order:
            r = rects[idx]
            active = [a for a in active if rects[a].x2 >= r.x1]
            for a in active:
                if merged(rects[a], r, corner_touch):
                    groups.union(a, idx)
            active.append(idx)
        by_group: Dict[int, list] = {}
        for endpoint, prect in landings:
            for i, r in enumerate(rects):
                if merged(r, prect, corner_touch):
                    by_group.setdefault(groups.find(i), []).append(endpoint)
                    break
        for members in by_group.values():
            for other in members[1:]:
                bridges.append((members[0], other))
    return bridges


def _own_shapes(cell: Cell, memo: dict) -> Dict[str, np.ndarray]:
    found = memo.get(id(cell))
    if found is None:
        found = memo[id(cell)] = {}
        for layer, coords in own_layers(cell).items():
            drawn = solid(coords)
            if len(drawn):
                found[layer] = drawn
    return found


def _shapes_in_region(cell: Cell, transform: Transform, region: Rect,
                      source: int,
                      out: Dict[str, List[Tuple[np.ndarray, int]]],
                      memo: dict) -> None:
    box = cell.bbox()
    if box is None or not box.transformed(transform).intersects(region):
        return
    for layer, coords in _own_shapes(cell, memo).items():
        coords = placed(coords, transform)
        hit = coords[touching(coords, region)]
        if len(hit):
            out.setdefault(layer, []).append((hit, source))
    for inst in cell.instances():
        _shapes_in_region(inst.cell, transform.compose(inst.transform),
                          region, source, out, memo)


def zone_shapes(cell: Cell, region: Rect, memo: dict,
                ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """``cell``'s flattened shapes touching ``region`` per layer, as
    ``(coords, source)`` with source 0 = own shapes, k = k-th instance."""
    chunks: Dict[str, List[Tuple[np.ndarray, int]]] = {}
    for layer, coords in _own_shapes(cell, memo).items():
        hit = coords[touching(coords, region)]
        if len(hit):
            chunks.setdefault(layer, []).append((hit, 0))
    for k, inst in enumerate(cell.instances()):
        box = inst.bbox()
        if box is None or not box.intersects(region):
            continue
        _shapes_in_region(inst.cell, inst.transform, region, k + 1,
                          chunks, memo)
    return {layer: (np.concatenate([c for c, _ in parts]),
                    np.concatenate([np.full(len(c), src)
                                    for c, src in parts]))
            for layer, parts in chunks.items()}
