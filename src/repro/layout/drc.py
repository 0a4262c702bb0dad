"""Design-rule checking on flattened layout.

The checker implements the rule classes the scalable deck defines:

* minimum width per layer,
* minimum same-layer spacing (between non-touching shape groups),
* contact/via enclosure by the surrounding conductor,
* gate endcap: poly must overhang the diffusion it crosses.

Shapes that touch or overlap are merged into connected groups first so
that a wide wire drawn as several overlapping rectangles is not flagged
for "spacing" against itself — the classic polygon-vs-rectangle DRC
subtlety.  The checker runs on flattened geometry, so hierarchical
interactions (a bit-cell shape against an abutting neighbour's shape)
are checked for real.

The rule classes run on a struct-of-arrays kernel: each layer's
rectangles become one ``int64`` ``(n, 4)`` array of ``(x1, y1, x2,
y2)`` rows, and every rule starts from :func:`close_pairs`, a sorted
sweep that yields the index pairs of rectangles closer than a reach.
The sweep runs along whichever axis produces fewer candidates and
expands its windows in blocks of at most :data:`PAIR_BLOCK` pairs, so
the kernel's temporaries stay small however large the cell is.
``Rect`` remains the interface: callers pass ``Rect`` sequences (or
arrays) in and get :class:`DrcViolation` objects out, in the order the
rectangle-at-a-time checker produced them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, Transform
from repro.layout.cell import Cell
from repro.tech.process import Process

#: Most candidate pairs one sweep step materialises.  Every temporary
#: of the kernel is a few arrays of this length, which keeps a check's
#: peak memory flat in the size of the cell; larger blocks are barely
#: faster but raise the process's peak RSS.
PAIR_BLOCK = 2048

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule violation."""

    rule: str
    layer: str
    measured: int
    required: int
    where: Rect

    def __str__(self) -> str:
        return (
            f"{self.rule} on {self.layer}: measured {self.measured} cu, "
            f"requires {self.required} cu near "
            f"({self.where.x1},{self.where.y1})-({self.where.x2},{self.where.y2})"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form, journalable by ``CheckpointJournal``."""
        return {
            "rule": self.rule,
            "layer": self.layer,
            "measured": self.measured,
            "required": self.required,
            "where": [self.where.x1, self.where.y1,
                      self.where.x2, self.where.y2],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DrcViolation":
        x1, y1, x2, y2 = data["where"]
        return cls(
            rule=data["rule"],
            layer=data["layer"],
            measured=int(data["measured"]),
            required=int(data["required"]),
            where=Rect(int(x1), int(y1), int(x2), int(y2)),
        )


# -- the array kernel -------------------------------------------------------


def rect_array(rects) -> np.ndarray:
    """Rectangles as one ``(n, 4)`` int64 array; arrays pass through."""
    if isinstance(rects, np.ndarray):
        return rects
    return np.array([(r.x1, r.y1, r.x2, r.y2) for r in rects],
                    dtype=np.int64).reshape(-1, 4)


def _rect(row) -> Rect:
    return Rect(int(row[0]), int(row[1]), int(row[2]), int(row[3]))


def placed(coords: np.ndarray, transform: Transform) -> np.ndarray:
    """Every row placed by ``transform``, as :meth:`Rect.transformed`.

    A Manhattan orientation maps each output edge to one input edge,
    negated when the axis flips, so placing is a column gather, a sign
    and a shift.
    """
    a, b, c, d = transform.matrix
    t = transform.translation
    if b == 0:  # x from x, y from y
        cols = [0, 1, 2, 3] if a > 0 else [2, 1, 0, 3]
        cols = cols if d > 0 else [cols[0], 3, cols[2], 1]
        sign = (a, d, a, d)
    else:  # rotated a quarter turn: x from y, y from x
        cols = [1, 0, 3, 2] if b > 0 else [3, 0, 1, 2]
        cols = cols if c > 0 else [cols[0], 2, cols[2], 0]
        sign = (b, c, b, c)
    return coords[:, cols] * np.array(sign) + (t.x, t.y, t.x, t.y)


def solid(coords: np.ndarray) -> np.ndarray:
    """The rows with positive area: drawn shapes, not port markers."""
    return coords[(coords[:, 2] > coords[:, 0])
                  & (coords[:, 3] > coords[:, 1])]


def own_layers(cell: Cell) -> Dict[str, np.ndarray]:
    """``cell``'s own shapes per layer as arrays, in drawing order."""
    own: Dict[str, list] = defaultdict(list)
    for layer, r in cell.shapes():
        own[layer].append((r.x1, r.y1, r.x2, r.y2))
    return {layer: np.array(rows, dtype=np.int64)
            for layer, rows in own.items()}


def _flat_layers(cell: Cell, memo: Optional[dict] = None,
                ) -> Dict[str, np.ndarray]:
    """Every shape of ``cell``'s hierarchy per layer, as arrays.

    Rows come in :meth:`Cell.flatten` order.  Each distinct child cell
    is flattened once (``memo``, keyed by cell identity) and placed
    per instance.
    """
    memo = {} if memo is None else memo
    found = memo.get(id(cell))
    if found is None:
        parts: Dict[str, List[np.ndarray]] = {
            layer: [coords] for layer, coords in own_layers(cell).items()}
        for inst in cell.instances():
            for layer, coords in _flat_layers(inst.cell, memo).items():
                parts.setdefault(layer, []).append(
                    placed(coords, inst.transform))
        found = memo[id(cell)] = {
            layer: np.concatenate(chunks) for layer, chunks in parts.items()}
    return found


def touching(coords: np.ndarray, region: Rect) -> np.ndarray:
    """Mask of rows sharing interior or boundary with ``region``."""
    return ((coords[:, 0] <= region.x2) & (region.x1 <= coords[:, 2])
            & (coords[:, 1] <= region.y2) & (region.y1 <= coords[:, 3]))


def _overlap(a: np.ndarray, b: np.ndarray):
    """Signed overlap of row pairs along x and y (negative: a gap)."""
    ox = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    oy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    return ox, oy


def merged_mask(a: np.ndarray, b: np.ndarray,
                corner_touch: bool) -> np.ndarray:
    """Whether row pairs belong to one electrical/DRC group.

    With ``corner_touch`` the deck says a pure corner contact conducts,
    so any boundary intersection merges.  Without it, only an interior
    overlap or a shared edge segment of nonzero length does — two
    shapes meeting at a single point stay separate groups (and are then
    subject to the spacing rule between groups).
    """
    ox, oy = _overlap(a, b)
    if corner_touch:
        return (ox >= 0) & (oy >= 0)
    # Rect.overlaps: strict on every side, which for a zero-thickness
    # marker inside a shape holds although no area is shared.
    overlaps = ((a[:, 0] < b[:, 2]) & (b[:, 0] < a[:, 2])
                & (a[:, 1] < b[:, 3]) & (b[:, 1] < a[:, 3]))
    side_x = (a[:, 2] == b[:, 0]) | (b[:, 2] == a[:, 0])
    side_y = (a[:, 3] == b[:, 1]) | (b[:, 3] == a[:, 1])
    return overlaps | (side_x & (oy > 0)) | (side_y & (ox > 0))


def _windows(a: np.ndarray, b: Optional[np.ndarray], axis: int, reach: int):
    """Candidate windows of one axis sweep.

    Each window is ``(rows, first, stop, cols, flip)``: row ``r`` (index
    ``rows[r]``) is a candidate against ``cols[first[r]:stop[r]]``, the
    rectangles that start within its span plus ``reach`` on a run
    sorted by their low edge.  Within one set each pair comes once,
    from its earlier-starting member; across two sets, from whichever
    member starts first.
    """
    lo, hi = axis, axis + 2
    if b is None:
        order = np.argsort(a[:, lo], kind="stable")
        start = a[order, lo]
        stop = np.searchsorted(start, a[order, hi] + reach, "left")
        return [(order, np.arange(1, len(a) + 1), stop, order, False)]
    windows = []
    for rows, cols, side, flip in ((a, b, "left", False),
                                   (b, a, "right", True)):
        order = np.argsort(cols[:, lo], kind="stable")
        start = cols[order, lo]
        first = np.searchsorted(start, rows[:, lo], side)
        stop = np.searchsorted(start, rows[:, hi] + reach, "left")
        windows.append((np.arange(len(rows)), first, stop, order, flip))
    return windows


def _candidates(windows) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand sweep windows into index pairs, ``PAIR_BLOCK`` at a time."""
    for rows, first, stop, cols, flip in windows:
        counts = np.maximum(stop - first, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        for k0 in range(0, total, PAIR_BLOCK):
            k = np.arange(k0, min(total, k0 + PAIR_BLOCK))
            r = np.searchsorted(ends, k, "right")
            q = first[r] + k - (ends[r] - counts[r])
            i, j = rows[r], cols[q]
            yield (j, i) if flip else (i, j)


def close_pairs(a: np.ndarray, b: Optional[np.ndarray] = None,
                reach: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of rectangles closer than ``reach`` (``reach >= 1``).

    "Closer" is :meth:`Rect.spacing_to` ``< reach``, so ``reach=1``
    finds every pair that touches or overlaps.  With ``b`` omitted the
    pairs ``(i, j)`` are unordered pairs within ``a``, each once;
    otherwise ``i`` indexes ``a`` and ``j`` indexes ``b``.  The order
    of the pairs is unspecified.
    """
    other = a if b is None else b
    plans = [_windows(a, b, axis, reach) for axis in (0, 1)]
    cost = [sum(int(np.maximum(w[2] - w[1], 0).sum()) for w in plan)
            for plan in plans]
    keep_i: List[np.ndarray] = []
    keep_j: List[np.ndarray] = []
    for i, j in _candidates(plans[int(cost[1] < cost[0])]):
        ox, oy = _overlap(a[i], other[j])
        near = (ox > -reach) & (oy > -reach)
        keep_i.append(i[near])
        keep_j.append(j[near])
    if not keep_i:
        return _EMPTY, _EMPTY
    return np.concatenate(keep_i), np.concatenate(keep_j)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component of each of ``n`` nodes under edges ``(i, j)``.

    Labels are the smallest node index of each component: roots are
    hooked under the smaller root and paths compressed until every
    edge joins one root.
    """
    parent = np.arange(n)
    while len(i):
        ri, rj = parent[i], parent[j]
        live = ri != rj
        if not live.any():
            break
        i, j, ri, rj = i[live], j[live], ri[live], rj[live]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    return parent


def group_labels(coords: np.ndarray, corner_touch: bool) -> np.ndarray:
    """Connected-group label per rectangle: its group's smallest index.

    Labels ordered ascending enumerate the groups in order of their
    first member, which is the group order every rule reports in.
    """
    i, j = close_pairs(coords)
    hit = merged_mask(coords[i], coords[j], corner_touch)
    return _components(len(coords), i[hit], j[hit])


def spacing_hits(coords: np.ndarray, required: int, corner_touch: bool,
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closest pair of every two groups closer than ``required``.

    Returns ``(gap, i, j)`` with one entry per violating group pair:
    ``i`` belongs to the group with the smaller first member, and of
    several pairs at the minimum gap the first in row-major member
    order is reported.  Group pairs come in the order an x1-sorted
    sweep over group bounding boxes meets them (the later box first,
    then the earlier), the order the checker has always reported in.
    """
    n = len(coords)
    i, j = close_pairs(coords, reach=max(required, 1))
    ci, cj = coords[i], coords[j]
    joined = merged_mask(ci, cj, corner_touch)
    labels = _components(n, i[joined], j[joined])
    ox, oy = _overlap(ci, cj)
    gap = np.maximum(0, np.maximum(-ox, -oy))  # Rect.spacing_to
    li, lj = labels[i], labels[j]
    hit = (gap < required) & (li != lj)
    if not hit.any():
        return _EMPTY, _EMPTY, _EMPTY
    gap, i, j, li, lj = gap[hit], i[hit], j[hit], li[hit], lj[hit]
    swap = li > lj
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    lo, hi = np.minimum(li, lj), np.maximum(li, lj)
    order = np.lexsort((j, i, gap, hi, lo))
    lo, hi, gap, i, j = lo[order], hi[order], gap[order], i[order], j[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    lo, hi, gap, i, j = lo[first], hi[first], gap[first], i[first], j[first]
    box_x1 = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(box_x1, labels, coords[:, 0])
    roots = np.unique(labels)
    rank = np.empty(n, dtype=np.int64)
    rank[roots[np.argsort(box_x1[roots], kind="stable")]] = \
        np.arange(len(roots))
    rl, rh = rank[lo], rank[hi]
    order = np.lexsort((np.minimum(rl, rh), np.maximum(rl, rh)))
    return gap[order], i[order], j[order]


def _enclosed(cuts: np.ndarray, metal: np.ndarray,
             margin: int) -> np.ndarray:
    """Mask of cuts that one metal rectangle contains with ``margin``."""
    lo_x, hi_x = cuts[:, 0] - margin, cuts[:, 2] + margin
    lo_y, hi_y = cuts[:, 1] - margin, cuts[:, 3] + margin
    grown = np.stack([np.minimum(lo_x, hi_x), np.minimum(lo_y, hi_y),
                      np.maximum(lo_x, hi_x), np.maximum(lo_y, hi_y)],
                     axis=1)  # Rect.expanded
    ok = np.zeros(len(cuts), dtype=bool)
    if len(metal):
        i, j = close_pairs(grown, metal)
        g, m = grown[i], metal[j]
        inside = ((m[:, 0] <= g[:, 0]) & (m[:, 1] <= g[:, 1])
                  & (g[:, 2] <= m[:, 2]) & (g[:, 3] <= m[:, 3]))
        ok[i[inside]] = True
    return ok


def _best_margin(cut: np.ndarray, metal: np.ndarray) -> int:
    """Largest enclosure margin any single metal shape achieves."""
    inside = ((metal[:, 0] <= cut[0]) & (metal[:, 1] <= cut[1])
              & (cut[2] <= metal[:, 2]) & (cut[3] <= metal[:, 3]))
    if not inside.any():
        return -1
    m = metal[inside]
    return int(np.minimum.reduce([cut[0] - m[:, 0], m[:, 2] - cut[2],
                                  cut[1] - m[:, 1], m[:, 3] - cut[3]]).max())


def gate_hits(polys: np.ndarray, diffs: np.ndarray, endcap: int,
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gates whose poly endcap falls short, as ``(diff, poly, margin)``.

    A gate is a poly rectangle overlapping a diffusion rectangle with
    positive area; the poly must extend past the diffusion by the
    endcap rule on the channel axis (otherwise the transistor can leak
    around the gate end).  The channel axis is whichever pair of gate
    edges crosses the diffusion; a poly ending inside the diffusion on
    both axes forms no complete gate and reads margin -1.  The order of
    the hits is unspecified.
    """
    d_idx, p_idx = close_pairs(diffs, polys)
    d, p = diffs[d_idx], polys[p_idx]
    ox, oy = _overlap(d, p)
    channel = (ox > 0) & (oy > 0)
    d_idx, p_idx, d, p = d_idx[channel], p_idx[channel], d[channel], p[channel]
    crosses_x = (p[:, 0] <= d[:, 0]) & (p[:, 2] >= d[:, 2])
    crosses_y = (p[:, 1] <= d[:, 1]) & (p[:, 3] >= d[:, 3])
    margin = np.where(
        crosses_x, np.minimum(d[:, 0] - p[:, 0], p[:, 2] - d[:, 2]),
        np.where(crosses_y, np.minimum(d[:, 1] - p[:, 1], p[:, 3] - d[:, 3]),
                 -1))
    short = margin < endcap
    return d_idx[short], p_idx[short], margin[short]


def space_violation(layer: str, required: int, gap: int,
                    a: np.ndarray, b: np.ndarray) -> "DrcViolation":
    """A min-space violation located on the bbox of the closest pair."""
    where = Rect(int(min(a[0], b[0])), int(min(a[1], b[1])),
                 int(max(a[2], b[2])), int(max(a[3], b[3])))
    return DrcViolation("min-space", layer, int(gap), required, where)


def gate_violation(poly: np.ndarray, diff: np.ndarray, margin: int,
                   endcap: int) -> "DrcViolation":
    """A gate-endcap violation located on the gate's channel."""
    channel = Rect(int(max(poly[0], diff[0])), int(max(poly[1], diff[1])),
                   int(min(poly[2], diff[2])), int(min(poly[3], diff[3])))
    return DrcViolation("gate-endcap", "poly", max(int(margin), 0), endcap,
                        channel)


# -- the checker -------------------------------------------------------------


class DrcChecker:
    """Checks a cell against a process rule deck."""

    #: layers whose enclosure of cuts is verified: cut layer -> enclosing
    #: conductor rule names.
    _CUT_ENCLOSURES = {
        "contact": ("metal1",),
        "via1": ("metal1", "metal2"),
        "via2": ("metal2", "metal3"),
    }

    def __init__(self, process: Process) -> None:
        self.process = process

    def check(self, cell: Cell, max_violations: int = 1000) -> List[DrcViolation]:
        """Run all checks on the flattened cell; returns violations found."""
        return self.check_layers(_flat_layers(cell), max_violations)

    def check_layers(
        self,
        by_layer: Dict[str, Sequence[Rect]],
        max_violations: int = 1000,
        widths: bool = True,
    ) -> List[DrcViolation]:
        """Run the rule classes on pre-flattened per-layer geometry.

        The entry point the hierarchical signoff sweep uses for its
        boundary-band interaction windows, where geometry is clipped
        out of several cells and no single ``Cell`` exists.  Width
        checks can be disabled (``widths=False``) for windows whose
        shapes are clipped — a clipped shape is legitimately narrow.
        Each layer may be a ``Rect`` sequence or a ``(n, 4)`` array.
        """
        arrays = {layer: rect_array(rects)
                  for layer, rects in by_layer.items()}
        violations: List[DrcViolation] = []
        for layer in sorted(arrays):
            if widths:
                violations.extend(self._check_width(layer, arrays[layer]))
                if len(violations) >= max_violations:
                    return violations[:max_violations]
            violations.extend(self._check_spacing(layer, arrays[layer]))
            if len(violations) >= max_violations:
                return violations[:max_violations]
        violations.extend(self._check_enclosures(arrays))
        violations.extend(self._check_gates(arrays))
        return violations[:max_violations]

    # -- individual rule classes -----------------------------------------

    def _rule(self, name: str) -> Optional[int]:
        return self.process.rules.rules.get(name)

    def _check_width(self, layer: str, rects) -> List[DrcViolation]:
        required = self._rule(f"width.{layer}")
        if required is None:
            return []
        coords = rect_array(rects)
        width = coords[:, 2] - coords[:, 0]
        height = coords[:, 3] - coords[:, 1]
        measured = np.minimum(width, height)
        # zero-thickness port markers are not drawn metal
        bad = np.flatnonzero((width > 0) & (height > 0)
                             & (measured < required))
        return [DrcViolation("min-width", layer, int(measured[k]), required,
                             _rect(coords[k])) for k in bad]

    def _check_spacing(self, layer: str, rects) -> List[DrcViolation]:
        required = self._rule(f"space.{layer}")
        coords = rect_array(rects)
        if required is None or len(coords) < 2:
            return []
        shapes = solid(coords)
        corner_touch = self.process.rules.corner_touch_connects()
        # A zero gap between *different* groups only happens when the
        # deck says corner contact does not conduct (otherwise the
        # shapes would have merged), and is then a violation.
        gap, i, j = spacing_hits(shapes, required, corner_touch)
        return [space_violation(layer, required, g, shapes[a], shapes[b])
                for g, a, b in zip(gap, i, j)]

    def _check_enclosures(self, by_layer) -> List[DrcViolation]:
        out = []
        for cut_layer, enclosers in self._CUT_ENCLOSURES.items():
            cuts = rect_array(by_layer.get(cut_layer, ()))
            if not len(cuts):
                continue
            for encloser in enclosers:
                required = self._rule(f"enclose.{encloser}_{cut_layer}")
                if required is None:
                    continue
                metal = rect_array(by_layer.get(encloser, ()))
                for k in np.flatnonzero(~_enclosed(cuts, metal, required)):
                    out.append(DrcViolation(
                        f"enclosure-{encloser}", cut_layer,
                        _best_margin(cuts[k], metal), required,
                        _rect(cuts[k])))
        return out

    def _check_gates(self, by_layer) -> List[DrcViolation]:
        """Gate endcaps at every poly-diffusion crossing (:func:`gate_hits`),
        reported diffusion by diffusion in drawing order."""
        endcap = self._rule("overhang.gate_poly")
        if endcap is None:
            return []
        polys = rect_array(by_layer.get("poly", ()))
        out: List[DrcViolation] = []
        for diff_layer in ("ndiff", "pdiff"):
            diffs = rect_array(by_layer.get(diff_layer, ()))
            d, p, margin = gate_hits(polys, diffs, endcap)
            for k in np.lexsort((p, d)):
                out.append(gate_violation(polys[p[k]], diffs[d[k]],
                                          margin[k], endcap))
        return out
