"""Hierarchical DRC sweep with a content-hash leaf cache.

Flat DRC on an assembled macro re-verifies every one of the thousands
of identical bit-cell placements — tens of seconds for a small array,
unusable as a per-build stage gate.  This sweep exploits the compiler's
own structure instead:

* every *unique* cell (keyed by a content hash over its geometry and
  its children's hashes — not its name) is flat-checked exactly once,
  and the verdict is cached against the hash + rule-deck digest, so a
  second build on the same node re-checks nothing;
* every *composite* cell is then checked only where hierarchy can
  create new violations: interaction zones around each close instance
  pair's halo overlap and around each parent-drawn routing shape —
  the abutment seams where stretching, tiling, and routing interact.
  Identical instance pairs (same content hashes, orientations, and
  relative offset) are checked once, and shape pairs wholly inside one
  already-verified child are never re-examined.

The zone checks run the same rule classes as the flat checker
(:class:`~repro.layout.drc.DrcChecker`), restricted to pairs the flat
checks cannot own — two shapes from different instances, an instance
shape against parent-level routing, or two parent-drawn shapes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import hit_rate
from repro.core.stages import StageCache
from repro.geometry import Rect, Transform
from repro.layout.cell import Cell, CellInstance
from repro.layout.drc import (
    DrcChecker,
    DrcViolation,
    gate_hits,
    gate_violation,
    own_layers,
    placed,
    rect_array,
    solid,
    space_violation,
    spacing_hits,
    touching,
)
from repro.tech.process import Process

#: A zone's shapes on one layer: ``(n, 4)`` coordinates and the source
#: of each row (0 = parent-drawn, k = the parent's k-th instance).
Sourced = Tuple[np.ndarray, np.ndarray]


def cell_hash(cell: Cell, memo: Optional[dict] = None) -> str:
    """Content hash of a cell's full geometry hierarchy.

    Two cells with identical shapes and identically-placed identical
    children hash equal regardless of their names, so cache verdicts
    transfer between builds and between configurations sharing leaf
    generators.  Ports and zero-area shapes are excluded: both are
    markers with no DRC significance (and neither survives a CIF
    round-trip).
    """
    memo = memo if memo is not None else {}
    key = id(cell)
    if key in memo:
        return memo[key]
    digest = hashlib.sha256()
    # (layer, x1, y1, x2, y2) tuples sort as (layer, Rect) pairs do.
    for layer, x1, y1, x2, y2 in sorted(
            (layer, r.x1, r.y1, r.x2, r.y2) for layer, r in cell.shapes()
            if r.x1 != r.x2 and r.y1 != r.y2):
        digest.update(f"s:{layer}:{x1}:{y1}:{x2}:{y2};".encode())
    children = []
    for inst in cell.instances():
        t = inst.transform
        children.append(
            f"i:{cell_hash(inst.cell, memo)}:{t.orientation.value}"
            f":{t.translation.x}:{t.translation.y};")
    for entry in sorted(children):
        digest.update(entry.encode())
    value = digest.hexdigest()[:24]
    memo[key] = value
    return value


#: Entry cap of :data:`default_cache`.  A macro has a few dozen unique
#: cells, so the cap holds the verdicts of dozens of configurations
#: while keeping a long-running server's memory bounded.
DRC_CACHE_ENTRIES = 1024

#: Shared process-wide verdict cache, keyed on (rule-deck digest, leaf
#: or composite, cell content hash): repeated builds (campaign shards,
#: test suites, the bench) pay for each unique cell once.
default_cache = StageCache(max_entries=DRC_CACHE_ENTRIES)


@dataclass
class HierDrcResult:
    """Outcome of one hierarchical sweep."""

    leaf_violations: Dict[str, List[DrcViolation]] = field(
        default_factory=dict)
    assembly_violations: Dict[str, List[DrcViolation]] = field(
        default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.leaf_violations and not self.assembly_violations


def _halo_cu(process: Process) -> int:
    """Interaction radius: the largest spacing/overhang rule of the deck.

    No same-layer spacing or transistor-geometry rule reaches farther
    than this, so shapes deeper inside a verified child cannot violate
    against anything outside it.
    """
    values = [v for k, v in process.rules.rules.items()
              if k.startswith(("space.", "overhang.", "enclose."))]
    return max(values) if values else 0


class _Frame(NamedTuple):
    """A cell's DRC view in its own coordinate frame, memoized per cell.

    ``own`` holds the cell's drawn shapes per layer (zero-area markers
    dropped).  ``rows`` stacks those shapes, layer by layer, over the
    bounding boxes of its instances, so one mask finds both the shapes
    and the children near a region: rows ``[0, ends[-1])`` are shapes,
    ``ends`` the end row of each layer of ``own``, and the remaining
    rows belong to ``children``, the ``(position, instance, inverse
    transform)`` of each instance that has a bounding box.
    """

    own: Dict[str, np.ndarray]
    ends: List[int]
    rows: np.ndarray
    children: Tuple[Tuple[int, CellInstance, Transform], ...]


def _frame(cell: Cell, memo: dict) -> _Frame:
    found = memo.get(id(cell))
    if found is None:
        drawn = {}
        for layer, coords in own_layers(cell).items():
            coords = solid(coords)
            if len(coords):
                drawn[layer] = coords
        boxed = [(k, inst, inst.bbox())
                 for k, inst in enumerate(cell.instances())]
        boxed = [entry for entry in boxed if entry[2] is not None]
        rows = np.concatenate(list(drawn.values())
                              + [rect_array([box for _, _, box in boxed])])
        ends = np.cumsum([len(coords) for coords in drawn.values()],
                         dtype=np.int64).tolist()
        own = {layer: rows[end - len(coords):end]
               for (layer, coords), end in zip(drawn.items(), ends)}
        children = tuple((k, inst, inst.transform.inverse())
                         for k, inst, _ in boxed)
        found = memo[id(cell)] = _Frame(own, ends, rows, children)
    return found


def _visit(frame: _Frame, local: Rect, transform: Optional[Transform],
           source: int,
           out: Dict[str, List[Tuple[np.ndarray, int]]]) -> np.ndarray:
    """Append a frame's shapes touching ``local``; return its children's.

    Only the touching shapes are placed by ``transform`` (``None`` for
    the zone's own frame) and appended as ``(coords, source)`` chunks
    per layer.  Returns the indices into ``frame.children`` of the
    instances whose boxes touch ``local``.
    """
    mask = touching(frame.rows, local)
    n_own = frame.ends[-1] if frame.ends else 0
    hits = np.flatnonzero(mask[:n_own])
    if len(hits):
        coords = frame.rows[hits]
        if transform is not None:
            coords = placed(coords, transform)
        start = 0
        for layer, end in zip(frame.own,
                              np.searchsorted(hits, frame.ends).tolist()):
            if end > start:
                out.setdefault(layer, []).append(
                    (coords[start:end], source))
            start = end
    return np.flatnonzero(mask[n_own:])


def _shapes_in_region(frame: _Frame, transform: Transform, local: Rect,
                      source: int,
                      out: Dict[str, List[Tuple[np.ndarray, int]]],
                      memo: dict) -> None:
    """Collect a placed cell's flattened shapes touching a region.

    ``local`` is the region in the cell's own frame and ``transform``
    places that frame in the zone's.  Chunks come in depth-first
    drawing order.  Children whose boxes miss are never visited, so
    the cost scales with the shapes near the region, not with the
    cell's total area.
    """
    for k in _visit(frame, local, transform, source, out):
        _, inst, inverse = frame.children[k]
        _shapes_in_region(_frame(inst.cell, memo),
                          transform.compose(inst.transform),
                          local.transformed(inverse), source, out, memo)


def _zone_shapes(cell: Cell, region: Rect,
                 memo: dict) -> Dict[str, Sourced]:
    """Every flattened shape of ``cell`` touching ``region``, per layer.

    Sources: 0 = the cell's own drawn shapes, k = its k-th instance
    (counted from 1).  Rows come in depth-first drawing order.
    """
    frame = _frame(cell, memo)
    chunks: Dict[str, List[Tuple[np.ndarray, int]]] = {}
    for k in _visit(frame, region, None, 0, chunks):
        position, inst, inverse = frame.children[k]
        _shapes_in_region(_frame(inst.cell, memo), inst.transform,
                          region.transformed(inverse), position + 1,
                          chunks, memo)
    return {layer: (np.concatenate([c for c, _ in parts]),
                    np.concatenate([np.full(len(c), src)
                                    for c, src in parts]))
            for layer, parts in chunks.items()}


def _cross_spacing(checker: DrcChecker, layer: str,
                   items: Sourced) -> List[DrcViolation]:
    """Spacing between shapes of *different* sources only.

    Groups all shapes with the deck's connectivity semantics (an
    abutting pair from two instances is one intentional wire, not a
    violation), then flags close group pairs whose nearest shapes come
    from different sources.  Same-source violations were already caught
    by that source's own flat check.
    """
    coords, sources = items
    required = checker.process.rules.rules.get(f"space.{layer}")
    if required is None or len(coords) < 2:
        return []
    corner_touch = checker.process.rules.corner_touch_connects()
    gap, a, b = spacing_hits(coords, required, corner_touch)
    # Source 0 (parent-drawn routing) has no flat check of its own, so
    # own-vs-own pairs are flagged here too; any other same-source pair
    # is intra-instance, owned by the child's own check.
    keep = (sources[a] != sources[b]) | (sources[a] == 0)
    return [space_violation(layer, required, g, coords[i], coords[j])
            for g, i, j in zip(gap[keep], a[keep], b[keep])]


def _cross_gates(checker: DrcChecker, polys: Optional[Sourced],
                 diffs: Optional[Sourced]) -> List[DrcViolation]:
    """Gate-endcap check for poly/diffusion pairs from different sources.

    As in :func:`_cross_spacing`, a gate the parent drew entirely
    itself (both shapes from source 0) is checked here too: no flat
    check owns it.  Reported diffusion by diffusion, each diffusion's
    gates in the x1 order of their poly.
    """
    endcap = checker.process.rules.rules.get("overhang.gate_poly")
    if endcap is None or polys is None or diffs is None:
        return []
    (poly, src_p), (diff, src_d) = polys, diffs
    d, p, margin = gate_hits(poly, diff, endcap)
    keep = (src_p[p] != src_d[d]) | (src_p[p] == 0)
    d, p, margin = d[keep], p[keep], margin[keep]
    x_rank = np.empty(len(poly), dtype=np.int64)
    x_rank[np.argsort(poly[:, 0], kind="stable")] = np.arange(len(poly))
    return [gate_violation(poly[p[k]], diff[d[k]], margin[k], endcap)
            for k in np.lexsort((x_rank[p], d))]


def _composite_check(cell: Cell, checker: DrcChecker, halo: int,
                     hash_memo: dict, shape_memo: dict,
                     max_violations: int) -> List[DrcViolation]:
    """Check one composite cell's assembly seams via interaction zones.

    Sources: 0 = the cell's own drawn shapes (routing, straps), 1..n =
    its instances.  Instead of sweeping every child's boundary band at
    once (quadratic on a stack of identical rows), the check builds
    small *zones* where hierarchy can create new violations — the
    halo-overlap window of each close instance pair, and a band around
    each parent-drawn shape — and examines cross-source pairs inside
    them.  Identical pairs (same child content hashes, orientations,
    and relative offset) are checked once, so a 256-row array pays for
    one row seam, not 255.
    """
    own: List[Tuple[str, Rect]] = [
        (layer, rect) for layer, rect in cell.shapes() if rect.area > 0]
    violations: List[DrcViolation] = []

    # Parent-level drawn geometry gets the full width check; instance
    # shapes already passed their own cell's check.
    own_by_layer = _frame(cell, shape_memo).own
    for layer in sorted(own_by_layer):
        violations.extend(checker._check_width(layer, own_by_layer[layer]))
        if len(violations) >= max_violations:
            return violations[:max_violations]

    insts = list(cell.instances())
    boxes = [inst.bbox() for inst in insts]

    def check_zone(region: Rect) -> List[DrcViolation]:
        found: List[DrcViolation] = []
        by_layer = _zone_shapes(cell, region, shape_memo)
        for layer in sorted(by_layer):
            sources = by_layer[layer][1]
            n_own = np.count_nonzero(sources == 0)
            if sources.min() == sources.max() and n_own < 2:
                continue
            found.extend(_cross_spacing(checker, layer, by_layer[layer]))
        for diff_layer in ("ndiff", "pdiff"):
            found.extend(_cross_gates(
                checker, by_layer.get("poly"), by_layer.get(diff_layer)))
        return found

    # Instance-pair zones, deduped by relative placement: sweep over
    # halo-expanded bboxes to find interacting pairs.
    expanded = [b.expanded(halo) if b is not None else None for b in boxes]
    seen: set = set()
    order = sorted(
        (k for k in range(len(insts)) if boxes[k] is not None),
        key=lambda k: expanded[k].x1)
    active: List[int] = []
    for k in order:
        e = expanded[k]
        active = [a for a in active if expanded[a].x2 >= e.x1]
        for a in active:
            if not expanded[a].intersects(boxes[k]):
                continue
            ta, tk = insts[a].transform, insts[k].transform
            key_a = (cell_hash(insts[a].cell, hash_memo),
                     ta.orientation.value)
            key_k = (cell_hash(insts[k].cell, hash_memo),
                     tk.orientation.value)
            dx = tk.translation.x - ta.translation.x
            dy = tk.translation.y - ta.translation.y
            if (key_k, key_a) < (key_a, key_k):
                sig = (key_k, key_a, -dx, -dy)
            else:
                sig = (key_a, key_k, dx, dy)
            if sig in seen:
                continue
            seen.add(sig)
            window = expanded[a].intersection(expanded[k])
            if window is None:
                continue
            violations.extend(check_zone(window.expanded(2 * halo)))
            if len(violations) >= max_violations:
                return _dedup(violations)[:max_violations]
        active.append(k)

    # One zone per parent-drawn shape: catches routing-vs-instance and
    # routing-vs-routing interactions wherever the parent drew.
    for _, rect in own:
        violations.extend(check_zone(rect.expanded(2 * halo)))
        if len(violations) >= max_violations:
            return _dedup(violations)[:max_violations]

    # Parent-level cuts may rely on instance metal for enclosure, so
    # they are checked against everything near them.
    own_cuts = [(layer, rect) for layer, rect in own
                if layer in DrcChecker._CUT_ENCLOSURES]
    if own_cuts:
        parts: Dict[str, List[np.ndarray]] = {}
        for _, cut in own_cuts:
            for layer, (coords, _) in _zone_shapes(cell, cut.expanded(halo),
                                                    shape_memo).items():
                parts.setdefault(layer, []).append(coords)
        enclosure_view = {layer: np.concatenate(chunks)
                          for layer, chunks in parts.items()}
        for cut_layer in DrcChecker._CUT_ENCLOSURES:
            if cut_layer in enclosure_view:
                enclosure_view[cut_layer] = own_by_layer.get(
                    cut_layer, rect_array(()))
        violations.extend(checker._check_enclosures(enclosure_view))

    return _dedup(violations)[:max_violations]


def _dedup(violations: Sequence[DrcViolation]) -> List[DrcViolation]:
    """Drop duplicates produced by overlapping zones, keeping order."""
    seen: set = set()
    out: List[DrcViolation] = []
    for v in violations:
        key = (v.rule, v.layer, v.measured, v.required,
               v.where.x1, v.where.y1, v.where.x2, v.where.y2)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def hierarchical_drc(
    cell: Cell,
    process: Process,
    cache: Optional[StageCache] = None,
    max_violations: int = 200,
) -> HierDrcResult:
    """Run the hierarchical sweep over ``cell`` and everything below it.

    Returns per-cell violation lists split into *leaf* (a generator
    produced dirty geometry) and *assembly* (composition created a
    violation across a seam), plus cache/coverage statistics.  The
    cache hit/miss counts are this call's own lookups, even while
    other threads share ``cache``.
    """
    cache = cache if cache is not None else default_cache
    checker = DrcChecker(process)
    deck = process.rules.digest()
    halo = _halo_cu(process)
    hash_memo: dict = {}
    shape_memo: dict = {}
    result = HierDrcResult()
    hits = misses = 0
    t0 = time.perf_counter()

    # Unique cells by content hash; keep the first-seen name for blame.
    unique: Dict[str, Cell] = {}
    for name, sub in cell.subcells().items():
        unique.setdefault(cell_hash(sub, hash_memo), sub)

    leaf_checks = composite_checks = 0
    budget = max_violations
    for content, sub in sorted(unique.items(),
                               key=lambda item: item[1].name):
        if budget <= 0:
            break
        is_leaf = not sub.instances()
        key = f"{deck}:{'leaf' if is_leaf else 'comp'}:{content}"
        hit, verdict = cache.lookup("drc", key)
        if hit:
            hits += 1
        else:
            misses += 1
            if is_leaf:
                leaf_checks += 1
                verdict = tuple(checker.check(sub, budget))
            else:
                composite_checks += 1
                verdict = tuple(_composite_check(
                    sub, checker, halo, hash_memo, shape_memo, budget))
            cache.store("drc", key, verdict)
        if verdict:
            bucket = (result.leaf_violations if is_leaf
                      else result.assembly_violations)
            bucket[sub.name] = list(verdict[:budget])
            budget -= len(bucket[sub.name])

    result.stats = {
        "halo_cu": halo,
        "unique_cells": len(unique),
        "leaf_checks": leaf_checks,
        "composite_checks": composite_checks,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hit_rate(hits, misses),
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }
    return result
