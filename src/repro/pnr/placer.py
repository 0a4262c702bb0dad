"""Decreasing-area macrocell placement with a rectangularity objective.

The placer packs rectangular macrocells onto shelves: blocks are sorted
in decreasing area (the paper's first step), the target outline width
is the square root of the total area (the "as rectangular as possible"
objective), and each block lands on the first shelf with room,
left-to-right.  The resulting outline's fill ratio and aspect ratio are
the quality metrics; for memory-shaped block sets (one dominant array
plus thin periphery) the fill ratio stays within a small constant of 1,
which is the paper's (1 + epsilon) optimality claim in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point, Rect
from repro.layout.cell import Cell


@dataclass(frozen=True)
class Block:
    """One macrocell to place."""

    name: str
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"block {self.name!r} must have positive size")

    @property
    def area(self) -> int:
        return self.width * self.height

    @classmethod
    def from_cell(cls, cell: Cell) -> "Block":
        box = cell.bbox()
        if box is None or box.area == 0:
            raise ValueError(f"cell {cell.name!r} has no geometry")
        return cls(cell.name, box.width, box.height)


@dataclass
class Placement:
    """Placement result: block name -> location rectangle."""

    locations: Dict[str, Rect] = field(default_factory=dict)

    def outline(self) -> Rect:
        if not self.locations:
            raise ValueError("empty placement")
        box = None
        for rect in self.locations.values():
            box = rect if box is None else box.union_bbox(rect)
        return box

    def overlaps(self) -> List[Tuple[str, str]]:
        """Pairs of blocks whose placements overlap (must be empty)."""
        names = sorted(self.locations)
        bad = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.locations[a].overlaps(self.locations[b]):
                    bad.append((a, b))
        return bad


def place_decreasing_area(
    blocks: Sequence[Block],
    target_width: Optional[int] = None,
    spacing: int = 0,
) -> Placement:
    """Shelf-pack blocks sorted by decreasing area.

    Without an explicit ``target_width`` the placer tries several
    candidate widths (the widest block, the widest block plus each
    distinct other width, and square-ish widths) and keeps the most
    rectangular result — the paper's "heuristics to make the overall
    layout as rectangular as possible".

    Args:
        blocks: macrocells to place (names must be unique).
        target_width: outline width to pack toward; None sweeps
            candidates.
        spacing: minimum gap between blocks (routing slack).
    """
    if not blocks:
        raise ValueError("nothing to place")
    names = [b.name for b in blocks]
    if len(set(names)) != len(names):
        raise ValueError("duplicate block names")
    if spacing < 0:
        raise ValueError("spacing must be non-negative")

    if target_width is None:
        widest = max(b.width for b in blocks)
        total_area = sum(b.area for b in blocks)
        candidates = {widest}
        for b in sorted(blocks, key=lambda b: -b.width)[:6]:
            candidates.add(widest + spacing + b.width)
        for factor in (1.0, 1.25, 1.6):
            candidates.add(
                max(widest, int(math.isqrt(total_area) * factor))
            )
        best = None
        best_key = None
        for width in sorted(candidates):
            attempt = _shelf_pack(blocks, width, spacing)
            outline = attempt.outline()
            key = (outline.area, abs(math.log(outline.aspect_ratio())))
            if best_key is None or key < best_key:
                best, best_key = attempt, key
        return best
    width = max(target_width, max(b.width for b in blocks))
    return _shelf_pack(blocks, width, spacing)


def _shelf_pack(blocks: Sequence[Block], width: int,
                spacing: int) -> Placement:
    """One shelf-packing pass at a fixed outline width."""
    ordered = sorted(blocks, key=lambda b: (-b.area, b.name))
    placement = Placement()
    shelves: List[List[int]] = []  # (y, height, cursor_x) triples
    shelf_meta: List[Tuple[int, int, int]] = []
    y_cursor = 0
    for block in ordered:
        placed = False
        for i, (shelf_y, shelf_h, cursor) in enumerate(shelf_meta):
            if block.height <= shelf_h and cursor + block.width <= width:
                placement.locations[block.name] = Rect.from_size(
                    Point(cursor, shelf_y), block.width, block.height
                )
                shelf_meta[i] = (shelf_y, shelf_h, cursor + block.width
                                 + spacing)
                placed = True
                break
        if not placed:
            placement.locations[block.name] = Rect.from_size(
                Point(0, y_cursor), block.width, block.height
            )
            shelf_meta.append(
                (y_cursor, block.height, block.width + spacing)
            )
            y_cursor += block.height + spacing
    return placement


@dataclass(frozen=True)
class PlacementQuality:
    """Area and shape quality of a placement."""

    outline_area: int
    block_area: int
    fill_ratio: float
    aspect_ratio: float

    @property
    def epsilon(self) -> float:
        """Area overhead over the block-area lower bound.

        The paper's provable-quality claim is outline area within
        (1 + epsilon) of optimal; optimal can never beat the sum of
        block areas, so this epsilon is a conservative bound.
        """
        return self.outline_area / self.block_area - 1.0


def placement_quality(placement: Placement,
                      blocks: Sequence[Block]) -> PlacementQuality:
    """Measure fill ratio and aspect ratio of a placement."""
    outline = placement.outline()
    block_area = sum(b.area for b in blocks)
    return PlacementQuality(
        outline_area=outline.area,
        block_area=block_area,
        fill_ratio=block_area / outline.area,
        aspect_ratio=outline.aspect_ratio(),
    )
