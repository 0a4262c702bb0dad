"""The eight Manhattan orientations and affine placement transforms.

A macrocell placed in a layout may appear in any of the eight orientations
of the dihedral group D4: rotations by 0/90/180/270 degrees, each with or
without a mirror.  The paper's port-alignment heuristic explicitly avoids
"the long computation involved in trying out all 64 pairs of orientations"
between two macrocells — 8 orientations each — so the full group must be
representable even when the placer prunes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.geometry.point import Point


class Orientation(enum.Enum):
    """Manhattan orientation: ``R<deg>`` rotations and ``MX/MY`` mirrors.

    The mirrored entries follow the GDSII/LEF convention: ``MX`` mirrors
    about the x-axis (flips y) *before* the rotation is applied.
    """

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"  # mirror about x axis
    MX90 = "MX90"  # mirror about x axis, then rotate 90
    MY = "MY"  # mirror about y axis
    MY90 = "MY90"  # mirror about y axis, then rotate 90


# Each orientation as a 2x2 integer matrix (a, b, c, d) meaning
#   x' = a*x + b*y ;  y' = c*x + d*y
_MATRICES = {
    Orientation.R0: (1, 0, 0, 1),
    Orientation.R90: (0, -1, 1, 0),
    Orientation.R180: (-1, 0, 0, -1),
    Orientation.R270: (0, 1, -1, 0),
    Orientation.MX: (1, 0, 0, -1),
    Orientation.MX90: (0, -1, -1, 0),
    Orientation.MY: (-1, 0, 0, 1),
    Orientation.MY90: (0, 1, 1, 0),
}

ALL_ORIENTATIONS = tuple(Orientation)


def _compose_matrices(m1, m2):
    """Return the matrix product ``m1 @ m2`` of two orientation matrices."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


_MATRIX_TO_ORIENT = {m: o for o, m in _MATRICES.items()}


@dataclass(frozen=True)
class Transform:
    """An orientation followed by a translation: ``p' = M p + t``."""

    orientation: Orientation = Orientation.R0
    translation: Point = Point(0, 0)

    @property
    def matrix(self):
        """The orientation as ``(a, b, c, d)``: ``x' = a*x + b*y + tx``,
        ``y' = c*x + d*y + ty``."""
        return _MATRICES[self.orientation]

    def apply(self, point: Point) -> Point:
        """Transform a single point."""
        a, b, c, d = _MATRICES[self.orientation]
        return Point(
            a * point.x + b * point.y + self.translation.x,
            c * point.x + d * point.y + self.translation.y,
        )

    def compose(self, inner: "Transform") -> "Transform":
        """Return the transform equivalent to applying ``inner`` then ``self``.

        Used when flattening a cell hierarchy: the effective transform of a
        grand-child instance is ``parent.compose(child)``.
        """
        m = _compose_matrices(
            _MATRICES[self.orientation], _MATRICES[inner.orientation]
        )
        return Transform(
            orientation=_MATRIX_TO_ORIENT[m],
            translation=self.apply(inner.translation),
        )

    def inverse(self) -> "Transform":
        """Return the transform mapping transformed space back to original."""
        a, b, c, d = _MATRICES[self.orientation]
        # Orientation matrices are orthogonal with integer entries, so the
        # inverse matrix is the transpose.
        inv = (a, c, b, d)
        inv_orient = _MATRIX_TO_ORIENT[inv]
        ia, ib, ic, id_ = inv
        t = self.translation
        return Transform(
            orientation=inv_orient,
            translation=Point(-(ia * t.x + ib * t.y), -(ic * t.x + id_ * t.y)),
        )

    def is_mirrored(self) -> bool:
        """True when the orientation reverses handedness (determinant -1)."""
        a, b, c, d = _MATRICES[self.orientation]
        return a * d - b * c == -1


IDENTITY = Transform()
