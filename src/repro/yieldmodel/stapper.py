"""Stapper's negative-binomial yield model.

"Let us also assume the well-known yield formula due to Stapper to
calculate the original yield of the memory array without built-in
self-repair: Y = (1 + d*A/alpha)^(-alpha), where d is the defect
density, A is the area of the RAM array, and alpha is some clustering
factor of the defects."  alpha -> infinity recovers the Poisson model;
small alpha means strongly clustered defects (kinder to yield).
"""

from __future__ import annotations


def stapper_yield(defect_density: float, area: float,
                  alpha: float = 2.0) -> float:
    """Y = (1 + d*A/alpha)^(-alpha).

    Args:
        defect_density: defects per unit area.
        area: chip/macro area in matching units.
        alpha: clustering factor; typical manufacturing fits are 1-5.
    """
    if defect_density < 0 or area < 0:
        raise ValueError("defect density and area must be non-negative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (1.0 + defect_density * area / alpha) ** (-alpha)


def defects_from_yield(yield_value: float, alpha: float = 2.0) -> float:
    """Invert Stapper: mean defect count d*A from an observed yield.

    Used to back defect counts out of published die-yield figures when
    reconstructing the cost tables.
    """
    if not 0.0 < yield_value <= 1.0:
        raise ValueError("yield must be in (0, 1]")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha * (yield_value ** (-1.0 / alpha) - 1.0)
