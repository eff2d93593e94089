"""Centralized ground-truth solvers used to verify every distributed run.

Every answer inverts a CCF at the deficit through one lookup,
``deficit_segment``: the index of the smallest breakpoint whose cumulative
load reaches the deficit, and how far up that step the deficit sits.  The
discrete threshold is that breakpoint, the surrogate root sits the same
fraction up the ramp ending there, and the continuous closed form is the
same point on the unit ramp of the regions' CCF.  The greedy prefix is an
independent path checked against them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .criticality import (
    Ccf,
    SurrogateCcf,
    build_ccf,
    column_ccf,
    default_ramp_width,
    shed_decision,
)

# absolute tolerance for detecting an exact CCF hit, f(z*) == deficit
BOUNDARY_TOL = 1e-9


class InfeasibleError(ValueError):
    """Total sheddable power is below the requested deficit."""


@dataclass(frozen=True)
class SheddingSolution:
    """Result of the centralized discrete solver.

    ``shed_ids``/``shed_total``: the loads at or below the threshold
    ``z_star``, in input order; ``greedy_ids``/``greedy_total``: the greedy
    prefix.  ``boundary_case`` flags the measure-zero situation where the
    CCF meets the deficit exactly at the threshold, in which case the
    threshold recovered from the surrogate root sits at, not above, that root.
    """

    z_star: float
    z_hat: float
    shed_total: float
    shed_ids: tuple[int, ...]
    greedy_total: float
    greedy_ids: tuple[int, ...]
    boundary_case: bool


@dataclass(frozen=True)
class ContinuousSolution:
    per_region_shed: tuple[float, ...]
    z_tilde: float


def deficit_segment(ccf: Ccf, deficit: float) -> tuple[int, float]:
    """Where the CCF reaches the deficit: ``(i, fraction)``.

    ``i`` indexes the smallest breakpoint whose cumulative load is at least
    the deficit, and ``fraction`` is ``(deficit - below) / (cumulative[i] -
    below)`` with ``below`` the cumulative load of the breakpoint before it
    (0 for the first).  A zero deficit gives ``(0, 0.0)``, the first
    breakpoint that carries load.  A negative or NaN deficit and a CCF
    without breakpoints are ``ValueError``s, a deficit above the total load
    an ``InfeasibleError``.
    """
    if not deficit >= 0:
        raise ValueError(f"deficit {deficit} is negative or NaN")
    if deficit > ccf.total_load:
        raise InfeasibleError(
            f"deficit {deficit} exceeds total sheddable power {ccf.total_load}"
        )
    if not ccf.breakpoints:
        raise ValueError("CCF has no breakpoints")
    i = bisect_left(ccf.cumulative, deficit)
    below = ccf.cumulative[i - 1] if i else 0.0
    return i, (deficit - below) / (ccf.cumulative[i] - below)


def exact_z_star(ccf: Ccf, deficit: float) -> float:
    """Smallest breakpoint z with f(z) >= deficit.

    The optimal threshold is always one of the criticality values present,
    so searching breakpoints is exhaustive.
    """
    return ccf.breakpoints[deficit_segment(ccf, deficit)[0]]


def exact_z_hat(surrogate: SurrogateCcf, deficit: float) -> float:
    """Smallest z with surrogate value equal to the deficit.

    Inverts the unique ramp segment containing the deficit.  Where the
    surrogate is flat at exactly the deficit, this returns the left
    endpoint of the plateau.
    """
    i, fraction = deficit_segment(surrogate.base, deficit)
    return surrogate.base.breakpoints[i] - surrogate.ramp_width * (1.0 - fraction)


def greedy_shed_set(
    ids: Sequence[int], powers: np.ndarray, criticalities: np.ndarray, deficit: float,
    ramp_width: float | None = None,
) -> SheddingSolution:
    """Greedy prefix covering the deficit, and the CCF threshold set, of the
    loads given as columns: ids (any integers) and float64 powers and
    criticalities.

    Loads are ordered by (criticality, id); the prefix stops as soon as its
    running power sum reaches the deficit, so it may split a group of equal
    criticality.  The CCF threshold ``z_star`` sheds such groups whole,
    which is why its total can exceed the greedy one.  ``ramp_width``
    defaults to ``default_ramp_width`` of the CCF's breakpoints.
    """
    ccf = column_ccf(powers, criticalities)
    i, _ = deficit_segment(ccf, deficit)
    order = np.argsort(criticalities, kind="stable")
    ranked = criticalities[order]
    if (ranked[1:] == ranked[:-1]).any():  # equal criticalities (-0.0 and 0.0 too) go by id
        crits = criticalities.tolist()
        order = np.array(sorted(range(len(crits)), key=lambda k: (crits[k], ids[k])), np.intp)
    # the running sums the walk adds one load at a time: cumsum adds in
    # order, as the walk does; a deficit of 0 is reached before any load
    running = np.cumsum(powers[order])
    size = min(int(np.searchsorted(running, deficit)) + 1, len(order)) if deficit > 0 else 0
    prefix = order[:size]

    if ramp_width is None:
        ramp_width = default_ramp_width(ccf.breakpoints)
    z_star, shed_total = ccf.breakpoints[i], ccf.cumulative[i]
    return SheddingSolution(
        z_star=z_star,
        z_hat=exact_z_hat(SurrogateCcf(ccf, ramp_width), deficit),
        shed_total=shed_total,
        shed_ids=tuple(compress(ids, shed_decision(criticalities, z_star).tolist())),
        greedy_total=math.fsum(powers[prefix].tolist()),
        greedy_ids=tuple(map(ids.__getitem__, prefix.tolist())),
        boundary_case=abs(shed_total - deficit) <= BOUNDARY_TOL,
    )


def continuous_solution(
    regions: Sequence[tuple[float, float]], deficit: float
) -> ContinuousSolution:
    """Closed-form split of the deficit across continuously sheddable regions.

    Each region's capacity ramps in over the unit interval ending at its
    criticality.  Criticalities must be integers, so the ramps never
    overlap and the smallest root lies ``fraction`` up the ramp ending at
    the breakpoint ``deficit_segment`` finds in the regions' CCF.  Regions
    then fill whole up to the root's floor, fractionally at the next
    integer level, and not at all above.
    """
    ccf = build_ccf(regions)
    i, fraction = deficit_segment(ccf, deficit)
    z = (ccf.breakpoints[i] - 1.0) + fraction
    shed = tuple(continuous_fill(capacity, criticality, z) for capacity, criticality in regions)
    return ContinuousSolution(shed, z)


def continuous_fill(capacity: float, criticality: float, z: float) -> float:
    """Fill rule of the continuous variant for one region at threshold z:
    the whole capacity up to level floor(z), the fraction z - floor(z) of
    it at the next integer level, nothing above."""
    floor = math.floor(z)
    if criticality <= floor:
        return capacity
    if criticality <= math.ceil(z):
        return capacity * (z - floor)
    return 0.0
