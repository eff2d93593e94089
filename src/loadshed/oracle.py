"""Centralized ground-truth solvers used to verify every distributed run.

Each operation is an independent reference path: greedy prefix selection,
exact threshold inversion on the CCF and its surrogate, and the
closed-form solution of the continuous variant.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .criticality import (
    Ccf,
    CriticalLoad,
    SurrogateCcf,
    build_ccf,
    default_ramp_width,
    eval_ccf,
    ramp,
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


def exact_z_star(ccf: Ccf, deficit: float) -> float:
    """Smallest breakpoint z with f(z) >= deficit.

    The optimal threshold is always one of the criticality values present,
    so searching breakpoints is exhaustive.
    """
    if not ccf.breakpoints:
        raise ValueError("CCF has no breakpoints")
    if deficit > ccf.total_load:
        raise InfeasibleError(
            f"deficit {deficit} exceeds total sheddable power {ccf.total_load}"
        )
    return ccf.breakpoints[bisect_left(ccf.cumulative, deficit)]


def exact_z_hat(surrogate: SurrogateCcf, deficit: float) -> float:
    """Smallest z with surrogate value equal to the deficit.

    Inverts the unique ramp segment containing the deficit.  Where the
    surrogate is flat at exactly the deficit, this returns the left
    endpoint of the plateau.
    """
    ccf = surrogate.base
    if not ccf.breakpoints:
        raise ValueError("CCF has no breakpoints")
    if deficit < 0:
        raise ValueError(f"deficit {deficit} is negative")
    if deficit > ccf.total_load:
        raise InfeasibleError(
            f"deficit {deficit} exceeds total sheddable power {ccf.total_load}"
        )
    if deficit == 0.0:
        return ccf.breakpoints[0] - surrogate.ramp_width
    idx = bisect_left(ccf.cumulative, deficit)
    below = ccf.cumulative[idx - 1] if idx else 0.0
    mass = ccf.cumulative[idx] - below
    return ccf.breakpoints[idx] - surrogate.ramp_width * (1.0 - (deficit - below) / mass)


def greedy_shed_set(
    loads: Sequence[CriticalLoad], deficit: float, ramp_width: float | None = None
) -> SheddingSolution:
    """Greedy prefix covering the deficit, and the CCF threshold set.

    Loads are ordered by (criticality, id); the prefix stops as soon as its
    power sum reaches the deficit, so it may split a group of equal
    criticality.  The CCF threshold ``z_star`` sheds such groups whole,
    which is why its total can exceed the greedy one.  ``ramp_width``
    defaults to ``default_ramp_width`` of the CCF's breakpoints.
    """
    ccf = build_ccf((l.power, l.criticality) for l in loads)
    if ccf.total_load < deficit:
        raise InfeasibleError(
            f"total sheddable power is below the deficit {deficit}"
        )
    prefix: list[CriticalLoad] = []
    acc = 0.0
    for load in sorted(loads, key=lambda l: (l.criticality, l.id)):
        if acc >= deficit:
            break
        prefix.append(load)
        acc += load.power

    if ramp_width is None:
        ramp_width = default_ramp_width(ccf.breakpoints)
    surrogate = SurrogateCcf(ccf, ramp_width)
    z_star = exact_z_star(ccf, deficit)
    shed_total = eval_ccf(ccf, z_star)
    return SheddingSolution(
        z_star=z_star,
        z_hat=exact_z_hat(surrogate, deficit),
        shed_total=shed_total,
        shed_ids=tuple(l.id for l in shed_decision(loads, z_star)),
        greedy_total=math.fsum(l.power for l in prefix),
        greedy_ids=tuple(l.id for l in prefix),
        boundary_case=abs(shed_total - deficit) <= BOUNDARY_TOL,
    )


def continuous_ccf_eval(regions: Iterable[tuple[float, float]], z: float) -> float:
    """Continuous-variant CCF: sum of capacity times a unit-width ramp."""
    parts = []
    for capacity, criticality in regions:
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        parts.append(capacity * ramp(z - criticality, 1.0))
    return math.fsum(parts)


def continuous_solution(
    regions: Sequence[tuple[float, float]], deficit: float
) -> ContinuousSolution:
    """Closed-form split of the deficit across continuously sheddable regions.

    Finds the smallest root of the continuous CCF by piecewise-linear
    inversion over its kink points, then fills regions whole up to the
    root's floor, fractionally at the next integer level, and not at all
    above.  Regional criticalities must be integers for the fill rule.
    """
    if deficit < 0:
        raise ValueError(f"deficit {deficit} is negative")
    total = math.fsum(cap for cap, _ in regions)
    if deficit > total:
        raise InfeasibleError(f"deficit {deficit} exceeds total capacity {total}")
    kinks = sorted({c - 1.0 for _, c in regions} | {float(c) for _, c in regions})
    values = [continuous_ccf_eval(regions, k) for k in kinks]
    idx = bisect_left(values, deficit)
    if values[idx] == deficit:
        z = kinks[idx]
    else:
        lo, hi = kinks[idx - 1], kinks[idx]
        flo, fhi = values[idx - 1], values[idx]
        z = lo + (deficit - flo) * (hi - lo) / (fhi - flo)
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
