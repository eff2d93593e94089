"""Discrete load sets, criticality values, and cumulative criticality functions.

The cumulative criticality function (CCF) of a load set maps a threshold z
to the total power of all loads whose criticality is at most z: a
right-continuous, non-decreasing step function.  Its Lipschitz surrogate
replaces each step with a linear ramp of configurable width, which makes
the threshold-inversion problem solvable by the distributed runtime.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Load:
    """A sheddable load: power demand (GW) plus its intrinsic criticality."""

    id: int
    power: float
    nature_criticality: float
    region_id: int

    def __post_init__(self):
        if self.power < 0:
            raise ValueError(f"load {self.id}: power must be nonnegative, got {self.power}")
        if not 0.0 <= self.nature_criticality <= 1.0:
            raise ValueError(
                f"load {self.id}: nature criticality {self.nature_criticality} outside [0, 1]"
            )


@dataclass(frozen=True)
class Region:
    """A group of loads sharing one regional criticality value."""

    id: int
    region_criticality: float
    loads: tuple[Load, ...]

    def __post_init__(self):
        if not 0.0 <= self.region_criticality <= 1.0:
            raise ValueError(
                f"region {self.id}: criticality {self.region_criticality} outside [0, 1]"
            )
        for load in self.loads:
            if load.region_id != self.id:
                raise ValueError(
                    f"load {load.id} carries region_id {load.region_id} inside region {self.id}"
                )


@dataclass(frozen=True)
class CriticalLoad:
    """A load with its combined criticality resolved."""

    id: int
    power: float
    criticality: float


@dataclass(frozen=True)
class ConvexCombiner:
    """Combine load and region criticality as a convex mix.

    ``nature_weight`` is the share given to the load's own value; the
    remainder goes to the regional value.  Output stays in [0, 1] whenever
    both inputs do, and is monotone in both arguments.
    """

    nature_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.nature_weight <= 1.0:
            raise ValueError(f"combiner weight {self.nature_weight} outside [0, 1]")

    def __call__(self, c_nature: float, c_region: float) -> float:
        return self.nature_weight * c_nature + (1.0 - self.nature_weight) * c_region


Combiner = Callable[[float, float], float]


def combine_criticality(combiner: Combiner, c_nature: float, c_region: float) -> float:
    """Apply a combiner rule with domain and range checks."""
    if not 0.0 <= c_nature <= 1.0:
        raise ValueError(f"nature criticality {c_nature} outside [0, 1]")
    if not 0.0 <= c_region <= 1.0:
        raise ValueError(f"region criticality {c_region} outside [0, 1]")
    value = combiner(c_nature, c_region)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"combiner produced {value}, outside [0, 1]")
    return value


def resolve_loads(regions: Sequence[Region], combiner: Combiner) -> tuple[CriticalLoad, ...]:
    """Flatten regions into loads with combined criticalities.

    Enforces that the regions partition the load set: ids unique, every
    load tagged with its own region.
    """
    seen: set[int] = set()
    out: list[CriticalLoad] = []
    for region in regions:
        for load in region.loads:
            if load.id in seen:
                raise ValueError(f"duplicate load id {load.id}")
            seen.add(load.id)
            c = combine_criticality(combiner, load.nature_criticality, region.region_criticality)
            out.append(CriticalLoad(load.id, load.power, c))
    return tuple(out)


def ramp(z: float, width: float) -> float:
    """Unit ramp: 0 below -width, linear up to 1 at 0, then saturated."""
    if z >= 0.0:
        return 1.0
    if z >= -width:
        return z / width + 1.0
    return 0.0


@dataclass(frozen=True)
class Ccf:
    """Cumulative criticality function as sorted breakpoints.

    ``cumulative[k]`` is the exactly-rounded sum (math.fsum) of the powers
    of all loads with criticality <= ``breakpoints[k]``, so evaluations
    agree bit-for-bit with any other fsum over the same multiset.
    """

    breakpoints: tuple[float, ...]
    cumulative: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.cumulative):
            raise ValueError("breakpoints and cumulative must have equal length")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        if any(b >= a for a, b in zip(self.cumulative[1:], self.cumulative)):
            raise ValueError("cumulative loads must be strictly increasing")

    @property
    def total_load(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0


def build_ccf(pairs: Iterable[tuple[float, float]]) -> Ccf:
    """Build a CCF from (power, criticality) pairs.

    Loads sharing a criticality merge into a single breakpoint; zero-power
    loads contribute nothing and produce no breakpoint, keeping the
    cumulative sums strictly increasing.  An empty input yields the zero
    CCF.
    """
    groups: dict[float, list[float]] = {}
    for power, crit in pairs:
        if power < 0:
            raise ValueError(f"negative power {power}")
        if power > 0:
            groups.setdefault(crit, []).append(power)
    bps = sorted(groups)
    acc: list[float] = []
    cumulative: list[float] = []
    for z in bps:
        acc.extend(groups[z])
        cumulative.append(math.fsum(acc))
    return Ccf(tuple(bps), tuple(cumulative))


def eval_ccf(ccf: Ccf, z: float) -> float:
    """Total power of loads with criticality <= z (right-continuous in z)."""
    idx = bisect_right(ccf.breakpoints, z)
    return ccf.cumulative[idx - 1] if idx else 0.0


def min_gap(criticalities: Iterable[float]) -> float:
    """Smallest positive difference between distinct criticality values."""
    distinct = sorted(set(criticalities))
    if len(distinct) < 2:
        raise ValueError("min_gap needs at least two distinct criticality values")
    return min(b - a for a, b in zip(distinct, distinct[1:]))


def check_ramp_width(criticalities: Iterable[float], ramp_width: float) -> None:
    """Reject a surrogate ramp width that is not positive or exceeds the
    smallest gap between distinct criticalities."""
    if ramp_width <= 0:
        raise ValueError(f"ramp width must be positive, got {ramp_width}")
    distinct = set(criticalities)
    if len(distinct) >= 2:
        gap = min_gap(distinct)
        # a few ulps of slack: a width equal to the real smallest gap
        # may exceed the float-rounded gap by one ulp
        if ramp_width > gap * (1.0 + 1e-12):
            raise ValueError(
                f"ramp width {ramp_width} exceeds the smallest criticality gap {gap}"
            )


@dataclass(frozen=True)
class SurrogateCcf:
    """Piecewise-linear surrogate of a CCF.

    Each step becomes a ramp of width ``ramp_width`` ending at the
    breakpoint.  The width may not exceed the smallest gap between
    breakpoints, which guarantees the surrogate agrees with the base CCF
    at every breakpoint and is non-decreasing with Lipschitz constant
    total_load / ramp_width.
    """

    base: Ccf
    ramp_width: float

    def __post_init__(self):
        check_ramp_width(self.base.breakpoints, self.ramp_width)
        # eval_surrogate's arrays: breakpoints, and cumulative loads after a leading 0.0
        object.__setattr__(self, "_bps", np.array(self.base.breakpoints, dtype=np.float64))
        object.__setattr__(self, "_cum", np.array((0.0, *self.base.cumulative)))


def eval_surrogate(surrogate: SurrogateCcf, z: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the surrogate CCF at z, a float or a float64 array.

    A float gives a float, an array an array of its shape.  Because the
    ramp width never exceeds the smallest breakpoint gap, at most one ramp
    is partially climbed at any z: everything below is fully counted,
    everything above contributes nothing.  Each point takes the arithmetic
    of the scalar recursion in ``protocol.x_rounds``, bit for bit.
    """
    bps, cum, c = surrogate._bps, surrogate._cum, surrogate.ramp_width
    zs = np.asarray(z, dtype=np.float64).reshape(-1)
    idx = np.searchsorted(bps, zs, side="right")
    value = cum[idx]  # the load at or below z
    # the ramp term only below the last breakpoint, on the ramp to the next
    lanes = np.flatnonzero(idx < len(bps))
    d = zs[lanes] - bps[idx[lanes]]
    lanes, d = lanes[d > -c], d[d > -c]
    below = value[lanes]
    value[lanes] = below + (cum[idx[lanes] + 1] - below) * (d / c + 1.0)
    return value.reshape(np.shape(z)) if np.ndim(z) else float(value[0])


def local_zeta(sorted_criticalities: Sequence[float], x: float) -> float:
    """Smallest regional criticality at or above x; +inf when none exists.

    The infinity sentinel is absorbed correctly by min-consensus layers:
    it compares above every finite value and stays infinite under addition.
    """
    i = bisect_left(sorted_criticalities, x)
    if i == len(sorted_criticalities):
        return math.inf
    return sorted_criticalities[i]
