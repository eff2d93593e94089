"""Discrete load sets, criticality values, and cumulative criticality functions.

The cumulative criticality function (CCF) of a load set maps a threshold z
to the total power of all loads whose criticality is at most z: a
right-continuous, non-decreasing step function, held as its breakpoints and
their cumulative loads.  Its Lipschitz surrogate replaces each step with a
linear ramp of configurable width ending at the breakpoint, which makes the
threshold-inversion problem solvable by the distributed runtime; the
surrogate is evaluated by the compiled engine, and ``oracle`` inverts both
at a deficit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _engine


@dataclass(frozen=True)
class Load:
    """A sheddable load: power demand (GW) plus its intrinsic criticality."""

    id: int
    power: float
    nature_criticality: float

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


@dataclass(frozen=True)
class CriticalLoad:
    """A load with its combined criticality resolved."""

    id: int
    power: float
    criticality: float


def resolve_loads(regions: Sequence[Region], nature_weight: float) -> tuple[CriticalLoad, ...]:
    """Flatten regions into loads whose criticality is the convex mix
    ``w * c_nature + (1 - w) * c_region`` with ``w = nature_weight``.

    Enforces that load ids are unique; a repeat is named by its path,
    ``regions[j].loads[i].id``.  ``Load`` and ``Region`` hold both inputs
    in [0, 1], so for a weight in [0, 1] the mix stays there too.
    """
    w = nature_weight
    seen: set[int] = set()
    out: list[CriticalLoad] = []
    for j, region in enumerate(regions):
        for i, load in enumerate(region.loads):
            if load.id in seen:
                raise ValueError(f"regions[{j}].loads[{i}].id: duplicate load id {load.id} "
                                 "(ids must be unique)")
            seen.add(load.id)
            c = w * load.nature_criticality + (1.0 - w) * region.region_criticality
            out.append(CriticalLoad(load.id, load.power, c))
    return tuple(out)


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


_UNIT = 1 << 1074  # every finite float is a whole number of 2**-1074 units


def build_ccf(pairs: Iterable[tuple[float, float]]) -> Ccf:
    """Build a CCF from (power, criticality) pairs.

    Loads sharing a criticality merge into a single breakpoint; zero-power
    loads contribute nothing and produce no breakpoint.  An empty input
    yields the zero CCF.  A load too small to change the rounded
    cumulative load is rejected, as ``Ccf`` requires (``flat_breakpoint``).
    """
    return Ccf(*_cumulative(pairs))


def flat_breakpoint(pairs: Iterable[tuple[float, float]]) -> float | None:
    """The first breakpoint whose loads leave the rounded cumulative load
    of (power, criticality) pairs unchanged, or None when there is none."""
    bps, cumulative = _cumulative(pairs)
    return next((z for z, a, b in zip(bps[1:], cumulative, cumulative[1:]) if a == b), None)


def _cumulative(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, ...], ...]:
    """The breakpoints of ``build_ccf`` and their cumulative loads."""
    groups: dict[float, list[float]] = {}
    for power, crit in pairs:
        if power < 0:
            raise ValueError(f"negative power {power}")
        if power > 0:
            groups.setdefault(crit, []).append(power)
    bps = sorted(groups)
    # the exact prefix sum in _UNITs, rounded correctly (int / int) once per
    # breakpoint: the prefix's math.fsum, and an OverflowError where it overflows
    units = 0
    cumulative: list[float] = []
    for z in bps:
        for power in groups[z]:
            num, den = power.as_integer_ratio()  # den = 2**k, k <= 1074
            units += num << (1075 - den.bit_length())
        cumulative.append(units / _UNIT)
    return tuple(bps), tuple(cumulative)


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


def default_ramp_width(criticalities: Iterable[float]) -> float:
    """The surrogate ramp width when none is given: the smallest gap
    between distinct criticalities, or 1.0 when there are fewer than two."""
    distinct = set(criticalities)
    return min_gap(distinct) if len(distinct) >= 2 else 1.0


def shed_decision(loads: Iterable[CriticalLoad], z: float) -> list[CriticalLoad]:
    """The loads with criticality at or below the finite threshold z."""
    if not math.isfinite(z):
        raise ValueError(f"shed threshold must be finite, got {z}")
    return [load for load in loads if load.criticality <= z]


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
    at every breakpoint and is non-decreasing, with Lipschitz constant its
    largest step over ``ramp_width`` (at most total_load / ramp_width).
    """

    base: Ccf
    ramp_width: float

    def __post_init__(self):
        check_ramp_width(self.base.breakpoints, self.ramp_width)
        # the arrays eval_surrogate and the engine read: breakpoints, cumulative loads
        object.__setattr__(self, "_bps", np.array(self.base.breakpoints, dtype=np.float64))
        object.__setattr__(self, "_cum", np.array(self.base.cumulative, dtype=np.float64))


def eval_surrogate(surrogate: SurrogateCcf, z: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the surrogate CCF at z, a float or a float64 array.

    A float gives a float, an array an array of its shape.  Because the
    ramp width never exceeds the smallest breakpoint gap, at most one ramp
    is partially climbed at any z: everything below is fully counted,
    everything above contributes nothing.  Each point is evaluated by the
    engine's own surrogate function (``_engine.c``), bit for bit as the
    recursion does.
    """
    zs = np.asarray(z, dtype=np.float64, order="C")
    out = np.empty(zs.shape)
    bps, cum = surrogate._bps, surrogate._cum
    _engine.surrogate(zs.size, zs.ctypes.data, bps.ctypes.data, len(bps), cum.ctypes.data,
                      surrogate.ramp_width, out.ctypes.data)
    return out if np.ndim(z) else float(out)
