"""Discrete load sets, criticality values, and cumulative criticality functions.

A scenario holds its loads as columns; a region is a range of them, and a
load's criticality is resolved from its nature and region criticalities
over whole columns.

The cumulative criticality function (CCF) of a load set maps a threshold z
to the total power of all loads whose criticality is at most z: a
right-continuous, non-decreasing step function, held as its breakpoints and
their cumulative loads.  Its Lipschitz surrogate replaces each step with a
linear ramp of configurable width ending at the breakpoint, which makes the
threshold-inversion problem solvable by the distributed runtime; the
surrogate is evaluated by the compiled engine, and ``oracle`` inverts both
at a deficit.

A CCF is built from power and criticality columns: a stable sort by
criticality, then one call of the engine's ``prefix_sums``, which adds each
power exactly into a fixed-point accumulator (34 64-bit limbs in units of
2**-1074, so no carry is lost) and rounds the prefix once per breakpoint,
half to even: the prefix's math.fsum.  A NaN power or criticality is
rejected, as a negative power is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _engine


@dataclass(frozen=True)
class Region:
    """A group of loads sharing one regional criticality value.

    Its loads are the range ``loads`` of a scenario's load columns.
    """

    id: int
    region_criticality: float
    loads: range

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


def resolve_criticalities(nature: np.ndarray, region: np.ndarray,
                          nature_weight: float) -> np.ndarray:
    """The convex mix ``w * c_nature + (1 - w) * c_region`` of two float64
    columns, load by load, with ``w = nature_weight``.

    numpy rounds each product and the sum once, as the scalar expression
    does, so each value has the same bits.  For inputs and a weight in
    [0, 1] the mix stays in [0, 1].
    """
    w = nature_weight
    return w * nature + (1.0 - w) * region


@dataclass(frozen=True, eq=False)
class Ccf:
    """Cumulative criticality function as sorted breakpoints.

    ``breakpoints`` and ``cumulative`` are read-only float64 arrays; a
    sequence given for either is copied into one.  ``cumulative[k]`` is the
    exactly-rounded sum (math.fsum) of the powers of all loads with
    criticality <= ``breakpoints[k]``, so evaluations agree bit-for-bit with
    any other fsum over the same multiset; ``build_ccf`` rounds it from an
    exact fixed-point sum.  Both arrays must increase strictly, pair by
    pair: ``not a < b`` fails on a NaN too.
    """

    breakpoints: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        bps = np.array(self.breakpoints, dtype=np.float64)
        cum = np.array(self.cumulative, dtype=np.float64)
        if len(bps) != len(cum):
            raise ValueError("breakpoints and cumulative must have equal length")
        if not (bps[:-1] < bps[1:]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not (cum[:-1] < cum[1:]).all():
            raise ValueError("cumulative loads must be strictly increasing")
        bps.flags.writeable = cum.flags.writeable = False
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "cumulative", cum)

    @property
    def total_load(self) -> float:
        return float(self.cumulative[-1]) if len(self.cumulative) else 0.0


_PAIR = np.dtype([("power", np.float64), ("criticality", np.float64)])


def build_ccf(pairs: Iterable[tuple[float, float]]) -> Ccf:
    """Build a CCF from (power, criticality) tuples.

    Loads sharing a criticality merge into a single breakpoint; zero-power
    loads contribute nothing and produce no breakpoint.  An empty input
    yields the zero CCF.  A load too small to change the rounded
    cumulative load is rejected, as ``Ccf`` requires (``flat_breakpoint``).
    """
    columns = np.fromiter(pairs, dtype=_PAIR)
    return column_ccf(columns["power"], columns["criticality"])


def column_ccf(powers: np.ndarray, criticalities: np.ndarray) -> Ccf:
    """``build_ccf`` of the pairs of two equally long float64 columns."""
    return Ccf(*_cumulative(powers, criticalities))


def flat_breakpoint(powers: np.ndarray, criticalities: np.ndarray) -> float | None:
    """The first breakpoint whose loads leave the rounded cumulative load
    of two float64 columns unchanged, or None when there is none."""
    bps, cumulative = _cumulative(powers, criticalities)
    flat = np.flatnonzero(cumulative[1:] == cumulative[:-1])
    return float(bps[flat[0] + 1]) if flat.size else None


def _cumulative(powers: np.ndarray, criticalities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints of ``build_ccf`` and their cumulative loads, as arrays.

    A stable sort keeps each criticality's loads in input order, so a
    breakpoint is the first of its equal criticalities (-0.0 or 0.0); the
    engine's ``prefix_sums`` then rounds each exact prefix sum once.
    """
    powers = np.asarray(powers, dtype=np.float64)
    criticalities = np.asarray(criticalities, dtype=np.float64)
    if powers.ndim != 1 or powers.shape != criticalities.shape:
        raise ValueError("power and criticality columns must be one-dimensional and equally long")
    bad = np.flatnonzero(~(powers >= 0) | np.isnan(criticalities))
    if bad.size:
        power, crit = powers[bad[0]], criticalities[bad[0]]
        if power < 0:
            raise ValueError(f"negative power {power}")
        raise ValueError(f"NaN in the load (power {power}, criticality {crit})")
    keep = powers > 0
    powers, criticalities = powers[keep], criticalities[keep]
    order = np.argsort(criticalities, kind="stable")
    powers, criticalities = powers[order], criticalities[order]
    bps, cumulative = np.empty(len(order)), np.empty(len(order))
    count = _engine.prefix_sums(len(order), powers.ctypes.data, criticalities.ctypes.data,
                                bps.ctypes.data, cumulative.ctypes.data)
    if count < 0:
        raise OverflowError("cumulative load exceeds the largest float")
    return bps[:count], cumulative[:count]


def _smallest_gap(criticalities: Sequence[float] | np.ndarray) -> float | None:
    """The smallest gap between distinct criticalities, or None when there
    are fewer than two: one ``np.diff`` over the sorted values (a CCF's
    breakpoints are sorted already), skipping the zero gaps of repeats."""
    gaps = np.diff(np.sort(np.asarray(criticalities, dtype=np.float64)))
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if gaps.size else None


def default_ramp_width(criticalities: Sequence[float] | np.ndarray) -> float:
    """The surrogate ramp width when none is given: the smallest gap
    between distinct criticalities, or 1.0 when there are fewer than two."""
    gap = _smallest_gap(criticalities)
    return 1.0 if gap is None else gap


def shed_decision(criticalities: np.ndarray, z: float) -> np.ndarray:
    """Which loads the finite threshold z sheds: a mask of the
    criticalities at or below it."""
    if not math.isfinite(z):
        raise ValueError(f"shed threshold must be finite, got {z}")
    return np.asarray(criticalities, dtype=np.float64) <= z


def check_ramp_width(criticalities: Sequence[float] | np.ndarray, ramp_width: float) -> None:
    """Reject a surrogate ramp width that is not positive or exceeds the
    smallest gap between distinct criticalities."""
    if ramp_width <= 0:
        raise ValueError(f"ramp width must be positive, got {ramp_width}")
    gap = _smallest_gap(criticalities)
    # a few ulps of slack: a width equal to the real smallest gap
    # may exceed the float-rounded gap by one ulp
    if gap is not None and ramp_width > gap * (1.0 + 1e-12):
        raise ValueError(f"ramp width {ramp_width} exceeds the smallest criticality gap {gap}")


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
    bps, cum = surrogate.base.breakpoints, surrogate.base.cumulative
    _engine.surrogate(zs.size, zs.ctypes.data, bps.ctypes.data, len(bps), cum.ctypes.data,
                      surrogate.ramp_width, out.ctypes.data)
    return out if np.ndim(z) else float(out)
