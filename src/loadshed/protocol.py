"""Synchronous-round distributed runtime for priority-based load shedding.

Each region keeps a scalar estimate of the shedding threshold; a regional
cutoff (the smallest own criticality at or above the estimate) feeds a
dynamic min-consensus layer whose minimum is the network-wide threshold.
The estimates never read the other two layers, so the engine runs the
layers one after another over chunks of rounds: the recursion kernel
``x_rounds`` (x <- W(t) x - eta(t) (S_j(x_j) - p_j(t))), the cutoff layer
``cutoffs``, then the min-consensus kernel ``dmc_rounds``.  Estimators
return the deficit estimates of a chunk as one array (``block(t0, t1)``).
Every update reads only previous-round state, and all neighbor reductions
run in fixed index order, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .criticality import SurrogateCcf
from .netgraph import GraphSchedule, MixingCache
from .seeding import noise_matrix


@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes eta(t) = gain / (t + offset)^exponent.

    The exponent is restricted to (1/2, 1] so the step sum always
    diverges while the sum of squares converges, for every parameter
    choice this class accepts.
    """

    gain: float = 1.0
    offset: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError(f"step gain must be positive, got {self.gain}")
        if self.offset <= 0:
            raise ValueError(f"step offset must be positive, got {self.offset}")
        if not 0.5 < self.exponent <= 1.0:
            raise ValueError(
                f"step exponent must lie in (0.5, 1], got {self.exponent}"
            )

    def eta(self, t: int) -> float:
        base = t + self.offset
        if self.exponent == 1.0:
            return self.gain / base
        return self.gain / base ** self.exponent


@dataclass(frozen=True)
class ExactSplit:
    """Every region reports an equal share of the true deficit."""

    deficit: float
    n: int

    def block(self, t0: int, t1: int) -> np.ndarray:
        """Estimates of rounds t0..t1-1, one row per round (t0 >= 1)."""
        return np.full((t1 - t0, self.n), self.deficit / self.n)


@dataclass(frozen=True)
class NoisySplit:
    """Equal split plus uniform noise decaying like 1/t.

    p_j(t) = deficit/n + e_j(t)/t with e_j(t) drawn from [-1, 1) by the
    seeded counter stream (``noise_matrix``), so any round can be
    recomputed independently.  The aggregate error is bounded by n/t, which
    stays below 2n * eta(t) for the default harmonic step; the tracking
    certificate verifies it numerically.
    """

    deficit: float
    n: int
    seed: int

    def block(self, t0: int, t1: int) -> np.ndarray:
        """Estimates of rounds t0..t1-1, one row per round (t0 >= 1)."""
        ts = np.arange(t0, t1)
        return self.deficit / self.n + noise_matrix(self.seed, ts, self.n) / ts[:, None]


@dataclass(frozen=True)
class TraceEstimator:
    """Replay a fixed table of per-round deficit estimates.

    Row t-1 serves round t; the last row repeats past the end of the
    table.
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("trace estimator needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("trace estimator rows must have equal width")
        object.__setattr__(self, "_table", np.array(self.rows, dtype=np.float64))

    def block(self, t0: int, t1: int) -> np.ndarray:
        """Estimates of rounds t0..t1-1, one row per round (t0 >= 1)."""
        return self._table[np.minimum(np.arange(t0, t1), len(self._table)) - 1]


Estimator = ExactSplit | NoisySplit | TraceEstimator

# closing stretch of unchanged cutoffs required to call a fixed-horizon
# run converged
DEFAULT_STABLE_ROUNDS = 50

# most rounds per engine chunk: an unrecorded run holds the per-round
# state of one chunk, so this bounds its memory; chunks start at 64
# rounds and double, so an early stop computes few surplus rounds
CHUNK = 1024


def certify_deficit_tracking(
    estimator: Estimator, step: StepSchedule, t_max: int, deficit: float
) -> float:
    """Max over t in [1, t_max] of |sum_j p_j(t) - deficit| / eta(t).

    This is the empirical deviation-rate constant of the estimator; for
    the noisy split with the harmonic default step it never exceeds 2n.
    Estimates are read a chunk at a time, and eta(t) is evaluated only at
    rounds whose aggregate error is nonzero, so an exact split costs a few
    array operations per chunk.
    """
    worst = 0.0
    for t0 in range(1, t_max + 1, CHUNK):
        P = estimator.block(t0, min(t0 + CHUNK, t_max + 1))
        errors = np.abs((P - deficit / P.shape[1]).sum(axis=1))
        rounds = np.flatnonzero(errors)
        etas = np.array([step.eta(t) for t in (rounds + t0).tolist()])
        worst = max(worst, float((errors[rounds] / etas).max(initial=0.0)))
    return worst


def x_rounds(
    x: Sequence[float],
    rows: Sequence[Sequence[Sequence[tuple[int, float]]]],
    etas: Sequence[float],
    ps: Sequence[Sequence[float]],
    surrogates: Sequence[SurrogateCcf],
) -> list[list[float]]:
    """The threshold-estimate recursion over consecutive rounds.

    Round r mixes the previous estimates with the sparse mixing rows
    ``rows[r]`` (reduced in ascending neighbor order) and steps by
    ``etas[r]`` against the gap between each region's surrogate CCF and
    its deficit estimate ``ps[r][j]``.  The surrogate is evaluated with
    the arithmetic of ``eval_surrogate``, so results match it bit for bit.
    Returns the estimates after every round.
    """
    regions = [
        (s.base.breakpoints, s.base.cumulative, len(s.base.breakpoints), s.ramp_width)
        for s in surrogates
    ]
    out = []
    for rows_t, eta_t, p_t in zip(rows, etas, ps):
        new_x = []
        for j, (bps, cum, size, c) in enumerate(regions):
            z = x[j]
            idx = bisect_right(bps, z)
            below = cum[idx - 1] if idx else 0.0
            v = below
            if idx < size:
                d = z - bps[idx]
                if d > -c:
                    v += (cum[idx] - below) * (d / c + 1.0)
            acc = 0.0
            for k, w in rows_t[j]:
                acc += w * x[k]
            new_x.append(acc - eta_t * (v - p_t[j]))
        out.append(new_x)
        x = new_x
    return out


def cutoffs(
    region_criticalities: Sequence[Sequence[float]], X: np.ndarray
) -> np.ndarray:
    """Regional cutoffs of a block of estimates, one row per round.

    Entry (r, j) is the smallest criticality of region j at or above
    ``X[r, j]``, or +inf when none exists: ``local_zeta`` applied to every
    entry, with the same comparisons (a NaN estimate, which local_zeta
    maps to the smallest criticality, maps to +inf here).
    """
    Z = np.empty(X.shape)
    for j, crits in enumerate(region_criticalities):
        padded = np.array((*crits, math.inf))
        Z[:, j] = padded[np.searchsorted(padded[:-1], X[:, j], side="left")]
    return Z


def dmc_rounds(
    z: Sequence[float],
    alpha: Sequence[float],
    zeta_rows: Sequence[Sequence[float]],
    neighbor_rows: Sequence[Sequence[Sequence[int]]],
    ramp_width: float,
) -> tuple[list[list[float]], list[list[float]]]:
    """Dynamic min-consensus with local self-tuning over consecutive rounds.

    In round r each node takes the minimum of its neighborhood's previous
    values (inflated by its own step alpha) and its fresh cutoff
    ``zeta_rows[r][j]``; neighborhoods are ``neighbor_rows[r]``.  Alpha
    resets large after any increase so stale minima age out quickly, and
    settles at half the ramp width otherwise.  Returns the values and
    steps after every round.
    """
    half = ramp_width / 2.0
    z_rows, alpha_rows = [], []
    # the last round computed with each neighborhood object, by id: a
    # round with the same neighborhood and cutoff-row objects and an equal
    # state has that round's output (equal floats differ at most in the
    # sign of zero, which neither the sums with alpha >= 0 nor the
    # comparisons carry into the output); on static and periodic graphs
    # this skips the rounds after the layer has settled
    last: dict[int, tuple] = {}
    for zeta_new, neighbors in zip(zeta_rows, neighbor_rows):
        seen = last.get(id(neighbors))
        if seen is not None and seen[0] is zeta_new and seen[1] == z and seen[2] == alpha:
            new_z, new_alpha = seen[3], seen[4]
        else:
            new_z, new_alpha = [], []
            for j, a_j in enumerate(alpha):
                best = z[j] + a_j
                for k in neighbors[j]:
                    cand = z[k] + a_j
                    if cand < best:
                        best = cand
                if zeta_new[j] < best:
                    best = zeta_new[j]
                new_z.append(best)
                new_alpha.append(0.5 if best > z[j] else half)
            last[id(neighbors)] = (zeta_new, z, alpha, new_z, new_alpha)
        z_rows.append(new_z)
        alpha_rows.append(new_alpha)
        z, alpha = new_z, new_alpha
    return z_rows, alpha_rows


@dataclass(frozen=True)
class ProtocolInstance:
    """Everything the runtime needs for one scenario: one surrogate per
    region, all of one ramp width.  A convergence window of None disables
    early stopping (fixed-horizon run).
    """

    surrogates: tuple[SurrogateCcf, ...]
    schedule: GraphSchedule
    step: StepSchedule
    estimator: Estimator
    convergence_window: int | None = 50
    max_rounds: int = 20_000
    x0: float = 0.0

    def __post_init__(self):
        if len({s.ramp_width for s in self.surrogates}) != 1:
            raise ValueError("an instance needs surrogates that share one ramp width")

    @property
    def region_criticalities(self) -> tuple[tuple[float, ...], ...]:
        """Each region's cutoff candidates: its surrogate's breakpoints, ascending."""
        return tuple(s.base.breakpoints for s in self.surrogates)

    @property
    def ramp_width(self) -> float:
        return self.surrogates[0].ramp_width


@dataclass(frozen=True)
class RunTrace:
    """Per-round records plus final state of one protocol run.

    When recording is off (long verification sweeps), the arrays are empty
    but round counts, final state, and the length of the closing stretch
    of unchanged cutoffs are still reported.
    """

    rounds: int
    converged: bool
    final_x: tuple[float, ...]
    final_zeta: tuple[float, ...]
    final_z: tuple[float, ...]
    final_alpha: tuple[float, ...]
    zeta_stable_rounds: int
    recorded: bool
    t: np.ndarray
    eta: np.ndarray
    x: np.ndarray
    zeta: np.ndarray
    z_min: np.ndarray
    alpha: np.ndarray
    p: np.ndarray

    @property
    def z_star_distributed(self) -> float:
        return min(self.final_z)


def _as_array(rows: list[list[float]], n: int) -> np.ndarray:
    return np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * n).reshape(-1, n)


def _stretch_rows(
    A: np.ndarray, changed: np.ndarray, prev: list[float] | None
) -> list[list[float]]:
    """The rows of ``A`` as lists, one list object per stretch that starts at
    a row marked ``changed``, with ``prev`` before the first mark: kernels
    recognise a repeated row by identity, and it costs no allocation."""
    rows, row, start = [], prev, 0
    for r in np.flatnonzero(changed).tolist():
        rows += [row] * (r - start)
        row, start = A[r].tolist(), r
    return rows + [row] * (len(A) - start)


def _zeta_stretches(
    Z: np.ndarray, prev: list[float], carry: int
) -> tuple[np.ndarray, list[list[float]]]:
    """Stretches of unchanged cutoff rows in ``Z``, which follows the row
    ``prev`` that closed a stretch of ``carry`` rounds: the length of the
    stretch ending at each row, and the rows as ``_stretch_rows`` lists."""
    changed = np.empty(len(Z), dtype=bool)
    changed[0] = (Z[0] != prev).any()
    changed[1:] = (Z[1:] != Z[:-1]).any(axis=1)
    idx = np.arange(len(Z))
    last_change = np.maximum.accumulate(np.where(changed, idx, -1))
    streaks = np.where(last_change >= 0, idx - last_change, carry + idx + 1)
    return streaks, _stretch_rows(Z, changed, prev)


def run_protocol(inst: ProtocolInstance, record_trace: bool = True) -> RunTrace:
    """Run the full protocol until the cutoff vector holds still or rounds
    run out.

    Round structure: draw the round's graph and mixing matrix, update the
    threshold estimates, recompute regional cutoffs, then run the
    min-consensus layer on the new cutoffs.  The run stops once the cutoff
    vector has been unchanged for ``convergence_window`` consecutive
    rounds; the cutoffs are the quantity with a finite-time limit, whereas
    the min-consensus values keep cycling with the graph period on
    switching networks.  Each layer runs over a chunk of rounds at a time.
    """
    n = len(inst.surrogates)
    K = inst.convergence_window
    x = [float(inst.x0)] * n
    zeta = [math.inf] * n
    z = [math.inf] * n
    alpha = [inst.ramp_width / 2.0] * n
    streak = 0
    converged = False
    mixing = MixingCache(inst.schedule)
    recorded: list[tuple] = []  # per chunk: eta, x, zeta, z_min, alpha, p
    t0, size = 1, 64
    while t0 <= inst.max_rounds and not converged:
        ts = range(t0, min(t0 + size, inst.max_rounds + 1))
        graphs = mixing.block(ts.start, ts.stop)
        etas = [inst.step.eta(t) for t in ts]
        P = inst.estimator.block(ts.start, ts.stop)
        bits = P.view(np.uint64)  # rows equal bit for bit, as an exact split's, share a list
        ps = _stretch_rows(P, np.append(True, (bits[1:] != bits[:-1]).any(axis=1)), None)
        X = _as_array(x_rounds(x, [g.rows for g in graphs], etas, ps, inst.surrogates), n)
        Z = cutoffs(inst.region_criticalities, X)
        streaks, zeta_rows = _zeta_stretches(Z, zeta, streak)
        m = len(ts)
        if K is not None:
            stops = np.flatnonzero(streaks >= K)
            if stops.size:
                m = int(stops[0]) + 1
                converged = True
        z_rows, alpha_rows = dmc_rounds(
            z, alpha, zeta_rows[:m], [g.neighbors for g in graphs[:m]], inst.ramp_width
        )
        x, zeta, z, alpha = X[m - 1].tolist(), zeta_rows[m - 1], z_rows[-1], alpha_rows[-1]
        streak = int(streaks[m - 1])
        if record_trace:
            recorded.append((
                np.array(etas[:m]), X[:m], Z[:m], _as_array(z_rows, n),
                _as_array(alpha_rows, n), P[:m],
            ))
        t0 += m
        size = min(2 * size, CHUNK)
    if K is None:
        converged = streak >= DEFAULT_STABLE_ROUNDS

    if recorded:
        eta, xs, zetas, zs, alphas, ps = (np.concatenate(parts) for parts in zip(*recorded))
    else:
        eta = np.empty(0)
        xs = zetas = zs = alphas = ps = np.empty((0, n))
    return RunTrace(
        rounds=t0 - 1,
        converged=converged,
        final_x=tuple(x),
        final_zeta=tuple(zeta),
        final_z=tuple(z),
        final_alpha=tuple(alpha),
        zeta_stable_rounds=streak,
        recorded=record_trace,
        t=np.arange(1, len(eta) + 1, dtype=np.int64),
        eta=eta,
        x=xs,
        zeta=zetas,
        z_min=zs,
        alpha=alphas,
        p=ps,
    )
