"""Synchronous-round distributed runtime for priority-based load shedding.

Each region keeps a scalar estimate of the shedding threshold; a regional
cutoff (the smallest own criticality at or above the estimate) feeds a
dynamic min-consensus layer whose minimum is the network-wide threshold.
The engine is one compiled kernel (``rounds``, in ``_engine.c``) that runs
a chunk of whole rounds per call: the estimate recursion
x <- W(t) x - eta(t) (S_j(x_j) - p_j(t)), the cutoffs, the streak of
unchanged cutoff rows that decides an early stop, and the min-consensus
step.  A chunk's graphs are pair rows with one index per round into them
(the schedule's ``graphs_between``); the kernel dedupes the rows and
builds each distinct row's Metropolis mixing once per call, so a random
chunk of few regions, whose graphs repeat, builds each graph once.
Estimators return its deficit estimates as one array (``block(t0, t1)``).
Every update reads only previous-round state, and all neighbor reductions
run in fixed index order, so results do not depend on evaluation order.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _engine
from .criticality import SurrogateCcf
from .netgraph import GraphSchedule
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
        """eta(t); the engine's kernels compute it with the same operations."""
        base = t + self.offset
        if self.exponent == 1.0:
            return self.gain / base
        return self.gain / base ** self.exponent


@dataclass(frozen=True)
class ExactSplit:
    """Every region reports an equal share of the true deficit."""

    kind: ClassVar[str] = "exact_split"
    repeats_from: ClassVar[int] = 1  # the first round from which every row is the same
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
    stays below 2n * eta(t) = 2n * gain / (t + offset) for the harmonic step
    only while t + offset <= 2 * gain * t: in every round at the default
    gain 1 and offset 1, but not at the gain n / total of generated
    scenarios, on which ``check``'s deficit_tracking fails.  The tracking
    certificate measures the constant numerically.
    """

    kind: ClassVar[str] = "noisy_split"
    repeats_from: ClassVar[float] = math.inf  # every round draws its own noise
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

    kind: ClassVar[str] = "trace"
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("trace estimator needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("trace estimator rows must have equal width")
        object.__setattr__(self, "_table", np.array(self.rows, dtype=np.float64))
        object.__setattr__(self, "repeats_from", len(self.rows))  # the last row repeats

    def block(self, t0: int, t1: int) -> np.ndarray:
        """Estimates of rounds t0..t1-1, one row per round (t0 >= 1)."""
        return self._table[np.minimum(np.arange(t0, t1), len(self._table)) - 1]


Estimator = ExactSplit | NoisySplit | TraceEstimator

# closing stretch of unchanged cutoffs required to call a fixed-horizon
# run converged
DEFAULT_STABLE_ROUNDS = 50

# rounds per engine chunk: an unrecorded run holds the per-round state of
# one chunk, so this bounds its memory; the kernel stops on the round a run
# converges
CHUNK = 1024


def _deviation(P: np.ndarray, t0: int, step: StepSchedule, deficit: float,
               out: np.ndarray | None = None) -> float:
    """The engine's ``deviation``: the largest error of P's rows, each one's in ``out``."""
    P = np.asarray(P, dtype=np.float64)
    P = P if P.strides[0] == 0 and P[:1].flags.c_contiguous else np.ascontiguousarray(P)
    return _engine.deviation(P.shape[1], len(P), t0, step.gain, step.offset, step.exponent,
                             P.ctypes.data, P.strides[0] // P.itemsize, deficit,
                             None if out is None else out.ctypes.data)


def deficit_deviation(P: np.ndarray, t0: int, step: StepSchedule, deficit: float) -> np.ndarray:
    """|sum_j p_j(t) - deficit| / eta(t) for the rows of P, rounds t0, t0 + 1, ...

    The engine's ``deviation`` kernel sums each row's 2n terms, the estimates
    and n equal shares of the deficit, with TwoSum, so an exact split reads 0
    and estimates that cancel, as 1e308 and -1e308 do, keep the shares'
    error; one that overflows is inf.  eta(t) is computed as the round kernel
    does, only for nonzero errors; rows of stride 0 (broadcast) sum once.
    """
    out = np.empty(len(P))
    _deviation(P, t0, step, deficit, out)
    return out


def certify_deficit_tracking(
    estimator: Estimator, step: StepSchedule, t_max: int, deficit: float
) -> float:
    """Max over t in [1, t_max] of |sum_j p_j(t) - deficit| / eta(t).

    The estimator's empirical deviation-rate constant (for the noisy split
    at most 2n only while t + offset <= 2 gain t, see ``NoisySplit``).
    Rounds before its ``repeats_from`` are read a chunk at a time, the rest
    as one row summed once, keeping each block's maximum; NaN gives NaN.
    """
    tail = min(estimator.repeats_from, t_max + 1)  # rounds tail..t_max all read one row
    peaks = [_deviation(estimator.block(t0, min(t0 + CHUNK, tail)), t0, step, deficit)
             for t0 in range(1, tail, CHUNK)]
    if tail <= t_max:
        row = estimator.block(tail, tail + 1)
        repeated = np.broadcast_to(row, (t_max + 1 - tail, row.shape[1]))
        peaks.append(_deviation(repeated, tail, step, deficit))
    return float(np.max(peaks, initial=0.0))


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
    def ramp_width(self) -> float:
        return self.surrogates[0].ramp_width


@dataclass(frozen=True)
class RunTrace:
    """Per-round records, row t - 1 of each array for round t, plus final
    state of one protocol run.  When recording is off (long verification
    sweeps), the arrays are empty but round counts, final state, and the
    length of the closing stretch of unchanged cutoffs are still reported.
    """

    rounds: int
    converged: bool
    final_x: tuple[float, ...]
    final_zeta: tuple[float, ...]
    final_z: tuple[float, ...]
    final_alpha: tuple[float, ...]
    zeta_stable_rounds: int
    eta: np.ndarray
    x: np.ndarray
    zeta: np.ndarray
    z_min: np.ndarray
    alpha: np.ndarray
    p: np.ndarray


def run_protocol(inst: ProtocolInstance, record_trace: bool = True) -> RunTrace:
    """Run the full protocol until the cutoff vector holds still or rounds
    run out.

    Round structure: draw the round's graph and mixing matrix, update the
    threshold estimates, recompute regional cutoffs, then run the
    min-consensus layer on the new cutoffs.  The run stops once the cutoff
    vector has been unchanged for ``convergence_window`` consecutive
    rounds; the cutoffs are the quantity with a finite-time limit, whereas
    the min-consensus values keep cycling with the graph period on
    switching networks.  The kernel runs a chunk of whole rounds per call.
    """
    n = len(inst.surrogates)
    K = inst.convergence_window
    step = inst.step
    ccfs = [s.base for s in inst.surrogates]
    bstart = np.cumsum([0, *(len(c.breakpoints) for c in ccfs)], dtype=np.int64)
    bps = np.concatenate([c.breakpoints for c in ccfs])
    cum = np.concatenate([c.cumulative for c in ccfs])
    regions = bstart.ctypes.data, bps.ctypes.data, cum.ctypes.data  # addresses, read once a run
    # estimates, cutoffs, min-consensus values and steps before round t0
    last = np.repeat([[inst.x0], [math.inf], [math.inf], [inst.ramp_width / 2.0]], n, axis=1)
    # a streak never exceeds the rounds run, so max_rounds + 1 never stops a run
    window = inst.max_rounds + 1 if K is None else K
    carried = ctypes.c_int64(0)  # the streak, carried from chunk to chunk
    converged = False
    recorded: list[tuple] = []  # per chunk: eta, state rows, p
    work = np.empty(0)  # the kernel's working memory, for the whole run
    t0 = 1
    while t0 <= inst.max_rounds and not converged:
        m = min(CHUNK, inst.max_rounds + 1 - t0)
        graph, rows = inst.schedule.graphs_between(t0, t0 + m)
        P = np.ascontiguousarray(inst.estimator.block(t0, t0 + m), dtype=np.float64)
        if P.shape != (m, n):
            raise ValueError(f"estimator gave a {P.shape} block for {m} rounds of {n} regions")
        state, etas = np.empty((4, m + 1, n)), np.empty(m)
        state[:, 0] = last
        while (ran := _engine.rounds(n, m, t0, step.gain, step.offset, step.exponent,
                                     graph.ctypes.data, len(rows), rows.ctypes.data,
                                     P.ctypes.data, *regions, inst.ramp_width, window,
                                     ctypes.byref(carried), etas.ctypes.data, state.ctypes.data,
                                     work.ctypes.data, work.nbytes)) < 0:
            work = np.empty(-(ran // 8))  # the bytes it needs, rounded up to words
        last = state[:, ran]
        if record_trace:
            recorded.append((etas[:ran], state[:, 1:ran + 1], P[:ran]))
        t0 += ran
        converged = carried.value >= window
    streak = carried.value
    if K is None:
        converged = streak >= DEFAULT_STABLE_ROUNDS
    x, zeta, z, alpha = last

    if recorded:
        eta_parts, state_parts, p_parts = zip(*recorded)
        eta, ps = np.concatenate(eta_parts), np.concatenate(p_parts)
        xs, zetas, zs, alphas = np.concatenate(state_parts, axis=1)
    else:
        eta = np.empty(0)
        xs = zetas = zs = alphas = ps = np.empty((0, n))
    return RunTrace(
        rounds=t0 - 1,
        converged=converged,
        final_x=tuple(x.tolist()),
        final_zeta=tuple(zeta.tolist()),
        final_z=tuple(z.tolist()),
        final_alpha=tuple(alpha.tolist()),
        zeta_stable_rounds=streak,
        eta=eta,
        x=xs,
        zeta=zetas,
        z_min=zs,
        alpha=alphas,
        p=ps,
    )
