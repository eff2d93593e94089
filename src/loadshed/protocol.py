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

A run owns one chunk's state and steps for its whole length.  After each
chunk, ``run_protocol`` hands every sink (``Sink``) the round ``t0`` of the
chunk's first row and the chunk's rows of eta, x, zeta, z_min, alpha and p.
The rows are C-ordered float64 views of the run's chunk and of the
estimator's block, valid only during the call: the next chunk overwrites
them, so a sink that keeps rows copies them, as the recorder behind
``record_trace`` does.  ``scenario.TraceWriter`` is the sink that formats
them into the trace CSV as they come.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

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

# what a run hands a sink after each chunk: t0, the round of the chunk's
# first row, then its rows of eta, x, zeta, z_min, alpha and p
Sink = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                None]


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


class _Recorder:
    """The sink of a recorded run: a copy of each chunk's steps, state rows
    and estimates, joined once when the run ends."""

    def __init__(self, n: int):
        # each list starts with an empty block, so an unrecorded run joins empty arrays
        self.etas, self.states, self.ps = [np.empty(0)], [np.empty((4, 0, n))], [np.empty((0, n))]

    def __call__(self, t0, eta, x, zeta, z_min, alpha, p) -> None:
        self.etas.append(eta.copy())
        self.states.append(np.array((x, zeta, z_min, alpha)))
        self.ps.append(p.copy())


def run_protocol(inst: ProtocolInstance, record_trace: bool = True,
                 sinks: Sequence[Sink] = ()) -> RunTrace:
    """Run the full protocol until the cutoff vector holds still or rounds
    run out.

    Round structure: draw the round's graph and mixing matrix, update the
    threshold estimates, recompute regional cutoffs, then run the
    min-consensus layer on the new cutoffs.  The run stops once the cutoff
    vector has been unchanged for ``convergence_window`` consecutive
    rounds; the cutoffs are the quantity with a finite-time limit, whereas
    the min-consensus values keep cycling with the graph period on
    switching networks.  The kernel runs a chunk of whole rounds per call,
    and each of ``sinks`` is handed every chunk it ran (see the module
    docstring); ``record_trace`` adds one that keeps them all for the
    returned trace.
    """
    n = len(inst.surrogates)
    step = inst.step
    ccfs = [s.base for s in inst.surrogates]
    bstart = np.cumsum([0, *(len(c.breakpoints) for c in ccfs)], dtype=np.int64)
    bps = np.concatenate([c.breakpoints for c in ccfs])
    cum = np.concatenate([c.cumulative for c in ccfs])
    regions = bstart.ctypes.data, bps.ctypes.data, cum.ctypes.data  # addresses, read once a run
    # a streak never exceeds the rounds run, so max_rounds + 1 never stops a run
    window = inst.max_rounds + 1 if inst.convergence_window is None else inst.convergence_window
    streak = ctypes.c_int64(0)  # carried from chunk to chunk
    streak_at = ctypes.byref(streak)
    recorder = _Recorder(n)
    if record_trace:
        sinks = (*sinks, recorder)
    # one chunk's steps and state, reused by every chunk: row 0 of the state
    # holds the estimates, cutoffs, min-consensus values and steps before
    # round t0, row r + 1 those after round t0 + r
    size = min(CHUNK, inst.max_rounds)
    etas, state = np.empty(size), np.empty((4, size + 1, n))
    state[:, 0] = [[inst.x0], [math.inf], [math.inf], [inst.ramp_width / 2.0]]
    out = etas.ctypes.data, state.ctypes.data
    work = np.empty(0)  # the kernel's working memory, for the whole run
    scratch = work.ctypes.data, work.nbytes
    t0 = 1
    while t0 <= inst.max_rounds and streak.value < window:
        m = min(size, inst.max_rounds + 1 - t0)
        if m < size:  # a shorter last chunk, whose state rows lie m + 1 apart
            state = np.ascontiguousarray(state[:, :m + 1])
            out = etas.ctypes.data, state.ctypes.data
        graph, rows = inst.schedule.graphs_between(t0, t0 + m)
        P = np.ascontiguousarray(inst.estimator.block(t0, t0 + m), dtype=np.float64)
        if P.shape != (m, n):
            raise ValueError(f"estimator gave a {P.shape} block for {m} rounds of {n} regions")
        while (ran := _engine.rounds(n, m, t0, step.gain, step.offset, step.exponent,
                                     graph.ctypes.data, len(rows), rows.ctypes.data,
                                     P.ctypes.data, *regions, inst.ramp_width, window,
                                     streak_at, *out, *scratch)) < 0:
            work = np.empty(-(ran // 8))  # the bytes it needs, rounded up to words
            scratch = work.ctypes.data, work.nbytes
        for sink in sinks:
            sink(t0, etas[:ran], *state[:, 1:ran + 1], P[:ran])
        state[:, 0] = state[:, ran]
        t0 += ran
    # a fixed-horizon run needs a closing stretch of DEFAULT_STABLE_ROUNDS
    stable = DEFAULT_STABLE_ROUNDS if inst.convergence_window is None else window
    x, zeta, z, alpha = state[:, 0]
    xs, zetas, zs, alphas = np.concatenate(recorder.states, axis=1)
    return RunTrace(
        rounds=t0 - 1,
        converged=streak.value >= stable,
        final_x=tuple(x.tolist()),
        final_zeta=tuple(zeta.tolist()),
        final_z=tuple(z.tolist()),
        final_alpha=tuple(alpha.tolist()),
        zeta_stable_rounds=streak.value,
        eta=np.concatenate(recorder.etas),
        x=xs,
        zeta=zetas,
        z_min=zs,
        alpha=alphas,
        p=np.concatenate(recorder.ps),
    )
