"""Distributed root finding for time-varying node fields over switching graphs.

The recursion x(t+1) = W(t) x(t) - eta(t) y(t), with y_j(t) the local field
evaluated at the node's own state, drives every node to a common root of
the average limit field.  This module provides the one-round kernel
``mix_and_step``, a fixed-field runner, ``consensus_diagnostics`` (the
disagreement, its ratio to the step size and the size of the mean of any
block of estimates), and executable checks of the boundedness, Lipschitz,
sign, and deviation-rate conditions the convergence argument rests on.
The checks evaluate a field on a whole grid per call and average across
nodes with ``math.fsum`` at each point: bit for bit a point-by-point check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .netgraph import GraphSchedule, MixingCache
from .protocol import CHUNK

SIGN_TOL = 1e-9
LIPSCHITZ_SAFETY = 1.1


def mix_and_step(
    x: Sequence[float],
    w_rows: Sequence[Sequence[tuple[int, float]]],
    eta_t: float,
    y: Sequence[float],
) -> list[float]:
    """One synchronous round: neighbor averaging then a local field step.

    Rows are reduced in ascending neighbor order so results are identical
    no matter how node updates are scheduled.
    """
    out = []
    for j, row in enumerate(w_rows):
        acc = 0.0
        for k, w in row:
            acc += w * x[k]
        out.append(acc - eta_t * y[j])
    return out


@dataclass(frozen=True)
class TimeVaryingField:
    """Per-node field h(j, z, t) with an optional declared limit field.

    ``evaluate(j, z, t)`` and ``limit(j, z)`` take z as a float (from ``run_to_root``)
    or a float64 array (the verifiers' grid) and return a value of its shape.
    ``limit`` gives lim_{t->inf} h(j, z, .) when known analytically; when
    absent, certificates estimate it from late-time samples.
    """

    n: int
    evaluate: Callable[[int, float, float], float]
    limit: Callable[[int, float], float] | None = None

    def average_limit(self, z: float | np.ndarray, t_large: float) -> float | np.ndarray:
        """Mean over nodes of the limit field at z, a float or an array."""
        if self.limit is not None:
            values = [self.limit(j, z) for j in range(self.n)]
        else:
            values = [self.evaluate(j, z, t_large) for j in range(self.n)]
        return _node_mean(values)


def _node_mean(values: Sequence[float] | Sequence[np.ndarray]) -> float | np.ndarray:
    """Mean of per-node floats or 1-D grid arrays: ``math.fsum`` across nodes at each point."""
    if np.ndim(values[0]) == 0:
        return math.fsum(values) / len(values)
    return np.array([math.fsum(p) for p in np.stack(values, axis=-1).tolist()]) / len(values)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    witness: float | None = None
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        parts = [f"{self.name}: {status}"]
        if self.value is not None:
            parts.append(f"value={self.value:.6g}")
        if self.witness is not None:
            parts.append(f"witness={self.witness:.6g}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass
class AssumptionCertificate:
    """Numeric evidence for the convergence conditions of one setup.

    Bound constants are empirical estimates over the sampled grid and
    horizon, not proofs; ``checks`` carries one entry per verified
    condition with the failing sample when a condition does not hold.
    """

    bound: float = math.nan            # sup |h|
    lipschitz: float = math.nan        # slope estimate, with safety factor
    deviation_rate: float = math.nan   # theta: |H - avg h(., t)| / eta(t)
    window: int = 0                    # B of the schedule in force
    consensus_ratio: float = math.nan  # nu: max disagreement / eta
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def add(self, check: CheckResult) -> None:
        self.checks[check.name] = check

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks.values()]
        lines.append(
            f"constants: bound={self.bound:.6g} lipschitz={self.lipschitz:.6g} "
            f"deviation_rate={self.deviation_rate:.6g} window={self.window} "
            f"consensus_ratio={self.consensus_ratio:.6g}"
        )
        return "\n".join(lines)


def _sample_times(horizon: int, count: int = 24) -> list[int]:
    return sorted({int(round(x)) for x in np.geomspace(1, max(horizon, 1), count)})


def verify_assumption_bounded_lipschitz(
    fld: TimeVaryingField, grid: np.ndarray, horizon: int
) -> tuple[CheckResult, CheckResult, float, float]:
    """Estimate sup |h| and the Lipschitz constant over grid x sample times."""
    times = _sample_times(horizon)
    bound = 0.0
    slope = 0.0
    for t in times:
        for j in range(fld.n):
            v = fld.evaluate(j, grid, t)
            quotients = np.abs(v[2:] - v[:-2]) / (grid[2:] - grid[:-2])
            bound = max(bound, float(np.abs(v).max()))
            slope = max(slope, float(np.max(quotients, initial=0.0)))
    slope *= LIPSCHITZ_SAFETY
    bounded = CheckResult(
        "field_bounded", math.isfinite(bound), bound,
        detail=f"sampled over {len(times)} times x {len(grid)} grid points",
    )
    lipschitz = CheckResult("field_lipschitz", math.isfinite(slope), slope)
    return bounded, lipschitz, bound, slope


def verify_sign_condition(
    fld: TimeVaryingField, grid: np.ndarray, t_large: float
) -> CheckResult:
    """Search for a root of the average limit validating (z - root) H(z) >= 0.

    Candidates come from sign changes of the sampled limit (or an endpoint
    when the limit never changes sign); the winner must keep the product
    above -SIGN_TOL across the whole grid.
    """
    H = fld.average_limit(grid, t_large)
    candidates: list[float] = []
    for i in range(len(grid) - 1):
        if H[i] == 0.0:
            candidates.append(float(grid[i]))
        elif H[i] < 0.0 < H[i + 1]:
            candidates.append(float(grid[i] if abs(H[i]) <= abs(H[i + 1]) else grid[i + 1]))
    if H[-1] == 0.0:
        candidates.append(float(grid[-1]))
    if not candidates:
        if (H >= 0.0).all():
            candidates.append(float(grid[0]))
        elif (H <= 0.0).all():
            candidates.append(float(grid[-1]))
    best_witness, best_min = None, -math.inf
    for cand in candidates:
        worst = float(((grid - cand) * H).min())
        if worst > best_min:
            best_min, best_witness = worst, cand
    if best_witness is None:
        return CheckResult("sign_condition", False, detail="no sign change found")
    return CheckResult(
        "sign_condition",
        best_min >= -SIGN_TOL,
        value=best_min,
        witness=best_witness,
    )


def verify_deviation_rate(
    fld: TimeVaryingField,
    grid: np.ndarray,
    horizon: int,
    eta: Callable[[int], float],
) -> CheckResult:
    """Bound |H(z) - avg_j h_j(z, t)| / eta(t) and check it stabilizes.

    Passes when the running maximum of the ratio stops growing in the
    second half of the sampled horizon.
    """
    times = _sample_times(horizon, count=40)
    t_large = 10.0 * max(horizon, 1)
    H = fld.average_limit(grid, t_large)
    running = 0.0
    attained_at = 1
    for t in times:
        avg = _node_mean([fld.evaluate(j, grid, t) for j in range(fld.n)])
        ratio = float(np.abs(H - avg).max()) / eta(t)
        if ratio > running:
            running = ratio
            attained_at = t
    return CheckResult(
        "deviation_rate",
        attained_at <= max(1, horizon // 2),
        value=running,
        detail=f"running max attained at t={attained_at}",
    )


class ConsensusDiagnostics(NamedTuple):
    """Consensus diagnostics of a block of estimates, one row per round.

    A peak is reported with the first round attaining it, and as (0.0, 1)
    when no round has a positive value.
    """

    disagreement: np.ndarray   # (rounds,) max_j |x_j - mean|
    ratio_max: float           # sup_t disagreement / eta  (consensus-rate nu)
    ratio_argmax: int
    mean_abs_max: float        # sup_t |mean(x)|  (boundedness monitor)
    mean_abs_argmax: int


def consensus_diagnostics(x: np.ndarray, eta: np.ndarray) -> ConsensusDiagnostics:
    """Disagreement, its largest ratio to the step size and the largest
    |mean| of the (rounds, n) estimates ``x`` under steps ``eta``.

    The mean is numpy's row mean; rounds with eta = 0 have no ratio.
    """
    mean = x.mean(axis=1)
    disagreement = np.abs(x - mean[:, None]).max(axis=1)
    ratio = np.divide(disagreement, eta, out=np.zeros_like(disagreement), where=eta > 0)
    peaks = []
    for values in (ratio, np.abs(mean)):
        k = int(np.argmax(np.append(0.0, values)))  # index k is round k; 0: none positive
        peaks += [float(values[k - 1]) if k else 0.0, max(k, 1)]
    return ConsensusDiagnostics(disagreement, *peaks)


@dataclass(frozen=True)
class RootRun:
    """Trajectory and diagnostics of a root-finding run."""

    root: float
    x_final: tuple[float, ...]
    converged: bool
    rounds: int
    x: np.ndarray              # (rounds, n)
    eta: np.ndarray            # (rounds,)
    diagnostics: ConsensusDiagnostics


def run_to_root(
    fld: TimeVaryingField,
    schedule: GraphSchedule,
    eta: Callable[[int], float],
    x0: float | Sequence[float] = 0.0,
    tolerance: float = 1e-6,
    max_rounds: int = 10_000,
) -> RootRun:
    """Iterate the recursion until nodes agree on a root or rounds run out.

    Convergence requires both the disagreement and the average limit field
    at the mean to fall inside the tolerance.  Diagnostics cover the
    consensus ratio (disagreement over step size) and the boundedness of
    the running mean (``consensus_diagnostics``).
    """
    n = fld.n
    x = list(x0) if isinstance(x0, Sequence) else [float(x0)] * n
    if len(x) != n:
        raise ValueError(f"x0 has length {len(x)}, field has {n} nodes")
    t_large = 10.0 * max_rounds
    mixing = MixingCache(schedule)
    xs, etas = [], []
    converged = False
    budget = range(1, max_rounds + 1)  # a chunk at a time: an early stop draws no more
    blocks = (mixing.block(t0, min(t0 + CHUNK, budget.stop)) for t0 in budget[::CHUNK])
    for t, graph in enumerate(chain.from_iterable(blocks), 1):
        eta_t = eta(t)
        y = [fld.evaluate(j, x[j], t) for j in range(n)]
        x = mix_and_step(x, graph.rows, eta_t, y)
        xs.append(x)
        etas.append(eta_t)
        mean = math.fsum(x) / n
        spread = max(abs(v - mean) for v in x)
        if spread <= tolerance and abs(fld.average_limit(mean, t_large)) <= tolerance:
            converged = True
            break
    X, E = np.array(xs).reshape(len(xs), n), np.array(etas)
    diagnostics = consensus_diagnostics(X, E)
    return RootRun(math.fsum(x) / n, tuple(x), converged, len(xs), X, E, diagnostics)
