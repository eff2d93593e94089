"""Executable checks of the conditions behind distributed root finding.

The recursion x(t+1) = W(t) x(t) - eta(t) y(t), with y_j(t) the local field
evaluated at the node's own state, drives every node to a common root of
the average limit field; the engine runs it as the first step of each
round of the compiled chunk kernel ``rounds`` (``_engine.c``).
This module checks the boundedness, Lipschitz, sign, and deviation-rate
conditions the convergence argument rests on, and computes
``consensus_diagnostics`` (the disagreement of a block of estimates and
its ratio to the step size).
The checks evaluate a field on a whole grid per call and average across
nodes with ``math.fsum`` at each point: bit for bit a point-by-point check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

SIGN_TOL = 1e-9
LIPSCHITZ_SAFETY = 1.1


@dataclass(frozen=True)
class TimeVaryingField:
    """Per-node field h(j, z, t) and its limit lim_{t->inf} h(j, z, .).

    ``evaluate(j, z, t)`` and ``limit(j, z)`` take z as a float64 grid array
    and return an array of its shape.
    """

    n: int
    evaluate: Callable[[int, np.ndarray, float], np.ndarray]
    limit: Callable[[int, np.ndarray], np.ndarray]

    def average_limit(self, z: np.ndarray) -> np.ndarray:
        """Mean over nodes of the limit field on the grid z."""
        return _node_mean([self.limit(j, z) for j in range(self.n)])


def _node_mean(values: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of per-node 1-D grid arrays: ``math.fsum`` across nodes at each point.
    Arrays with a non-finite sample, or finite samples whose sum overflows,
    have no mean: it is NaN at every point."""
    points = np.stack(values, axis=-1)
    if np.isfinite(points).all():  # math.fsum raises on inf + -inf
        try:
            return np.array([math.fsum(p) for p in points.tolist()]) / len(values)
        except OverflowError:  # finite samples whose sum is not
            pass
    return np.full(len(points), math.nan)


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
    """Estimate sup |h| over grid x sample times, and the Lipschitz constant
    from the limit field's central difference quotients on the grid, once
    per node: h_j(., t) differs from the limit by a term constant in z,
    which adds no slope, only rounding.  A non-finite sample fails its
    check."""
    times = _sample_times(horizon)
    bound = 0.0
    for v in (fld.evaluate(j, grid, t) for t in times for j in range(fld.n)):
        peak = float(np.abs(v).max())  # NaN or inf when a sample is
        if not math.isfinite(peak):
            bound = peak
            break
        bound = max(bound, peak)
    limits = np.stack([fld.limit(j, grid) for j in range(fld.n)])
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite samples: no slope
        quotients = np.abs(limits[:, 2:] - limits[:, :-2]) / (grid[2:] - grid[:-2])
    slope = float(np.max(quotients, initial=0.0)) * LIPSCHITZ_SAFETY
    bounded = CheckResult(
        "field_bounded", math.isfinite(bound), bound,
        detail=f"sampled over {len(times)} times x {len(grid)} grid points",
    )
    lipschitz = CheckResult("field_lipschitz", math.isfinite(slope), slope)
    return bounded, lipschitz, bound, slope


def verify_sign_condition(fld: TimeVaryingField, grid: np.ndarray) -> CheckResult:
    """Search for a root of the average limit validating (z - root) H(z) >= 0.

    Candidates come from sign changes of the sampled limit (or an endpoint
    when the limit never changes sign); the winner must keep the product
    above -SIGN_TOL across the whole grid.
    """
    H = fld.average_limit(grid)
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
    second half of the sampled horizon; fails on a non-finite sample.
    """
    times = _sample_times(horizon, count=40)
    H = fld.average_limit(grid)
    running = 0.0
    attained_at = 1
    for t in times:
        avg = _node_mean([fld.evaluate(j, grid, t) for j in range(fld.n)])
        if not (np.isfinite(H).all() and np.isfinite(avg).all()):
            return CheckResult("deviation_rate", False, math.nan, detail="non-finite field sample")
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

    The peak ratio is reported with the first round attaining it, and as
    (0.0, 1) when no round has a positive ratio.
    """

    disagreement: np.ndarray   # (rounds,) max_j |x_j - mean|
    ratio_max: float           # sup_t disagreement / eta  (consensus-rate nu)
    ratio_argmax: int


def consensus_diagnostics(x: np.ndarray, eta: np.ndarray) -> ConsensusDiagnostics:
    """Disagreement of the (rounds, n) estimates ``x`` and its largest ratio
    to the steps ``eta``.

    The mean is numpy's row mean, infinite where the row sum overflows;
    rounds with eta = 0 have no ratio.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        disagreement = np.abs(x - x.mean(axis=1)[:, None]).max(axis=1)
    ratio = np.divide(disagreement, eta, out=np.zeros_like(disagreement), where=eta > 0)
    k = int(np.argmax(np.append(0.0, ratio)))  # index k is round k; 0: none positive
    return ConsensusDiagnostics(disagreement, float(ratio[k - 1]) if k else 0.0, max(k, 1))
