"""Executable checks of the conditions behind distributed root finding.

The recursion x(t+1) = W(t) x(t) - eta(t) y(t), with y_j(t) = S_j(x_j(t)) -
p_j(t) the local field at the node's own state (region j's surrogate CCF
minus its deficit estimate), drives every node to a common root of the
averaged field H(z) = mean_j S_j(z) - deficit / n; the engine runs it as the
first step of each round of the compiled chunk kernel ``rounds``
(``_engine.c``).  The surrogates are piecewise linear and the estimates are
a table, so this module reads the convergence argument's constants off them
exactly: the bound and the Lipschitz constant of the local fields, whether
H has a single root, strictly inside a ramp (the sign condition), and
whether the estimates' aggregate error shrinks like the step (the deviation
rate).  It also computes ``consensus_diagnostics`` (the disagreement of a
block of estimates and its ratio to the step size), and ``certify`` sets
every horizon and bound of ``loadshed check``'s certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .criticality import Ccf, SurrogateCcf
from .oracle import deficit_segment, exact_z_hat
from .protocol import ProtocolInstance, RunTrace, certify_deficit_tracking, deficit_deviation


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


@dataclass(frozen=True)
class AssumptionCertificate:
    """The convergence conditions of one setup, checked on its CCFs and estimates.

    ``bound`` and ``lipschitz`` are exact constants of the local fields over
    the checked horizon; ``consensus_ratio`` is measured.  ``checks`` carries
    one entry per condition an input can fail; ``deviation_rate``'s is theta.
    """

    bound: float                  # sup |h_j(z, t)|
    lipschitz: float              # largest ramp slope
    window: int                   # B of the schedule in force
    consensus_ratio: float        # nu: max disagreement / eta
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks.values()]
        lines.append(
            f"constants: bound={self.bound:.6g} lipschitz={self.lipschitz:.6g} "
            f"deviation_rate={self.checks['deviation_rate'].value:.6g} window={self.window} "
            f"consensus_ratio={self.consensus_ratio:.6g}"
        )
        return "\n".join(lines)


@functools.cache  # check's horizons take few values
def _sample_times(horizon: int) -> tuple[int, ...]:
    return tuple(sorted({int(round(x)) for x in np.geomspace(1, max(horizon, 1), 40)}))


def verify_assumption_bounded_lipschitz(
    surrogates: Sequence[SurrogateCcf], estimates: np.ndarray
) -> tuple[float, float]:
    """The bound and the Lipschitz constant of the local fields
    h_j(z, t) = S_j(z) - p_j(t), with one row of ``estimates`` per round.

    S_j climbs from 0 to region j's total load, so sup_z |h_j(z, t)| is
    max(|p_j(t)|, |total_j - p_j(t)|).  Ramps never overlap, so the slope
    of S_j is at most its largest CCF step over the ramp width.
    """
    totals = np.array([s.base.total_load for s in surrogates])
    with np.errstate(over="ignore"):  # an overflowing difference is inf
        bound = float(np.maximum(np.abs(estimates), np.abs(totals - estimates)).max(initial=0.0))
    step = max(np.diff(s.base.cumulative, prepend=0.0).max(initial=0.0) for s in surrogates)
    return bound, float(step) / surrogates[0].ramp_width


def verify_sign_condition(ccf: Ccf, ramp_width: float, deficit: float) -> CheckResult:
    """Does the averaged field H have one root, with (z - root) H(z) > 0 elsewhere?

    ``ccf`` holds all loads of the regions: no ramp is wider than the
    smallest criticality gap, so the regions' surrogates sum to its own.
    The deficit sits ``fraction`` up the step at breakpoint b_i
    (``deficit_segment``).  Below 1, H crosses zero once, inside the ramp
    ending at b_i; at 1 it vanishes on all of [b_i, b_{i+1} - ramp_width],
    and nothing pins the estimates to one point of that plateau.
    """
    i, fraction = deficit_segment(ccf, deficit)
    return CheckResult(
        "sign_condition", fraction < 1.0, value=fraction,
        witness=exact_z_hat(SurrogateCcf(ccf, ramp_width), deficit),
        detail="" if fraction < 1.0 else
        f"the deficit is the cumulative load at breakpoint {ccf.breakpoints[i]:.6g}",
    )


def verify_deviation_rate(deviation: np.ndarray) -> CheckResult:
    """Check that |H(z) - avg_j h_j(z, t)| / eta(t), one entry of
    ``deviation`` per round t = 1, 2, ..., stabilizes: its running maximum
    over 40 sample rounds stops growing in the second half of the horizon.
    The difference does not depend on z.  A non-finite sample fails.
    """
    horizon = len(deviation)
    times = _sample_times(horizon)
    samples = deviation[np.array(times) - 1]
    if not np.isfinite(samples).all():
        bad = float(samples[~np.isfinite(samples)][0])
        return CheckResult("deviation_rate", False, bad, detail="non-finite estimate sum")
    k = int(np.argmax(samples))  # the first sample attaining the maximum
    return CheckResult(
        "deviation_rate",
        times[k] <= max(1, horizon // 2),
        value=float(samples[k]),
        detail=f"running max attained at t={times[k]}",
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


def certify(inst: ProtocolInstance, ccf: Ccf, deficit: float, max_rounds: int,
            probe: RunTrace) -> AssumptionCertificate:
    """``loadshed check``'s certificate of ``inst``: constants and deviation
    rate over min(max_rounds, 2 000) rounds of estimates, the sign condition
    on ``ccf`` (all loads), deficit tracking over min(100 000, 10 max_rounds)
    rounds against 2n + 1e-9, and nu off the recorded run ``probe``."""
    n = len(inst.surrogates)
    estimates = inst.estimator.block(1, min(max_rounds, 2000) + 1)
    bound, lipschitz = verify_assumption_bounded_lipschitz(inst.surrogates, estimates)
    theta = certify_deficit_tracking(inst.estimator, inst.step, min(100_000, 10 * max_rounds),
                                     deficit)
    tracking_bound = 2.0 * n
    checks = (
        verify_sign_condition(ccf, inst.ramp_width, deficit),
        verify_deviation_rate(deficit_deviation(estimates, 1, inst.step, deficit) / n),
        CheckResult("deficit_tracking", theta <= tracking_bound + 1e-9, value=theta,
                    detail=f"bound {tracking_bound:g}"),
    )
    return AssumptionCertificate(bound, lipschitz, inst.schedule.window,
                                 consensus_diagnostics(probe.x, probe.eta).ratio_max,
                                 {c.name: c for c in checks})
