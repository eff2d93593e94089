from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from loadshed import cli, rootfind, scenario
from loadshed.criticality import SurrogateCcf, build_ccf, eval_surrogate
from loadshed.netgraph import StaticSchedule, normalize_edges
from loadshed.oracle import exact_z_hat
from loadshed.protocol import (
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from loadshed.rootfind import (
    LIPSCHITZ_SAFETY,
    SIGN_TOL,
    CheckResult,
    TimeVaryingField,
    consensus_diagnostics,
    verify_assumption_bounded_lipschitz,
    verify_deviation_rate,
    verify_sign_condition,
)

from conftest import FIG_PAIRS, FIG_RAMP, block_rows, x_rounds

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LINE4 = StaticSchedule(4, normalize_edges([(0, 1), (1, 2), (2, 3)], 4))
ETA = StepSchedule(1.0, 1.0, 1.0)
ZERO = SurrogateCcf(build_ccf([]), 1.0)  # an empty CCF: the zero field


def shedding_field(pairs_by_region, ramp, estimator, rounds=2000, deficit=None):
    """Per-region surrogate CCFs minus deficit estimates as a field, for
    rounds 1..rounds; the limit subtracts an equal share of ``deficit``
    (by default the estimator's)."""
    surrogates = [SurrogateCcf(build_ccf(p), ramp) for p in pairs_by_region]
    n = len(surrogates)
    deficit = estimator.deficit if deficit is None else deficit
    estimates = estimator.block(1, rounds + 1).tolist()

    return TimeVaryingField(
        n=n,
        evaluate=lambda j, z, t: eval_surrogate(surrogates[j], z) - estimates[int(t) - 1][j],
        limit=lambda j, z: eval_surrogate(surrogates[j], z) - deficit / n,
    )


def continuous_run(estimator, rounds, x0):
    """The engine on four regions of one load of 1.2 each, at criticalities
    1, 2, 2 and 3 under unit ramps, over the line graph for a fixed horizon."""
    crits = ((1.0,), (2.0,), (2.0,), (3.0,))
    surrogates = tuple(SurrogateCcf(build_ccf([(1.2, c)]), 1.0) for (c,) in crits)
    return run_protocol(
        ProtocolInstance(surrogates, LINE4, ETA, estimator, None, rounds, x0)
    )


def recursion(x0, surrogates, schedule, rounds):
    """``x_rounds`` from the node states ``x0`` over rounds 1..rounds, with
    zero deficit estimates; one row per round."""
    rows = block_rows(schedule.edges_between(1, rounds + 1), schedule.n)
    etas = [ETA.eta(t) for t in range(1, rounds + 1)]
    ps = [[0.0] * len(x0)] * rounds
    return np.array(x_rounds(x0, rows, etas, ps, surrogates))


class TestAuxUpdate:
    def test_telescoping_contraction(self):
        # h(z, t) = z on one node (one load of power 2 at breakpoint 2 under
        # a ramp of width 2): x(t) shrinks by (1 - eta) each round, giving
        # 1/(t+1) after t rounds of the harmonic step
        ramp = SurrogateCcf(build_ccf([(2.0, 2.0)]), 2.0)
        X = recursion([1.0], [ramp], StaticSchedule(1, frozenset()), 199)
        assert X[-1, 0] == pytest.approx(1.0 / 200.0, rel=1e-9)

    def test_zero_field_is_pure_consensus(self):
        X = recursion([4.0, 0.0, 0.0, 0.0], [ZERO] * 4, LINE4, 4000)
        assert np.abs(X[-1] - X[-1].mean()).max() <= 1e-9
        assert X[-1] == pytest.approx([1.0] * 4, abs=1e-8)  # the initial mean
        # the engine runs the same recursion, with no cutoff to find
        inst = ProtocolInstance((ZERO,) * 4, LINE4, ETA, ExactSplit(0.0, 4), None, 300, 1.0)
        trace = run_protocol(inst)
        assert np.array_equal(trace.x, recursion([1.0] * 4, [ZERO] * 4, LINE4, 300))
        assert trace.final_x == pytest.approx((1.0,) * 4) and trace.final_zeta == (math.inf,) * 4


class TestAssumptionChecks:
    def test_shedding_field_passes(self):
        pairs = [FIG_PAIRS[:4], FIG_PAIRS[4:]]
        fld = shedding_field(pairs, FIG_RAMP, ExactSplit(6.0, 2))
        grid = np.linspace(0.0, 1.0, 1001)
        bounded, lipschitz, bound, slope = verify_assumption_bounded_lipschitz(
            fld, grid, horizon=200
        )
        assert bounded.passed and lipschitz.passed
        assert bound <= 16.0  # fields never exceed the total load
        sign = verify_sign_condition(fld, grid)
        assert sign.passed
        ccf = build_ccf(FIG_PAIRS)
        z_hat = exact_z_hat(SurrogateCcf(ccf, FIG_RAMP), 6.0)
        assert abs(sign.witness - z_hat) <= FIG_RAMP + grid[1] - grid[0]

    def test_sine_field_passes_on_symmetric_grid(self):
        fld = TimeVaryingField(1, lambda j, z, t: np.sin(z),
                               limit=lambda j, z: np.sin(z))
        grid = np.linspace(-1.0, 1.0, 801)
        sign = verify_sign_condition(fld, grid)
        assert sign.passed
        assert abs(sign.witness) <= 2.5e-3

    def test_reversed_sign_fails(self):
        fld = TimeVaryingField(1, lambda j, z, t: -z, limit=lambda j, z: -z)
        grid = np.linspace(-1.0, 1.0, 801)
        assert not verify_sign_condition(fld, grid).passed

    @pytest.mark.parametrize(
        "h, witness",
        [(lambda z: z + 5.0, 0), (lambda z: z - 5.0, -1)],
        ids=["positive", "negative"],
    )
    def test_sign_without_a_change_takes_an_endpoint(self, h, witness):
        # a limit of one sign everywhere: the root sits past the grid's end
        fld = TimeVaryingField(1, lambda j, z, t: h(z), limit=lambda j, z: h(z))
        grid = np.linspace(-1.0, 1.0, 801)
        sign = verify_sign_condition(fld, grid)
        assert sign.passed and sign.witness == grid[witness]

    def test_sign_of_a_decreasing_limit_has_no_candidate(self):
        # even point count: the limit -(z + 0.3) is never 0 on the grid
        fld = TimeVaryingField(1, lambda j, z, t: -(z + 0.3), limit=lambda j, z: -(z + 0.3))
        sign = verify_sign_condition(fld, np.linspace(-1.0, 1.0, 800))
        assert not sign.passed
        assert sign.detail == "no sign change found" and sign.witness is None

    @pytest.mark.parametrize(
        "bad", [(np.nan, np.nan), (np.inf, np.inf), (np.inf, -np.inf)],
        ids=["nan", "inf", "opposite-inf"],
    )
    def test_non_finite_samples_fail(self, bad):
        def h(j, z):  # node j's field is bad[j] above z = 0.5
            return np.where(z > 0.5, bad[j], z)

        fld = TimeVaryingField(2, lambda j, z, t: h(j, z), limit=h)
        grid = np.linspace(-1.0, 1.0, 801)
        bounded, lipschitz, bound, slope = verify_assumption_bounded_lipschitz(fld, grid, 100)
        assert not bounded.passed and not lipschitz.passed
        assert not math.isfinite(bound) and not math.isfinite(slope)
        deviation = verify_deviation_rate(fld, grid, 100, ETA.eta)
        assert not deviation.passed and math.isnan(deviation.value)
        sign = verify_sign_condition(fld, grid)
        assert not sign.passed and sign.detail == "no sign change found"

    def test_deviation_rate_zero_for_time_invariant(self):
        pairs = [FIG_PAIRS[:4], FIG_PAIRS[4:]]
        fld = shedding_field(pairs, FIG_RAMP, ExactSplit(6.0, 2))
        grid = np.linspace(0.0, 1.0, 101)
        check = verify_deviation_rate(fld, grid, horizon=500, eta=ETA.eta)
        assert check.passed
        assert check.value == 0.0

    def test_deviation_rate_noisy_bounded(self):
        pairs = [FIG_PAIRS[:4], FIG_PAIRS[4:]]
        fld = shedding_field(pairs, FIG_RAMP, NoisySplit(6.0, 2, seed=3))
        grid = np.linspace(0.0, 1.0, 51)
        check = verify_deviation_rate(fld, grid, horizon=2000, eta=ETA.eta)
        assert check.passed
        assert check.value <= 2 * 2  # twice the node count

    def test_deviation_rate_slow_drift_fails(self):
        fld = TimeVaryingField(
            2,
            lambda j, z, t: z + 1.0 / math.sqrt(t),
            limit=lambda j, z: z,
        )
        grid = np.linspace(-1.0, 1.0, 51)
        check = verify_deviation_rate(fld, grid, horizon=4000, eta=ETA.eta)
        assert not check.passed


class TestRunToRoot:
    def test_continuous_shedding_root(self):
        trace = continuous_run(ExactSplit(1.8, 4), 1000, 1.0)
        assert abs(math.fsum(trace.final_x) / 4 - 1.25) <= 0.01
        assert all(abs(v - 1.25) <= 0.01 for v in trace.final_x)

    def test_affine_mean_root(self):
        # one load of power 100 at breakpoint 100 under a ramp of width 100
        # is z on (0, 100]; a deficit estimate of j + 1 makes region j's
        # field z - (j + 1), whose average has its root at 2.5
        ramp = SurrogateCcf(build_ccf([(100.0, 100.0)]), 100.0)
        inst = ProtocolInstance((ramp,) * 4, LINE4, ETA, TraceEstimator(((1.0, 2.0, 3.0, 4.0),)),
                                None, 5000)
        trace = run_protocol(inst)
        root = math.fsum(trace.final_x) / 4
        assert abs(root - 2.5) <= 1e-2
        assert max(abs(v - root) for v in trace.final_x) <= 1e-2

    def test_zero_field_returns_initial_mean(self):
        X = recursion([1.0, 2.0, 3.0, 6.0], [ZERO] * 4, LINE4, 5000)
        assert np.abs(X[-1] - X[-1].mean()).max() <= 1e-10
        assert X[-1] == pytest.approx([3.0] * 4, abs=1e-9)


class TestConvergenceDiagnostics:
    def test_consensus_diagnostics_by_hand(self):
        x = np.array([[1.0, 3.0], [0.0, 0.0], [5.0, 1.0], [-4.0, -4.0], [2.0, 0.0]])
        eta = np.array([0.5, 0.25, 0.0, 0.1, 0.5])
        d = consensus_diagnostics(x, eta)
        assert d.disagreement.tolist() == [1.0, 0.0, 2.0, 0.0, 1.0]
        # round 3 disagrees most but has eta = 0, so no ratio; round 5 ties
        # round 1, and the first round attaining the peak is reported
        assert (d.ratio_max, d.ratio_argmax) == (2.0, 1)

    def test_consensus_diagnostics_in_agreement(self):
        d = consensus_diagnostics(np.zeros((3, 2)), np.ones(3))
        assert d.disagreement.tolist() == [0.0, 0.0, 0.0]
        assert d[1:] == (0.0, 1)

    def test_consensus_ratio_peaks_early(self):
        # ten seeded noisy-estimator runs of the continuous shedding field:
        # the disagreement-to-step ratio attains its maximum in the first
        # 200 rounds and never exceeds it afterward (the per-node imbalance
        # is constant along this trajectory, so the quasi-static ratio
        # approaches its limit from above)
        for seed in range(10):
            trace = continuous_run(NoisySplit(1.8, 4, seed=seed), 2000, 1.0)
            d = consensus_diagnostics(trace.x, trace.eta)
            assert d.ratio_argmax <= 200
            ratio = d.disagreement / trace.eta
            assert ratio[200:].max() <= ratio[: d.ratio_argmax + 1].max() + 1e-12

    def test_mean_stays_bounded(self):
        # boundedness monitor: |mean| never leaves the criticality range
        # and its running max grows negligibly once the transit is over
        means = np.abs(continuous_run(ExactSplit(1.8, 4), 3000, 0.0).x.mean(axis=1))
        assert math.isfinite(means.max())
        assert means.max() <= 3.0
        assert means.max() <= means[: 3000 // 2].max() * 1.05

    def test_lyapunov_monitor(self):
        # test-side decrease monitor: squared distance of the mean to the
        # known root never rises meaningfully after warm-up
        means = continuous_run(ExactSplit(1.8, 4), 3000, 0.0).x.mean(axis=1)
        V = (means - 1.25) ** 2
        warmup = 50
        assert (V[warmup:] < V[warmup] + 0.01).all()


# ---------------------------------------------------------------------------
# the verifiers as they were written point by point: references for the
# grid evaluation, which must give the same results bit for bit


def loop_bounded_lipschitz(fld, grid, horizon):
    times = rootfind._sample_times(horizon)
    bound = 0.0
    slope = 0.0
    for t in times:
        for j in range(fld.n):
            bound = max(bound, max(abs(fld.evaluate(j, float(z), t)) for z in grid))
    for j in range(fld.n):  # the slope of the limit field
        values = [fld.limit(j, float(z)) for z in grid]
        for i in range(1, len(grid) - 1):
            quotient = abs(values[i + 1] - values[i - 1]) / (grid[i + 1] - grid[i - 1])
            slope = max(slope, quotient)
    return bound, slope * LIPSCHITZ_SAFETY


def loop_average_limit(fld, z):
    return math.fsum(fld.limit(j, float(z)) for j in range(fld.n)) / fld.n


def loop_sign_condition(fld, grid):
    H = np.array([loop_average_limit(fld, z) for z in grid])
    candidates = []
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
    return CheckResult("sign_condition", best_min >= -SIGN_TOL, value=best_min,
                       witness=best_witness)


def loop_deviation_rate(fld, grid, horizon, eta):
    times = rootfind._sample_times(horizon, count=40)
    H = [loop_average_limit(fld, z) for z in grid]
    running = 0.0
    attained_at = 1
    for t in times:
        worst = 0.0
        for zi, z in enumerate(grid):
            avg = math.fsum(fld.evaluate(j, float(z), t) for j in range(fld.n)) / fld.n
            worst = max(worst, abs(H[zi] - avg))
        ratio = worst / eta(t)
        if ratio > running:
            running = ratio
            attained_at = t
    return CheckResult("deviation_rate", attained_at <= max(1, horizon // 2), value=running,
                       detail=f"running max attained at t={attained_at}")


def bits(check: CheckResult) -> tuple:
    """A check with its numbers as exact bit patterns (-0.0 differs from 0.0)."""
    return (check.name, check.passed,
            *(None if v is None else float(v).hex() for v in (check.value, check.witness)),
            check.detail)


class TestGridVerifiersMatchLoops:
    # three regions, so that a sum across nodes can round differently from fsum
    PAIRS = [FIG_PAIRS[:3], FIG_PAIRS[3:5], FIG_PAIRS[5:]]

    @pytest.mark.parametrize(
        "estimator, deficit",
        [
            (ExactSplit(6.0, 3), 6.0),
            (NoisySplit(6.0, 3, seed=3), 6.0),
            (TraceEstimator(((1.0, 4.0, 1.0), (2.1, 2.5, 1.4), (1.7, 2.2, 2.1))), 6.0),
        ],
        ids=["exact", "noisy", "trace"],
    )
    def test_same_results_as_point_by_point(self, estimator, deficit):
        fld = shedding_field(self.PAIRS, FIG_RAMP, estimator, deficit=deficit)
        grid = np.linspace(0.0 - 2 * FIG_RAMP, 0.8 + 2 * FIG_RAMP, 301)
        horizon = 400
        bounded, lipschitz, bound, slope = verify_assumption_bounded_lipschitz(
            fld, grid, horizon
        )
        assert (bound.hex(), slope.hex()) == tuple(
            float(v).hex() for v in loop_bounded_lipschitz(fld, grid, horizon)
        )
        assert (bounded.value, lipschitz.value) == (bound, slope)
        assert bits(verify_sign_condition(fld, grid)) == bits(loop_sign_condition(fld, grid))
        sparse = grid[::10]
        assert bits(verify_deviation_rate(fld, sparse, horizon, ETA.eta)) == bits(
            loop_deviation_rate(fld, sparse, horizon, ETA.eta)
        )

    def test_average_limit_of_a_grid_is_its_points(self):
        fld = shedding_field(self.PAIRS, FIG_RAMP, NoisySplit(6.0, 3, seed=3))
        grid = np.linspace(-0.1, 0.9, 57)
        assert [v.hex() for v in fld.average_limit(grid).tolist()] == [
            loop_average_limit(fld, z).hex() for z in grid
        ]


class TestCheckCertificate:
    """Certificate constants of ``loadshed check`` at full precision."""

    @pytest.mark.parametrize(
        "source, constants",
        [
            ("two_region_step_example.json",
             (5.0, 88.0, 0.0, 1, 4.000000000000001, -0.0, 0.3699)),
            ("continuous_four_regions.json",
             (0.75, 1.3200000000000165, 0.0, 1, 3.548682538985941, -0.0, 1.25)),
            ("line", (63.27119016960299, 3832.9029522611204, 0.0, 1, 31.551827232703314,
                      -0.0, 0.4210726)),
            ("random", (63.27119016960299, 3832.9029522611204, 0.0, 2, 140.96398051850585,
                        -0.0, 0.4210726)),
        ],
        ids=["two-region", "continuous", "gen-line-0", "gen-random-0"],
    )
    def test_constants(self, source, constants, monkeypatch, tmp_path):
        certificates = []

        class Recorded(rootfind.AssumptionCertificate):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                certificates.append(self)

        monkeypatch.setattr(rootfind, "AssumptionCertificate", Recorded)
        path = CONFIG_DIR / source
        if not source.endswith(".json"):  # `loadshed gen --graph <source> --seed 0`
            path = tmp_path / "gen.json"
            scenario.dump_scenario(scenario.generate_scenario(4, 100, 0, graph=source), path)
        assert cli.main(["--quiet", "check", str(path)]) == 0
        (cert,) = certificates
        sign = cert.checks["sign_condition"]
        got = (cert.bound, cert.lipschitz, cert.deviation_rate, cert.window,
               cert.consensus_ratio, sign.value, sign.witness)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in constants]
