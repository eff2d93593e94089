from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from loadshed import cli, rootfind, scenario
from loadshed.criticality import SurrogateCcf, build_ccf
from loadshed.netgraph import StaticSchedule, normalize_edges
from loadshed.oracle import exact_z_hat
from loadshed.protocol import (
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    StepSchedule,
    TraceEstimator,
    certify_deficit_tracking,
    deficit_deviation,
    run_protocol,
)
from loadshed.rootfind import (
    CheckResult,
    consensus_diagnostics,
    verify_assumption_bounded_lipschitz,
    verify_deviation_rate,
    verify_sign_condition,
)

from conftest import FIG_PAIRS, FIG_RAMP, block_rows, round_rows, x_rounds

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LINE4 = StaticSchedule(4, normalize_edges([(0, 1), (1, 2), (2, 3)], 4))
ETA = StepSchedule(1.0, 1.0, 1.0)
ZERO = SurrogateCcf(build_ccf([]), 1.0)  # an empty CCF: the zero field


def fig_surrogates(pairs_by_region=(FIG_PAIRS[:4], FIG_PAIRS[4:])):
    """Per-region surrogate CCFs of the figure's loads (two regions by default)."""
    return [SurrogateCcf(build_ccf(p), FIG_RAMP) for p in pairs_by_region]


def deviation_rate(estimator, rounds, deficit=6.0):
    """``loadshed check``'s deviation-rate line for ``estimator`` over rounds 1..rounds."""
    P = estimator.block(1, rounds + 1)
    return verify_deviation_rate(deficit_deviation(P, 1, ETA, deficit) / P.shape[1])


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
    rows = block_rows(round_rows(schedule, 1, rounds + 1), schedule.n)
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
        surrogates = fig_surrogates()
        bound, slope = verify_assumption_bounded_lipschitz(
            surrogates, ExactSplit(6.0, 2).block(1, 201)
        )
        assert bound == 5.0  # 8 - 3: fields never exceed the total load
        assert slope == 4.0 / FIG_RAMP  # the step of 4 at 0.4
        sign = verify_sign_condition(build_ccf(FIG_PAIRS), FIG_RAMP, 6.0)
        assert sign.passed and sign.value == 0.4  # 6 sits 2/5 up the step of 5 at 0.4
        assert sign.witness == exact_z_hat(SurrogateCcf(build_ccf(FIG_PAIRS), FIG_RAMP), 6.0)

    @pytest.mark.parametrize("deficit, breakpoint", [(1.0, 0.1), (9.0, 0.4), (16.0, 0.8)])
    def test_sign_condition_fails_at_a_cumulative_load(self, deficit, breakpoint):
        # H vanishes from the breakpoint up to the next ramp (for the total
        # load, everywhere above it): no single root
        sign = verify_sign_condition(build_ccf(FIG_PAIRS), FIG_RAMP, deficit)
        assert not sign.passed
        assert (sign.value, sign.witness) == (1.0, breakpoint)

    @pytest.mark.parametrize(
        "bad", [(np.nan, np.nan), (np.inf, np.inf), (np.inf, -np.inf)],
        ids=["nan", "inf", "opposite-inf"],
    )
    def test_non_finite_samples_fail(self, bad):
        estimator = TraceEstimator(((3.0, 3.0), bad))
        P = estimator.block(1, 101)
        bound, slope = verify_assumption_bounded_lipschitz(fig_surrogates(), P)
        assert not math.isfinite(bound) and slope == 4.0 / FIG_RAMP
        deviation = deviation_rate(estimator, 100)
        assert not deviation.passed and not math.isfinite(deviation.value)
        assert deviation.detail == "non-finite estimate sum"
        assert not certify_deficit_tracking(estimator, ETA, 100, 6.0) <= 2 * 2

    def test_deviation_rate_zero_for_time_invariant(self):
        check = deviation_rate(ExactSplit(6.0, 2), 500)
        assert check.passed
        assert check.value == 0.0

    def test_deviation_rate_noisy_bounded(self):
        check = deviation_rate(NoisySplit(6.0, 2, seed=3), 2000)
        assert check.passed
        assert check.value <= 2 * 2  # twice the node count

    def test_deviation_rate_slow_drift_fails(self):
        # each estimate is off its share by 1/sqrt(t): the ratio grows like sqrt(t)
        rows = tuple((3.0 + d, 3.0 + d) for d in (1.0 / math.sqrt(t) for t in range(1, 4001)))
        check = deviation_rate(TraceEstimator(rows), 4000)
        assert not check.passed

    def test_cancelling_estimates_keep_their_error(self):
        # each estimate is off its share of 3 by more than 1e308 and their
        # sum is 0, so the aggregate error is the deficit, 6, in every round
        est = TraceEstimator(((-1e308, 1e308),))
        ratios = deficit_deviation(est.block(1, 11), 1, ETA, 6.0)
        assert ratios.tolist() == [6.0 / ETA.eta(t) for t in range(1, 11)]


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
# the verifiers a round and a region at a time: references for the array
# evaluation, which must give the same results bit for bit


def loop_bounded_lipschitz(surrogates, rows):
    bound = slope = 0.0
    for row in rows:
        for s, p in zip(surrogates, row):
            bound = max(bound, abs(p), abs(s.base.total_load - p))
    for s in surrogates:
        cumulative = (0.0, *s.base.cumulative)
        slope = max(slope, *(b - a for a, b in zip(cumulative, cumulative[1:])))
    return bound, slope / FIG_RAMP


def loop_deviation_rate(rows, deficit):
    # the aggregate error exactly: every estimate less its share, summed by fsum
    n = len(rows[0])
    share = deficit / n
    horizon = len(rows)
    running, attained_at = 0.0, 1
    for t in rootfind._sample_times(horizon):
        ratio = abs(math.fsum([*rows[t - 1], *[-share] * n])) / ETA.eta(t) / n
        if ratio > running:
            running, attained_at = ratio, t
    return CheckResult("deviation_rate", attained_at <= max(1, horizon // 2), value=running,
                       detail=f"running max attained at t={attained_at}")


def bits(check: CheckResult) -> tuple:
    """A check with its numbers as exact bit patterns (-0.0 differs from 0.0)."""
    return (check.name, check.passed,
            *(None if v is None else float(v).hex() for v in (check.value, check.witness)),
            check.detail)


class TestVerifiersMatchLoops:
    # three regions, so that a sum across nodes can round differently from fsum
    PAIRS = [FIG_PAIRS[:3], FIG_PAIRS[3:5], FIG_PAIRS[5:]]

    @pytest.mark.parametrize(
        "estimator",
        [
            ExactSplit(6.0, 3),
            NoisySplit(6.0, 3, seed=3),
            TraceEstimator(((1.0, 4.0, 1.0), (2.1, 2.5, 1.4), (1.7, 2.2, 2.1))),
        ],
        ids=["exact", "noisy", "trace"],
    )
    def test_same_results_as_round_by_round(self, estimator):
        surrogates = fig_surrogates(self.PAIRS)
        P = estimator.block(1, 401)
        got = verify_assumption_bounded_lipschitz(surrogates, P)
        assert [v.hex() for v in got] == [
            v.hex() for v in loop_bounded_lipschitz(surrogates, P.tolist())
        ]
        assert bits(deviation_rate(estimator, 400)) == bits(loop_deviation_rate(P.tolist(), 6.0))


class TestCheckCertificate:
    """Certificate constants of ``loadshed check`` at full precision."""

    @pytest.mark.parametrize(
        "source, constants",
        [
            ("two_region_step_example.json", (5.0, 80.0, 0.0, 1, 4.000000000000001, 0.4, 0.37)),
            ("continuous_four_regions.json",
             (0.75, 1.2, 0.0, 1, 3.548682538985941, 0.2500000000000001, 1.25)),
            ("line", (63.27119016960299, 29999.82118519904, 0.0, 1, 31.551827232703314,
                      0.3347697930974102, 0.4216667384896549)),
            ("random", (63.27119016960299, 29999.82118519904, 0.0, 2, 140.96398051850585,
                        0.3347697930974102, 0.4216667384896549)),
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

    def test_lipschitz_is_the_largest_ramp_slope(self, capsys, tmp_path):
        # ramps about 5e-5 wide: a grid of 1 001 points read a slope of
        # 3832.9 here, an eighth of the steepest ramp's
        config = scenario.generate_scenario(4, 100, 0, graph="line")
        path = tmp_path / "gen.json"
        scenario.dump_scenario(config, path)
        inst = scenario.build_instance(config)
        step = max(b - a for s in inst.surrogates
                   for a, b in zip((0.0, *s.base.cumulative), s.base.cumulative))
        _, lipschitz = verify_assumption_bounded_lipschitz(inst.surrogates, np.zeros((1, 4)))
        assert lipschitz == step / inst.ramp_width
        assert cli.main(["check", str(path)]) == 0
        constants = capsys.readouterr().out.splitlines()[-1]
        assert "lipschitz=29999.8" in constants.split()
