from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from loadshed import cli, netgraph, rootfind, scenario
from loadshed.criticality import SurrogateCcf, build_ccf, eval_surrogate
from loadshed.netgraph import RandomSchedule, StaticSchedule, mixing_rows, normalize_edges
from loadshed.oracle import exact_z_hat
from loadshed.protocol import (
    CHUNK,
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
    mix_and_step,
    run_to_root,
    verify_assumption_bounded_lipschitz,
    verify_deviation_rate,
    verify_sign_condition,
)

from conftest import FIG_PAIRS, FIG_RAMP

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LINE4 = StaticSchedule(4, normalize_edges([(0, 1), (1, 2), (2, 3)], 4))
ETA = StepSchedule(1.0, 1.0, 1.0)


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


def continuous_field():
    caps = [(1.2, 1.0), (1.2, 2.0), (1.2, 2.0), (1.2, 3.0)]
    surrogates = [
        SurrogateCcf(build_ccf([(cap, crit)]), 1.0) for cap, crit in caps
    ]
    return TimeVaryingField(
        n=4,
        evaluate=lambda j, z, t: eval_surrogate(surrogates[j], z) - 0.45,
        limit=lambda j, z: eval_surrogate(surrogates[j], z) - 0.45,
    )


class TestAuxUpdate:
    def test_telescoping_contraction(self):
        # h(z, t) = z on one node: x(t) shrinks by (1 - eta) each round,
        # giving exactly 1/(t+1) after t rounds of the harmonic step
        rows = mixing_rows(np.array([[1.0]]))
        x = [1.0]
        for t in range(1, 200):
            x = mix_and_step(x, rows, ETA.eta(t), x)
        assert x[0] == pytest.approx(1.0 / 200.0, rel=1e-9)

    def test_zero_field_is_pure_consensus(self):
        fld = TimeVaryingField(4, lambda j, z, t: 0.0, limit=lambda j, z: 0.0)
        run = run_to_root(fld, LINE4, ETA.eta, x0=[4.0, 0.0, 0.0, 0.0],
                          tolerance=1e-9, max_rounds=4000)
        assert run.converged
        assert run.root == pytest.approx(1.0, abs=1e-8)  # the initial mean


class TestModuleEquivalence:
    def test_bit_exact_against_protocol(self):
        """The generic root finder and the shedding runtime produce
        identical trajectories for the shedding field."""
        pairs = [FIG_PAIRS[:4], FIG_PAIRS[4:]]
        estimator = ExactSplit(6.0, 2)
        ramp = FIG_RAMP
        rounds = 700
        schedule = StaticSchedule(2, normalize_edges([(0, 1)], 2))

        inst = ProtocolInstance(
            region_criticalities=tuple(
                tuple(sorted(c for _, c in p)) for p in pairs
            ),
            surrogates=tuple(SurrogateCcf(build_ccf(p), ramp) for p in pairs),
            ramp_width=ramp,
            schedule=schedule,
            step=ETA,
            estimator=estimator,
            convergence_window=None,
            max_rounds=rounds,
        )
        trace = run_protocol(inst)

        fld = shedding_field(pairs, ramp, estimator)
        run = run_to_root(fld, schedule, ETA.eta, x0=0.0, tolerance=0.0,
                          max_rounds=rounds)
        assert run.rounds == trace.rounds == rounds
        assert np.array_equal(run.x, trace.x)

    def test_bit_exact_on_random_schedule(self):
        pairs = [FIG_PAIRS[:4], FIG_PAIRS[4:]]
        estimator = NoisySplit(6.0, 2, seed=77)
        schedule = RandomSchedule(2, 0.6, window=3, seed=77)
        inst = ProtocolInstance(
            region_criticalities=tuple(tuple(sorted(c for _, c in p)) for p in pairs),
            surrogates=tuple(SurrogateCcf(build_ccf(p), FIG_RAMP) for p in pairs),
            ramp_width=FIG_RAMP,
            schedule=schedule,
            step=ETA,
            estimator=estimator,
            convergence_window=None,
            max_rounds=300,
        )
        trace = run_protocol(inst)
        fld = shedding_field(pairs, FIG_RAMP, estimator)
        run = run_to_root(fld, schedule, ETA.eta, tolerance=0.0, max_rounds=300)
        assert np.array_equal(run.x, trace.x)

    def test_random_schedule_read_a_chunk_at_a_time(self, monkeypatch):
        # the round budget is drawn CHUNK rounds at a time, so an early
        # stop leaves the rest of it undrawn
        drawn = []
        draw = netgraph.draw_edges

        def counted_draw(seed, counters, *rest):
            drawn.append((int(counters[0]), int(counters[-1])))
            return draw(seed, counters, *rest)

        monkeypatch.setattr(netgraph, "draw_edges", counted_draw)
        schedule = RandomSchedule(3, 0.3, window=2, seed=5)
        still = TimeVaryingField(3, lambda j, z, t: 0.0, limit=lambda j, z: 0.0)
        run = run_to_root(still, schedule, ETA.eta, x0=1.0, max_rounds=10_000)
        assert run.converged and run.rounds == 1
        assert drawn == [(1, CHUNK)]

        drawn.clear()
        fld = TimeVaryingField(3, lambda j, z, t: math.tanh(z) + j, limit=lambda j, z: math.tanh(z) + j)
        run = run_to_root(fld, schedule, ETA.eta, x0=30.0, max_rounds=2500)
        assert not run.converged and run.rounds == 2500
        assert drawn == [(1, 1024), (1025, 2048), (2049, 2500)]
        # blocks that start and end inside windows give the same run
        monkeypatch.setattr(rootfind, "CHUNK", 7)
        again = run_to_root(fld, schedule, ETA.eta, x0=30.0, max_rounds=2500)
        assert np.array_equal(again.x, run.x)


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
        sign = verify_sign_condition(fld, grid, t_large=1e6)
        assert sign.passed
        ccf = build_ccf(FIG_PAIRS)
        z_hat = exact_z_hat(SurrogateCcf(ccf, FIG_RAMP), 6.0)
        assert abs(sign.witness - z_hat) <= FIG_RAMP + grid[1] - grid[0]

    def test_sine_field_passes_on_symmetric_grid(self):
        fld = TimeVaryingField(1, lambda j, z, t: np.sin(z),
                               limit=lambda j, z: np.sin(z))
        grid = np.linspace(-1.0, 1.0, 801)
        sign = verify_sign_condition(fld, grid, t_large=1e6)
        assert sign.passed
        assert abs(sign.witness) <= 2.5e-3

    def test_reversed_sign_fails(self):
        fld = TimeVaryingField(1, lambda j, z, t: -z, limit=lambda j, z: -z)
        grid = np.linspace(-1.0, 1.0, 801)
        assert not verify_sign_condition(fld, grid, t_large=1e6).passed

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
        run = run_to_root(continuous_field(), LINE4, ETA.eta, x0=1.0,
                          tolerance=1e-4, max_rounds=1000)
        assert abs(run.root - 1.25) <= 0.01
        assert all(abs(v - 1.25) <= 0.01 for v in run.x_final)

    def test_affine_mean_root(self):
        fld = TimeVaryingField(
            4,
            lambda j, z, t: z - (j + 1.0),
            limit=lambda j, z: z - (j + 1.0),
        )
        run = run_to_root(fld, LINE4, ETA.eta, x0=0.0, tolerance=1e-2,
                          max_rounds=5000)
        assert run.converged
        assert abs(run.root - 2.5) <= 1e-2
        # at termination the averaged field and the disagreement both sit
        # inside the tolerance
        assert abs(fld.average_limit(run.root, 1e6)) <= 1e-2
        assert max(abs(v - run.root) for v in run.x_final) <= 1e-2

    def test_zero_field_returns_initial_mean(self):
        fld = TimeVaryingField(4, lambda j, z, t: 0.0, limit=lambda j, z: 0.0)
        run = run_to_root(fld, LINE4, ETA.eta, x0=[1.0, 2.0, 3.0, 6.0],
                          tolerance=1e-10, max_rounds=5000)
        assert run.converged
        assert run.root == pytest.approx(3.0, abs=1e-9)

    def test_exhausted_budget_reports_not_converged(self):
        fld = TimeVaryingField(4, lambda j, z, t: math.tanh(z), limit=lambda j, z: math.tanh(z))
        run = run_to_root(fld, LINE4, ETA.eta, x0=30.0, tolerance=1e-12,
                          max_rounds=20)
        assert not run.converged
        assert run.rounds == 20


class TestConvergenceDiagnostics:
    def test_consensus_diagnostics_by_hand(self):
        x = np.array([[1.0, 3.0], [0.0, 0.0], [5.0, 1.0], [-4.0, -4.0], [2.0, 0.0]])
        eta = np.array([0.5, 0.25, 0.0, 0.1, 0.5])
        d = consensus_diagnostics(x, eta)
        assert d.disagreement.tolist() == [1.0, 0.0, 2.0, 0.0, 1.0]
        # round 3 disagrees most but has eta = 0, so no ratio; round 5 ties
        # round 1, and the first round attaining the peak is reported
        assert (d.ratio_max, d.ratio_argmax) == (2.0, 1)
        assert (d.mean_abs_max, d.mean_abs_argmax) == (4.0, 4)

    def test_consensus_diagnostics_in_agreement(self):
        d = consensus_diagnostics(np.zeros((3, 2)), np.ones(3))
        assert d.disagreement.tolist() == [0.0, 0.0, 0.0]
        assert d[1:] == (0.0, 1, 0.0, 1)

    def test_consensus_ratio_peaks_early(self):
        # ten seeded noisy-estimator runs of the continuous shedding field:
        # the disagreement-to-step ratio attains its maximum in the first
        # 200 rounds and never exceeds it afterward (the per-node imbalance
        # is constant along this trajectory, so the quasi-static ratio
        # approaches its limit from above)
        caps = [(1.2, 1.0), (1.2, 2.0), (1.2, 2.0), (1.2, 3.0)]
        surrogates = [SurrogateCcf(build_ccf([(cap, crit)]), 1.0) for cap, crit in caps]
        for seed in range(10):
            estimates = NoisySplit(1.8, 4, seed=seed).block(1, 2001).tolist()
            fld = TimeVaryingField(
                4,
                evaluate=lambda j, z, t, e=estimates: eval_surrogate(surrogates[j], z)
                - e[int(t) - 1][j],
                limit=lambda j, z: eval_surrogate(surrogates[j], z) - 0.45,
            )
            run = run_to_root(fld, LINE4, ETA.eta, x0=1.0, tolerance=0.0,
                              max_rounds=2000)
            assert run.diagnostics.ratio_argmax <= 200
            ratio = run.diagnostics.disagreement / run.eta
            assert ratio[200:].max() <= ratio[: run.diagnostics.ratio_argmax + 1].max() + 1e-12

    def test_mean_stays_bounded(self):
        # boundedness monitor: |mean| never leaves the criticality range
        # and its running max grows negligibly once the transit is over
        run = run_to_root(continuous_field(), LINE4, ETA.eta, x0=0.0,
                          tolerance=0.0, max_rounds=3000)
        assert math.isfinite(run.diagnostics.mean_abs_max)
        assert run.diagnostics.mean_abs_max <= 3.0
        means = np.abs(run.x.mean(axis=1))
        half_max = means[: 3000 // 2].max()
        assert run.diagnostics.mean_abs_max <= half_max * 1.05

    def test_lyapunov_monitor(self):
        # test-side decrease monitor: squared distance of the mean to the
        # known root never rises meaningfully after warm-up
        run = run_to_root(continuous_field(), LINE4, ETA.eta, x0=0.0,
                          tolerance=0.0, max_rounds=3000)
        means = run.x.mean(axis=1)
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
            values = [fld.evaluate(j, float(z), t) for z in grid]
            bound = max(bound, max(abs(v) for v in values))
            for i in range(1, len(grid) - 1):
                quotient = abs(values[i + 1] - values[i - 1]) / (grid[i + 1] - grid[i - 1])
                slope = max(slope, quotient)
    return bound, slope * LIPSCHITZ_SAFETY


def loop_sign_condition(fld, grid, t_large):
    H = np.array([fld.average_limit(float(z), t_large) for z in grid])
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
    t_large = 10.0 * max(horizon, 1)
    H = [fld.average_limit(float(z), t_large) for z in grid]
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
        assert bits(verify_sign_condition(fld, grid, 10.0 * horizon)) == bits(
            loop_sign_condition(fld, grid, 10.0 * horizon)
        )
        sparse = grid[::10]
        assert bits(verify_deviation_rate(fld, sparse, horizon, ETA.eta)) == bits(
            loop_deviation_rate(fld, sparse, horizon, ETA.eta)
        )

    def test_average_limit_of_a_grid_is_its_points(self):
        fld = shedding_field(self.PAIRS, FIG_RAMP, NoisySplit(6.0, 3, seed=3))
        grid = np.linspace(-0.1, 0.9, 57)
        for t_large in (1e6, None):
            if t_large is None:  # no declared limit: late-time samples
                fld = TimeVaryingField(fld.n, fld.evaluate)
                t_large = 1500
            values = fld.average_limit(grid, t_large)
            assert [v.hex() for v in values.tolist()] == [
                fld.average_limit(float(z), t_large).hex() for z in grid
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
