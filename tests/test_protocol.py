from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from loadshed.criticality import (
    Ccf,
    SurrogateCcf,
    build_ccf,
    eval_surrogate,
    shed_decision,
)
from loadshed.netgraph import (
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    normalize_edges,
)
from loadshed.oracle import exact_z_hat, exact_z_star
from loadshed.protocol import (
    CHUNK,
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from loadshed import scenario
from loadshed.rootfind import certify_deficit_tracking
from loadshed.seeding import STREAM_NOISE, mix64, noise_matrix, unit_float

from conftest import (
    FIG_PAIRS,
    FIG_RAMP,
    dmc_rounds,
    local_zeta,
    metropolis_weights,
    mixing_rows,
    protocol_rounds,
    step_eta,
    x_rounds,
    eval_ccf,
)


def symmetric_uniform(seed: int, tag: int, *indices: int) -> float:
    """Deterministic draw in [-1, 1) for the given stream position."""
    return 2.0 * unit_float(mix64(seed, tag, *indices)) - 1.0


def cutoff_candidates(inst):
    """Each region's cutoff candidates: its surrogate's breakpoints, ascending."""
    return tuple(tuple(s.base.breakpoints.tolist()) for s in inst.surrogates)


def fig_two_region_instance(deficit=6.0, max_rounds=3000, window=None, **kwargs):
    """The step-function example split across two regions on a 2-node graph."""
    region_a = FIG_PAIRS[:4]
    region_b = FIG_PAIRS[4:]
    surrogates = tuple(
        SurrogateCcf(build_ccf(pairs), FIG_RAMP) for pairs in (region_a, region_b)
    )
    return ProtocolInstance(
        surrogates=surrogates,
        schedule=StaticSchedule(2, normalize_edges([(0, 1)], 2)),
        step=StepSchedule(1.0, 1.0, 1.0),
        estimator=ExactSplit(deficit, 2),
        convergence_window=window,
        max_rounds=max_rounds,
        **kwargs,
    )


def continuous_vc_instance(max_rounds=1000, x0=1.0):
    """Four continuously sheddable regions, unit-width ramps."""
    surrogates = tuple(SurrogateCcf(Ccf((float(c),), (1.2,)), 1.0) for c in (1, 2, 2, 3))
    return ProtocolInstance(
        surrogates=surrogates,
        schedule=StaticSchedule(4, normalize_edges([(0, 1), (1, 2), (2, 3)], 4)),
        step=StepSchedule(1.0, 1.0, 1.0),
        estimator=ExactSplit(1.8, 4),
        convergence_window=None,
        max_rounds=max_rounds,
        x0=x0,
    )


class TestStepSchedule:
    def test_harmonic_default(self):
        step = StepSchedule()
        assert step_eta(step, 1) == 0.5
        assert step_eta(step, 9) == 0.1

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(exponent=0.5)
        with pytest.raises(ValueError):
            StepSchedule(exponent=1.2)
        StepSchedule(exponent=0.75)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            StepSchedule(gain=0.0)
        with pytest.raises(ValueError):
            StepSchedule(offset=-1.0)

    def test_sum_behaviour_numeric(self):
        # partial sums of eta keep growing, partial sums of eta^2 flatten
        for step in (StepSchedule(), StepSchedule(2.0, 50.0, 1.0), StepSchedule(1.0, 1.0, 0.6)):
            etas = [step_eta(step, t) for t in range(1, 200_001)]
            first = sum(etas[:100_000])
            assert sum(etas) > first * 1.05
            sq = [e * e for e in etas]
            assert sum(sq) < sum(sq[:100_000]) * 1.05


class TestEstimators:
    def test_exact_split_quarters(self):
        est = ExactSplit(2.94, 4)
        assert est.block(1, 2).tolist() == [[0.735] * 4]
        assert est.block(1000, 1002).tolist() == [[0.735] * 4] * 2

    def test_exact_split_zero(self):
        assert ExactSplit(0.0, 3).block(5, 6).tolist() == [[0.0, 0.0, 0.0]]

    def test_noisy_split_bound(self):
        # each row is the scalar draw of its own round, within 1/t of the share
        est = NoisySplit(2.94, 4, seed=5)
        base = 2.94 / 4
        for t in (1, 2, 17, 400):
            vals = est.block(t, t + 1)[0].tolist()
            assert vals == [base + symmetric_uniform(5, STREAM_NOISE, t, j) / t for j in range(4)]
            assert all(abs(v - base) <= 1.0 / t for v in vals)

    def test_noisy_split_deterministic(self):
        a = NoisySplit(1.0, 3, seed=9)
        b = NoisySplit(1.0, 3, seed=9)
        assert np.array_equal(a.block(42, 43), b.block(42, 43))

    def test_estimator_blocks_are_their_rows(self):
        # a block of rounds equals the one-round blocks stacked
        for est in (ExactSplit(2.94, 4), NoisySplit(2.94, 4, seed=5),
                    TraceEstimator(((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)))):
            block = est.block(1, 300)
            assert block.dtype == np.float64 and block.shape == (299, 4)
            assert block.tolist() == [est.block(t, t + 1)[0].tolist() for t in range(1, 300)]

    def test_trace_estimator_replay_and_clamp(self):
        est = TraceEstimator(((1, 2.0), (3.0, 4.0)))
        assert est.block(1, 4).tolist() == [[1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]
        assert est.block(99, 100).tolist() == [[3.0, 4.0]]
        assert est.block(1, 2).dtype == np.float64  # integer entries read as floats

    def test_trace_estimator_ragged_rejected(self):
        with pytest.raises(ValueError):
            TraceEstimator(((1.0, 2.0), (3.0,)))

    def test_noise_matrix_matches_scalar(self):
        times = np.array([1, 2, 77, 10_000])
        mat = noise_matrix(31, times, 3)
        for r, t in enumerate(times):
            for j in range(3):
                assert mat[r, j] == symmetric_uniform(31, STREAM_NOISE, int(t), j)

    def test_tracking_certificate(self):
        step = StepSchedule()
        assert certify_deficit_tracking(ExactSplit(5.0, 4), step, 1000, 5.0) == 0.0
        theta = certify_deficit_tracking(NoisySplit(5.0, 4, seed=2), step, 50_000, 5.0)
        assert 0.0 < theta <= 2 * 4

    def test_tracking_certificate_trace(self):
        # replayed table: rows sum to 3.0, 3.2, 3.0 against the deficit 3.0,
        # so the worst deviation ratio is 0.2 / eta(2)
        est = TraceEstimator(((1.0, 2.0), (1.6, 1.6), (1.5, 1.5)))
        step = StepSchedule()
        theta = certify_deficit_tracking(est, step, 10, 3.0)
        assert theta == pytest.approx(0.2 / step_eta(step, 2), rel=1e-9)

    def test_tracking_certificate_trace_off_the_deficit(self):
        # a table that never sums to the deficit: the ratio grows like
        # 0.5 (t + 1) and peaks at the last round
        est = TraceEstimator(((3.0, 3.5),))
        step = StepSchedule()
        assert certify_deficit_tracking(est, step, 3000, 6.0) == 0.5 / step_eta(step, 3000)
        assert certify_deficit_tracking(est, step, 3000, 6.5) == 0.0

    @pytest.mark.parametrize("estimator", [
        ExactSplit(6.0, 4), TraceEstimator(((1.5, 1.5, 1.5, 1.5), (1.5, 1.5, 1.5, 1.0))),
    ], ids=["exact", "two-row-trace"])
    def test_tracking_certificate_keeps_no_per_round_array(self, estimator):
        # 100 000 rounds of one repeated row: a float per round would take 800 kB
        step = StepSchedule()
        certify_deficit_tracking(estimator, step, 100_000, 6.0)
        tracemalloc.start()
        try:
            certify_deficit_tracking(estimator, step, 100_000, 6.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestXUpdate:
    def test_single_node_drift(self):
        # one region whose surrogate vanishes at the current estimate:
        # the update moves by the full deficit estimate
        s = SurrogateCcf(build_ccf([(2.0, 0.5)]), 0.1)
        (new,) = x_rounds([0.0], [mixing_rows(np.array([[1.0]]))], [1.0], [[2.0]], [s])
        assert new == [2.0]

    def test_zero_step_is_pure_averaging(self):
        pairs_a, pairs_b = FIG_PAIRS[:4], FIG_PAIRS[4:]
        surrogates = [SurrogateCcf(build_ccf(p), FIG_RAMP) for p in (pairs_a, pairs_b)]
        W = np.array([[0.5, 0.5], [0.5, 0.5]])
        (new,) = x_rounds([1.0, 3.0], [mixing_rows(W)], [0.0], [[5.0, 5.0]], surrogates)
        assert new == [2.0, 2.0]

    def test_locality(self):
        # region 0 talks only to region 1: changing region 2's state can
        # never alter region 0's update
        pairs = [FIG_PAIRS[:3], FIG_PAIRS[3:6], FIG_PAIRS[6:]]
        surrogates = [SurrogateCcf(build_ccf(p), FIG_RAMP) for p in pairs]
        rows = [mixing_rows(metropolis_weights([(0, 1), (1, 2)], 3))]
        p = [[2.0, 2.0, 2.0]]
        (base,) = x_rounds([0.3, 0.5, 0.9], rows, [0.1], p, surrogates)
        (poked,) = x_rounds([0.3, 0.5, 0.0], rows, [0.1], p, surrogates)
        assert poked[0] == base[0]
        assert poked[1] != base[1]


class TestZetaUpdate:
    def test_cutoff_rule(self):
        # the smallest own criticality at or above the estimate; +inf above
        # them all, for NaN and for a region without loads
        crits = ((0.2, 0.5, 0.7), (0.1, 0.4), ())
        X = [[0.4, 0.05, 0.0], [0.2, 0.4, 1.0], [0.9, 0.41, -1.0], [0.7, -1.0, 0.5],
             [-0.0, math.nan, 0.2], [-math.inf, math.inf, math.nan]]
        inf = math.inf
        expected = [[0.5, 0.1, inf], [0.2, 0.4, inf], [inf, inf, inf], [0.7, 0.1, inf],
                    [0.2, inf, inf], [0.2, inf, inf]]
        assert [[local_zeta(c, x) for c, x in zip(crits, row)] for row in X] == expected

    def test_delegates_to_local_zeta(self):
        # the engine's cutoffs are local_zeta of the same round's estimates,
        # through a transient that crosses breakpoints
        inst = fig_two_region_instance(max_rounds=400, window=None)
        trace = run_protocol(inst)
        expected = [[local_zeta(c, x) for c, x in zip(cutoff_candidates(inst), row)]
                    for row in trace.x.tolist()]
        assert trace.zeta.tolist() == expected
        assert len({tuple(row) for row in expected}) > 2


class TestDmcRound:
    def test_three_node_line_hand_simulation(self):
        c = 0.05
        half = c / 2.0
        neighbors = [[1], [0, 2], [1]]
        zeta = [0.5, 0.3, 0.9]
        z = [math.inf] * 3
        alpha = [half] * 3
        (z,), (alpha,) = dmc_rounds(z, alpha, [zeta], [neighbors], c)
        assert z == [0.5, 0.3, 0.9]
        (z,), (alpha,) = dmc_rounds(z, alpha, [zeta], [neighbors], c)
        assert z == [0.3 + half, 0.3, 0.3 + half]
        (z2,), (alpha,) = dmc_rounds(z, alpha, [zeta], [neighbors], c)
        assert z2 == z  # fixed point reached within diameter rounds
        assert min(z2) == 0.3
        assert all(v <= 0.3 + 2 * half for v in z2)

    def test_single_node_tracks_own_cutoff(self):
        (z,), (alpha,) = dmc_rounds([math.inf], [0.025], [[0.4]], [[[]]], 0.05)
        assert z == [0.4]
        (z,), (alpha,) = dmc_rounds(z, alpha, [[0.4]], [[[]]], 0.05)
        assert z == [0.4]

    def test_sentinel_never_injected(self):
        c = 0.05
        z = [0.4, math.inf]
        alpha = [c / 2, c / 2]
        zeta = [0.4, math.inf]
        (z,), (alpha,) = dmc_rounds(z, alpha, [zeta], [[[1], [0]]], c)
        assert z[1] == 0.4 + c / 2  # finite: tracks the neighbor plus step
        assert z[0] == 0.4

    def test_alpha_resets_large_after_increase(self):
        c = 0.05
        # cutoff jumps upward: the node's value rises, so alpha goes to 1/2
        (z,), (alpha,) = dmc_rounds([0.2], [c / 2], [[0.6]], [[[]]], c)
        assert z == [0.2 + c / 2]
        assert alpha == [0.5]


class TestRunProtocol:
    def test_fig_two_region_reaches_oracle(self, fig_ccf):
        # fixed horizon: early stopping on quantized state can trip during
        # transients, so convergence is judged from the closing streak
        inst = fig_two_region_instance(deficit=6.0, max_rounds=3000, window=None)
        trace = run_protocol(inst)
        z_star = exact_z_star(fig_ccf, 6.0)
        assert z_star == 0.4
        assert trace.converged
        assert trace.zeta_stable_rounds >= 50
        # both regions own a criticality-0.4 load, so both settle exactly there
        assert trace.final_z == (0.4, 0.4)

    def test_single_region_no_communication(self, fig_ccf):
        surrogate = SurrogateCcf(fig_ccf, FIG_RAMP)
        inst = ProtocolInstance(
            surrogates=(surrogate,),
            schedule=StaticSchedule(1, frozenset()),
            step=StepSchedule(1.0, 1.0, 1.0),
            estimator=ExactSplit(6.0, 1),
            convergence_window=50,
            max_rounds=3000,
        )
        trace = run_protocol(inst)
        assert trace.converged
        assert trace.final_z == (exact_z_star(fig_ccf, 6.0),)

    def test_continuous_instance_converges_to_root(self):
        trace = run_protocol(continuous_vc_instance(), record_trace=False)
        assert max(abs(v - 1.25) for v in trace.final_x) < 0.01

    def test_trace_contract(self):
        inst = fig_two_region_instance(max_rounds=500, window=None)
        trace = run_protocol(inst)
        assert trace.rounds == 500
        assert trace.eta.shape == (500,)
        assert trace.x.shape == (500, 2)
        assert trace.zeta.shape == (500, 2)
        # final states equal the last recorded rows
        assert tuple(trace.x[-1]) == trace.final_x
        assert tuple(trace.z_min[-1]) == trace.final_z

    def test_determinism_bit_exact(self):
        a = run_protocol(fig_two_region_instance(max_rounds=800, window=None))
        b = run_protocol(fig_two_region_instance(max_rounds=800, window=None))
        assert a.final_x == b.final_x
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z_min, b.z_min)

    def test_mismatched_ramp_rejected(self, fig_ccf):
        surrogates = (SurrogateCcf(fig_ccf, 0.04), SurrogateCcf(fig_ccf, FIG_RAMP))
        with pytest.raises(ValueError, match="one ramp width"):
            ProtocolInstance(
                surrogates=surrogates,
                schedule=StaticSchedule(2, normalize_edges([(0, 1)], 2)),
                step=StepSchedule(),
                estimator=ExactSplit(1.0, 2),
            )

    @pytest.mark.parametrize("row", [(3.0,), (1.0, 2.0, 3.0)])
    def test_estimates_must_match_the_regions(self, row):
        # the kernel reads one estimate per region and round
        inst = dataclasses.replace(fig_two_region_instance(max_rounds=10),
                                   estimator=TraceEstimator((row,)))
        with pytest.raises(ValueError, match=r"estimator gave a \(10, \d\) block"):
            run_protocol(inst)

    def test_instance_reads_its_surrogates(self):
        inst = fig_two_region_instance()
        assert inst.ramp_width == FIG_RAMP
        assert cutoff_candidates(inst) == ((0.1, 0.15, 0.2, 0.4), (0.4, 0.5, 0.7, 0.8))


def per_round_run(inst):
    """The protocol as a plain loop, one round at a time (``protocol_rounds``),
    each round's mixing built from its own edge set."""
    n = len(inst.surrogates)
    state = ([float(inst.x0)] * n, [math.inf] * n, [math.inf] * n, [inst.ramp_width / 2.0] * n)
    streak = 0
    rows = []
    for t in range(1, inst.max_rounds + 1):
        eta, p = step_eta(inst.step, t), inst.estimator.block(t, t + 1)[0].tolist()
        w_rows = mixing_rows(metropolis_weights(inst.schedule.edges_at(t), n))
        (state,), streak = protocol_rounds(state, streak, inst.convergence_window, [w_rows],
                                           [eta], [p], inst.surrogates)
        rows.append((eta, *state, p))
        if inst.convergence_window is not None and streak >= inst.convergence_window:
            break
    return rows, streak


class TestEngineComposition:
    """run_protocol equals the per-round loop of its kernels, bit for bit,
    across chunk boundaries and early stops."""

    def assert_same(self, inst):
        rows, streak = per_round_run(inst)
        eta, x, zeta, z, alpha, p = (list(col) for col in zip(*rows))
        for record in (False, True):
            trace = run_protocol(inst, record_trace=record)
            assert trace.rounds == len(rows)
            assert trace.zeta_stable_rounds == streak
            assert trace.final_x == tuple(x[-1])
            assert trace.final_zeta == tuple(zeta[-1])
            assert trace.final_z == tuple(z[-1])
            assert trace.final_alpha == tuple(alpha[-1])
            if record:
                assert trace.eta.tolist() == eta
                for array, expected in ((trace.x, x), (trace.zeta, zeta), (trace.z_min, z),
                                        (trace.alpha, alpha), (trace.p, p)):
                    assert array.tolist() == [list(row) for row in expected]
        return trace

    def test_static_longer_than_a_full_chunk(self):
        trace = self.assert_same(fig_two_region_instance(max_rounds=3 * CHUNK, window=None))
        assert trace.converged

    @pytest.mark.parametrize("window", [150, 2 * CHUNK])
    def test_static_early_stop_in_a_later_chunk(self, window):
        trace = self.assert_same(fig_two_region_instance(max_rounds=3 * CHUNK, window=window))
        assert trace.converged and window < trace.rounds < 3 * CHUNK

    def test_periodic_schedule(self):
        config = scenario.generate_scenario(4, 12, seed=3, graph="random-periodic", max_rounds=1500)
        inst = scenario.build_instance(config)
        assert isinstance(inst.schedule, PeriodicSchedule)
        self.assert_same(inst)

    def test_replayed_table_changing_mid_chunk(self):
        # rows change every round, repeat in pairs, then the last repeats
        table = tuple((3.0 + 0.01 * (k // 2 % 3), 3.0) for k in range(100))
        inst = dataclasses.replace(
            fig_two_region_instance(max_rounds=300, window=None), estimator=TraceEstimator(table)
        )
        self.assert_same(inst)

    @pytest.mark.parametrize("stop", [1, 64, 65, 192, 193, 448, 449, 960,
                                      CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1])
    def test_early_stop_on_a_chunk_edge(self, stop):
        # chunks run rounds 1-CHUNK, CHUNK+1-2*CHUNK and on, so the stops
        # below CHUNK end the first chunk early; the window is the streak
        # at round `stop`, which no earlier round reaches here
        inst = fig_two_region_instance(deficit=7.0, max_rounds=3 * CHUNK, window=None)
        _, window = per_round_run(dataclasses.replace(inst, max_rounds=stop))
        trace = self.assert_same(dataclasses.replace(inst, convergence_window=window))
        assert trace.converged and trace.rounds == stop

    def test_periodic_schedule_of_seven_steps(self):
        # the second chunk starts at round CHUNK + 1 = 1025 = 146*7 + 3, inside a period
        steps = tuple(normalize_edges(e, 4) for e in (
            [(0, 1)], [], [(1, 2)], [(0, 1), (2, 3)], [], [(2, 3)], [(0, 3), (1, 2)]))
        config = scenario.generate_scenario(4, 12, seed=3, graph="random-periodic", max_rounds=1100)
        inst = dataclasses.replace(scenario.build_instance(config), convergence_window=None,
                                   schedule=PeriodicSchedule(4, steps, window=7))
        self.assert_same(inst)

    def test_single_region_static_schedule(self, fig_ccf):
        # n = 1: a schedule without pair columns
        inst = ProtocolInstance(
            surrogates=(SurrogateCcf(fig_ccf, FIG_RAMP),),
            schedule=StaticSchedule(1, frozenset()),
            step=StepSchedule(1.0, 1.0, 1.0),
            estimator=ExactSplit(6.0, 1),
            convergence_window=None,
            max_rounds=300,
        )
        self.assert_same(inst)

    def test_random_schedule_noisy_estimates(self):
        config = scenario.generate_scenario(4, 12, seed=6, graph="random", max_rounds=1200)
        inst = dataclasses.replace(
            scenario.build_instance(config), estimator=NoisySplit(config.deficit, 4, seed=6)
        )
        assert isinstance(inst.schedule, RandomSchedule)
        self.assert_same(inst)


class TestEndToEnd:
    """Generated-scenario invariants (small instances for speed)."""

    def scenario_run(self, seed, graph="line"):
        config = scenario.generate_scenario(4, 12, seed=seed, graph=graph, max_rounds=8000)
        inst = scenario.build_instance(config)
        trace = run_protocol(inst, record_trace=False)
        return config, inst, trace

    def test_finite_time_cutoff_convergence(self):
        # after the run, every region's cutoff equals the smallest own
        # criticality at or above the surrogate root, and held for >= 50 rounds
        for seed in (0, 1, 2):
            config, inst, trace = self.scenario_run(seed)
            loads = scenario.resolved_loads(config)
            ccf = build_ccf((l.power, l.criticality) for l in loads)
            z_hat = exact_z_hat(
                SurrogateCcf(ccf, inst.ramp_width), config.deficit
            )
            expected = tuple(local_zeta(rc, z_hat) for rc in cutoff_candidates(inst))
            assert trace.final_zeta == expected
            assert trace.zeta_stable_rounds >= 50
            assert trace.converged

    def test_end_to_end_optimality(self):
        for seed in (3, 4):
            config, inst, trace = self.scenario_run(seed, graph="random-periodic")
            loads = scenario.resolved_loads(config)
            ccf = build_ccf((l.power, l.criticality) for l in loads)
            z_star = exact_z_star(ccf, config.deficit)
            z_dist = min(trace.final_z)
            assert z_dist == z_star
            shed_ids = [  # each region decides on its own loads
                config.load_ids[k]
                for region in config.regions
                for k, shed in zip(region.loads, shed_decision(
                    config.criticality[region.loads.start:region.loads.stop], z_dist))
                if shed
            ]
            expected_ids = [l.id for l in loads if l.criticality <= z_star]
            assert sorted(shed_ids) == sorted(expected_ids)
            total = math.fsum(l.power for l in loads if l.id in set(shed_ids))
            assert total == eval_ccf(ccf, z_star)
            assert total >= config.deficit

    def test_average_dynamics_identity(self):
        config, inst, trace = self.scenario_run(5)
        inst_rec = scenario.build_instance(config)
        short = run_protocol(
            ProtocolInstance(
                **{**inst_rec.__dict__, "max_rounds": 400, "convergence_window": None}
            ),
            record_trace=True,
        )
        n = len(inst.surrogates)
        # each round's previous estimates, and each region's surrogate at
        # its column of them, in one call per region
        prev = np.vstack([np.full((1, n), inst.x0), short.x[:-1]])
        surrogate = np.column_stack(
            [eval_surrogate(s, prev[:, j]) for j, s in enumerate(inst.surrogates)]
        )
        for r, (prev_x, s_prev, p, x) in enumerate(
            zip(prev.tolist(), surrogate.tolist(), short.p.tolist(), short.x.tolist())
        ):
            y_bar = math.fsum(v - q for v, q in zip(s_prev, p)) / n
            expected_mean = math.fsum(prev_x) / n - short.eta[r] * y_bar
            actual_mean = math.fsum(x) / n
            assert abs(actual_mean - expected_mean) <= 1e-10

    def test_consensus_residual_bounded(self):
        # disagreement over step size peaks early and stays below that peak
        inst = fig_two_region_instance(max_rounds=2000, window=None)
        trace = run_protocol(inst)
        means = trace.x.mean(axis=1)
        ratio = np.abs(trace.x - means[:, None]).max(axis=1) / trace.eta
        peak = int(np.argmax(ratio))
        assert peak <= 200
        assert ratio[200:].max() <= ratio[: peak + 1].max() + 1e-12


class TestShedDecision:
    def test_threshold_inclusive(self):
        assert shed_decision(np.array([0.2, 0.5, 0.7]), 0.5).tolist() == [True, True, False]

    def test_below_all(self):
        assert shed_decision(np.array([0.2]), 0.1).tolist() == [False]

    def test_requires_finite_threshold(self):
        with pytest.raises(ValueError):
            shed_decision(np.array([0.2]), math.inf)
