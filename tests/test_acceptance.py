"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete)."""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from loadshed import scenario
from loadshed.criticality import (
    CriticalLoad,
    SurrogateCcf,
    build_ccf,
    eval_ccf,
    eval_surrogate,
    min_gap,
)
from loadshed.oracle import (
    continuous_solution,
    exact_z_hat,
    exact_z_star,
    greedy_shed_set,
)
from loadshed.protocol import (
    NoisySplit,
    StepSchedule,
    certify_deficit_tracking,
    run_protocol,
)
from loadshed.scenario import (
    emit_trace,
    generate_scenario,
    load_scenario,
    run_scenario,
)

from conftest import (
    CONTINUOUS_REGIONS_ORDERED,
    TIE_LOADS,
    brute_force_min_set,
    columns,
    make_random_loads,
    metropolis_weights,
    stochasticity_defect,
    z_star_from_z_hat,
)
from test_scenario import CONFIG_DIR


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_1_continuous_example(self):
        started = time.perf_counter()
        closed = continuous_solution(CONTINUOUS_REGIONS_ORDERED, 1.8)
        exact_ok = abs(closed.z_tilde - 1.25) <= 1e-9 and all(
            abs(a - b) <= 1e-9
            for a, b in zip(closed.per_region_shed, (1.2, 0.3, 0.3, 0.0))
        )
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        trace, rep = run_scenario(config, record_trace=False)
        estimates_ok = trace.rounds == 1000 and all(
            abs(v - 1.25) <= 0.01 for v in trace.final_x
        )
        shed = scenario.continuous_shed_from_estimates(config, trace.final_x)
        shed_ok = all(
            abs(a - b) <= 0.01 for a, b in zip(shed, closed.per_region_shed)
        )
        elapsed = time.perf_counter() - started
        report(
            1,
            exact_ok and estimates_ok and shed_ok and elapsed < 1.0,
            f"closed form exact, estimates {[f'{v:.4f}' for v in trace.final_x]} "
            f"within 0.01 of 1.25, shedding within 0.01 of split, {elapsed:.2f}s",
        )

    def test_2_discrete_end_to_end(self):
        started = time.perf_counter()
        failures = []
        stable_floor = None
        for seed in range(100):
            family = "line" if seed % 2 == 0 else "random-periodic"
            config = generate_scenario(4, 100, seed=seed, graph=family)
            loads = scenario.resolved_loads(config)
            crits = [l.criticality for l in loads]
            if len(set(crits)) != 400:
                failures.append((seed, "criticalities not distinct"))
                continue
            inst = scenario.build_instance(config)
            trace = run_protocol(inst, record_trace=False)
            ccf = build_ccf((l.power, l.criticality) for l in loads)
            z_star = exact_z_star(ccf, config.deficit)
            z_dist = min(trace.final_z)
            shed_total = math.fsum(
                l.power for l in loads if l.criticality <= z_dist
            )
            ok = (
                trace.converged
                and trace.zeta_stable_rounds >= 50
                and z_dist == z_star
                and shed_total == eval_ccf(ccf, z_star)
                and shed_total >= config.deficit
            )
            if not ok:
                failures.append((seed, z_dist, z_star, trace.zeta_stable_rounds))
            floor = trace.zeta_stable_rounds
            stable_floor = floor if stable_floor is None else min(stable_floor, floor)
        # spot-check the recorded-trace form of the finite-time claim
        config = generate_scenario(4, 100, seed=0, graph="line")
        trace = run_protocol(scenario.build_instance(config), record_trace=True)
        tail = trace.zeta[-50:]
        spot_ok = bool((tail == tail[0]).all())
        elapsed = time.perf_counter() - started
        report(
            2,
            not failures and spot_ok and elapsed < 30.0,
            f"100/100 scenarios exact, cutoffs constant over >= {stable_floor} "
            f"closing rounds (>= 50 required), {elapsed:.1f}s (< 30s)",
        )

    def test_3_oracle_equivalence(self):
        rng = np.random.default_rng(1003)
        mismatches = []
        for k in range(200):
            count = int(rng.integers(3, 16))
            loads = make_random_loads(rng, count, distinct=True)
            total = math.fsum(l.power for l in loads)
            deficit = float(rng.uniform(0.05, 0.95)) * total
            greedy = greedy_shed_set(*columns(loads), deficit)
            ids, brute_total = brute_force_min_set(loads, deficit, priority_only=True)
            if set(ids) != set(greedy.greedy_ids) or abs(brute_total - greedy.greedy_total) > 1e-9:
                mismatches.append((k, "prioritized brute force"))
            threshold_ids = {l.id for l in loads if l.criticality <= greedy.z_star}
            if threshold_ids != set(greedy.greedy_ids):
                mismatches.append((k, "threshold set"))
            _, free_total = brute_force_min_set(loads, deficit)
            if free_total > greedy.greedy_total + 1e-9:
                mismatches.append((k, "unconstrained above prioritized"))
        # tied instances: threshold overshoot bounded by the tie group
        for k in range(60):
            count = int(rng.integers(4, 14))
            loads = make_random_loads(rng, count, distinct=False)
            loads[1] = CriticalLoad(loads[1].id, loads[1].power, loads[0].criticality)
            total = math.fsum(l.power for l in loads)
            deficit = float(rng.uniform(0.05, 0.95)) * total
            greedy = greedy_shed_set(*columns(loads), deficit)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            tied = [l.power for l in loads if l.criticality == greedy.z_star]
            if eval_ccf(ccf, greedy.z_star) - greedy.greedy_total > sum(tied) - min(tied) + 1e-9:
                mismatches.append((k, "gap bound"))
        # the worked tie example: threshold sheds 5, the optimum is 3
        tie_ccf = build_ccf([(l.power, l.criticality) for l in TIE_LOADS])
        z = exact_z_star(tie_ccf, 3.0)
        _, optimal = brute_force_min_set(TIE_LOADS, 3.0)
        example_ok = eval_ccf(tie_ccf, z) == 5.0 and optimal == 3.0 and z == 0.3
        report(
            3,
            not mismatches and example_ok,
            "greedy = prioritized exhaustive on 200 distinct instances, "
            "threshold set matches, tie gap bound holds, worked example "
            "reproduces 5 vs 3",
        )

    def test_4_surrogate_and_threshold_properties(self):
        rng = np.random.default_rng(1004)
        # (a) surrogate agrees with the step function at every load
        checked = 0
        worst = 0.0
        for _ in range(20):
            loads = make_random_loads(rng, 50)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            surrogate = SurrogateCcf(ccf, min_gap([l.criticality for l in loads]))
            for load in loads:
                err = abs(
                    eval_ccf(ccf, load.criticality)
                    - eval_surrogate(surrogate, load.criticality)
                )
                worst = max(worst, err)
                checked += 1
        a_ok = checked >= 1000 and worst <= 1e-12
        # (b) threshold recovery from the surrogate root, overshoot case
        consistent = 0
        tried = 0
        while consistent < 200 and tried < 1000:
            tried += 1
            loads = make_random_loads(rng, 25)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            surrogate = SurrogateCcf(ccf, min_gap([l.criticality for l in loads]))
            deficit = float(rng.uniform(0.05, 0.95)) * ccf.total_load
            z_star = exact_z_star(ccf, deficit)
            if abs(eval_ccf(ccf, z_star) - deficit) <= 1e-9:
                continue
            if z_star_from_z_hat(ccf, exact_z_hat(surrogate, deficit), deficit) != z_star:
                break
            consistent += 1
        b_ok = consistent == 200
        # (c) the threshold is always one of the criticality values
        c_ok = True
        for _ in range(100):
            loads = make_random_loads(rng, 20)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            deficit = float(rng.uniform(0, 1)) * ccf.total_load
            if exact_z_star(ccf, deficit) not in ccf.breakpoints:
                c_ok = False
        report(
            4,
            a_ok and b_ok and c_ok,
            f"(a) {checked} loads, worst step/surrogate gap {worst:.2e} <= 1e-12; "
            f"(b) 200/200 threshold recoveries exact; (c) threshold always a "
            f"breakpoint",
        )

    def test_5_mixing_matrices(self):
        rng = np.random.default_rng(1005)
        ok = True
        for _ in range(100):
            n = int(rng.integers(2, 12))
            edges = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            }
            W = metropolis_weights(edges, n)
            if stochasticity_defect(W) > 1e-12 or not (np.diag(W) > 0).all():
                ok = False
            for i in range(n):
                for j in range(i + 1, n):
                    if ((i, j) in edges) != (W[i, j] > 0):
                        ok = False
        W = metropolis_weights([(0, 1), (1, 2), (2, 3)], 4)
        third = 1.0 / 3.0
        line_ok = (
            W[0, 1] == third
            and W[1, 2] == third
            and W[2, 3] == third
            and W[0, 0] == 1.0 - third
            and W[1, 1] == 1.0 - (third + third)
        )
        report(
            5,
            ok and line_ok,
            "100 random mixing matrices doubly stochastic at 1e-12 with "
            "positive diagonals and exact sparsity; line-graph weights exact",
        )

    def test_6_consensus_residual(self):
        # ten seeded noisy runs of the four-region continuous instance
        base = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        inst0 = scenario.build_instance(base)
        ratio_ok = True
        identity_ok = True
        for seed in range(10):
            inst = dataclasses.replace(
                inst0,
                estimator=NoisySplit(1.8, 4, seed=seed),
                max_rounds=2000,
            )
            trace = run_protocol(inst, record_trace=True)
            means = trace.x.mean(axis=1)
            ratio = np.abs(trace.x - means[:, None]).max(axis=1) / trace.eta
            peak = int(np.argmax(ratio))
            if peak > 200 or ratio[200:].max() > ratio[: peak + 1].max() + 1e-12:
                ratio_ok = False
            # each round's previous estimates, and each region's surrogate
            # at its column of them, in one call per region
            prev = np.vstack([np.full((1, 4), inst.x0), trace.x[:-1]])
            surrogate = np.column_stack(
                [eval_surrogate(s, prev[:, j]) for j, s in enumerate(inst.surrogates)]
            )
            for r, (x_prev, s_prev, p, x) in enumerate(
                zip(prev.tolist(), surrogate.tolist(), trace.p.tolist(), trace.x.tolist())
            ):
                y_bar = math.fsum(v - q for v, q in zip(s_prev, p)) / 4.0
                expected = math.fsum(x_prev) / 4.0 - trace.eta[r] * y_bar
                if abs(math.fsum(x) / 4.0 - expected) > 1e-10:
                    identity_ok = False
        report(
            6,
            ratio_ok and identity_ok,
            "10 seeded runs: disagreement/step ratio peaks within 200 rounds "
            "and never exceeds that peak; per-round average dynamics identity "
            "holds at 1e-10",
        )

    def test_7_desk_scale_substitute(self):
        # the published grid trajectories depend on a proprietary
        # electromagnetic-transient model and unpublished criticality draws,
        # so they are replaced here by the seeded end-to-end and residual
        # criteria plus a numeric certificate for the noisy estimator
        step = StepSchedule(1.0, 1.0, 1.0)
        estimator = NoisySplit(2.94, 4, seed=42)
        theta = certify_deficit_tracking(estimator, step, 100_000, 2.94)
        bounded = bool((np.abs(estimator.block(1, 100_001)) <= 2.94 / 4 + 1.0).all())
        report(
            7,
            theta <= 2 * 4 and bounded,
            f"noisy estimator deviation rate {theta:.4f} <= 2n = 8 over "
            f"t in [1, 1e5]; estimates bounded; grid-model trajectories "
            f"substituted by criteria 2 and 6",
        )

    def test_8_determinism(self, tmp_path):
        outputs = []
        for name in ("first", "second"):
            config = generate_scenario(
                4, 40, seed=2024, graph="random-periodic", max_rounds=4000
            )
            config = dataclasses.replace(
                config, estimator=NoisySplit(config.deficit, 4, config.seed)
            )
            trace, _ = run_scenario(config)
            path = tmp_path / f"{name}.csv"
            emit_trace(trace, path, scenario.region_ids(config))
            outputs.append(path.read_bytes())
        same_generated = outputs[0] == outputs[1]
        outputs = []
        for name in ("third", "fourth"):
            trace, _ = run_scenario(
                load_scenario(CONFIG_DIR / "two_region_step_example.json")
            )
            path = tmp_path / f"{name}.csv"
            emit_trace(trace, path, (1, 2))
            outputs.append(path.read_bytes())
        report(
            8,
            same_generated and outputs[0] == outputs[1],
            "repeated runs with identical config and seed emit byte-identical "
            "trace CSVs (generated noisy scenario and shipped example)",
        )
