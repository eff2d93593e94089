from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshed.criticality import CriticalLoad, SurrogateCcf, build_ccf
from loadshed.oracle import (
    InfeasibleError,
    continuous_solution,
    deficit_segment,
    exact_z_hat,
    exact_z_star,
    greedy_shed_set,
)

from conftest import (
    CONTINUOUS_DEFICIT,
    CONTINUOUS_REGIONS,
    CONTINUOUS_REGIONS_ORDERED,
    FIG_PAIRS,
    FIG_RAMP,
    TIE_LOADS,
    brute_force_min_set,
    columns,
    continuous_ccf_eval,
    greedy_reference,
    continuous_solution_reference,
    make_random_loads,
    z_star_from_z_hat,
    eval_ccf,
    min_gap,
)


class TestGreedy:
    def test_tie_example(self):
        # deficit 3 is covered by the first two loads in (criticality, id)
        # order even though loads 2 and 3 share a criticality
        sol = greedy_shed_set(*columns(TIE_LOADS), 3.0)
        assert sol.greedy_ids == (1, 2)
        assert sol.greedy_total == 3.0
        # the threshold sheds the whole 0.3 group
        assert sol.z_star == 0.3
        assert sol.shed_ids == (1, 2, 3)
        assert sol.shed_total == 5.0

    def test_full_shed_at_capacity(self, fig_loads):
        sol = greedy_shed_set(*columns(fig_loads), 16.0)
        assert sol.greedy_ids == sol.shed_ids == tuple(range(1, 9))
        assert sol.greedy_total == sol.shed_total == 16.0

    def test_prefix_stops_inside_equal_group(self, fig_loads):
        # cumulative prefix sums 1, 3, 4, 8, ... so the deficit 6 is covered
        # after the first criticality-0.4 load; the threshold path sheds the
        # whole 0.4 group instead (total 9): the two answers legitimately
        # differ on tied groups
        sol = greedy_shed_set(*columns(fig_loads), 6.0)
        assert sol.greedy_ids == (1, 2, 3, 4)
        assert sol.greedy_total == 8.0
        assert sol.z_star == 0.4
        ccf = build_ccf(FIG_PAIRS)
        assert sol.shed_ids == tuple(l.id for l in fig_loads if l.criticality <= 0.4)
        assert sol.shed_ids == (1, 2, 3, 4, 5)
        assert sol.shed_total == eval_ccf(ccf, sol.z_star) == 9.0

    def test_zero_deficit(self, fig_loads):
        sol = greedy_shed_set(*columns(fig_loads), 0.0)
        assert sol.greedy_ids == ()
        assert sol.greedy_total == 0.0
        # the threshold is the first breakpoint, so its set is not empty
        assert sol.z_star == 0.1
        assert sol.shed_ids == (1,)
        assert sol.shed_total == 1.0

    def test_infeasible(self, fig_loads):
        with pytest.raises(InfeasibleError):
            greedy_shed_set(*columns(fig_loads), 17.0)

    def test_zero_power_load_keeps_default_ramp(self, fig_loads):
        # a zero-power load adds no breakpoint; at 0.38 it would narrow the
        # default ramp from 0.05 to 0.02 and move the surrogate root
        sol = greedy_shed_set(*columns([*fig_loads, CriticalLoad(99, 0.0, 0.38)]), 6.0)
        expected = greedy_shed_set(*columns(fig_loads), 6.0)
        assert (sol.z_star, sol.z_hat) == (expected.z_star, expected.z_hat)
        assert sol.z_hat != greedy_shed_set(*columns(fig_loads), 6.0, 0.02).z_hat


@st.composite
def greedy_cases(draw):
    """Loads with distinct ids (any integers, in any input order) and a
    deficit: repeated criticalities, -0.0 beside 0.0, zero powers, and
    deficits equal to a running sum of the greedy walk or to a cumulative load."""
    count = draw(st.integers(0, 24))
    ids = draw(st.lists(st.integers(-2**70, 2**70), min_size=count, max_size=count, unique=True))
    if draw(st.booleans()):
        ids.sort(reverse=True)
    crits = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0),
                          min_size=count, max_size=count))
    powers = draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.1, 3.0, 1e16]) | st.floats(0.0, 1e3),
        min_size=count, max_size=count))
    loads = [CriticalLoad(*load) for load in zip(ids, powers, crits)]
    ordered = sorted(loads, key=lambda l: (l.criticality, l.id))
    running = list(accumulate(l.power for l in ordered))
    try:
        cumulative = list(build_ccf((l.power, l.criticality) for l in loads).cumulative)
    except ValueError:  # a power too small to move its cumulative load: both raise
        cumulative = []
    total = math.fsum(powers)
    deficit = draw(st.one_of(
        st.sampled_from([0.0, *running, *cumulative]),
        st.floats(0.0, total) if total > 0 else st.just(1.0),
    ))
    return loads, deficit


class TestGreedyReference:
    @settings(max_examples=400, deadline=None)
    @given(case=greedy_cases())
    # -0.0 and 0.0 compare equal, so the id decides; ids in descending order
    @example(case=([CriticalLoad(2, 1.0, 0.0), CriticalLoad(1, 1.0, -0.0)], 1.0))
    @example(case=([CriticalLoad(9, 1.0, 0.5), CriticalLoad(-5, 1.0, 0.5),
                    CriticalLoad(2**70, 1.0, 0.25)], 2.0))
    @example(case=([CriticalLoad(3, 0.0, 0.1), CriticalLoad(2, 2.0, 0.1),
                    CriticalLoad(1, 0.0, 0.2)], 2.0))
    # added one at a time, the 3s round up past 1e16; a sum in another order does not
    @example(case=([CriticalLoad(k, 3.0 if k else 1e16, k / 16) for k in range(12)],
                   list(accumulate([1e16] + [3.0] * 11))[9]))
    def test_matches_load_by_load_reference(self, case):
        loads, deficit = case
        try:
            want = greedy_reference(loads, deficit)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                greedy_shed_set(*columns(loads), deficit)
            return
        got = greedy_shed_set(*columns(loads), deficit)
        assert got.greedy_ids == want.greedy_ids
        assert got.shed_ids == want.shed_ids
        assert got.greedy_total.hex() == want.greedy_total.hex()
        assert got == want


class TestBruteForce:
    def test_tie_example_total(self):
        ids, total = brute_force_min_set(TIE_LOADS, 3.0)
        assert total == 3.0
        assert sorted(ids) in ([1, 2], [1, 3])

    def test_single_load(self):
        ids, total = brute_force_min_set([CriticalLoad(7, 5.0, 0.2)], 3.0)
        assert ids == (7,)
        assert total == 5.0

    def test_fig_deficit_six(self, fig_loads):
        # exhaustive over 2^8 subsets: powers 1+2+3 reach 6 exactly
        ids, total = brute_force_min_set(fig_loads, 6.0)
        assert total == 6.0
        assert sum(l.power for l in fig_loads if l.id in ids) == total

    def test_size_cap(self):
        loads = [CriticalLoad(i, 1.0, i * 1e-4) for i in range(21)]
        with pytest.raises(ValueError, match="capped"):
            brute_force_min_set(loads, 3.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            brute_force_min_set([CriticalLoad(1, 1.0, 0.5)], 2.0)


# each CCF inversion at a deficit, on (power or capacity, integer
# criticality) pairs; the surrogate's ramp is 1.0 wide, as the continuous one
INVERSIONS = [
    pytest.param(lambda pairs, d: exact_z_star(build_ccf(pairs), d), 0.0, id="exact_z_star"),
    pytest.param(lambda pairs, d: exact_z_hat(SurrogateCcf(build_ccf(pairs), 1.0), d), 1.0,
                 id="exact_z_hat"),
    pytest.param(lambda pairs, d: greedy_shed_set(
        *columns([CriticalLoad(k, p, c) for k, (p, c) in enumerate(pairs)]), d, 1.0).z_star, 0.0,
                 id="greedy_shed_set"),
    pytest.param(lambda pairs, d: continuous_solution(pairs, d).z_tilde, 1.0,
                 id="continuous_solution"),
]
# a zero-capacity region at criticality 1 ahead of the first loaded one, at 3
RULE_PAIRS = [(0.0, 1.0), (1.2, 3.0), (2.0, 4.0)]


class TestDeficitSegment:
    def test_fig_deficit_six(self, fig_ccf):
        # cumulative 1, 3, 4, 9, ...: 6 is two fifths up the step to 9 at 0.4
        assert deficit_segment(fig_ccf, 6.0) == (3, 0.4)
        assert deficit_segment(fig_ccf, 9.0) == (3, 1.0)
        assert deficit_segment(fig_ccf, 16.0) == (6, 1.0)

    @pytest.mark.parametrize("invert, ramp_foot", INVERSIONS)
    def test_rules(self, invert, ramp_foot):
        # a zero deficit sits at the foot of the first step that carries load
        assert invert(RULE_PAIRS, 0.0) == 3.0 - ramp_foot
        with pytest.raises(ValueError, match="negative"):
            invert(RULE_PAIRS, -1.0)
        with pytest.raises(ValueError, match="deficit nan is negative or NaN"):
            invert(RULE_PAIRS, math.nan)
        with pytest.raises(InfeasibleError, match="exceeds total sheddable power 3.2"):
            invert(RULE_PAIRS, 3.5)
        with pytest.raises(ValueError, match="no breakpoints"):
            invert([(0.0, 2.0)], 0.0)
        with pytest.raises(InfeasibleError):
            invert([], 1.0)


class TestExactZStar:
    def test_tie_example(self):
        ccf = build_ccf([(l.power, l.criticality) for l in TIE_LOADS])
        z = exact_z_star(ccf, 3.0)
        assert z == 0.3
        assert eval_ccf(ccf, z) == 5.0

    def test_fig_deficit_six(self, fig_ccf):
        assert exact_z_star(fig_ccf, 6.0) == 0.4

    def test_zero_deficit_first_breakpoint(self, fig_ccf):
        assert exact_z_star(fig_ccf, 0.0) == 0.1

    def test_always_a_breakpoint(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            loads = make_random_loads(rng, 20)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            deficit = float(rng.uniform(0, ccf.total_load))
            assert exact_z_star(ccf, deficit) in ccf.breakpoints

    def test_infeasible(self, fig_ccf):
        with pytest.raises(InfeasibleError):
            exact_z_star(fig_ccf, 16.5)


class TestExactZHat:
    def test_fig_deficit_six(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert exact_z_hat(s, 6.0) == pytest.approx(0.37, abs=1e-12)

    def test_saturation_at_total(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert exact_z_hat(s, 16.0) == 0.8

    def test_ramp_top(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert exact_z_hat(s, 9.0) == 0.4

    def test_plateau_left_endpoint(self, fig_ccf):
        # surrogate is flat at value 1 on [0.1, 0.1]; smallest root is 0.1
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert exact_z_hat(s, 1.0) == 0.1

    def test_range_errors(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        with pytest.raises(ValueError):
            exact_z_hat(s, -0.5)
        with pytest.raises(InfeasibleError):
            exact_z_hat(s, 17.0)


class TestZStarFromZHat:
    def test_fig_overshoot_case(self, fig_ccf):
        assert z_star_from_z_hat(fig_ccf, 0.37, 6.0) == 0.4

    def test_fig_exact_hit_case(self, fig_ccf):
        assert z_star_from_z_hat(fig_ccf, 0.4, 9.0) == 0.4

    def test_tie_example_consistency(self):
        ccf = build_ccf([(l.power, l.criticality) for l in TIE_LOADS])
        s = SurrogateCcf(ccf, min_gap([l.criticality for l in TIE_LOADS]))
        z_hat = exact_z_hat(s, 3.0)
        assert z_star_from_z_hat(ccf, z_hat, 3.0) == exact_z_star(ccf, 3.0) == 0.3


class TestBoundaryFlag:
    def test_exact_hit_flagged(self):
        # the deficit equals the cumulative load at the threshold exactly
        sol = greedy_shed_set(*columns(TIE_LOADS), 5.0)
        assert sol.boundary_case
        assert sol.z_star == 0.3

    def test_overshoot_not_flagged(self):
        assert not greedy_shed_set(*columns(TIE_LOADS), 3.0).boundary_case


class TestContinuous:
    def test_eval_mid_ramp(self):
        assert continuous_ccf_eval(CONTINUOUS_REGIONS_ORDERED, 1.25) == pytest.approx(
            1.8, abs=1e-12
        )

    def test_eval_total(self):
        assert continuous_ccf_eval(CONTINUOUS_REGIONS_ORDERED, 3.0) == pytest.approx(
            4.8, abs=1e-12
        )

    def test_eval_below_support(self):
        assert continuous_ccf_eval(CONTINUOUS_REGIONS_ORDERED, 0.0) == 0.0

    def test_solution_example(self):
        sol = continuous_solution(CONTINUOUS_REGIONS_ORDERED, CONTINUOUS_DEFICIT)
        assert sol.z_tilde == pytest.approx(1.25, abs=1e-9)
        assert sol.per_region_shed == pytest.approx((1.2, 0.3, 0.3, 0.0), abs=1e-9)

    def test_solution_full_capacity(self):
        sol = continuous_solution(CONTINUOUS_REGIONS_ORDERED, 4.8)
        assert sol.per_region_shed == pytest.approx((1.2, 1.2, 1.2, 1.2), abs=1e-9)

    def test_solution_integer_kink(self):
        sol = continuous_solution(CONTINUOUS_REGIONS_ORDERED, 1.2)
        assert sol.z_tilde == pytest.approx(1.0, abs=1e-9)
        assert sol.per_region_shed == pytest.approx((1.2, 0.0, 0.0, 0.0), abs=1e-9)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            continuous_solution(CONTINUOUS_REGIONS_ORDERED, 5.0)

    def test_solution_invariants_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            regions = [
                (float(rng.uniform(0.2, 3.0)), float(rng.integers(1, n + 1)))
                for _ in range(n)
            ]
            total = math.fsum(cap for cap, _ in regions)
            deficit = float(rng.uniform(0, total))
            sol = continuous_solution(regions, deficit)
            assert math.fsum(sol.per_region_shed) == pytest.approx(deficit, abs=1e-9)
            for shed, (cap, _) in zip(sol.per_region_shed, regions):
                assert -1e-12 <= shed <= cap + 1e-12
            # priority: a partially spared region forbids shedding anywhere
            # strictly less critical... i.e. any region shed below capacity
            # means every strictly more critical region sheds nothing
            for j, (shed_j, (cap_j, crit_j)) in enumerate(zip(sol.per_region_shed, regions)):
                if shed_j < cap_j - 1e-9:
                    for k, (shed_k, (_, crit_k)) in enumerate(zip(sol.per_region_shed, regions)):
                        if crit_k > crit_j:
                            assert shed_k <= 1e-9


@st.composite
def continuous_cases(draw):
    """Regions with integer criticalities, zero capacities and repeated
    criticalities allowed, and a deficit in (0, total]: drawn, a prefix sum
    of the CCF or the total."""
    regions = draw(st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 50.0)), st.integers(1, 8).map(float)),
        min_size=1, max_size=8))
    cumulative = build_ccf(regions).cumulative.tolist()
    if not cumulative:
        regions.append((draw(st.floats(0.01, 50.0)), float(draw(st.integers(1, 8)))))
        cumulative = build_ccf(regions).cumulative.tolist()
    deficit = draw(st.one_of(
        st.floats(0.0, cumulative[-1], exclude_min=True),
        st.sampled_from(cumulative),
    ))
    return regions, deficit


class TestContinuousReference:
    @settings(max_examples=400, deadline=None)
    @given(case=continuous_cases())
    @example(case=([(0.0, 1.0), (1.2, 3.0)], 0.6))
    @example(case=(CONTINUOUS_REGIONS, 2.4))
    @example(case=(CONTINUOUS_REGIONS, 4.8))
    @example(case=([(0.0, 2.0), (1.5, 2.0), (0.25, 2.0), (3.0, 5.0)], 1.75))
    def test_matches_kink_interpolation_bit_for_bit(self, case):
        regions, deficit = case
        got = continuous_solution(regions, deficit)
        want = continuous_solution_reference(regions, deficit)
        assert got.z_tilde.hex() == want.z_tilde.hex()
        assert [v.hex() for v in got.per_region_shed] == [v.hex() for v in want.per_region_shed]


class TestOracleEquivalence:
    """Cross-checks between independent solution paths."""

    def test_greedy_equals_brute_force_distinct(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            count = int(rng.integers(3, 13))
            loads = make_random_loads(rng, count, distinct=True)
            total = math.fsum(l.power for l in loads)
            deficit = float(rng.uniform(0, total))
            greedy = greedy_shed_set(*columns(loads), deficit)
            # exhaustive search over the prioritized feasible family lands
            # on the same set the greedy prefix picks
            ids, brute_total = brute_force_min_set(loads, deficit, priority_only=True)
            assert set(ids) == set(greedy.greedy_ids)
            assert abs(greedy.greedy_total - brute_total) <= 1e-9
            # the unconstrained minimum can only be smaller: cherry-picking
            # without the priority rule may cover the deficit more cheaply
            _, free_total = brute_force_min_set(loads, deficit)
            assert free_total <= greedy.greedy_total + 1e-9
            # threshold path agrees as a set when criticalities are distinct
            threshold_ids = {l.id for l in loads if l.criticality <= greedy.z_star}
            assert threshold_ids == set(greedy.greedy_ids) == set(greedy.shed_ids)

    def test_gap_bound_with_ties(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            count = int(rng.integers(4, 14))
            loads = make_random_loads(rng, count, distinct=False)
            # force at least one duplicated criticality
            dup = loads[0].criticality
            loads[1] = CriticalLoad(loads[1].id, loads[1].power, dup)
            total = math.fsum(l.power for l in loads)
            deficit = float(rng.uniform(0, total))
            greedy = greedy_shed_set(*columns(loads), deficit)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            tied = [l.power for l in loads if l.criticality == greedy.z_star]
            slack = sum(tied) - min(tied)
            assert greedy.shed_total == eval_ccf(ccf, greedy.z_star)
            assert greedy.shed_total - greedy.greedy_total <= slack + 1e-9

    def test_threshold_recovery_matches_direct(self):
        rng = np.random.default_rng(25)
        hits = 0
        for _ in range(60):
            loads = make_random_loads(rng, 25)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            s = SurrogateCcf(ccf, min_gap([l.criticality for l in loads]))
            deficit = float(rng.uniform(0, ccf.total_load))
            z_star = exact_z_star(ccf, deficit)
            if abs(eval_ccf(ccf, z_star) - deficit) <= 1e-9:
                continue  # exact-hit case has measure zero; skip if drawn
            hits += 1
            z_hat = exact_z_hat(s, deficit)
            assert z_star_from_z_hat(ccf, z_hat, deficit) == z_star
        assert hits >= 55
