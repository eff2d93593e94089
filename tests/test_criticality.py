from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshed.criticality import (
    Ccf,
    ConvexCombiner,
    Load,
    Region,
    SurrogateCcf,
    build_ccf,
    combine_criticality,
    eval_ccf,
    eval_surrogate,
    local_zeta,
    min_gap,
    resolve_loads,
)

from conftest import FIG_PAIRS, FIG_RAMP, make_random_loads


class TestCombiner:
    def test_zero_inputs(self):
        assert combine_criticality(ConvexCombiner(), 0.0, 0.0) == 0.0

    def test_equal_endpoints(self):
        assert combine_criticality(ConvexCombiner(), 1.0, 1.0) == 1.0

    def test_half_half(self):
        assert combine_criticality(ConvexCombiner(), 0.2, 0.6) == pytest.approx(0.4, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            combine_criticality(ConvexCombiner(), -0.1, 0.5)
        with pytest.raises(ValueError):
            combine_criticality(ConvexCombiner(), 0.5, 1.2)

    def test_bad_custom_combiner_caught(self):
        with pytest.raises(ValueError):
            combine_criticality(lambda a, b: a + b + 1.0, 0.5, 0.5)

    def test_weight_range(self):
        with pytest.raises(ValueError):
            ConvexCombiner(1.5)


class TestLoadTypes:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Load(1, -1.0, 0.5, 1)

    def test_criticality_range(self):
        with pytest.raises(ValueError):
            Load(1, 1.0, 1.5, 1)

    def test_region_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Region(1, 0.5, (Load(1, 1.0, 0.5, 2),))

    def test_duplicate_ids_rejected(self):
        regions = (
            Region(1, 0.5, (Load(1, 1.0, 0.5, 1),)),
            Region(2, 0.5, (Load(1, 1.0, 0.5, 2),)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            resolve_loads(regions, ConvexCombiner())


class TestBuildCcf:
    def test_fig_breakpoints(self):
        ccf = build_ccf(FIG_PAIRS)
        assert ccf.breakpoints == (0.1, 0.15, 0.2, 0.4, 0.5, 0.7, 0.8)
        assert ccf.cumulative == (1.0, 3.0, 4.0, 9.0, 11.0, 13.0, 16.0)
        assert ccf.total_load == 16.0

    def test_singleton(self):
        ccf = build_ccf([(5.0, 0.3)])
        assert ccf.breakpoints == (0.3,)
        assert ccf.cumulative == (5.0,)

    def test_merge_equal_criticalities(self):
        ccf = build_ccf([(2.0, 0.3), (3.0, 0.3)])
        assert ccf.breakpoints == (0.3,)
        assert ccf.cumulative == (5.0,)

    def test_empty_is_zero_ccf(self):
        ccf = build_ccf([])
        assert ccf.total_load == 0.0
        assert eval_ccf(ccf, 0.5) == 0.0

    def test_zero_power_loads_add_no_breakpoint(self):
        ccf = build_ccf([(0.0, 0.2), (3.0, 0.5)])
        assert ccf.breakpoints == (0.5,)
        assert eval_ccf(ccf, 0.3) == 0.0

    def test_flat_cumulative_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Ccf((0.1, 0.2), (1.0, 1.0))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            build_ccf([(-1.0, 0.3)])


class TestEvalCcf:
    def test_fig_at_04(self, fig_ccf):
        assert eval_ccf(fig_ccf, 0.4) == 9.0

    def test_fig_just_below(self, fig_ccf):
        assert eval_ccf(fig_ccf, 0.39) == 4.0

    def test_below_support(self, fig_ccf):
        assert eval_ccf(fig_ccf, 0.05) == 0.0

    def test_right_continuity(self, fig_ccf):
        for bp in fig_ccf.breakpoints:
            assert eval_ccf(fig_ccf, bp + 1e-9) == eval_ccf(fig_ccf, bp)


class TestMinGap:
    def test_fig_ramp(self):
        assert min_gap([c for _, c in FIG_PAIRS]) == pytest.approx(FIG_RAMP, abs=1e-15)

    def test_with_duplicates(self):
        assert min_gap([0.2, 0.3, 0.3, 0.4]) == pytest.approx(0.1, abs=1e-15)

    def test_two_points(self):
        assert min_gap([0.0, 1.0]) == 1.0

    def test_all_identical_rejected(self):
        with pytest.raises(ValueError):
            min_gap([0.3, 0.3, 0.3])


class TestSurrogate:
    def test_mid_ramp(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert eval_surrogate(s, 0.375) == pytest.approx(6.5, abs=1e-12)

    def test_breakpoint_equality(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert eval_surrogate(s, 0.4) == 9.0

    def test_saturation(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        assert eval_surrogate(s, 0.9) == 16.0

    def test_ramp_too_wide_rejected(self, fig_ccf):
        with pytest.raises(ValueError, match="gap"):
            SurrogateCcf(fig_ccf, 0.06)

    def test_nonpositive_ramp_rejected(self, fig_ccf):
        with pytest.raises(ValueError):
            SurrogateCcf(fig_ccf, 0.0)

    def test_single_breakpoint_any_ramp(self):
        s = SurrogateCcf(build_ccf([(5.0, 0.3)]), 2.0)
        assert eval_surrogate(s, 0.3) == 5.0
        assert eval_surrogate(s, 0.3 - 1.0) == 2.5


def scalar_surrogate(surrogate: SurrogateCcf, z: float) -> float:
    """The surrogate at one point by ``bisect_right`` on the tuples: the
    reference for the array evaluation."""
    bps = surrogate.base.breakpoints
    cum = surrogate.base.cumulative
    idx = bisect_right(bps, z)
    value = cum[idx - 1] if idx else 0.0
    if idx < len(bps):
        d = z - bps[idx]
        if d > -surrogate.ramp_width:
            value += (cum[idx] - (cum[idx - 1] if idx else 0.0)) * (
                d / surrogate.ramp_width + 1.0
            )
    return value


@st.composite
def surrogates_and_points(draw):
    """A surrogate (possibly of no loads) with points at and around its
    breakpoints and ramp starts, outside its range, at +-0.0 and between."""
    crits = draw(st.lists(st.integers(0, 400), max_size=12, unique=True))
    pairs = [(draw(st.floats(0.01, 50.0)), k / 400) for k in crits]
    ccf = build_ccf(pairs)
    gap = min_gap(ccf.breakpoints) if len(ccf.breakpoints) > 1 else 1.0
    ramp = gap * draw(st.sampled_from([1.0, 0.5, 0.3, 1e-3]))
    surrogate = SurrogateCcf(ccf, ramp)
    special = [0.0, -0.0, -1.0, 2.0, -math.inf, math.inf]
    for bp in ccf.breakpoints:
        special += [bp, bp - ramp, math.nextafter(bp, -math.inf), math.nextafter(bp - ramp, math.inf)]
    points = draw(st.lists(st.sampled_from(special) | st.floats(-0.5, 1.5), max_size=40))
    return surrogate, points


class TestSurrogateArrays:
    @settings(max_examples=300, deadline=None)
    @given(surrogates_and_points())
    def test_array_matches_scalar_reference(self, case):
        surrogate, points = case
        expected = [scalar_surrogate(surrogate, z).hex() for z in points]
        values = eval_surrogate(surrogate, np.array(points, dtype=np.float64))
        assert values.shape == (len(points),)
        assert [v.hex() for v in values.tolist()] == expected
        # a float in gives a float out, with the same bits
        singles = [eval_surrogate(surrogate, z) for z in points]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in singles] == expected

    def test_empty_ccf(self):
        s = SurrogateCcf(build_ccf([]), 1.0)
        assert eval_surrogate(s, 0.5) == 0.0
        assert eval_surrogate(s, np.array([-1.0, 0.0, 1.0])).tolist() == [0.0, 0.0, 0.0]

    def test_keeps_the_input_shape(self, fig_ccf):
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        values = eval_surrogate(s, grid)
        assert values.shape == (3, 4)
        assert values.ravel().tolist() == [eval_surrogate(s, z) for z in grid.ravel().tolist()]


class TestLocalZeta:
    def test_strictly_above(self):
        assert local_zeta([0.2, 0.5, 0.7], 0.4) == 0.5

    def test_equality_included(self):
        assert local_zeta([0.2, 0.5, 0.7], 0.2) == 0.2

    def test_empty_feasible_set(self):
        assert local_zeta([0.2, 0.5, 0.7], 0.9) == math.inf


class TestProperties:
    """Randomized invariants over seeded instances."""

    def test_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            loads = make_random_loads(rng, 30)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            s = SurrogateCcf(ccf, min_gap([l.criticality for l in loads]))
            zs = sorted(rng.uniform(-0.2, 1.2, size=40))
            f_vals = [eval_ccf(ccf, z) for z in zs]
            fhat_vals = [eval_surrogate(s, z) for z in zs]
            assert all(a <= b for a, b in zip(f_vals, f_vals[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(fhat_vals, fhat_vals[1:]))

    def test_surrogate_matches_ccf_at_every_load(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            loads = make_random_loads(rng, 50)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            s = SurrogateCcf(ccf, min_gap([l.criticality for l in loads]))
            for load in loads:
                f = eval_ccf(ccf, load.criticality)
                fhat = eval_surrogate(s, load.criticality)
                assert abs(f - fhat) <= 1e-12

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            loads = make_random_loads(rng, 25)
            ccf = build_ccf([(l.power, l.criticality) for l in loads])
            c = min_gap([l.criticality for l in loads])
            s = SurrogateCcf(ccf, c)
            bound = ccf.total_load / c
            for _ in range(50):
                z1, z2 = rng.uniform(-0.1, 1.1, size=2)
                diff = abs(eval_surrogate(s, z1) - eval_surrogate(s, z2))
                assert diff <= bound * abs(z1 - z2) * (1 + 1e-9) + 1e-12

    def test_regional_decomposition(self):
        rng = np.random.default_rng(14)
        loads = make_random_loads(rng, 60)
        groups = [loads[0:20], loads[20:45], loads[45:60]]
        c = min_gap([l.criticality for l in loads])
        global_ccf = build_ccf([(l.power, l.criticality) for l in loads])
        global_s = SurrogateCcf(global_ccf, c)
        region_ccfs = [build_ccf([(l.power, l.criticality) for l in g]) for g in groups]
        region_ss = [SurrogateCcf(r, c) for r in region_ccfs]
        for z in rng.uniform(-0.1, 1.1, size=50):
            assert eval_ccf(global_ccf, z) == pytest.approx(
                sum(eval_ccf(r, z) for r in region_ccfs), abs=1e-9
            )
            assert eval_surrogate(global_s, z) == pytest.approx(
                sum(eval_surrogate(r, z) for r in region_ss), abs=1e-9
            )

    def test_right_continuity_random(self):
        rng = np.random.default_rng(15)
        loads = make_random_loads(rng, 40)
        ccf = build_ccf([(l.power, l.criticality) for l in loads])
        for bp in ccf.breakpoints:
            assert eval_ccf(ccf, bp + 1e-9) == eval_ccf(ccf, bp)
