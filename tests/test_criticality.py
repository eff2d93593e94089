from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshed.criticality import (
    Ccf,
    SurrogateCcf,
    build_ccf,
    column_ccf,
    default_ramp_width,
    eval_ccf,
    eval_surrogate,
    min_gap,
)
from loadshed.scenario import ScenarioError, loads_scenario

from conftest import (
    FIG_PAIRS,
    FIG_RAMP,
    cumulative_reference,
    local_zeta,
    make_random_loads,
    scalar_surrogate,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def one_load_document(power=1.0, c_nature=0.5, c_region=0.5, weight=0.5) -> dict:
    """A one-region scenario of one load (id 1) and the deficit 1e-3."""
    return {
        "version": 1, "mode": "discrete", "deficit": 1e-3, "combiner_weight": weight,
        "graph": {"kind": "static"},
        "regions": [{"id": 1, "criticality": c_region,
                     "loads": [{"id": 1, "power": power, "nature_criticality": c_nature}]}],
    }


def combined(c_nature: float, c_region: float, weight: float = 0.5) -> float:
    """The criticality a one-load scenario resolves its load to."""
    config = loads_scenario(json.dumps(one_load_document(1.0, c_nature, c_region, weight)))
    (criticality,) = config.criticality.tolist()
    return criticality


class TestCombiner:
    """The convex mix of nature and region criticality in ``resolve_criticalities``."""

    def test_zero_inputs(self):
        assert combined(0.0, 0.0) == 0.0

    def test_equal_endpoints(self):
        assert combined(1.0, 1.0) == 1.0

    def test_half_half(self):
        assert combined(0.2, 0.6) == pytest.approx(0.4, abs=1e-15)
        assert combined(0.2, 0.6, weight=1.0) == 0.2
        assert combined(0.2, 0.6, weight=0.0) == 0.6

    def test_domain_errors(self):
        # the inputs are checked where they are built
        with pytest.raises(ValueError):
            combined(-0.1, 0.5)
        with pytest.raises(ValueError):
            combined(0.5, 1.2)

    def test_weight_range(self):
        # the weight is a scenario field, range-checked with the rest of the config
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["combiner_weight"] = 1.5
        with pytest.raises(ScenarioError, match="combiner_weight 1.5 outside"):
            loads_scenario(json.dumps(doc))

    @settings(max_examples=200, deadline=None)
    @given(
        c_nature=st.floats(0.0, 1.0),
        c_region=st.floats(0.0, 1.0),
        weight=st.floats(0.0, 1.0),
    )
    def test_mix_stays_in_unit_interval(self, c_nature, c_region, weight):
        assert 0.0 <= combined(c_nature, c_region, weight) <= 1.0


class TestLoadTypes:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            loads_scenario(json.dumps(one_load_document(power=-1.0)))

    def test_criticality_range(self):
        with pytest.raises(ValueError, match="nature criticality 1.5 outside"):
            loads_scenario(json.dumps(one_load_document(c_nature=1.5)))

    def test_duplicate_ids_rejected(self):
        doc = one_load_document()
        doc["regions"].append({**doc["regions"][0], "id": 2})
        doc["graph"]["edges"] = [[1, 2]]
        with pytest.raises(ValueError, match="duplicate"):
            loads_scenario(json.dumps(doc))


def quadratic_build_ccf(pairs) -> Ccf:
    """Reference build: the math.fsum of the whole prefix at every breakpoint."""
    groups: dict[float, list[float]] = {}
    for power, crit in pairs:
        if power > 0:
            groups.setdefault(crit, []).append(power)
    bps = sorted(groups)
    acc: list[float] = []
    cumulative: list[float] = []
    for z in bps:
        acc.extend(groups[z])
        cumulative.append(math.fsum(acc))
    return Ccf(tuple(bps), tuple(cumulative))


# powers from the smallest subnormal up through the normal range, the
# largest float, inf and both zeros; criticalities with both zeros
PREFIX_POWERS = st.one_of(
    st.floats(5e-324, 2.2250738585072014e-308 * 4),
    st.floats(0.0, sys.float_info.max),
    st.floats(1.0, 2.0**60).map(lambda x: float(math.floor(x))),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**53, 2.0**53 + 2, 2.0**969, 2.0**970,
                     sys.float_info.max, math.inf, 5e-324]),
)
PREFIX_CRITS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0)


class TestBuildCcf:
    def test_matches_quadratic_reference(self):
        # ties and zero powers at magnitudes from 1e-300 to 1e300: the same
        # bits, or the same error for a total past the largest float
        # (OverflowError) or a load too small to move the prefix (ValueError)
        def outcome(build, pairs):
            try:
                ccf = build(pairs)
            except (OverflowError, ValueError) as exc:
                return type(exc)
            return ccf.breakpoints, [c.hex() for c in ccf.cumulative]

        rng = np.random.default_rng(41)
        seen = []
        for trial in range(2000):
            count = int(rng.integers(0, 40))
            # one magnitude per multiset, or all of them, or near the largest float
            spread = (-300, 301) if trial % 10 == 0 else (-6, 7)
            centre = 307 if trial % 10 == 1 else int(rng.integers(-285, 286))
            exponents = np.minimum(centre + rng.integers(*spread, size=count), 308)
            powers = rng.uniform(0.1, 1.7, size=count) * 10.0 ** exponents
            powers[rng.random(count) < 0.1] = 0.0
            pairs = list(zip(powers.tolist(), (rng.integers(0, 8, size=count) / 8).tolist()))
            expected = outcome(quadratic_build_ccf, pairs)
            assert outcome(build_ccf, pairs) == expected
            seen.append(expected if isinstance(expected, type) else None)
        assert seen.count(OverflowError) >= 150 and seen.count(ValueError) >= 50
        assert seen.count(None) >= 1500

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

    def test_first_negative_power_named(self):
        with pytest.raises(ValueError, match=r"^negative power -2\.0$"):
            build_ccf([(1.0, 0.5), (-2.0, 0.7), (-3.0, 0.1)])

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            column_ccf(np.ones(1), np.ones(3))

    def test_nan_power_rejected(self):
        # NaN > 0 is false: the load was dropped and the CCF left empty
        with pytest.raises(ValueError, match="NaN"):
            build_ccf([(math.nan, 0.5)])

    def test_nan_criticality_rejected(self):
        # NaN keys are unequal: two breakpoints (nan, nan) were built
        with pytest.raises(ValueError, match="NaN"):
            build_ccf([(1.0, math.nan), (2.0, math.nan)])

    def test_nan_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            Ccf((math.nan, math.nan), (1.0, 3.0))

    def test_nan_cumulative_rejected(self):
        with pytest.raises(ValueError, match="cumulative loads must be strictly increasing"):
            Ccf((0.1, 0.2), (math.nan, math.nan))

    @pytest.mark.parametrize("pairs, sign", [
        ([(1.0, -0.0), (2.0, 0.0)], -1.0),
        ([(1.0, 0.0), (2.0, -0.0)], 1.0),
        ([(0.0, -0.0), (2.0, 0.0), (1.0, -0.0)], 1.0),  # a zero power is no load
    ], ids=["negative-first", "positive-first", "zero-power-first"])
    def test_signed_zero_breakpoint_is_the_first_seen(self, pairs, sign):
        ccf = build_ccf(pairs)
        assert ccf.cumulative == (3.0,)
        assert math.copysign(1.0, ccf.breakpoints[0]) == sign

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(PREFIX_POWERS, PREFIX_CRITS), max_size=40))
    # exact halfway ties round to even, down and then up
    @example([(2.0**53, 0.5), (1.0, 0.5)])
    @example([(2.0**53 + 2, 0.5), (1.0, 0.5)])
    # a sticky bit below the halfway bit rounds up
    @example([(2.0**53, 0.5), (1.0, 0.5), (2.0**-20, 0.5)])
    @example([(2.0**53, 0.25), (1.0, 0.5), (2.0**-20, 0.75)])  # flat: a ValueError
    # half an ulp of the largest float rounds to 2**1024, a quarter stays below
    @example([(sys.float_info.max, 0.0), (2.0**970, 1.0)])
    @example([(sys.float_info.max, 0.0), (2.0**969, 1.0)])
    @example([(sys.float_info.max, 0.5), (2.0**969, 0.5)])
    @example([(math.inf, 0.5)])
    @example([(1.0, 0.5), (math.inf, 0.25)])
    # long carry chains: thousands of equal large powers, and one unit
    # added to a run of ones that spans 17 limbs
    @example([(sys.float_info.max / 4096, k % 3 / 2) for k in range(4096)])
    @example([(2.0**1000, 0.5)] * 3000)
    @example([(math.ldexp(2.0**53 - 1, 53 * k - 1074), 0.5) for k in range(20)]
             + [(5e-324, 0.5)])
    @example([(5e-324, 0.0)] * 2000 + [(2.2250738585072014e-308, 0.0)])
    # signed zeros in either order, and each after a zero power
    @example([(1.0, -0.0), (2.0, 0.0), (1.0, 0.5)])
    @example([(2.0, 0.0), (1.0, -0.0)])
    @example([(0.0, 0.0), (1.0, -0.0), (1.0, 0.0)])
    def test_matches_big_integer_reference(self, pairs):
        # the same bits (a breakpoint's sign too), or the same error
        def outcome(build):
            try:
                ccf = build(pairs)
            except (OverflowError, ValueError) as exc:
                return type(exc)
            return [b.hex() for b in ccf.breakpoints], [c.hex() for c in ccf.cumulative]

        assert outcome(build_ccf) == outcome(lambda p: Ccf(*cumulative_reference(p)))


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

    def test_default_ramp_width(self):
        assert default_ramp_width([0.2, 0.3, 0.3, 0.4]) == min_gap([0.2, 0.3, 0.4])
        assert default_ramp_width([0.3, 0.3]) == default_ramp_width([]) == 1.0


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

    @pytest.mark.parametrize("points", [
        [0.9, 0.8, 0.7, 0.5, 0.4, 0.375, 0.2, 0.15, 0.1, 0.0, -0.0, -1.0],  # descending
        [0.4, 0.4, 0.4, 0.375, 0.375, 0.9, 0.9, 0.1, 0.1, 0.1],  # repeats
        [0.1, math.nan, 0.7, math.inf, 0.15, -math.inf, 0.4, math.nan, math.nan, 0.8,
         math.inf, math.inf, -math.inf, 0.375],  # non-finite between finite points
        [math.nan, 0.9, -math.inf, 0.1, math.inf, 0.1, -math.inf, 0.9],
    ], ids=["descending", "repeats", "non-finite-between", "alternating-ends"])
    def test_unsorted_points_match_scalar_reference(self, fig_ccf, points):
        # each point's search starts from the previous point's index
        s = SurrogateCcf(fig_ccf, FIG_RAMP)
        values = eval_surrogate(s, np.array(points, dtype=np.float64))
        assert [v.hex() for v in values.tolist()] == [scalar_surrogate(s, z).hex() for z in points]

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
