"""The compiled engine (loadshed/_engine.c): its chunk kernel against the
scalar composition in conftest (also where the kernel dedupes a chunk's
pair rows before building their mixing), its graph draw, window repair,
components, Metropolis mixing and deficit-tracking error against the numpy
references in conftest, bit for bit, and the build that loads it."""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import loadshed
from loadshed import _engine
from loadshed.criticality import SurrogateCcf, build_ccf
from loadshed.netgraph import PeriodicSchedule, RandomSchedule, repaired_rows
from loadshed.protocol import (
    CHUNK,
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from loadshed.rootfind import certify_deficit_tracking, deficit_deviation
from loadshed.seeding import STREAM_EDGES, STREAM_REPAIR, mix64, unit_float

from conftest import (
    block_rows,
    component_labels,
    deviation_reference,
    deviation_rows,
    dmc_rounds,
    draw_edges,
    local_zeta,
    metropolis_block,
    mixing_csr,
    protocol_rounds,
    round_rows,
    row_neighbors,
    scalar_surrogate,
    step_eta,
    stochasticity_defect,
    window_labels,
    x_rounds,
    min_gap,
)

PACKAGE = Path(loadshed.__file__).resolve().parent
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0]
EXPONENTS = [0.51, 0.6, 0.75, 0.9, 1.0]
# sparse draws leave windows disconnected, so they get repairs
PROBABILITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.floats(0.0, 0.08)
SEEDS = st.integers(0, 2**64 - 1) | st.integers(2**63 - 2, 2**63 + 2)


def bits(values) -> list[int]:
    """Each value's bit pattern, every NaN's as one: IEEE 754 leaves the
    sign of a NaN result unspecified, so only that it is a NaN is compared."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), math.nan, values).view(np.uint64).ravel().tolist()


def floats(draw, shape, low=-2.0, high=2.0, special=()) -> np.ndarray:
    """float64 values of ``shape``: NaN, +-inf, +-0.0 and ``special`` among
    ordinary ones."""
    count = int(np.prod(shape))
    value = st.sampled_from([*SPECIAL, *special]) | st.floats(low, high)
    return np.array(draw(st.lists(value, min_size=count, max_size=count)),
                    dtype=np.float64).reshape(shape)


@st.composite
def chunks(draw, max_n=6):
    """A chunk of rounds: regions sharing one ramp width, the rounds'
    graphs read from a random schedule (a chunk may start inside a window,
    and sparse graphs leave nodes isolated), a step schedule, the state
    and streak carried in, and a convergence window (None: never)."""
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, 9))
    ccfs = []
    for _ in range(n):
        crits = draw(st.lists(st.integers(0, 40), max_size=5, unique=True))
        ccfs.append(build_ccf([(draw(st.floats(0.01, 5.0)), k / 40) for k in crits]))
    gaps = [min_gap(c.breakpoints) for c in ccfs if len(c.breakpoints) > 1]
    ramp = min(gaps, default=1.0) * draw(st.sampled_from([1.0, 0.5, 1e-3]))
    t0 = draw(st.integers(1, 50_000))
    schedule = RandomSchedule(n, draw(st.sampled_from([0.0, 0.2, 1.0])),
                              draw(st.integers(1, 4)), draw(st.integers(0, 2**32)))
    step = StepSchedule(draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 100.0)),
                        draw(st.sampled_from(EXPONENTS)))
    alpha = draw(st.lists(st.sampled_from([0.5, ramp / 2.0, 0.0, -0.0]), min_size=n, max_size=n))
    # estimates at, just off and a ramp below the breakpoints
    breakpoints = [b for ccf in ccfs for b in ccf.breakpoints.tolist()]
    edges = breakpoints + [v for b in breakpoints for v in (
        b - ramp, math.nextafter(b, -math.inf), math.nextafter(b - ramp, math.inf))]
    return Chunk([SurrogateCcf(ccf, ramp) for ccf in ccfs],
                 round_rows(schedule, t0, t0 + m), t0, step,
                 x=floats(draw, (n,), special=edges), P=floats(draw, (m, n), -5.0, 5.0),
                 zeta=floats(draw, (n,), special=breakpoints), z=floats(draw, (n,)),
                 alpha=np.array(alpha), streak=draw(st.integers(0, 12)),
                 window=draw(st.none() | st.integers(0, 12)))


@st.composite
def cyclic_chunks(draw):
    """A chunk of up to 30 regions whose rounds take up to 12 steps' graphs:
    the chunk with one pair row per round, the steps' pair rows, and the
    step of each round."""
    case = draw(chunks(max_n=30))
    m, n = case.P.shape
    period = draw(st.integers(1, 12))
    steps = draw_edges(draw(st.integers(0, 2**32)), range(period), n, draw(PROBABILITIES))
    index = draw(st.lists(st.integers(0, period - 1), min_size=m, max_size=m))
    return case._replace(rows=steps[index]), steps, index


class Chunk(NamedTuple):
    surrogates: list[SurrogateCcf]
    rows: np.ndarray
    t0: int
    step: StepSchedule
    x: np.ndarray
    P: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    streak: int
    window: int | None


# n = 1, m = 1: one isolated node over one round
ONE_NODE = Chunk([SurrogateCcf(build_ccf([(2.0, 0.5)]), 0.1)], np.zeros((1, 0), dtype=bool),
                 1, StepSchedule(), x=np.zeros(1), P=np.full((1, 1), 2.0),
                 zeta=np.full(1, math.inf), z=np.full(1, math.inf), alpha=np.full(1, 0.05),
                 streak=0, window=None)
# the estimate stays on the breakpoint 0.0 (its surrogate equals its
# deficit estimate), so the cutoff goes from -0.0 to 0.0, which is no
# change: the carried streak of 3 grows to the window 4 and stops the chunk
# after a round
SIGNED_ZERO = Chunk([SurrogateCcf(build_ccf([(1.0, 0.0), (1.0, 0.5)]), 0.25)],
                    np.zeros((3, 0), dtype=bool), 7, StepSchedule(), x=np.zeros(1),
                    P=np.ones((3, 1)), zeta=np.full(1, -0.0), z=np.full(1, 0.0),
                    alpha=np.full(1, 0.125), streak=3, window=4)


def chunk_over(pairs, ramp, x, P, step, t0, connected=False) -> Chunk:
    """A chunk over regions of the given (power, criticality) pairs and one
    ramp width, with no edges (each region's mixing keeps its own estimate)
    or, when ``connected``, every edge; no streak and no window."""
    P = np.array(P, dtype=np.float64)
    m, n = P.shape
    rows = np.full((m, n * (n - 1) // 2), connected)
    return Chunk([SurrogateCcf(build_ccf(p), ramp) for p in pairs], rows, t0, step,
                 x=np.array(x, dtype=np.float64), P=P, zeta=np.full(n, math.inf),
                 z=np.full(n, math.inf), alpha=np.full(n, ramp / 2.0), streak=0, window=None)


def steered(pairs, ramp, x, path, step, t0, connected=False) -> Chunk:
    """``chunk_over``, with the deficit estimates that steer the estimates
    from ``x`` towards ``path[r]`` in round r: p = S(x) + (target - x) / eta
    on ``x_rounds``' estimates, which for isolated regions reaches the
    target exactly where the arithmetic is exact, and near it elsewhere."""
    case = chunk_over(pairs, ramp, x, np.zeros((len(path), len(pairs))), step, t0, connected)
    mixing = block_rows(case.rows, len(pairs))
    for r, target in enumerate(path):
        eta = step_eta(step, t0 + r)
        case.P[r] = [scalar_surrogate(s, v) + (goal - v) / eta
                     for s, v, goal in zip(case.surrogates, x, target)]
        (x,) = x_rounds(x, [mixing[r]], [eta], [case.P[r].tolist()], case.surrogates)
    return case


def assert_rounds_match(case: Chunk, graph=None, rows=None) -> np.ndarray:
    """Holds ``_engine.rounds`` over the chunk to ``protocol_rounds``, bit
    for bit; returns the state rows of the rounds run.  The kernel reads
    each round's row as ``run_kernel`` passes it (``rows[graph[r]]`` when
    given); the reference builds each round's mixing from its own row of
    ``case.rows``."""
    m, n = case.P.shape
    ran, etas, state, streak = run_kernel(case, graph, rows)
    expected_etas = [step_eta(case.step, t) for t in range(case.t0, case.t0 + m)]
    start = tuple(v.tolist() for v in (case.x, case.zeta, case.z, case.alpha))
    expected, expected_streak = protocol_rounds(
        start, case.streak, case.window, block_rows(case.rows, n), expected_etas,
        case.P.tolist(), case.surrogates)
    assert ran == len(expected)
    assert streak == expected_streak
    assert bits(etas) == bits(expected_etas[:ran])
    for k in range(4):  # estimates, cutoffs, min-consensus values, steps
        assert bits(state[k]) == bits([row[k] for row in expected])
    return state


def chunk_kernel(case: Chunk, graph=None, rows=None):
    """``_engine.rounds`` over the chunk as a function of its working
    memory (an array, whose bytes are its capacity), and the etas, state
    and streak it writes.  Round r mixes with the pair row
    ``rows[graph[r]]``; by default each round reads its own row of the
    chunk's."""
    (m, n), step, surrogates = case.P.shape, case.step, case.surrogates
    if graph is None:
        graph, rows = np.arange(m, dtype=np.int32), case.rows
    graph, rows = np.asarray(graph, dtype=np.int32), np.ascontiguousarray(rows, dtype=bool)
    bstart = np.cumsum([0, *(len(s.base.breakpoints) for s in surrogates)], dtype=np.int64)
    bps = np.concatenate([s.base.breakpoints for s in surrogates])
    cum = np.concatenate([s.base.cumulative for s in surrogates])
    P = np.ascontiguousarray(case.P)
    state, etas = np.empty((4, m + 1, n)), np.empty(m)
    state[:, 0] = (case.x, case.zeta, case.z, case.alpha)
    streak = ctypes.c_int64(case.streak)
    window = np.iinfo(np.int64).max if case.window is None else case.window

    def call(work: np.ndarray) -> int:
        return _engine.rounds(n, m, case.t0, step.gain, step.offset, step.exponent,
                              graph.ctypes.data, len(rows), rows.ctypes.data, P.ctypes.data,
                              bstart.ctypes.data, bps.ctypes.data, cum.ctypes.data,
                              surrogates[0].ramp_width, window, ctypes.byref(streak),
                              etas.ctypes.data, state.ctypes.data, work.ctypes.data, work.nbytes)
    return call, etas, state, streak


def run_kernel(case: Chunk, graph=None, rows=None):
    """``_engine.rounds`` over the chunk: rounds run, etas, state rows, streak.
    Its working memory grows, as ``run_protocol``'s does, to each need it
    returns, rounded up to whole words."""
    call, etas, state, streak = chunk_kernel(case, graph, rows)
    work = np.empty(0)
    while (ran := call(work)) < 0:
        work = np.empty(-(ran // 8))
    return ran, etas[:ran], state[:, 1:ran + 1], streak.value


class TestKernelsMatchReferences:
    @settings(max_examples=300, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    def test_x_rounds(self, case):
        (m, n), step = case.P.shape, case.step
        ran, etas, state, _ = run_kernel(case._replace(window=None))
        assert ran == m
        expected_etas = [step_eta(step, t) for t in range(case.t0, case.t0 + m)]
        assert bits(etas) == bits(expected_etas)
        expected = x_rounds(case.x.tolist(), block_rows(case.rows, n), expected_etas,
                            case.P.tolist(), case.surrogates)
        assert bits(state[0]) == bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    @example(SIGNED_ZERO)
    def test_dmc_rounds(self, case):
        (m, n), ramp = case.P.shape, case.surrogates[0].ramp_width
        ran, _, state, _ = run_kernel(case._replace(window=None))
        assert ran == m
        X, zeta_rows = state[0].tolist(), state[1].tolist()
        crits = [s.base.breakpoints.tolist() for s in case.surrogates]
        assert bits(zeta_rows) == bits([[local_zeta(c, v) for c, v in zip(crits, x)] for x in X])
        neighbors = [row_neighbors(w_rows) for w_rows in block_rows(case.rows, n)]
        z_rows, alpha_rows = dmc_rounds(case.z.tolist(), case.alpha.tolist(), zeta_rows,
                                        neighbors, ramp)
        assert bits(state[2]) == bits(z_rows)
        assert bits(state[3]) == bits(alpha_rows)

    @settings(max_examples=400, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    @example(SIGNED_ZERO)
    def test_rounds(self, case):
        assert_rounds_match(case)

    @pytest.mark.parametrize("connected", [False, True])
    def test_walk_across_every_breakpoint(self, connected):
        # up past each region's last breakpoint, then down below its first,
        # a bracket or less per round
        case = steered([[(1.0, k / 4) for k in range(5)], [(2.0, 0.1), (1.0, 0.6)]], 0.05,
                       [-0.3, -0.3], [[-0.3 + 0.06 * r] * 2 for r in range(1, 26)]
                       + [[1.2 - 0.07 * r] * 2 for r in range(1, 31)], StepSchedule(1.0, 1.0, 0.9),
                       t0=100, connected=connected)
        x = assert_rounds_match(case)[0]
        for j, s in enumerate(case.surrogates):
            top = int(np.argmax(x[:, j] > s.base.breakpoints[-1]))
            assert top and (x[top:, j] < s.base.breakpoints[0]).any()

    def test_landing_on_a_breakpoint(self):
        # eta is 1/4, 1/8 and 1/16 in rounds 0, 4 and 12, so those rounds
        # move the estimates exactly; the rest hold them.  The estimates
        # land on breakpoints (cutoff: the breakpoint, below the upper
        # index) from above and below, leave them and land on others.
        path = [[0.5, 0.5]] * 4 + [[0.75, 0.25]] * 8 + [[1.0, 0.5]] * 4
        case = steered([[(1.0, 0.5), (1.0, 1.0)]] * 2, 0.01, [0.75, 0.25], path,
                       StepSchedule(1.0, 2.0, 1.0), t0=2)
        x, zeta = assert_rounds_match(case)[:2]
        assert x.tolist() == path
        assert zeta.tolist() == [[0.5, 0.5]] * 4 + [[1.0, 0.5]] * 8 + [[1.0, 0.5]] * 4

    def test_signed_zero_estimates(self):
        # -0.0 against breakpoints 0.0 and -0.0 and against none at zero;
        # the first round holds the estimates at +0.0, round 4 moves them
        # off and round 12 back on zero
        bps = [[(1.0, 0.0), (1.0, 0.5)], [(1.0, -0.0), (1.0, 0.5)], [(1.0, 0.25), (1.0, 0.5)]]
        path = [[0.0] * 4] * 4 + [[0.25, 0.375, 0.125, 0.25]] * 8 + [[0.0] * 4] * 4
        case = steered([bps[0], bps[1], bps[0], bps[2]], 0.125, [-0.0, -0.0, 0.0, -0.0], path,
                       StepSchedule(1.0, 2.0, 1.0), t0=2)
        x, zeta = assert_rounds_match(case)[:2]
        assert x.tolist() == path
        assert bits(zeta[[0, -1]]) == bits([[0.0, -0.0, 0.0, 0.25]] * 2)

    @pytest.mark.parametrize("connected", [False, True])
    def test_non_finite_estimates_mid_chunk(self, connected):
        # region 0 turns NaN in round 3; region 1 +inf in round 5, then NaN;
        # region 2 -inf in round 4, then NaN; region 3 stays finite alone
        P = np.full((14, 4), 1.5)
        P[3, 0] = math.nan
        P[5, 1], P[9, 1] = math.inf, -math.inf
        P[4, 2], P[8, 2] = -math.inf, math.inf
        case = chunk_over([[(1.0, 0.25), (1.0, 0.5), (1.0, 0.75)]] * 4, 0.125,
                          [0.3, 0.6, 0.9, 0.1], P, StepSchedule(), 1, connected)
        x = assert_rounds_match(case)[0]
        if connected:  # each round mixes every estimate into every other
            assert np.isfinite(x[:3]).all() and np.isnan(x[4:]).all()
        else:
            assert np.isfinite(x[:3, 0]).all() and np.isnan(x[3:, 0]).all()
            assert x[5:9, 1].tolist() == [math.inf] * 4 and np.isnan(x[9:, 1]).all()
            assert x[4:8, 2].tolist() == [-math.inf] * 4 and np.isnan(x[8:, 2]).all()
            assert np.isfinite(x[:, 3]).all()

    def test_signed_zero_cutoff_keeps_the_streak(self):
        ran, _, state, streak = run_kernel(SIGNED_ZERO)
        assert (ran, streak) == (1, 4)
        assert bits(state[:2]) == bits([[0.0], [0.0]])  # estimate and cutoff

    @settings(max_examples=150, deadline=None)
    @given(cyclic_chunks())
    def test_graph_index_is_exact(self, cyclic):
        # a cyclic schedule's form, the steps' rows and each round's step,
        # runs as the random form, one row per round (n >= 8 takes numpy's
        # eight accumulators in the diagonal's sum)
        case, steps, index = cyclic
        by_step, by_round = run_kernel(case, index, steps), run_kernel(case)
        assert by_step[0] == by_round[0] and by_step[3] == by_round[3]  # rounds run, streak
        assert bits(by_step[1]) == bits(by_round[1]) and bits(by_step[2]) == bits(by_round[2])

    @pytest.mark.parametrize("n, p", [(29, 0.2), (4, 0.5), (1, 0.0)])
    def test_a_word_short_writes_nothing_but_work(self, n, p):
        # the need, read after a table-sized call, comes back unchanged
        # from a buffer one word short of it, and state, etas and the
        # streak stay bit for bit as they were
        rng = np.random.default_rng(n)
        case = seeded_chunk(rng.random((40, n * (n - 1) // 2)) < p, n)._replace(streak=7)
        call, etas, state, streak = chunk_kernel(case)
        state[:, 1:], etas[:] = rng.random(state[:, 1:].shape), rng.random(etas.shape)
        before = bits(state), bits(etas), streak.value
        table = -call(np.empty(0))
        need = -call(np.empty(-(-table // 8)))
        assert 0 < table < need
        assert call(np.empty(-(-need // 8) - 1)) == -need
        assert (bits(state), bits(etas), streak.value) == before
        assert call(np.empty(-(-need // 8))) == 40
        _, expected_etas, expected_state, expected_streak = run_kernel(case)
        assert bits(etas) == bits(expected_etas) and streak.value == expected_streak
        assert bits(state[:, 1:]) == bits(expected_state)

    @pytest.mark.parametrize("schedule, count", [
        (RandomSchedule(4, 0.1, 2, 2), 10),
        (PeriodicSchedule(4, (frozenset({(0, 1), (2, 3)}), frozenset({(1, 2)}), frozenset()), 3),
         7),
    ], ids=["random", "cyclic"])
    def test_run_grows_its_buffer_only_on_a_need(self, schedule, count, monkeypatch):
        # each chunk calls the kernel at most three times (the table's need,
        # the whole need, the run), and the capacity changes only after a
        # need, to that need in whole words; the random run's later chunks
        # hold more distinct graphs than its first, so it grows three more
        # times, and the cyclic run's chunks all need what its first did
        calls, kernel = [], _engine.rounds

        def counted(*args):
            calls.append((args[-1], kernel(*args)))
            return calls[-1][1]

        monkeypatch.setattr(_engine, "rounds", counted)
        surrogates = seeded_chunk(np.zeros((1, 6), dtype=bool), 4).surrogates
        inst = ProtocolInstance(surrogates, schedule, StepSchedule(), ExactSplit(2.0, 4),
                                convergence_window=None, max_rounds=4 * CHUNK + 100)
        assert run_protocol(inst, record_trace=False).rounds == 4 * CHUNK + 100
        ran = [r for _, r in calls]
        assert len(calls) == count
        runs = [k for k, r in enumerate(ran) if r > 0]
        assert [ran[k] for k in runs] == [CHUNK] * 4 + [100]
        assert np.diff([-1, *runs]).max() <= 3
        assert calls[0] == (0, ran[0]) and ran[0] < 0
        for (capacity, r), (after, _) in zip(calls, calls[1:]):
            assert after == (capacity if r > 0 else -(r // 8) * 8)


def seeded_chunk(rows: np.ndarray, n: int, seed: int = 0) -> Chunk:
    """A chunk of one round per pair row of ``rows``: n regions of four
    seeded loads on a 1/40 criticality grid, seeded estimates and deficit
    estimates, and no window, so every round runs."""
    rng = np.random.default_rng(seed)
    pairs = [[(float(rng.uniform(0.5, 2.0)), k / 40) for k in np.sort(rng.choice(41, 4, False))]
             for _ in range(n)]
    P = rng.uniform(0.0, 4.0, (len(rows), n))
    return chunk_over(pairs, 0.01, rng.uniform(0.0, 1.0, n), P, StepSchedule(1.0, 10.0, 0.75),
                      t0=1)._replace(rows=np.ascontiguousarray(rows, dtype=bool))


def distinct_rows(rows: np.ndarray) -> int:
    return len({row.tobytes() for row in rows})


MASK = 2**64 - 1


def home_slots(rows: np.ndarray, count: int | None = None) -> np.ndarray:
    """The slot where ``rounds``' dedupe table starts its probe for each
    pair row, in the table of a call with ``count`` rows (default: these):
    ``_engine.c``'s ``row_hash`` (the row's whole eight-byte words read
    little-endian, the bytes left over as one big-endian word), modulo the
    table's size, the least power of two of at least 2 and at least twice
    the rows."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    count = len(rows) if count is None else count
    length = rows.shape[1]
    h = np.full(len(rows), length, dtype=np.uint64)
    whole = length // 8 * 8
    for word in rows[:, :whole].copy().view("<u8").T:
        h = (h ^ word) * np.uint64(0x9E3779B97F4A7C15)
    rest = [int.from_bytes(row[whole:].tobytes(), "big") for row in rows]
    slots = 2
    while slots < 2 * count:
        slots *= 2
    home = []
    for value, word in zip(h.tolist(), rest):
        z = (value ^ word) * 0x9E3779B97F4A7C15 & MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
        home.append((z ^ (z >> 31)) % slots)
    return np.array(home)


class TestDistinctGraphs:
    """The kernel builds each distinct pair row's mixing once per call and
    runs every round on its row's: held bit for bit to the references,
    which build each round's mixing on its own."""

    def test_chunks_cover_repeated_and_distinct_rows(self):
        # the rounds the Hypothesis tests draw dedupe to fewer rows and to
        # as many (the first such example is enough: no shrinking); some 16 %
        # of drawn chunks have three or more rows, all distinct, but a search
        # can take over 100 draws to meet one, so it may take 10 000
        found = settings(phases=[Phase.generate], database=None, max_examples=10_000)
        find(chunks(), lambda case: distinct_rows(case.rows) < len(case.rows), settings=found)
        find(chunks(), lambda case: len(case.rows) >= 3
             and distinct_rows(case.rows) == len(case.rows), settings=found)

    @pytest.mark.parametrize("p, window, seed", [(0.5, 1, 0), (0.3, 2, 7), (0.9, 3, 2**64 - 1)])
    def test_random_schedule_chunk_of_four_nodes(self, p, window, seed):
        # a whole chunk of 1 024 rounds holds at most 2**6 distinct graphs
        rows = round_rows(RandomSchedule(4, p, window, seed), 5, 5 + CHUNK)
        assert distinct_rows(rows) <= 64
        assert_rounds_match(seeded_chunk(rows, 4, seed % 1000))

    @pytest.mark.parametrize("n, connected", [(3, False), (5, True)])
    def test_every_row_identical(self, n, connected):
        rows = np.full((200, n * (n - 1) // 2), connected)
        assert_rounds_match(seeded_chunk(rows, n))

    def test_one_node_has_no_pairs(self):
        assert_rounds_match(seeded_chunk(np.zeros((300, 0), dtype=bool), 1))

    def test_two_nodes(self):
        rows = np.random.default_rng(2).random((300, 1)) < 0.5
        assert distinct_rows(rows) == 2
        assert_rounds_match(seeded_chunk(rows, 2))

    def test_periodic_steps_that_repeat(self):
        # six steps, three of them distinct, read through the steps' rows
        # and each round's step index, as run_protocol hands them over
        a, b, c = frozenset({(0, 1), (1, 2)}), frozenset({(2, 3), (0, 3)}), frozenset()
        schedule = PeriodicSchedule(4, (a, b, a, a, c, b), 2)
        graph, steps = schedule.graphs_between(3, 3 + 500)
        assert distinct_rows(steps) == 3
        assert_rounds_match(seeded_chunk(steps[graph], 4, 3), graph, steps)

    def test_colliding_rows_of_29_nodes(self):
        # 1 024 distinct rows in 2 048 slots, whose home slots collide
        rows = draw_edges(29, range(CHUNK), 29, 0.45)
        assert distinct_rows(rows) == CHUNK
        assert len(set(home_slots(rows).tolist())) < CHUNK
        assert_rounds_match(seeded_chunk(rows, 29))

    def test_long_probes_wrap_around_the_table(self):
        # 64 rows, so 128 slots: nine distinct rows whose home is the last
        # slot, each twice, and five whose home is the first, among rows of
        # other homes, so probes run past the end of the table and a
        # repeated row is found only past the rows that share its home
        pool = draw_edges(5, range(4000), 29, 0.45)
        homes = home_slots(pool, 64)
        last, first = np.flatnonzero(homes == 127)[:9], np.flatnonzero(homes == 0)[:5]
        other = np.flatnonzero((homes != 127) & (homes != 0))[:64 - 2 * 9 - 5]
        picked = np.random.default_rng(0).permutation(np.concatenate([last, last, first, other]))
        rows = pool[picked]
        assert len(rows) == 64 and distinct_rows(rows) == 64 - 9
        assert (home_slots(rows)[np.isin(picked, last)] == 127).all()
        assert_rounds_match(seeded_chunk(rows, 29, 5))


    @pytest.mark.parametrize("pair", [0, 405])
    def test_rows_one_pair_apart_stay_apart(self, pair):
        # 64 rows of 29 nodes: twenty rows and their twins, each twin the
        # row with one pair flipped and the same home slot, so the probe
        # meets the row and the whole-row comparison alone tells them apart
        pool = draw_edges(6, range(4000), 29, 0.45)
        twins = pool.copy()
        twins[:, pair] ^= True
        same = np.flatnonzero(home_slots(pool, 64) == home_slots(twins, 64))[:20]
        assert len(same) == 20
        rows = np.concatenate([pool[same], twins[same], pool[4000 - 24:]])
        assert distinct_rows(rows) == 64
        assert_rounds_match(seeded_chunk(rows[np.random.default_rng(pair).permutation(64)], 29, 6))


def repaired_reference(seed, counters, n, p, window, keys) -> np.ndarray:
    """``draw_edges``, then each whole window's repair: its components by
    ``component_labels`` of its union, stably sorted by their scalar draws,
    their least nodes chained into the window's last row."""
    rows = draw_edges(seed, counters, n, p)
    unions = rows[:len(keys) * window].reshape(len(keys), window, rows.shape[1]).any(axis=1)
    column = {pair: k for k, pair in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    for w, (labels, key) in enumerate(zip(component_labels(unions, n).tolist(), keys)):
        leaders = [v for v in range(n) if labels[v] == v]
        order = sorted(range(len(leaders)), key=lambda i: mix64(seed, STREAM_REPAIR, key, i))
        reps = [leaders[i] for i in order]
        for a, b in zip(reps, reps[1:]):
            rows[(w + 1) * window - 1, column[min(a, b), max(a, b)]] = True
    return rows


def dense(rows: np.ndarray, n: int) -> np.ndarray:
    """Each pair row's mixing matrix, read from the engine's CSR arrays."""
    indptr, col, weight = mixing_csr(rows, n)
    W = np.zeros((len(indptr) - 1, n))
    W[np.arange(len(indptr) - 1).repeat(np.diff(indptr)), col] = weight
    return W.reshape(-1, n, n)


class TestGraphsMatchReferences:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 70), window=st.integers(1, 5), p=PROBABILITIES, seed=SEEDS,
           t0=st.integers(1, 40), length=st.integers(0, 10))
    @example(n=1, window=3, p=0.5, seed=0, t0=2, length=5)  # no pair columns
    @example(n=70, window=5, p=0.01, seed=2**64 - 1, t0=8, length=10)  # t0 inside a window
    @example(n=65, window=2, p=0.0, seed=2**63, t0=1, length=4)  # 65 components per window
    def test_random_schedule_draw_and_repair(self, n, window, p, seed, t0, length):
        t1, w0 = t0 + length, (t0 - 1) // window
        expected = repaired_reference(seed, range(w0 * window + 1, t1), n, p, window,
                                      range(w0, (t1 - 1) // window))
        rows = round_rows(RandomSchedule(n, p, window, seed), t0, t1)
        assert rows.tolist() == expected[t0 - 1 - w0 * window:].tolist()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 70), window=st.integers(1, 5), p=PROBABILITIES, seed=SEEDS,
           first=st.integers(0, 2**64 - 11), count=st.integers(0, 10),
           keys=st.lists(st.integers(0, 2**64 - 1), max_size=10))
    @example(n=9, window=4, p=0.05, seed=1, first=0, count=12, keys=[0, 4, 8])  # gen's steps
    def test_repaired_rows(self, n, window, p, seed, first, count, keys):
        # any counters and keys, with counters past the last whole window
        counters, keys = range(first, first + count), keys[:count // window]
        assert repaired_rows(seed, counters, n, p, window, keys).tolist() == repaired_reference(
            seed, counters, n, p, window, keys).tolist()

    def test_edge_is_present_strictly_below_p(self):
        # the draw of pair 0 at counter 1 as p: absent at p, present just above
        p = unit_float(mix64(3, STREAM_EDGES, 1, 0))
        assert repaired_rows(3, range(1, 2), 2, p, 1, []).tolist() == [[False]]
        assert repaired_rows(3, range(1, 2), 2, math.nextafter(p, 1.0), 1, []).tolist() == [[True]]

    def test_repaired_rows_need_whole_windows(self):
        with pytest.raises(ValueError, match="3 windows of 2 rounds in 5 counters"):
            repaired_rows(0, range(5), 4, 0.5, 2, [0, 1, 2])
        with pytest.raises(ValueError, match="1 windows of 0 rounds in 5 counters"):
            repaired_rows(0, range(5), 4, 0.5, 0, [0])

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 70), window=st.integers(1, 5), p=PROBABILITIES, seed=SEEDS,
           count=st.integers(0, 12))
    @example(n=70, window=1, p=0.0, seed=0, count=1)
    @example(n=70, window=3, p=0.001, seed=0, count=12)
    def test_components(self, n, window, p, seed, count):
        rows = draw_edges(seed, range(count), n, p)
        windows = count // window
        unions = rows[:windows * window].reshape(windows, window, rows.shape[1]).any(axis=1)
        assert window_labels(rows, n, window).tolist() == component_labels(unions, n).tolist()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 70), p=PROBABILITIES, seed=SEEDS, count=st.integers(0, 12))
    @example(n=1, p=0.5, seed=0, count=2)
    @example(n=70, p=1.0, seed=0, count=1)
    @example(n=29, p=0.45, seed=0, count=12)
    def test_metropolis(self, n, p, seed, count):
        rows = draw_edges(seed, range(count), n, p)
        indptr, col, weight = mixing_csr(rows, n)
        # arrays sized from the edges: every diagonal entry and each edge twice
        assert len(col) == len(weight) == indptr[-1] == count * n + 2 * rows.sum()
        assert all((np.diff(col[a:b]) > 0).all() for a, b in zip(indptr[:-1], indptr[1:]))
        W = dense(rows, n)
        assert bits(W) == bits(metropolis_block(rows, n))
        assert all(stochasticity_defect(w) <= 1e-12 and (np.diag(w) > 0).all() for w in W)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 30), p=PROBABILITIES, seed=SEEDS, count=st.integers(1, 6),
           pick=st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @example(n=5, p=0.5, seed=0, count=3, pick=[2, 0, 2])
    def test_metropolis_builds_the_picked_rows(self, n, p, seed, count, pick):
        # graph g is built from rows[pick[g]] where rows holds it, whatever
        # the order of the picks and however often a row is picked
        rows = draw_edges(seed, range(count), n, p)
        pick = [k % count for k in pick]
        picked, copied = mixing_csr(rows, n, pick), mixing_csr(rows[pick], n)
        assert all(a.tolist() == b.tolist() for a, b in zip(picked, copied))
        assert bits(picked[2]) == bits(copied[2])

    @pytest.mark.parametrize("n", [8, 29, 70, 200])
    def test_diagonal_is_one_minus_the_ascending_sum(self, n):
        # every diagonal is 1 minus its row's weights added one by one in
        # ascending column order; numpy's pairwise sum of the row differs
        # in the last bit on some rows, so the test tells the two orders
        # apart (past 128 nodes numpy also splits the row in halves)
        rows = draw_edges(n, range(20), n, 0.5)
        W = dense(rows, n)
        pairwise = 0
        for g in range(len(rows)):
            for j in range(n):
                off = W[g, j].copy()
                off[j] = 0.0
                total = 0.0
                for v in off.tolist():
                    total += v
                assert W[g, j, j] == 1.0 - total, (g, j)
                pairwise += W[g, j, j] != 1.0 - off.sum()
        assert pairwise


@st.composite
def deviation_blocks(draw):
    """Rows of up to 29 estimates whose cells mix the exact share, +-1e308,
    +-inf, NaN and -0.0 with ordinary values (some rows wholly exact), a
    first round up to 100 000, and a step whose eta may be subnormal."""
    n, m = draw(st.integers(1, 29)), draw(st.integers(1, 12))
    deficit = draw(st.sampled_from([6.0, 1e308, -0.0]) | st.floats(0.0, 50.0))
    share = deficit / n
    cell = st.sampled_from([share, 1e308, -1e308, *SPECIAL]) | st.floats(-5.0, 5.0)
    P = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m)))
    exact = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    P[exact] = share
    gain = draw(st.sampled_from([1.0, 5e-324, 1e-310]) | st.floats(1e-320, 10.0))
    step = StepSchedule(gain, draw(st.floats(0.01, 100.0)), draw(st.sampled_from(EXPONENTS)))
    return P, draw(st.integers(1, 100_000)), step, deficit


@st.composite
def repeated_rows(draw):
    """A row of ``deviation_blocks`` repeated as a stride-0 block of up to
    3 000 rounds, with its first round, step and deficit."""
    P, t0, step, deficit = draw(deviation_blocks())
    row = P[draw(st.integers(0, len(P) - 1))]
    return np.broadcast_to(row, (draw(st.integers(0, 3000)), len(row))), t0, step, deficit


# the last row of a table, the one repeated past its end: exact, off the
# deficit by a finite amount (as little as the smallest subnormal, against a
# deficit of 0), NaN, or +-1e308 values whose sum overflows
LAST_ROWS = ("exact", "off", "nan", "overflow")


@st.composite
def trace_tables(draw):
    """A ``TraceEstimator`` table of 1-5 rows, its horizon (below, at or above
    its length, or around ``CHUNK``), step and deficit.  Gains run from
    subnormal to 1e300: from 1e4 on, eta(t) > 1 in the first rounds, so a
    subnormal error over it can read 0 early in the tail and not later."""
    last = draw(st.sampled_from(LAST_ROWS))
    n = draw(st.integers(2 if last == "overflow" else 1, 4))
    deficit = draw(st.sampled_from([6.0, 0.0, 1e308]) | st.floats(0.0, 50.0))
    share = deficit / n
    cell = st.sampled_from([share, 1e308, -1e308, *SPECIAL]) | st.floats(-5.0, 5.0)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=0, max_size=4))
    row = [share] * n
    if last == "off":
        row[draw(st.integers(0, n - 1))] += draw(
            st.sampled_from([5e-324, -5e-324, 1e-310, 0.5]) | st.floats(-5.0, 5.0))
    elif last == "nan":
        row[draw(st.integers(0, n - 1))] = math.nan
    elif last == "overflow":
        row = [draw(st.sampled_from([1e308, -1e308]))] * n
    rows.append(row)
    k = len(rows)
    t_max = draw(st.sampled_from([k - 1, k, k + 1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + k,
                                  3 * CHUNK]) | st.integers(0, 12_000))
    gain = draw(st.sampled_from([1.0, 1e4, 1e300, 5e-324, 1e-310]) | st.floats(1e-320, 10.0))
    step = StepSchedule(gain, draw(st.floats(0.01, 100.0)), draw(st.sampled_from(EXPONENTS)))
    return TraceEstimator(tuple(map(tuple, rows))), t_max, step, deficit


def tracking_reference(estimator, step, t_max, deficit) -> float:
    """``deviation_reference``'s largest value over rounds 1..t_max, one
    ``CHUNK`` of rounds at a time."""
    return float(np.max([
        deviation_reference(estimator.block(t0, min(t0 + CHUNK, t_max + 1)), t0, step,
                            deficit).max()
        for t0 in range(1, t_max + 1, CHUNK)
    ], initial=0.0))


# rows around the share 1.5 of the deficit 6: exact, a thousandth off, and
# one with NaN; past the table, its last row misses by 0.5 in every round
ROWS = np.round(1.5 + np.random.default_rng(7).normal(0.0, 1e-3, (1100, 4)), 4)
ROWS[::3] = 1.5
ROWS[1050, 2] = math.nan
ROWS[-1] = [1.5, 1.5, 1.5, 1.0]
ESTIMATORS = [
    ExactSplit(6.0, 4), NoisySplit(6.0, 4, seed=3), TraceEstimator(tuple(map(tuple, ROWS)))
]


class TestDeviationMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(deviation_blocks())
    @example((np.array([[1e308, -1e308]]), 1, StepSchedule(), 6.0))  # the shares' error
    @example((np.array([[1e308, 1e308]]), 1, StepSchedule(), 6.0))  # an overflowing sum
    @example((np.full((2, 1), 1.0), 99_999, StepSchedule(5e-324, 1.0, 0.6), 0.0))  # eta 0
    def test_deficit_deviation(self, case):
        P, t0, step, deficit = case
        assert bits(deviation_rows(P, t0, step, deficit)) == bits(
            deviation_reference(P, t0, step, deficit))

    @settings(max_examples=200, deadline=None)
    @given(repeated_rows())
    @example((np.broadcast_to([1.0, 2.0, 3.0], (5, 3)), 1, StepSchedule(), 7.0))
    @example((np.broadcast_to([0.0], (4, 1)), 1, StepSchedule(), 0.0))  # every round 0
    def test_deficit_deviation_of_a_repeated_row(self, case):
        P, t0, step, deficit = case
        assert P.strides[0] == 0
        assert bits(deviation_rows(P, t0, step, deficit)) == bits(
            deviation_reference(P, t0, step, deficit))

    @settings(max_examples=300, deadline=None)
    @given(deviation_blocks() | repeated_rows(), st.booleans())
    def test_largest_deviation(self, case, with_out):
        # the kernel's return value is numpy's maximum of the reference, and
        # the per-round values it writes when given ``out`` are the reference
        P, t0, step, deficit = case
        reference = deviation_reference(P, t0, step, deficit)
        out = np.full(len(P), -1.0) if with_out else None
        assert bits([deficit_deviation(P, t0, step, deficit, out)]) == bits(
            [np.max(reference, initial=0.0)])
        if with_out:
            assert bits(out) == bits(reference)

    @pytest.mark.parametrize("with_out", [False, True], ids=["maximum", "with-out"])
    @pytest.mark.parametrize("P, largest", [
        (np.empty((0, 2)), 0.0),
        (np.array([[math.nan, 3.0], [9.0, 3.0], [3.0, 3.0]]), math.nan),  # then 6 / eta(2)
        (np.array([[1.0, 1.0], [1e308, 1e308], [-1e308, -1e308]]), math.inf),
        (np.full((3, 2), 3.0), 0.0),
    ], ids=["no-rows", "nan-before-larger", "overflow", "all-zero"])
    def test_largest_deviation_examples(self, P, largest, with_out):
        out = np.empty(len(P)) if with_out else None
        assert bits([deficit_deviation(P, 1, StepSchedule(), 6.0, out)]) == bits([largest])

    @pytest.mark.parametrize("row", [
        np.arange(8.0)[::2],  # a row of stride 16 bytes
        np.arange(4),  # integers
        np.float64(1.5),  # one value in every cell
    ], ids=["strided", "integer", "scalar"])
    def test_repeated_rows_of_other_layouts(self, row):
        P = np.broadcast_to(row, (7, 4))
        assert bits(deviation_rows(P, 3, StepSchedule(), 6.0)) == bits(
            deviation_reference(np.array(P, dtype=np.float64), 3, StepSchedule(), 6.0))

    @settings(max_examples=300, deadline=None)
    @given(trace_tables())
    # an error of 5e-324 over eta(t) = 1e4 / (t + 1): 0 up to round 4 999, then not
    @example((TraceEstimator(((0.0,), (5e-324,))), 12_000, StepSchedule(1e4), 0.0))
    @example((TraceEstimator(((1.0, 2.0), (1.6, 1.6), (1.5, 1.5))), 3, StepSchedule(), 3.0))
    @example((TraceEstimator(((math.nan,), (1.0,))), 2, StepSchedule(), 1.0))
    def test_certify_deficit_tracking_of_trace_tables(self, case):
        estimator, t_max, step, deficit = case
        assert bits([certify_deficit_tracking(estimator, step, t_max, deficit)]) == bits(
            [tracking_reference(estimator, step, t_max, deficit)])

    @pytest.mark.parametrize("horizon", [1, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
    @pytest.mark.parametrize("estimator", ESTIMATORS, ids=["exact", "noisy", "trace"])
    @pytest.mark.parametrize("step", [StepSchedule(), StepSchedule(0.5, 2.0, 0.75)],
                             ids=["harmonic", "power"])
    def test_certify_deficit_tracking(self, estimator, step, horizon):
        assert bits([certify_deficit_tracking(estimator, step, horizon, 6.0)]) == bits(
            [tracking_reference(estimator, step, horizon, 6.0)])


class TestBuild:
    def test_concurrent_builds_leave_one_artifact(self, tmp_path):
        code = ("import ctypes, sys; from pathlib import Path; from loadshed import _engine; "
                "ctypes.CDLL(str(_engine._build(Path(sys.argv[1]))))")
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
                 for _ in range(2)]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        (artifact,) = tmp_path.iterdir()
        assert artifact.name.startswith("_engine-") and artifact.suffix == ".so"

    @pytest.mark.parametrize("change", ["source", "command"])
    def test_rebuild_removes_the_stale_artifact(self, tmp_path, monkeypatch, change):
        first = _engine._build(tmp_path)
        partial = tmp_path / "_engine-0000.1.tmp"  # another process's compile in flight
        partial.write_bytes(b"")
        if change == "source":
            edited = tmp_path / "source" / "_engine.c"
            edited.parent.mkdir()
            edited.write_bytes(_engine.SOURCE.read_bytes() + b"/* edited */\n")
            monkeypatch.setattr(_engine, "SOURCE", edited)
        else:
            monkeypatch.setattr(_engine, "FLAGS", (*_engine.FLAGS, "-DREBUILT"))
        second = _engine._build(tmp_path)
        assert second != first
        assert list(tmp_path.glob("_engine-*.so")) == [second]
        assert partial.exists()

    def test_missing_compiler_fails_the_import(self, tmp_path):
        compiler = _engine._compiler()[0]
        if os.path.isabs(compiler):
            pytest.skip(f"the compiler {compiler} is found without PATH")
        shutil.copytree(PACKAGE, tmp_path / "loadshed",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "-B", "-c", "import loadshed"],
                              env={"PATH": "", "PYTHONPATH": str(tmp_path)},
                              capture_output=True, text=True, timeout=120, check=False)
        assert done.returncode == 1
        assert "ImportError" in done.stderr and repr(compiler) in done.stderr
        assert not list((tmp_path / "loadshed" / "__pycache__").iterdir())

    def test_unwritable_directory_fails_the_import(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(ImportError, match="cannot build loadshed's engine in"):
            _engine._build(tmp_path / "file" / "cache")

    def test_command_keeps_float_contraction_off(self, tmp_path, monkeypatch):
        commands = []
        run = subprocess.run

        def recorded(command, **kwargs):
            commands.append(command)
            return run(command, **kwargs)

        monkeypatch.setattr(_engine.subprocess, "run", recorded)
        _engine._build(tmp_path)
        (command,) = commands
        assert "-ffp-contract=off" in command
        assert not [flag for flag in command if flag.startswith(("-ffast-math", "-march"))]
