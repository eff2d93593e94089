from __future__ import annotations

import hashlib
from itertools import chain
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshed import _engine, netgraph
from loadshed.netgraph import (
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    check_window_connectivity,
    normalize_edges,
    pair_rows,
)
from loadshed.seeding import STREAM_EDGES, STREAM_REPAIR, mix64, mix64_grid, unit_float

from conftest import (
    block_rows,
    component_labels,
    csr_rows,
    draw_edges,
    metropolis_weights,
    mixing_csr,
    mixing_rows,
    neighbor_lists,
    round_rows,
    row_neighbors,
    scalar_metropolis,
    stochasticity_defect,
    window_labels,
)

LINE4 = [(0, 1), (1, 2), (2, 3)]


def connected_components(edges, n: int) -> list[list[int]]:
    """Scalar reference: the components, each sorted, in order of their
    smallest nodes (depth-first search)."""
    adjacency = neighbor_lists(edges, n)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        group, stack = [start], [start]
        seen[start] = True
        while stack:
            for v in adjacency[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    group.append(v)
                    stack.append(v)
        components.append(sorted(group))
    return components


def repair_edges(components: list[list[int]], seed: int, key: int) -> frozenset:
    """Scalar reference: the chain that connects a window's union, given its
    components (empty when it is connected).  The components are ordered by
    the splitmix draw keyed ``key`` and their smallest nodes are chained in
    that order."""
    if len(components) <= 1:
        return frozenset()
    order = sorted(range(len(components)), key=lambda k: mix64(seed, STREAM_REPAIR, key, k))
    reps = [components[k][0] for k in order]
    return frozenset((min(a, b), max(a, b)) for a, b in zip(reps, reps[1:]))


def random_graph(rng, n, p):
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }


class TestMetropolisWeights:
    def test_line_graph_exact(self):
        W = metropolis_weights(LINE4, 4)
        third = 1.0 / 3.0
        assert W[0, 1] == third and W[1, 2] == third and W[2, 3] == third
        assert W[1, 0] == third and W[2, 1] == third and W[3, 2] == third
        assert W[0, 0] == 1.0 - third
        assert W[1, 1] == 1.0 - (third + third)
        assert W[2, 2] == 1.0 - (third + third)
        assert W[3, 3] == 1.0 - third
        assert W[0, 2] == 0.0 and W[0, 3] == 0.0 and W[1, 3] == 0.0

    def test_empty_graph_is_identity(self):
        assert np.array_equal(metropolis_weights([], 3), np.eye(3))

    def test_complete_three(self):
        W = metropolis_weights([(0, 1), (0, 2), (1, 2)], 3)
        assert np.allclose(W, 1.0 / 3.0, atol=0)

    def test_doubly_stochastic_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            edges = random_graph(rng, n, 0.4)
            W = metropolis_weights(edges, n)
            assert stochasticity_defect(W) <= 1e-12
            assert (np.diag(W) > 0).all()
            # sparsity matches the edge set exactly
            for i in range(n):
                for j in range(i + 1, n):
                    if (i, j) in edges:
                        assert W[i, j] > 0
                    else:
                        assert W[i, j] == 0.0

    def test_entry_floor(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            edges = random_graph(rng, n, 0.5)
            W = metropolis_weights(edges, n)
            nonzero = W[W > 0]
            assert (nonzero >= 1.0 / n - 1e-15).all()

    def test_product_over_window_stays_doubly_stochastic(self):
        rng = np.random.default_rng(33)
        n = 6
        product = np.eye(n)
        for _ in range(8):
            product = metropolis_weights(random_graph(rng, n, 0.4), n) @ product
        assert stochasticity_defect(product) <= 1e-10

    def test_consensus_contraction(self):
        rng = np.random.default_rng(34)
        n = 5
        schedule = RandomSchedule(n, 0.5, window=2, seed=9)
        v = rng.uniform(-1, 1, size=n)
        spread0 = v.max() - v.min()
        spread = spread0
        t = 1
        for _ in range(10):
            for _ in range(2):
                W = metropolis_weights(schedule.edges_at(t), n)
                v = W @ v
                t += 1
            new_spread = v.max() - v.min()
            assert new_spread <= spread + 1e-15
            spread = new_spread
        assert spread < spread0


class TestSchedules:
    def test_static_connected_passes(self):
        schedule = StaticSchedule(4, normalize_edges(LINE4, 4))
        assert check_window_connectivity(schedule, 10) is None

    def test_periodic_alternation_passes(self):
        schedule = PeriodicSchedule(
            3, (frozenset({(0, 1)}), frozenset({(1, 2)})), window=2
        )
        assert schedule.edges_at(1) == {(0, 1)}
        assert schedule.edges_at(2) == {(1, 2)}
        assert check_window_connectivity(schedule, 8) is None

    def test_isolated_node_fails_window_zero(self):
        schedule = StaticSchedule(3, normalize_edges([(0, 1)], 3))
        assert check_window_connectivity(schedule, 4) == 0

    def test_random_schedule_deterministic(self):
        a = RandomSchedule(5, 0.4, window=3, seed=123)
        b = RandomSchedule(5, 0.4, window=3, seed=123)
        for t in range(1, 40):
            assert a.edges_at(t) == b.edges_at(t)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        p=st.just(0.0) | st.floats(0.0, 0.3),
        window=st.integers(1, 4),
        windows=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=70, p=0.0, window=1, windows=3, seed=0)
    @example(n=65, p=0.01, window=3, windows=2, seed=7)
    def test_random_schedule_window_connected_by_construction(self, n, p, window, windows,
                                                              seed):
        # the repair connects every whole window, so the check draws nothing
        schedule = RandomSchedule(n, p, window, seed)
        edges = netgraph.edge_sets(round_rows(schedule, 1, windows * window + 1), n)
        for w in range(windows):
            union = chain(*edges[w * window:(w + 1) * window])
            assert connected_components(union, n) == [list(range(n))]

        def no_draw(*args):
            raise AssertionError("the connectivity check drew a random block")

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(netgraph, "repaired_rows", no_draw)
            assert check_window_connectivity(schedule, 45_000) is None

    def test_random_schedule_seed_changes_draws(self):
        a = RandomSchedule(5, 0.4, window=3, seed=1)
        b = RandomSchedule(5, 0.4, window=3, seed=2)
        assert any(a.edges_at(t) != b.edges_at(t) for t in range(1, 20))

    def test_random_schedule_draws_and_repairs_are_pinned(self):
        # the last rounds of windows 0, 1 and 2 (t = 2, 4, 6) carry repair edges
        schedule = RandomSchedule(4, 0.2, window=2, seed=5)
        expected = [set(), {(0, 3), (1, 2), (1, 3)}, {(0, 3), (1, 2)}, {(0, 1)},
                    {(1, 2)}, {(0, 1), (1, 3)}]
        assert [schedule.edges_at(t) for t in range(1, 7)] == expected

    def test_connectivity_horizon_whole_windows(self, monkeypatch):
        # period 3, window 2: three distinct windows, steps (0, 1), (2, 0) and
        # (1, 2); only the third misses step 0, the one with edges
        steps = (frozenset({(0, 1), (1, 2)}), frozenset(), frozenset())
        schedule = PeriodicSchedule(3, steps, window=2)
        reads = []
        read = PeriodicSchedule.graphs_between
        monkeypatch.setattr(PeriodicSchedule, "graphs_between",
                            lambda self, t0, t1: reads.append((t0, t1)) or read(self, t0, t1))
        assert check_window_connectivity(schedule, 45_000) == 2
        assert check_window_connectivity(schedule, 6) == 2
        assert check_window_connectivity(schedule, 5) is None  # window 2 ends in round 6
        assert check_window_connectivity(schedule, 1) is None  # at least one window
        assert reads == [(1, 7), (1, 7), (1, 5), (1, 3)]

    def test_cyclic_schedule_checks_every_distinct_window(self):
        # period 6, window 4: windows 0, 1 and 2 hold steps 0-3, 4-1 and 2-5,
        # and window 3 is window 0 again; only window 2 misses steps 0 and 1
        steps = (frozenset({(0, 1)}), frozenset({(1, 2)})) + (frozenset(),) * 4
        assert check_window_connectivity(PeriodicSchedule(3, steps, window=4), 45_000) == 2
        assert check_window_connectivity(PeriodicSchedule(3, steps, window=4), 11) is None
        # 101 steps, the last one empty, at window 1: window 100 fails
        steps = (frozenset({(0, 1)}),) * 100 + (frozenset(),)
        assert check_window_connectivity(PeriodicSchedule(2, steps, window=1), 3000) == 100
        assert check_window_connectivity(PeriodicSchedule(2, steps, window=1), 100) is None


class TestBlockGraphs:
    """A block's graphs: one graph index per round into pair rows, one row
    per round of a random block and one per step of a cyclic schedule."""

    def test_entries_match_the_edge_sets(self):
        schedule = RandomSchedule(5, 0.4, window=2, seed=4)
        block = block_rows(round_rows(schedule, 1, 30), 5)
        for t, w_rows in enumerate(block, start=1):
            edges = schedule.edges_at(t)
            assert w_rows == mixing_rows(metropolis_weights(edges, 5))
            assert row_neighbors(w_rows) == neighbor_lists(edges, 5)

    def test_equal_edge_sets_mix_alike(self):
        line = frozenset({(0, 1), (1, 2)})
        schedule = PeriodicSchedule(3, (line, frozenset({(0, 1)}), line), window=3)
        graph, rows = schedule.graphs_between(1, 5)
        assert graph.tolist() == [0, 1, 2, 0]
        assert len(rows) == 3  # three steps' graphs
        one, two, three, four = csr_rows(graph, rows, 3)
        assert one == three == four != two
        # a random block gives each round a graph; equal rows mix alike,
        # and distinct rows do not (4 regions: 64 graphs)
        schedule = RandomSchedule(4, 0.45, window=2, seed=0)
        graph, rows = schedule.graphs_between(1, 201)
        assert graph.tolist() == list(range(200)) and len(rows) == 200
        by_edges = {}
        for t, w_rows in enumerate(csr_rows(graph, rows, 4), start=1):
            assert by_edges.setdefault(schedule.edges_at(t), w_rows) == w_rows
        assert len({repr(w_rows) for w_rows in by_edges.values()}) == len(by_edges) < 64

    def test_bounded_on_many_distinct_graphs(self):
        # 12 regions: nearly every round draws a new edge set; a block
        # holds one graph per round, its mixing sized from its edges
        schedule = RandomSchedule(12, 0.45, window=2, seed=0)
        graph, rows = schedule.graphs_between(2049, 3073)
        assert graph.dtype == np.int32 and graph.tolist() == list(range(1024))
        assert rows.dtype == bool and rows.shape == (1024, 66) and rows.flags.c_contiguous
        assert rows.tolist() == round_rows(schedule, 2049, 3073).tolist()
        indptr, col, weight = mixing_csr(rows, 12)
        assert indptr.dtype == np.int64 and len(indptr) == 12 * 1024 + 1
        assert col.dtype == np.int32
        assert len(col) == len(weight) == indptr[-1] == 12 * 1024 + 2 * rows.sum()
        assert block_rows(rows[:1], 12)[0] == mixing_rows(
            metropolis_weights(schedule.edges_at(2049), 12))

    def test_no_memory_for_the_repair_is_a_memory_error(self, monkeypatch):
        monkeypatch.setattr(_engine, "draw_repaired", lambda *args: -1)
        with pytest.raises(MemoryError, match="no working memory for the window repair"):
            RandomSchedule(4, 0.5, window=2, seed=0).graphs_between(1, 10)

    def test_random_schedule_read_once_per_round(self, monkeypatch):
        # one draw per block read, each round of the block and of the
        # window it starts in drawn once; the last round of each window
        # that ends in the block carries the scalar reference's repair
        draws = []
        draw = _engine.draw_repaired

        def counted_draw(*args):
            first, count = args[5:7]  # the block's counters
            draws.append(list(range(first, first + count)))
            return draw(*args)

        monkeypatch.setattr(_engine, "draw_repaired", counted_draw)
        schedule = RandomSchedule(6, 0.1, window=3, seed=1)
        # the block starts and ends inside windows 1 and 16
        block = block_rows(round_rows(schedule, 5, 50), 6)
        assert draws == [list(range(4, 50))]
        raw = netgraph.edge_sets(draw_edges(1, range(4, 50), 6, 0.1), 6)  # round t at t - 4
        repaired = 0
        for w in range(1, 16):  # window w holds rounds 3w + 1 .. 3w + 3
            rounds = raw[3 * w - 3:3 * w]
            repair = repair_edges(connected_components(chain(*rounds), 6), 1, w)
            repaired += bool(repair)
            assert row_neighbors(block[3 * w + 3 - 5]) == neighbor_lists(rounds[-1] | repair, 6)
        assert repaired
        draws.clear()
        assert check_window_connectivity(schedule, 30) is None
        assert draws == []


class TestScheduleMixing:
    """A static or periodic schedule builds its steps' pair rows once, and
    hands a block of rounds them and the graph of each round's step."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        period=st.integers(1, 9),
        seed=st.integers(0, 2**32),
        static=st.booleans(),
        t0=st.integers(1, 5000),
        length=st.integers(0, 40),
    )
    @example(n=1, period=1, seed=0, static=True, t0=1, length=3)
    def test_mixing_is_the_mixing_block_of_the_rows(self, n, period, seed, static, t0, length):
        steps = netgraph.edge_sets(draw_edges(seed, range(period), n, 0.5), n)
        if static:
            schedule = StaticSchedule(n, steps[0])
        else:
            schedule = PeriodicSchedule(n, tuple(steps), window=period)
        t1 = t0 + length
        graph, rows = schedule.graphs_between(t0, t1)
        assert graph.dtype == np.int32 and graph.shape == (length,)
        length_of_cycle = 1 if static else period
        assert rows.dtype == bool and rows.shape == (length_of_cycle, n * (n - 1) // 2)
        assert graph.tolist() == [(t - 1) % length_of_cycle for t in range(t0, t1)]
        assert csr_rows(graph, rows, n) == block_rows(round_rows(schedule, t0, t1), n)
        # every block indexes the same rows
        assert schedule.graphs_between(t1, t1 + 5)[1] is rows

    def test_steps_become_rows_once(self, monkeypatch):
        calls = []
        build = netgraph.pair_rows

        def counted(graphs, n):
            calls.append(len(graphs))
            return build(graphs, n)

        monkeypatch.setattr(netgraph, "pair_rows", counted)
        line = frozenset({(0, 1), (1, 2)})
        for schedule in (StaticSchedule(3, line),
                         PeriodicSchedule(3, (line, frozenset({(0, 2)})), window=2)):
            for t0 in (1, 7, 100):
                round_rows(schedule, t0, t0 + 50)
            assert check_window_connectivity(schedule, 1000) is None
        assert calls == [1, 2]


class TestMixingBlock:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 29),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        rounds=st.integers(0, 12),
        same=st.booleans(),
    )
    @example(n=1, p=0.5, seed=0, rounds=3, same=False)
    @example(n=4, p=0.5, seed=0, rounds=0, same=False)
    @example(n=29, p=0.5, seed=0, rounds=12, same=True)
    def test_rows_and_neighbors_match_scalar_reference(self, n, p, seed, rounds, same):
        # same: every round of the block draws the same graph
        counters = [1] * rounds if same else range(1, rounds + 1)
        rows = draw_edges(seed, counters, n, p)
        edges = netgraph.edge_sets(rows, n)
        assert len(edges) == rounds
        if same:
            assert all(e == edges[0] for e in edges)
        block = block_rows(rows, n)
        assert len(block) == rounds
        for e, w_rows in zip(edges, block):
            W = scalar_metropolis(e, n)
            assert metropolis_weights(e, n).tobytes() == W.tobytes()
            assert w_rows == mixing_rows(W)
            assert row_neighbors(w_rows) == neighbor_lists(e, n)
        # equal rows mix alike, and distinct rows do not
        assert [block[a] == block[b] for a in range(rounds) for b in range(rounds)] == [
            edges[a] == edges[b] for a in range(rounds) for b in range(rounds)]


def reference_edges(schedule: RandomSchedule, t: int) -> frozenset:
    """Round t of a random schedule, one scalar splitmix draw per pair."""
    n, B, seed = schedule.n, schedule.window, schedule.seed
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def raw(tau):
        return frozenset(
            pair for k, pair in enumerate(pairs)
            if unit_float(mix64(seed, STREAM_EDGES, tau, k)) < schedule.edge_probability
        )

    edges = raw(t)
    w, offset = divmod(t - 1, B)
    if offset == B - 1:
        union = set().union(*(raw(tau) for tau in range(w * B + 1, t + 1)))
        edges |= repair_edges(connected_components(union, n), seed, w)
    return edges


class TestBlockDraw:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        window=st.integers(1, 5),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(-(2**64), 2**65),
        t0=st.integers(1, 40),
        length=st.integers(0, 25),
    )
    @example(n=12, window=5, p=0.1, seed=2**64 - 1, t0=3, length=24)
    def test_block_matches_scalar_reference(self, n, window, p, seed, t0, length):
        schedule = RandomSchedule(n, p, window, seed)
        expected = [reference_edges(schedule, t) for t in range(t0, t0 + length)]
        rows = round_rows(schedule, t0, t0 + length)
        assert rows.dtype == bool and rows.shape == (length, n * (n - 1) // 2)
        assert netgraph.edge_sets(rows, n) == expected
        # reads are pure: a second read gives the same edges
        assert netgraph.edge_sets(round_rows(schedule, t0, t0 + length), n) == expected
        if length:
            assert schedule.edges_at(t0) == expected[0]

    @given(
        seed=st.integers(-(2**70), 2**70),
        tag=st.integers(0, 2**64 - 1),
        rows=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        cols=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    @example(seed=2**63, tag=0x45, rows=[0], cols=[0])
    @example(seed=-1, tag=0x45, rows=[1, 2**63], cols=[2**64 - 1])
    def test_mix64_grid_matches_scalar(self, seed, tag, rows, cols):
        grid = mix64_grid(seed, tag, rows, cols)
        assert grid.dtype == np.uint64
        assert grid.tolist() == [[mix64(seed, tag, r, c) for c in cols] for r in rows]

    def test_random_family_schedule_is_pinned(self):
        # SHA-256 of the rounds' sorted edge lists, one repr per line, that
        # the random family's seed-0 scenario (4 regions) draws over the
        # 45 000-round horizon, recorded from the per-round scalar draw
        schedule = RandomSchedule(4, 0.45, window=2, seed=0)
        digest = hashlib.sha256()
        for t0 in range(1, 45_001, 1023):  # blocks that split windows
            rows = round_rows(schedule, t0, min(t0 + 1023, 45_001))
            for edges in netgraph.edge_sets(rows, 4):
                digest.update(repr(sorted(edges)).encode("ascii") + b"\n")
        assert digest.hexdigest() == (
            "49f7d7119ad2799ce636fcd4c06328adfcac5f064e3d2345422eb77c797e1576"
        )


class TestHelpers:
    def test_normalize_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_edges([(0, 4)], 4)

    def test_normalize_drops_self_loops(self):
        assert normalize_edges([(1, 1), (0, 1)], 2) == {(0, 1)}

    def test_connected_components(self):
        rows = pair_rows([frozenset({(0, 1), (2, 3)})], 5)
        assert window_labels(rows, 5).tolist() == component_labels(rows, 5).tolist() == [
            [0, 0, 2, 2, 4]]
        assert connected_components([(0, 1), (2, 3)], 5) == [[0, 1], [2, 3], [4]]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_connected_rows_on_paths(self, n):
        # a path in shuffled node order is the longest way to reach
        # everything; dropping any one of its edges disconnects it
        order = np.random.default_rng(n).permutation(n).tolist()
        path = [(min(a, b), max(a, b)) for a, b in zip(order, order[1:])]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rows = np.array([[pair in path for pair in pairs]]
                        + [[pair in path and pair != cut for pair in pairs] for cut in path])
        rows = rows.reshape(len(rows), len(pairs))
        labels = window_labels(rows, n)
        expected = []
        for edges in netgraph.edge_sets(rows, n):
            expected.append([0] * n)
            for component in connected_components(edges, n):
                for v in component:
                    expected[-1][v] = component[0]
        assert labels.tolist() == component_labels(rows, n).tolist() == expected
        assert (~labels.any(axis=1)).tolist() == [True] + [False] * len(path)

    def test_pair_rows_take_either_order(self):
        # schedules may hold (j, i) pairs; they mix and connect like (i, j)
        reversed_line = StaticSchedule(4, frozenset({(1, 0), (2, 1), (3, 2)}))
        assert pair_rows([reversed_line.edges], 4).tolist() == [[1, 0, 0, 1, 0, 1]]
        assert round_rows(reversed_line, 3, 5).tolist() == [[1, 0, 0, 1, 0, 1]] * 2
        assert block_rows(round_rows(reversed_line, 1, 2), 4)[0] == mixing_rows(
            scalar_metropolis(LINE4, 4))
        assert check_window_connectivity(reversed_line, 4) is None

    def test_single_node_connected(self):
        rows = np.zeros((1, 0), dtype=bool)
        assert window_labels(rows, 1).tolist() == component_labels(rows, 1).tolist() == [[0]]
        assert check_window_connectivity(StaticSchedule(1, frozenset()), 5) is None

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        window=st.integers(1, 4),
        period=st.integers(1, 6),
        p=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32 - 1),
        max_rounds=st.integers(1, 60),
    )
    def test_window_connectivity_matches_scalar_reference(self, n, window, period, p, seed,
                                                          max_rounds):
        # the first disconnected window among the whole windows within
        # max_rounds (at least one), read round by round through edges_at,
        # is found among the period / gcd(period, window) distinct ones
        rng = np.random.default_rng(seed)
        steps = tuple(frozenset(random_graph(rng, n, p)) for _ in range(period))
        schedule = PeriodicSchedule(n, steps, window)
        windows = max(1, max_rounds // window)
        expected = None
        for w in range(windows):
            rounds = range(w * window + 1, (w + 1) * window + 1)
            union = chain(*(schedule.edges_at(t) for t in rounds))
            if len(connected_components(union, n)) > 1:
                expected = w
                break
        assert expected is None or expected < period // gcd(period, window)
        assert check_window_connectivity(schedule, max_rounds) == expected

    def test_neighbor_lists_sorted(self):
        (w_rows,) = block_rows(pair_rows([frozenset({(0, 2), (0, 1)})], 3), 3)
        assert row_neighbors(w_rows) == neighbor_lists([(2, 0), (0, 1)], 3) == [[1, 2], [0], [0]]
