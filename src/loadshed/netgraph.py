"""Time-varying communication graphs and doubly-stochastic mixing matrices.

Graphs are undirected over nodes 0..n-1 and stored as frozensets of
ordered pairs (i, j) with i < j.  Schedules map a 1-based round counter to
an edge set; all three kinds (static, periodic, seeded random) are pure
functions of (seed, t), so any round can be re-derived independently.
They are read a block of rounds at a time (``edges_between``); a random
schedule draws a block as one vectorised splitmix matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .seeding import STREAM_EDGES, STREAM_REPAIR, mix64, mix64_grid, unit_float

Edge = tuple[int, int]


def normalize_edges(edges: Iterable[Sequence[int]], n: int) -> frozenset[Edge]:
    """Canonicalize an undirected edge list; self-loops are implicit."""
    out: set[Edge] = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside node range [0, {n})")
        if i == j:
            continue
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def connected_components(edges: Iterable[Edge], n: int) -> list[list[int]]:
    adjacency = neighbor_lists(edges, n)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        group = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    group.append(v)
                    stack.append(v)
        components.append(sorted(group))
    return components


def is_connected(edges: Iterable[Edge], n: int) -> bool:
    return len(connected_components(edges, n)) <= 1


def metropolis_weights(edges: Iterable[Edge], n: int) -> np.ndarray:
    """Metropolis-Hastings mixing matrix for an undirected edge set.

    Off-diagonal weights are 1/(1 + max degree of the endpoints); the
    diagonal absorbs the remainder.  The result is symmetric, doubly
    stochastic, has a positive diagonal, and every nonzero entry is at
    least 1/n.
    """
    edge_list = sorted(normalize_edges(edges, n))
    degree = [0] * n
    for i, j in edge_list:
        degree[i] += 1
        degree[j] += 1
    W = np.zeros((n, n))
    for i, j in edge_list:
        w = 1.0 / (1.0 + max(degree[i], degree[j]))
        W[i, j] = w
        W[j, i] = w
    for i in range(n):
        W[i, i] = 1.0 - W[i].sum()
    return W


def stochasticity_defect(W: np.ndarray) -> float:
    """Largest deviation of any row or column sum from 1."""
    rows = np.abs(W.sum(axis=1) - 1.0).max()
    cols = np.abs(W.sum(axis=0) - 1.0).max()
    return float(max(rows, cols))


def draw_edges(seed: int, counters, n: int, edge_probability: float) -> np.ndarray:
    """Bernoulli edge draws, one row per counter: pair k of the pairs
    (i, j), i < j, in lexicographic order appears when the splitmix draw
    at (counter, k) falls below ``edge_probability``."""
    pairs = np.arange(n * (n - 1) // 2)
    return unit_float(mix64_grid(seed, STREAM_EDGES, counters, pairs)) < edge_probability


def edge_sets(draws: np.ndarray, n: int) -> list[frozenset[Edge]]:
    """The edge set of each row of ``draws``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [frozenset(compress(pairs, row)) for row in draws.tolist()]


def connected_rows(draws: np.ndarray, n: int) -> np.ndarray:
    """Whether each row's edge set connects the n nodes (by squaring reachability)."""
    reach = np.zeros((draws.shape[0], n, n), dtype=bool)
    i, j = np.triu_indices(n, 1)
    reach[:, i, j] = reach[:, j, i] = draws
    reach[:, range(n), range(n)] = True
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach[:, 0].all(axis=1)


def repair_edges(components: list[list[int]], seed: int, key: int) -> frozenset[Edge]:
    """Edges that connect a window's union graph, given its connected
    components; empty when it is connected.

    The components are put in an order seeded by ``key`` and their
    smallest nodes are chained in that order.
    """
    if len(components) <= 1:
        return frozenset()
    order = sorted(
        range(len(components)), key=lambda k: mix64(seed, STREAM_REPAIR, key, k)
    )
    reps = [components[k][0] for k in order]
    return frozenset((min(a, b), max(a, b)) for a, b in zip(reps, reps[1:]))


def repaired_edge_sets(seed: int, counters, n: int, edge_probability: float, window: int,
                       keys: Sequence[int]) -> list[frozenset[Edge]]:
    """Edge sets drawn at ``counters``, in windows of ``window`` consecutive
    counters.  When the union of window k is disconnected, its last round gets
    the ``repair_edges`` chain keyed ``keys[k]``; there is one window per key."""
    draws = draw_edges(seed, counters, n, edge_probability)
    edges = edge_sets(draws, n)
    unions = draws[: len(keys) * window].reshape(len(keys), window, draws.shape[1]).any(axis=1)
    broken = np.flatnonzero(~connected_rows(unions, n))
    for k, union in zip(broken.tolist(), edge_sets(unions[broken], n)):
        edges[(k + 1) * window - 1] |= repair_edges(connected_components(union, n), seed, keys[k])
    return edges


@dataclass(frozen=True)
class StaticSchedule:
    """The same edge set at every round."""

    n: int
    edges: frozenset[Edge]
    window: int = 1

    def edges_between(self, t0: int, t1: int) -> list[frozenset[Edge]]:
        return [self.edges] * (t1 - t0)

    def edges_at(self, t: int) -> frozenset[Edge]:
        return self.edges_between(t, t + 1)[0]


@dataclass(frozen=True)
class PeriodicSchedule:
    """Cycle through a fixed tuple of edge sets, one per round."""

    n: int
    steps: tuple[frozenset[Edge], ...]
    window: int

    def __post_init__(self):
        if not self.steps:
            raise ValueError("periodic schedule needs at least one step")

    def edges_between(self, t0: int, t1: int) -> list[frozenset[Edge]]:
        return [self.steps[(t - 1) % len(self.steps)] for t in range(t0, t1)]

    def edges_at(self, t: int) -> frozenset[Edge]:
        return self.edges_between(t, t + 1)[0]


@dataclass(frozen=True)
class RandomSchedule:
    """Per-round Bernoulli edges with window connectivity enforced.

    Each potential edge appears independently with ``edge_probability``.
    On the last round of every window the union over the window is
    checked; if disconnected, a seeded chain across its components is
    added, so every window union is connected by construction.
    """

    n: int
    edge_probability: float
    window: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge probability outside [0, 1]")
        if self.window < 1:
            raise ValueError("window must be positive")

    def edges_between(self, t0: int, t1: int) -> list[frozenset[Edge]]:
        """Edge sets of rounds t0..t1-1, drawn in one block from the start
        of t0's window; each disconnected window that ends in the range
        gets its repair, keyed by the window's index."""
        B = self.window
        w0 = (t0 - 1) // B  # window w holds rounds w*B + 1 .. (w + 1)*B
        edges = repaired_edge_sets(self.seed, np.arange(w0 * B + 1, t1), self.n,
                                   self.edge_probability, B, range(w0, (t1 - 1) // B))
        return edges[t0 - 1 - w0 * B:]

    def edges_at(self, t: int) -> frozenset[Edge]:
        return self.edges_between(t, t + 1)[0]


GraphSchedule = StaticSchedule | PeriodicSchedule | RandomSchedule


@dataclass(frozen=True)
class ConnectivityReport:
    passed: bool
    windows_checked: int
    failing_window: int | None = None
    failing_nodes: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.passed:
            return f"window connectivity: pass ({self.windows_checked} windows)"
        return (
            f"window connectivity: FAIL at window {self.failing_window} "
            f"(components led by {list(self.failing_nodes)})"
        )


# windows of a schedule that validation and certificates check for
# connectivity, when the run is that long
CONNECTIVITY_WINDOWS = 100


def check_window_connectivity(schedule: GraphSchedule, max_rounds: int) -> ConnectivityReport:
    """Verify that every window's union graph is connected, over the whole
    windows within ``min(max_rounds, CONNECTIVITY_WINDOWS * window)``
    rounds, at least one."""
    B = schedule.window
    windows = max(1, min(max_rounds // B, CONNECTIVITY_WINDOWS))
    edges = schedule.edges_between(1, windows * B + 1)
    for w in range(windows):
        components = connected_components(chain(*edges[w * B:(w + 1) * B]), schedule.n)
        if len(components) > 1:
            return ConnectivityReport(False, windows, w, tuple(c[0] for c in components))
    return ConnectivityReport(True, windows)


def mixing_rows(W: np.ndarray) -> list[list[tuple[int, float]]]:
    """Sparse row view of a mixing matrix in ascending column order.

    The protocol engine reduces neighbor sums in this fixed order so that
    results are bit-identical regardless of evaluation parallelism.
    """
    n = W.shape[0]
    return [
        [(k, float(W[j, k])) for k in range(n) if W[j, k] != 0.0] for j in range(n)
    ]


def neighbor_lists(edges: Iterable[Edge], n: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        out[i].append(j)
        out[j].append(i)
    for row in out:
        row.sort()
    return out


class Mixing(NamedTuple):
    """Mixing structure of one edge set."""

    rows: list[list[tuple[int, float]]]
    neighbors: list[list[int]]


# MixingCache empties itself at the start of a block once it holds more
# entries than this: random schedules over many regions draw a new edge set
# almost every round, static and periodic ones and the 4-region random
# family (64 graphs) never get near it
MIXING_CACHE_ENTRIES = 1024


class MixingCache:
    """Per-round mixing structure of a schedule, built once per distinct
    edge set (one dict lookup per round; frozensets cache their hash).

    It holds at most ``MIXING_CACHE_ENTRIES`` entries plus one block's worth;
    each block's list stays valid after the cache empties.
    """

    def __init__(self, schedule: GraphSchedule):
        self.schedule = schedule
        self._by_edges: dict[frozenset[Edge], Mixing] = {}

    def _build(self, edges: frozenset[Edge]) -> Mixing:
        entry = self._by_edges.get(edges)
        if entry is None:
            n = self.schedule.n
            entry = Mixing(mixing_rows(metropolis_weights(edges, n)), neighbor_lists(edges, n))
            self._by_edges[edges] = entry
        return entry

    def block(self, t0: int, t1: int) -> list[Mixing]:
        """Mixing structures of rounds t0..t1-1 (1-based)."""
        if len(self._by_edges) > MIXING_CACHE_ENTRIES:
            self._by_edges.clear()
        return [self._build(edges) for edges in self.schedule.edges_between(t0, t1)]
