"""Time-varying communication graphs and doubly-stochastic mixing matrices.

Graphs are undirected over nodes 0..n-1.  Schedules map a 1-based round
counter to a graph; all three kinds (static, periodic, seeded random) are
pure functions of (seed, t), so any round can be re-derived independently.
They are read a block of rounds at a time (``edges_between``) as boolean
pair rows: one row per round, one column per pair i < j in lexicographic
order.  Frozensets of pairs appear only at the edges: static and periodic
schedules are built from them; ``edges_at`` and ``edge_sets`` hand them
out.  A random schedule draws a block as one splitmix matrix of rows,
finds every window's components from one batched reachability product
(``component_labels``, which the connectivity check uses too), and writes
the repair chains of disconnected windows into the matrix.
Each schedule gives the engine a block's mixing as CSR arrays
(``mixing_between``), which ``mixing_block`` builds from one stack of
matrices (``metropolis_block``) over distinct rows: a static or periodic
schedule builds its steps' rows and mixing once and indexes them by round,
and a random schedule builds each block's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .seeding import STREAM_EDGES, STREAM_REPAIR, mix64_grid, unit_float
from .seeding import mix64  # noqa: F401  perfbench counts calls of netgraph.mix64

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


def _pair_column(i, j, n: int):
    """Column of pair (i, j), i < j, among the pairs in lexicographic order."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def pair_rows(graphs: Sequence[frozenset[Edge]], n: int) -> np.ndarray:
    """Edge sets (of pairs i != j) as boolean rows over the pair columns."""
    rows = np.zeros((len(graphs), n * (n - 1) // 2), dtype=bool)
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(graphs)), np.intp).reshape(-1, 2)
    of_set = np.arange(len(graphs)).repeat([len(e) for e in graphs])
    rows[of_set, _pair_column(ends.min(axis=1), ends.max(axis=1), n)] = True
    return rows


def _adjacency(rows: np.ndarray, n: int) -> np.ndarray:
    A = np.zeros((len(rows), n, n), dtype=bool)
    i, j = np.triu_indices(n, 1)
    A[:, i, j] = A[:, j, i] = rows
    return A


def metropolis_block(rows: np.ndarray, n: int) -> np.ndarray:
    """Metropolis-Hastings mixing matrix of each row of pair columns.

    Off-diagonal weights are 1/(1 + max degree of the endpoints); the
    diagonal absorbs the remainder.  Each matrix is symmetric, doubly
    stochastic, has a positive diagonal, and every nonzero entry is at
    least 1/n.
    """
    A = _adjacency(rows, n)
    degree = A.sum(axis=2)
    W = np.where(A, 1.0 / (1.0 + np.maximum(degree[:, :, None], degree[:, None, :])), 0.0)
    W[:, range(n), range(n)] = 1.0 - W.sum(axis=2)
    return W


def stochasticity_defect(W: np.ndarray) -> float:
    """Largest deviation of any row or column sum from 1."""
    rows = np.abs(W.sum(axis=1) - 1.0).max()
    cols = np.abs(W.sum(axis=0) - 1.0).max()
    return float(max(rows, cols))


def component_labels(rows: np.ndarray, n: int) -> np.ndarray:
    """The smallest node each node reaches, for each row of pair columns
    (by squaring reachability); a row is connected when every label is 0."""
    reach = _adjacency(rows, n) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=2)


def draw_edges(seed: int, counters, n: int, edge_probability: float) -> np.ndarray:
    """Bernoulli edge draws, one row per counter: pair k of the pairs
    (i, j), i < j, in lexicographic order appears when the splitmix draw
    at (counter, k) falls below ``edge_probability``."""
    pairs = np.arange(n * (n - 1) // 2)
    return unit_float(mix64_grid(seed, STREAM_EDGES, counters, pairs)) < edge_probability


def edge_sets(rows: np.ndarray, n: int) -> list[frozenset[Edge]]:
    """The edge set of each row of pair columns."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [frozenset(compress(pairs, row)) for row in rows.tolist()]


def repaired_rows(seed: int, counters, n: int, edge_probability: float, window: int,
                  keys: Sequence[int]) -> np.ndarray:
    """Pair rows drawn at ``counters``, in windows of ``window`` consecutive
    counters; there is one window per key.

    When the union of window k is disconnected, its components are put in
    an order seeded by ``keys[k]`` (ties keep ascending component order),
    and the chain through their smallest nodes, in that order, is added to
    the window's last round.
    """
    draws = draw_edges(seed, counters, n, edge_probability)
    unions = draws[: len(keys) * window].reshape(len(keys), window, draws.shape[1]).any(axis=1)
    labels = component_labels(unions, n)
    broken = np.flatnonzero(labels.any(axis=1))
    leaders = labels[broken] == np.arange(n)  # components in ascending order of their leaders
    count = leaders.sum(axis=1, keepdims=True)
    order = mix64_grid(seed, STREAM_REPAIR, np.asarray(keys)[broken], range(n))
    order[np.arange(n) >= count] = np.iinfo(np.uint64).max  # no such component: sorts last
    reps = np.take_along_axis(np.argsort(~leaders, axis=1, kind="stable"),
                              order.argsort(axis=1, kind="stable"), axis=1)
    a, b, link = reps[:, :-1], reps[:, 1:], np.arange(1, n) < count
    last = np.broadcast_to((broken[:, None] + 1) * window - 1, link.shape)
    draws[last[link], _pair_column(np.minimum(a, b)[link], np.maximum(a, b)[link], n)] = True
    return draws


class _CyclicSchedule:
    """A schedule that cycles through fixed steps: round t takes step
    (t - 1) % period.  The steps' pair rows and mixing are built once."""

    @cached_property
    def _rows(self) -> np.ndarray:
        return pair_rows(self._steps, self.n)

    @cached_property
    def _mixing(self) -> tuple[np.ndarray, ...]:
        return mixing_block(self._rows, self.n)

    def _step_of(self, t0: int, t1: int) -> np.ndarray:
        return np.arange(t0 - 1, t1 - 1) % len(self._rows)

    def edges_between(self, t0: int, t1: int) -> np.ndarray:
        return self._rows[self._step_of(t0, t1)]

    def mixing_between(self, t0: int, t1: int) -> tuple[np.ndarray, ...]:
        """``mixing_block`` of rounds t0..t1-1, read from the steps' graphs."""
        graph, *csr = self._mixing
        return (graph[self._step_of(t0, t1)], *csr)


@dataclass(frozen=True)
class StaticSchedule(_CyclicSchedule):
    """The same edge set at every round."""

    n: int
    edges: frozenset[Edge]
    window: int = 1

    @property
    def _steps(self) -> tuple[frozenset[Edge], ...]:
        return (self.edges,)

    def edges_at(self, t: int) -> frozenset[Edge]:
        return edge_sets(self.edges_between(t, t + 1), self.n)[0]


@dataclass(frozen=True)
class PeriodicSchedule(_CyclicSchedule):
    """Cycle through a fixed tuple of edge sets, one per round."""

    n: int
    steps: tuple[frozenset[Edge], ...]
    window: int

    def __post_init__(self):
        if not self.steps:
            raise ValueError("periodic schedule needs at least one step")

    @property
    def _steps(self) -> tuple[frozenset[Edge], ...]:
        return self.steps

    def edges_at(self, t: int) -> frozenset[Edge]:
        return edge_sets(self.edges_between(t, t + 1), self.n)[0]


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

    def edges_between(self, t0: int, t1: int) -> np.ndarray:
        """Pair rows of rounds t0..t1-1, drawn in one block from the start
        of t0's window; each disconnected window that ends in the range
        gets its repair, keyed by the window's index."""
        B = self.window
        w0 = (t0 - 1) // B  # window w holds rounds w*B + 1 .. (w + 1)*B
        rows = repaired_rows(self.seed, np.arange(w0 * B + 1, t1), self.n,
                             self.edge_probability, B, range(w0, (t1 - 1) // B))
        return rows[t0 - 1 - w0 * B:]

    def mixing_between(self, t0: int, t1: int) -> tuple[np.ndarray, ...]:
        """``mixing_block`` of rounds t0..t1-1."""
        return mixing_block(self.edges_between(t0, t1), self.n)

    def edges_at(self, t: int) -> frozenset[Edge]:
        return edge_sets(self.edges_between(t, t + 1), self.n)[0]


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
    B, n = schedule.window, schedule.n
    windows = max(1, min(max_rounds // B, CONNECTIVITY_WINDOWS))
    rows = schedule.edges_between(1, windows * B + 1)
    labels = component_labels(rows.reshape(windows, B, rows.shape[1]).any(axis=1), n)
    broken = np.flatnonzero(labels.any(axis=1))
    if not broken.size:
        return ConnectivityReport(True, windows)
    leaders = np.flatnonzero(labels[broken[0]] == np.arange(n))
    return ConnectivityReport(False, windows, int(broken[0]), tuple(leaders.tolist()))


def mixing_block(rows: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Mixing of a block of pair rows, as a graph index per round and CSR arrays.

    Equal rows (compared packed) share one graph index, and the Metropolis
    matrices of the distinct rows are built as one stack.  Returns
    ``(graph, indptr, col, weight)``: row j of graph g holds the entries
    ``indptr[g*n + j]`` to ``indptr[g*n + j + 1] - 1`` of ``col`` and
    ``weight``, in ascending column order, which is the order the engine
    reduces in so that results do not depend on evaluation order.
    """
    keys = np.zeros(len(rows), np.uint8)  # n = 1: no pair columns, one graph
    if rows.shape[1]:
        packed = np.packbits(rows, axis=1)
        # fixed-width bytes: equal exactly when the rows are, and numpy
        # sorts them about three times faster than raw void keys
        keys = packed.view(f"S{packed.shape[1]}").ravel()
    _, first, graph = np.unique(keys, return_index=True, return_inverse=True)
    W = metropolis_block(rows[first], n)
    indptr = np.zeros(len(first) * n + 1, np.int64)
    np.cumsum(np.count_nonzero(W, axis=2), out=indptr[1:])
    g, j, k = np.nonzero(W)
    return graph.astype(np.int32), indptr, k.astype(np.int32), W[g, j, k]
