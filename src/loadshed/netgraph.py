"""Time-varying communication graphs: schedules, their pair rows, and the
window connectivity check.

Graphs are undirected over nodes 0..n-1.  Schedules map a 1-based round
counter to a graph; all three kinds (static, periodic, seeded random) are
pure functions of (seed, t), so any round can be re-derived independently.
Each schedule hands out a block of rounds as boolean pair rows (one column
per pair i < j in lexicographic order) and one int32 index per round into
them (``graphs_between``): a static or periodic schedule builds its steps'
rows once and indexes them by round, and a random schedule draws each
block's, one row per round, which repeat when the graph has few pairs.
The chunk kernel dedupes a block's rows and builds each distinct row's
Metropolis mixing once per call.  Frozensets of pairs appear only at the
edges: static and periodic schedules are built from them (a scenario's
parser maps its region ids to these node indices); ``edges_at`` and
``edge_sets`` hand them out.  Each schedule class names its JSON kind
(``kind``).  The compiled engine
(``_engine.c``) does the per-graph work: it draws a random schedule's block
of rows and repairs its disconnected windows (``repaired_rows``), and finds
each window's components by union-find, which the connectivity check reads
for the distinct windows of a cyclic schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import gcd
from typing import ClassVar, Iterable, Sequence

import numpy as np

from . import _engine
from .seeding import STREAM_EDGES, STREAM_REPAIR
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


def edge_sets(rows: np.ndarray, n: int) -> list[frozenset[Edge]]:
    """The edge set of each row of pair columns."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [frozenset(compress(pairs, row)) for row in rows.tolist()]


def repaired_rows(seed: int, counters: range, n: int, edge_probability: float, window: int,
                  keys: Sequence[int]) -> np.ndarray:
    """Pair rows drawn at the consecutive ``counters``, in windows of
    ``window`` of them; there is one window per key.

    Pair k of the pairs (i, j), i < j, in lexicographic order appears at
    counter c when ``unit_float(mix64(seed, STREAM_EDGES, c, k))`` falls
    below ``edge_probability``.  When the union of window w is
    disconnected, its components are put in an order seeded by
    ``keys[w]`` (ties keep ascending component order), and the chain
    through their smallest nodes, in that order, is added to the window's
    last round.  The engine draws and repairs (``_engine.draw_repaired``).
    """
    rows = np.empty((len(counters), n * (n - 1) // 2), dtype=bool)
    keys = np.asarray(keys, dtype=np.uint64)
    if window < 1 or len(keys) * window > len(rows):
        raise ValueError(f"{len(keys)} windows of {window} rounds in {len(rows)} counters")
    if _engine.draw_repaired(seed, STREAM_EDGES, STREAM_REPAIR, n, edge_probability,
                             counters.start, len(rows), window, len(keys), keys.ctypes.data,
                             rows.ctypes.data):
        raise MemoryError("no working memory for the window repair")
    return rows


class _CyclicSchedule:
    """A schedule that cycles through fixed steps: round t takes step
    (t - 1) % period.  The steps' pair rows are built once."""

    @cached_property
    def _rows(self) -> np.ndarray:
        return pair_rows(self._steps, self.n)

    def graphs_between(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Rounds t0..t1-1 as an int32 index of each round's step into the
        steps' pair rows, and those rows (the same array for every block)."""
        return (np.arange(t0 - 1, t1 - 1) % len(self._rows)).astype(np.int32), self._rows


@dataclass(frozen=True)
class StaticSchedule(_CyclicSchedule):
    """The same edge set at every round."""

    kind: ClassVar[str] = "static"
    n: int
    edges: frozenset[Edge]
    window: int = 1

    @property
    def _steps(self) -> tuple[frozenset[Edge], ...]:
        return (self.edges,)

    def edges_at(self, t: int) -> frozenset[Edge]:
        graph, rows = self.graphs_between(t, t + 1)
        return edge_sets(rows[graph], self.n)[0]


@dataclass(frozen=True)
class PeriodicSchedule(_CyclicSchedule):
    """Cycle through a fixed tuple of edge sets, one per round."""

    kind: ClassVar[str] = "periodic"
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
        graph, rows = self.graphs_between(t, t + 1)
        return edge_sets(rows[graph], self.n)[0]


@dataclass(frozen=True)
class RandomSchedule:
    """Per-round Bernoulli edges with window connectivity enforced.

    Each potential edge appears independently with ``edge_probability``.
    On the last round of every window the union over the window is
    checked; if disconnected, a seeded chain across its components is
    added, so every window union is connected by construction.
    """

    kind: ClassVar[str] = "random"
    n: int
    edge_probability: float
    window: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge probability outside [0, 1]")
        if self.window < 1:
            raise ValueError("window must be positive")

    def graphs_between(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Rounds t0..t1-1 as one graph each: the int32 index of each
        round's row, and the pair rows, drawn in one block from the start
        of t0's window; each disconnected window that ends in the range
        gets its repair, keyed by the window's index."""
        B = self.window
        w0 = (t0 - 1) // B  # window w holds rounds w*B + 1 .. (w + 1)*B
        rows = repaired_rows(self.seed, range(w0 * B + 1, t1), self.n,
                             self.edge_probability, B, np.arange(w0, (t1 - 1) // B))
        return np.arange(t1 - t0, dtype=np.int32), rows[t0 - 1 - w0 * B:]

    def edges_at(self, t: int) -> frozenset[Edge]:
        graph, rows = self.graphs_between(t, t + 1)
        return edge_sets(rows[graph], self.n)[0]


GraphSchedule = StaticSchedule | PeriodicSchedule | RandomSchedule


def check_window_connectivity(schedule: GraphSchedule, max_rounds: int) -> int | None:
    """The first window whose union graph is disconnected, or None.

    A random schedule is connected by construction, and nothing is drawn.
    A cyclic schedule's window unions repeat every ``period / gcd(period,
    window)`` windows; each distinct one among the whole windows within
    ``max_rounds`` rounds, at least one, is read through ``graphs_between``.
    """
    if isinstance(schedule, RandomSchedule):
        return None
    B, n, period = schedule.window, schedule.n, len(schedule._rows)
    windows = max(1, min(max_rounds // B, period // gcd(period, B)))
    graph, rows = schedule.graphs_between(1, windows * B + 1)
    rows = rows[graph]
    labels = np.empty((windows, n), np.int64)  # the smallest node each node reaches
    _engine.components(n, len(rows), B, rows.ctypes.data, labels.ctypes.data)
    broken = np.flatnonzero(labels.any(axis=1))
    return int(broken[0]) if broken.size else None
