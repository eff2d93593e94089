"""Shared fixtures: the step-function example set, the tie example, the
four-region continuous instance used across the suite, the big-integer
reference of the CCF's prefix sums, the load-by-load reference of the
greedy oracle, the numpy and scalar references of
the compiled graphs, of the compiled round engine and of its
deficit-tracking error, the verification oracles only the tests call, and
the kink-interpolated continuous closed form that
``oracle.continuous_solution`` is held to."""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np
import pytest

from loadshed import _engine
from loadshed.criticality import (
    Ccf,
    CriticalLoad,
    SurrogateCcf,
    build_ccf,
    default_ramp_width,
)
from loadshed.netgraph import normalize_edges, pair_rows
from loadshed.oracle import (
    BOUNDARY_TOL,
    ContinuousSolution,
    InfeasibleError,
    SheddingSolution,
    continuous_fill,
    deficit_segment,
    exact_z_hat,
)
from loadshed.seeding import STREAM_EDGES, mix64_grid, unit_float

# (power GW, criticality) pairs of the worked step-function example;
# ramp width 0.05
FIG_PAIRS = [
    (1.0, 0.1),
    (2.0, 0.15),
    (1.0, 0.2),
    (4.0, 0.4),
    (1.0, 0.4),
    (2.0, 0.5),
    (2.0, 0.7),
    (3.0, 0.8),
]
FIG_RAMP = 0.05

# small tie example: two loads share criticality 0.3, deficit 3
TIE_LOADS = [
    CriticalLoad(1, 1.0, 0.2),
    CriticalLoad(2, 2.0, 0.3),
    CriticalLoad(3, 2.0, 0.3),
    CriticalLoad(4, 3.0, 0.4),
]

# continuous instance: four regions, 1.2 GW capacity each, integer
# criticalities 1, 2, 2, 3, deficit 1.8 GW
CONTINUOUS_REGIONS = [(1.2, 1.0), (1.2, 2.0), (1.2, 3.0), (1.2, 2.0)]
CONTINUOUS_REGIONS_ORDERED = [(1.2, 1.0), (1.2, 2.0), (1.2, 2.0), (1.2, 3.0)]
CONTINUOUS_DEFICIT = 1.8


@pytest.fixture
def fig_loads() -> list[CriticalLoad]:
    return [CriticalLoad(i + 1, p, c) for i, (p, c) in enumerate(FIG_PAIRS)]


@pytest.fixture
def fig_ccf():
    return build_ccf(FIG_PAIRS)


def eval_ccf(ccf: Ccf, z: float) -> float:
    """Total power of loads with criticality <= z (right-continuous in z)."""
    idx = int(np.searchsorted(ccf.breakpoints, z, side="right"))  # bisect_right
    return float(ccf.cumulative[idx - 1]) if idx else 0.0


def min_gap(criticalities: Sequence[float]) -> float:
    """Smallest positive difference between distinct criticality values."""
    values = sorted(map(float, criticalities))
    gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
    if not gaps:
        raise ValueError("min_gap needs at least two distinct criticality values")
    return min(gaps)


_UNIT = 1 << 1074  # every finite float is a whole number of 2**-1074 units


def cumulative_reference(pairs) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The breakpoints and cumulative loads of (power, criticality) pairs in
    big integers: each breakpoint is the first criticality seen among its
    equals (a dict key), and each exact prefix sum in _UNITs is rounded once
    (int / int), which is its math.fsum, or an OverflowError where it is
    2**1024 or more.  ``build_ccf`` runs the engine's ``prefix_sums``."""
    groups: dict[float, list[float]] = {}
    for power, crit in pairs:
        if power < 0:
            raise ValueError(f"negative power {power}")
        if power > 0:
            groups.setdefault(crit, []).append(power)
    bps = sorted(groups)
    units = 0
    cumulative: list[float] = []
    for z in bps:
        for power in groups[z]:
            num, den = power.as_integer_ratio()  # den = 2**k, k <= 1074
            units += num << (1075 - den.bit_length())
        cumulative.append(units / _UNIT)
    return tuple(bps), tuple(cumulative)


def columns(loads: Sequence[CriticalLoad]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The ids, powers and criticalities of ``loads`` as the columns
    ``greedy_shed_set`` takes."""
    return ([l.id for l in loads], np.array([l.power for l in loads], dtype=np.float64),
            np.array([l.criticality for l in loads], dtype=np.float64))


def greedy_reference(
    loads: Sequence[CriticalLoad], deficit: float, ramp_width: float | None = None
) -> SheddingSolution:
    """``greedy_shed_set`` load by load: the loads sorted by (criticality,
    id) with a Python key, the prefix walked one load at a time, and the
    shed set filtered in input order."""
    ccf = build_ccf((l.power, l.criticality) for l in loads)
    i, _ = deficit_segment(ccf, deficit)
    prefix: list[CriticalLoad] = []
    acc = 0.0
    for load in sorted(loads, key=lambda l: (l.criticality, l.id)):
        if acc >= deficit:
            break
        prefix.append(load)
        acc += load.power

    if ramp_width is None:
        ramp_width = default_ramp_width(ccf.breakpoints)
    z_star, shed_total = float(ccf.breakpoints[i]), float(ccf.cumulative[i])
    return SheddingSolution(
        z_star=z_star,
        z_hat=exact_z_hat(SurrogateCcf(ccf, ramp_width), deficit),
        shed_total=shed_total,
        shed_ids=tuple(l.id for l in loads if l.criticality <= z_star),
        greedy_total=math.fsum(l.power for l in prefix),
        greedy_ids=tuple(l.id for l in prefix),
        boundary_case=abs(shed_total - deficit) <= BOUNDARY_TOL,
    )


def make_random_loads(rng, count: int, distinct: bool = True) -> list[CriticalLoad]:
    """Random loads with grid criticalities; optionally forced-distinct."""
    crits = []
    taken = set()
    while len(crits) < count:
        c = rng.integers(0, 10_001)
        if distinct:
            if c in taken:
                continue
            taken.add(c)
        crits.append(c / 10_000)
    powers = rng.uniform(0.5, 1.5, size=count)
    return [CriticalLoad(i + 1, float(powers[i]), crits[i]) for i in range(count)]


# Numpy references for the compiled graphs (loadshed/_engine.c): a
# vectorised splitmix draw, components by squaring reachability, and a
# stack of dense Metropolis matrices.


def draw_edges(seed: int, counters, n: int, edge_probability: float) -> np.ndarray:
    """Bernoulli edge draws, one row per counter: pair k of the pairs
    (i, j), i < j, in lexicographic order appears when the splitmix draw
    at (counter, k) falls below ``edge_probability``."""
    pairs = np.arange(n * (n - 1) // 2)
    return unit_float(mix64_grid(seed, STREAM_EDGES, counters, pairs)) < edge_probability


def _adjacency(rows: np.ndarray, n: int) -> np.ndarray:
    A = np.zeros((len(rows), n, n), dtype=bool)
    i, j = np.triu_indices(n, 1)
    A[:, i, j] = A[:, j, i] = rows
    return A


def component_labels(rows: np.ndarray, n: int) -> np.ndarray:
    """The smallest node each node reaches, for each row of pair columns
    (by squaring reachability); a row is connected when every label is 0."""
    reach = _adjacency(rows, n) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=2)


def metropolis_block(rows: np.ndarray, n: int) -> np.ndarray:
    """Metropolis-Hastings mixing matrix of each row of pair columns:
    off-diagonal weights 1/(1 + max degree of the endpoints), and the
    diagonal 1 minus numpy's sum of the row."""
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


# The engine's Metropolis weights, which its chunk kernel builds from a
# chunk's pair rows and reads as CSR arrays: no code outside the kernel
# reads them, so the tests bind the function themselves.
_metropolis = _engine._lib.metropolis
_metropolis.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
_metropolis.restype = ctypes.c_int64


def mixing_csr(rows: np.ndarray, n: int, pick=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_engine.c``'s ``metropolis`` of the pair rows ``rows[pick]`` (every
    row by default), read where ``rows`` holds them, as ``(indptr, col,
    weight)``: row j of graph g holds the entries ``indptr[g*n + j]`` to
    ``indptr[g*n + j + 1] - 1`` of ``col`` and ``weight``, in ascending
    column order."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    assert rows.ndim == 2 and rows.shape[1] == n * (n - 1) // 2
    pick = np.arange(len(rows), dtype=np.int32) if pick is None else np.asarray(pick, np.int32)
    entries = len(pick) * n + 2 * np.count_nonzero(rows[pick])  # every diagonal, each edge twice
    indptr = np.empty(len(pick) * n + 1, np.int64)
    col, weight = np.empty(entries, np.int32), np.empty(entries)
    assert _metropolis(n, len(pick), rows.ctypes.data, pick.ctypes.data, indptr.ctypes.data,
                       col.ctypes.data, weight.ctypes.data) == 0
    return indptr, col, weight


# Scalar references for the engine's mixing (``mixing_csr``): one graph,
# one Python loop each.


def scalar_metropolis(edges, n: int) -> np.ndarray:
    """Metropolis-Hastings weights of one normalized edge set, entry by entry."""
    edge_list = sorted(edges)
    degree = [0] * n
    for i, j in edge_list:
        degree[i] += 1
        degree[j] += 1
    W = np.zeros((n, n))
    for i, j in edge_list:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    for i in range(n):
        W[i, i] = 1.0 - W[i].sum()
    return W


def mixing_rows(W: np.ndarray) -> list[list[tuple[int, float]]]:
    """Nonzero ``(k, w)`` entries of each row of a mixing matrix, ascending."""
    n = W.shape[0]
    return [[(k, float(W[j, k])) for k in range(n) if W[j, k] != 0.0] for j in range(n)]


def neighbor_lists(edges, n: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        out[i].append(j)
        out[j].append(i)
    for row in out:
        row.sort()
    return out


def metropolis_weights(edges, n: int) -> np.ndarray:
    """Metropolis-Hastings mixing matrix of one undirected edge set."""
    return metropolis_block(pair_rows([normalize_edges(edges, n)], n), n)[0]


def block_rows(rows: np.ndarray, n: int) -> list[list[list[tuple[int, float]]]]:
    """Per round of a block of pair rows, the nonzero ``(k, w)`` entries of
    each row of its mixing matrix, read from the engine's CSR arrays."""
    return csr_rows(np.arange(len(rows)), rows, n)


def round_rows(schedule, t0: int, t1: int) -> np.ndarray:
    """The pair row of each round t0..t1-1 of a schedule, read through its
    ``graphs_between`` as the engine reads it."""
    graph, rows = schedule.graphs_between(t0, t1)
    return rows[graph]


def window_labels(rows: np.ndarray, n: int, window: int = 1) -> np.ndarray:
    """``_engine.components`` of pair rows: for each whole window of
    ``window`` rows, the smallest node each node reaches in its union."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    labels = np.empty((len(rows) // window, n), np.int64)
    _engine.components(n, len(rows), window, rows.ctypes.data, labels.ctypes.data)
    return labels


def csr_rows(graph: np.ndarray, rows: np.ndarray, n: int) -> list[list[list[tuple[int, float]]]]:
    """Per round, the nonzero ``(k, w)`` entries of each row of its mixing
    matrix, read from the engine's CSR arrays of the pair rows ``rows``:
    round r mixes with graph ``graph[r]``, as a schedule's
    ``graphs_between`` gives them."""
    indptr, col, weight = mixing_csr(rows, n)
    entries = list(zip(col.tolist(), weight.tolist()))
    bounds = indptr.tolist()
    graphs = [[entries[bounds[g * n + j]:bounds[g * n + j + 1]] for j in range(n)]
              for g in range((len(bounds) - 1) // n)]
    return [graphs[g] for g in graph.tolist()]


def row_neighbors(w_rows: list[list[tuple[int, float]]]) -> list[list[int]]:
    """Each node's neighbours in the ``(k, w)`` rows of one mixing matrix."""
    return [[k for k, _ in row if k != j] for j, row in enumerate(w_rows)]


# Scalar references for the compiled round engine (loadshed/_engine.c):
# one round, one region and one neighbour at a time.


def scalar_surrogate(surrogate, z: float) -> float:
    """The surrogate CCF at one point by ``bisect_right`` on lists: the
    load at or below z, plus the climbed part of the ramp ending at the next
    breakpoint."""
    bps, cum = surrogate.base.breakpoints.tolist(), surrogate.base.cumulative.tolist()
    c = surrogate.ramp_width
    idx = bisect_right(bps, z)
    below = cum[idx - 1] if idx else 0.0
    v = below
    if idx < len(bps):
        d = z - bps[idx]
        if d > -c:
            v += (cum[idx] - below) * (d / c + 1.0)
    return v


def x_rounds(x, rows, etas, ps, surrogates) -> list[list[float]]:
    """The threshold-estimate recursion over consecutive rounds.

    Round r mixes the previous estimates with the sparse mixing rows
    ``rows[r]`` (reduced in ascending neighbour order) and steps by
    ``etas[r]`` against the gap between each region's surrogate CCF
    (``scalar_surrogate``) and its deficit estimate ``ps[r][j]``.  Returns
    the estimates after every round.
    """
    out = []
    for rows_t, eta_t, p_t in zip(rows, etas, ps):
        new_x = []
        for j, s in enumerate(surrogates):
            v = scalar_surrogate(s, x[j])
            acc = 0.0
            for k, w in rows_t[j]:
                acc += w * x[k]
            new_x.append(acc - eta_t * (v - p_t[j]))
        out.append(new_x)
        x = new_x
    return out


def dmc_rounds(z, alpha, zeta_rows, neighbor_rows, ramp_width):
    """Dynamic min-consensus with local self-tuning over consecutive rounds.

    In round r each node takes the minimum of its neighbourhood's previous
    values (inflated by its own step alpha) and its fresh cutoff
    ``zeta_rows[r][j]``; neighbourhoods are ``neighbor_rows[r]``.  Alpha
    resets to 1/2 after any increase and is half the ramp width otherwise.
    Returns the values and steps after every round.
    """
    half = ramp_width / 2.0
    z_rows, alpha_rows = [], []
    for zeta_new, neighbors in zip(zeta_rows, neighbor_rows):
        new_z, new_alpha = [], []
        for j, a_j in enumerate(alpha):
            best = z[j] + a_j
            for k in neighbors[j]:
                cand = z[k] + a_j
                if cand < best:
                    best = cand
            if zeta_new[j] < best:
                best = zeta_new[j]
            new_z.append(best)
            new_alpha.append(0.5 if best > z[j] else half)
        z_rows.append(new_z)
        alpha_rows.append(new_alpha)
        z, alpha = new_z, new_alpha
    return z_rows, alpha_rows


def local_zeta(sorted_criticalities, x: float) -> float:
    """Smallest regional criticality at or above x; +inf when none exists or
    x is NaN, the engine's cutoff rule."""
    i = bisect_left(sorted_criticalities, x)
    if math.isnan(x) or i == len(sorted_criticalities):
        return math.inf
    return sorted_criticalities[i]


def protocol_rounds(state, streak, window, rows, etas, ps, surrogates):
    """Whole rounds of the protocol, one at a time: ``x_rounds``, then
    ``local_zeta`` per region, then the streak of unchanged cutoff rows,
    then ``dmc_rounds``, each on one-round inputs.

    ``state`` is ``(x, zeta, z, alpha)`` before the first round.  The run
    stops after the first round whose streak reaches ``window`` (None:
    never).  Returns the state after every round run and the last streak.
    """
    x, zeta, z, alpha = state
    crits = [s.base.breakpoints.tolist() for s in surrogates]
    ramp = surrogates[0].ramp_width
    out = []
    for w_rows, eta, p in zip(rows, etas, ps):
        (x,) = x_rounds(x, [w_rows], [eta], [p], surrogates)
        new_zeta = [local_zeta(c, v) for c, v in zip(crits, x)]
        streak = streak + 1 if new_zeta == zeta else 0
        zeta = new_zeta
        (z,), (alpha,) = dmc_rounds(z, alpha, [zeta], [row_neighbors(w_rows)], ramp)
        out.append((x, zeta, z, alpha))
        if window is not None and streak >= window:
            break
    return out, streak


# Numpy reference for the compiled deficit-tracking error
# (``protocol.deficit_deviation``, the engine's ``deviation``).


def deviation_reference(P: np.ndarray, t0: int, step, deficit: float) -> np.ndarray:
    """|sum_j p_j(t) - deficit| / eta(t) for the rows of P, rounds t0, t0 + 1, ...

    The 2n terms p_j, -deficit/n are summed column by column with TwoSum,
    all rows at once; a total that is not finite stands as it is.  Only
    nonzero errors are divided by ``step.eta``.
    """
    share = deficit / P.shape[1]
    total = error = np.zeros(len(P))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is inf
        for x in (term for p in P.T for term in (p, -share)):
            s = total + x
            z = s - total
            error = error + ((total - (s - z)) + (x - z))
            total = s
        errors = np.abs(np.where(np.isfinite(total), total + error, total))
    rounds = np.flatnonzero(errors)
    with np.errstate(divide="ignore", over="ignore"):  # a subnormal or zero eta
        errors[rounds] /= [step.eta(t) for t in (rounds + t0).tolist()]
    return errors


# Verification oracles that only the tests call.

BRUTE_FORCE_MAX_LOADS = 20


def z_star_from_z_hat(
    ccf: Ccf, z_hat: float, deficit: float, tol: float = BOUNDARY_TOL
) -> float:
    """Recover the exact threshold from the surrogate root.

    If the CCF overshoots the deficit at the threshold, the threshold is
    the smallest criticality strictly above the root; if it meets the
    deficit exactly, it is the largest criticality not above the root.
    The case is detected by evaluating the CCF at the lower candidate.
    """
    bps = ccf.breakpoints.tolist()
    i = bisect_right(bps, z_hat)
    if i > 0 and abs(eval_ccf(ccf, bps[i - 1]) - deficit) <= tol:
        return bps[i - 1]
    if i == len(bps):
        raise ValueError(f"no criticality value above {z_hat}")
    return bps[i]


def _is_priority_based(mask: int, sorted_loads: Sequence[CriticalLoad]) -> bool:
    """Every included load's criticality is at most every excluded one's."""
    highest = -1
    for k in range(len(sorted_loads)):
        if mask >> k & 1:
            highest = k
    if highest < 0:
        return True
    cutoff = sorted_loads[highest].criticality
    for k in range(highest):
        if not mask >> k & 1 and sorted_loads[k].criticality < cutoff:
            return False
    return True


def brute_force_min_set(
    loads: Sequence[CriticalLoad], deficit: float, priority_only: bool = False
) -> tuple[tuple[int, ...], float]:
    """Exhaustively minimize shed power over all subsets covering the deficit.

    Verification oracle only; capped at 20 loads (2^20 subsets).  Returns
    one minimizer (ties broken by lowest bitmask) and its total.  With
    ``priority_only`` the search is restricted to priority-based subsets
    (no included load less critical than an excluded one), the feasible
    family of the prioritized problem the greedy prefix solves.
    """
    items = list(loads)
    if len(items) > BRUTE_FORCE_MAX_LOADS:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_MAX_LOADS} loads, got {len(items)}"
        )
    if priority_only:
        ordered = sorted(items, key=lambda l: (l.criticality, l.id))
        best_ids: tuple[int, ...] | None = None
        best_total = math.inf
        for mask in range(1 << len(ordered)):
            if not _is_priority_based(mask, ordered):
                continue
            total = math.fsum(
                ordered[k].power for k in range(len(ordered)) if mask >> k & 1
            )
            if total >= deficit and total < best_total:
                best_total = total
                best_ids = tuple(
                    ordered[k].id for k in range(len(ordered)) if mask >> k & 1
                )
        if best_ids is None:
            raise InfeasibleError(f"no subset reaches the deficit {deficit}")
        return best_ids, best_total
    sums = np.zeros(1)
    for load in items:
        sums = np.concatenate([sums, sums + load.power])
    feasible = sums >= deficit
    if not feasible.any():
        raise InfeasibleError(f"no subset reaches the deficit {deficit}")
    best = int(np.argmin(np.where(feasible, sums, np.inf)))
    ids = tuple(items[k].id for k in range(len(items)) if best >> k & 1)
    return ids, float(sums[best])


def ramp(z: float, width: float) -> float:
    """Unit ramp: 0 below -width, linear up to 1 at 0, then saturated."""
    if z >= 0.0:
        return 1.0
    if z >= -width:
        return z / width + 1.0
    return 0.0


def continuous_ccf_eval(regions, z: float) -> float:
    """Continuous-variant CCF: sum of capacity times a unit-width ramp."""
    parts = []
    for capacity, criticality in regions:
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        parts.append(capacity * ramp(z - criticality, 1.0))
    return math.fsum(parts)


def continuous_solution_reference(
    regions: Sequence[tuple[float, float]], deficit: float
) -> ContinuousSolution:
    """The continuous closed form by piecewise-linear inversion of
    ``continuous_ccf_eval`` over its kink points (every ramp's foot and
    top), then the fill rule.  Defined for deficits in (0, total]."""
    total = math.fsum(cap for cap, _ in regions)
    if not 0.0 < deficit <= total:
        raise ValueError(f"deficit {deficit} outside (0, {total}]")
    kinks = sorted({c - 1.0 for _, c in regions} | {float(c) for _, c in regions})
    values = [continuous_ccf_eval(regions, k) for k in kinks]
    idx = bisect_left(values, deficit)
    if values[idx] == deficit:
        z = kinks[idx]
    else:
        lo, hi = kinks[idx - 1], kinks[idx]
        flo, fhi = values[idx - 1], values[idx]
        z = lo + (deficit - flo) * (hi - lo) / (fhi - flo)
    shed = tuple(continuous_fill(capacity, criticality, z) for capacity, criticality in regions)
    return ContinuousSolution(shed, z)
