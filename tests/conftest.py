"""Shared fixtures: the step-function example set, the tie example, and the
four-region continuous instance used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from loadshed.criticality import CriticalLoad, build_ccf

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


# Scalar references for the block-built mixing structure
# (netgraph.mixing_block): one graph, one Python loop each.


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
