"""Deterministic seed-derived random streams.

Every random draw in the package is a pure function of (seed, stream tag,
counter indices), built on the splitmix64 finalizer (Steele et al. /
Vigna).  This keeps runs bit-reproducible across processes and platforms
and makes the derivation simple enough to reimplement in other languages.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# stream tags; fixed constants, never reused across purposes
STREAM_EDGES = 0x45
STREAM_NOISE = 0x4E
STREAM_POWER = 0x50
STREAM_NATURE = 0x43
STREAM_REGION = 0x52
STREAM_REPAIR = 0x54


def mix64(*parts: int) -> int:
    """Fold integers into a single 64-bit hash, one splitmix64 round each."""
    x = _GAMMA
    for p in parts:
        x = (x + (p & _MASK)) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        x = z ^ (z >> 31)
    return x


def unit_float(h):
    """Map a 64-bit hash, or a uint64 array, to [0, 1) by its top 53 bits."""
    return (h >> 11) * 2.0 ** -53


def mix64_grid(seed: int, tag: int, rows, cols) -> np.ndarray:
    """Vectorized mix64(seed, tag, r, c) over rows x cols of non-negative
    integers below 2**64, as uint64; bit-identical to the scalar path."""
    r = np.asarray(rows, dtype=np.uint64).reshape(-1, 1)
    c = np.asarray(cols, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        x = np.uint64(_GAMMA)
        for part in (np.uint64(seed & _MASK), np.uint64(tag & _MASK), r, c):
            x = x + part
            z = x
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
            x = z ^ (z >> np.uint64(31))
    return x


def noise_matrix(seed: int, times: np.ndarray, n: int) -> np.ndarray:
    """Draws in [-1, 1), 2 * unit_float(mix64(seed, STREAM_NOISE, t, j)) - 1,
    over times x [n].

    Bit-identical to the scalar path; used for long-horizon certificate
    sweeps where a Python loop would be too slow.
    """
    return 2.0 * unit_float(mix64_grid(seed, STREAM_NOISE, times, np.arange(n))) - 1.0
