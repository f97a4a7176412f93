"""Deterministic pseudo-randomness from a SplitMix64 variant.

Output i of a seed is SplitMix64's finaliser applied to seed + i * gamma,
with the first multiplier 0xBF58476D1C4DEBF9, not Vigna's 0xBF58476D1CE4E5B9:
raw(0, 1) is 0x55ee29ef433e0b4b, not SplitMix64's 0xe220a8397b1dcdaf. Every
seeded output depends on these bits, so the constant stays; tests pin them.

Everything stochastic in this package (benchmark signals, attention demo
weights) flows through this module so that identical seeds give bit-identical
results on every platform and numpy version.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1C4DEBF9
_MIX2 = 0x94D049BB133111EB


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def raw(seed: int, count: int) -> np.ndarray:
    """The first `count` outputs for `seed`, as uint64."""
    base = np.uint64(seed & _MASK)
    steps = (np.arange(1, count + 1, dtype=np.uint64)) * np.uint64(_GAMMA)
    return _mix_array(base + steps)


def derive(seed: int, *labels: int) -> int:
    """Fold integer labels into a seed, for independent substreams."""
    x = np.array([seed & _MASK], dtype=np.uint64)
    for label in labels:
        x = _mix_array(x + np.uint64(_GAMMA)) ^ np.uint64(label & _MASK)
    return int(_mix_array(x + np.uint64(_GAMMA))[0])


def uniforms(seed: int, count: int) -> np.ndarray:
    """`count` doubles uniform on [0, 1), 53-bit resolution."""
    return (raw(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """`count` standard normal doubles via Box-Muller."""
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    # u1 = 0 would take log(0); 1 - u1 is in (0, 1]
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]
