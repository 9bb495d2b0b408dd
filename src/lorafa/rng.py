"""Deterministic, counter-based random number generation.

The generator is a fixed implementation constant of this repo: a SplitMix64
finalizer applied to ``seed + GOLDEN * counter`` produces the raw uint64
stream, and normal draws use the Box-Muller cosine branch (two uint64 draws
per normal). Draws therefore depend only on (seed, position), sequences can
be skipped in O(1), and distinct named substreams are cheap to derive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_array_size, require_number

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


@dataclass
class RngState:
    """Counter-based RNG stream: (seed, position) fully determine all draws."""

    seed: int
    position: int = 0

    def __post_init__(self):
        require_number("seed", self.seed, integral=True)
        require_number("position", self.position, integral=True, at_least=0)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x.astype(np.uint64)
    x ^= x >> _U64(30)
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


def _raw(rng: RngState, n: int) -> np.ndarray:
    """n raw uint64 words at the current position; advances the stream. More
    words than numpy can index is a ParameterError."""
    require_array_size("a stream draw", n)
    counters = _U64(rng.seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * (
        _U64(rng.position & 0xFFFFFFFFFFFFFFFF) + np.arange(n, dtype=np.uint64)
    )
    rng.position += n
    return _mix64(counters)


def derive(rng: RngState, tag: str) -> RngState:
    """A fresh, independent stream deterministically keyed by (seed, tag).

    Deriving does not advance the parent stream, so models built with the
    same seed draw identical weights regardless of how many substreams each
    adaptation mode consumes.
    """
    h = _U64(rng.seed & 0xFFFFFFFFFFFFFFFF)
    for byte in tag.encode("utf-8"):
        h = _mix64(np.array([h ^ _U64(byte)], dtype=np.uint64))[0]
    return RngState(int(h))


def uniform(shape, rng: RngState) -> np.ndarray:
    """i.i.d. draws in [0, 1) with 53-bit resolution."""
    n = math.prod(shape)
    u = (_raw(rng, n) >> _U64(11)).astype(np.float64) * (2.0**-53)
    return u.reshape(shape)


def randn(shape, rng: RngState, std: float = 1.0) -> np.ndarray:
    """i.i.d. normal draws, mean 0, standard deviation ``std``.

    Consumes exactly 2 * prod(shape) stream positions.
    """
    require_number("std", std, positive=True)
    n = math.prod(shape)
    raw = _raw(rng, 2 * n)
    # u1 in (0, 1] so log never sees 0; u2 in [0, 1).
    u1 = 1.0 - (raw[:n] >> _U64(11)).astype(np.float64) * (2.0**-53)
    u2 = (raw[n:] >> _U64(11)).astype(np.float64) * (2.0**-53)
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return (std * z).reshape(shape)


def randint(rng: RngState, low: int, high: int, shape) -> np.ndarray:
    """Uniform integers in [low, high) via 53-bit uniforms (harness plumbing)."""
    if high <= low:
        raise ParameterError(f"empty integer range [{low}, {high})")
    u = uniform(shape, rng)
    return (low + np.floor(u * (high - low))).astype(np.int64)
