"""Distributions mapping raw stream outputs to test domains.

uniform01_map maps a raw output v to (v - min) / (max - min + 1), so 1.0
is unattainable.  uniform_int_block uses rejection sampling over the
largest multiple of the target range fitting the stream range; it never
maps by modulo alone, so every value in [a, b] is exactly equiprobable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import RandomStream, scan


def uniform01_map(stream: RandomStream, raw: np.ndarray) -> np.ndarray:
    """Map raw outputs of `stream` to [0, 1) as a float64 array."""
    u = (raw.astype(np.float64) - stream.min_value) / stream.range_size
    if stream.range_size > 2**53:
        np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return u


def uniform01_block(stream: RandomStream, n: int) -> np.ndarray:
    """n draws in [0, 1) as a float64 array."""
    return uniform01_map(stream, stream.next_block(n))


def _int_params(stream: RandomStream, a: int, b: int) -> tuple[int, int]:
    if a > b:
        raise ConfigurationError(f"empty integer interval [{a}, {b}]")
    m = b - a + 1
    if m > stream.range_size:
        raise ConfigurationError(
            f"interval of size {m} exceeds stream range {stream.range_size}"
        )
    limit = stream.range_size - stream.range_size % m
    return m, limit


def uniform_int_block(stream: RandomStream, a: int, b: int, n: int) -> np.ndarray:
    """n unbiased draws from {a, ..., b} as an int64 array.

    Reads through `scan`: consumes raw outputs exactly through the one
    yielding the n-th accepted value, and a finite stream holding that
    many serves them.
    """
    m, limit = _int_params(stream, a, b)
    lo = stream.min_value
    parts = [np.empty(0, dtype=np.int64)]

    def step(raw, remaining):
        w = raw.astype(np.int64) - lo
        acc = np.flatnonzero(w < limit)[:remaining]
        parts.append(a + w[acc] % m)
        if acc.size == remaining:
            return remaining, int(acc[-1]) + 1
        return acc.size, raw.size

    scan(stream, n, step)
    return np.concatenate(parts)
