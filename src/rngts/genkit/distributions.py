"""Distributions mapping raw stream outputs to test domains.

uniform01_map maps a raw output v to (v - min) / (max - min + 1), so 1.0
is unattainable.  uniform_int_block uses rejection sampling over the
largest multiple of the target range fitting the stream range, combining
several outputs when one is too narrow; it never maps by modulo alone, so
every value in [a, b] is exactly equiprobable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import RandomStream, scan


def uniform01_map(stream: RandomStream, raw: np.ndarray) -> np.ndarray:
    """Map raw outputs of `stream` to [0, 1) as a float64 array."""
    return (raw.astype(np.float64) - stream.min_value) / stream.range_size


def uniform01_block(stream: RandomStream, n: int) -> np.ndarray:
    """n draws in [0, 1) as a float64 array."""
    return uniform01_map(stream, stream.next_block(n))


def _int_params(stream: RandomStream, a: int,
                b: int) -> tuple[int, int, int]:
    """(m, words, limit): the interval's size, the outputs combined per
    candidate, and the bound below which a candidate is accepted."""
    if a > b:
        raise ConfigurationError(f"empty integer interval [{a}, {b}]")
    m = b - a + 1
    r = stream.range_size
    words, span = 1, r
    while span < m and 1 < span <= 2**63:
        words += 1
        span *= r
    if span < m or span > 2**63:
        raise ConfigurationError(
            f"interval of size {m} exceeds the 2^63 values that whole "
            f"outputs of stream range {r} can combine to"
        )
    return m, words, span - span % m


def uniform_int_block(stream: RandomStream, a: int, b: int, n: int) -> np.ndarray:
    """n unbiased draws from {a, ..., b} as an int64 array.

    With R the stream's range size and m = b - a + 1, a candidate is one
    output minus the minimum when m <= R.  Otherwise it combines the
    smallest number k of outputs with R^k >= m, most significant first,
    as sum of w_i R^(k-i) (Boost's uniform_int); R^k may not pass 2^63.
    A candidate below R^k - R^k mod m is accepted as a + candidate mod m.

    Reads through `scan`: consumes raw outputs exactly through the one
    yielding the n-th accepted value, and a finite stream holding that
    many serves them.
    """
    m, words, limit = _int_params(stream, a, b)
    lo = np.uint64(stream.min_value)
    r = np.uint64(stream.range_size)
    parts = [np.empty(0, dtype=np.int64)]

    def step(raw, remaining):
        # in uint64, so w * r cannot wrap
        digits = np.subtract(raw[:raw.size - raw.size % words], lo,
                             dtype=np.uint64).reshape(-1, words)
        w = digits[:, 0]
        for i in range(1, words):
            w = w * r + digits[:, i]
        acc = np.flatnonzero(w < limit)[:remaining]
        parts.append(a + (w[acc] % m).astype(np.int64))
        if acc.size == remaining:
            return remaining, (int(acc[-1]) + 1) * words
        return acc.size, w.size * words

    scan(stream, n, step)
    return np.concatenate(parts)
