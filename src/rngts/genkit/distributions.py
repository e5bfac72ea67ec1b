"""Distributions mapping raw stream outputs to test domains.

uniform01_map maps a raw output v to (v - min) / (max - min + 1), so 1.0
is unattainable.  int_draws holds the one rule by which raw outputs
become integers: rejection sampling over the largest multiple of the
target range fitting the stream range, combining several outputs when
one is too narrow.  It never maps by modulo alone, so every value in
[a, b] is exactly equiprobable.  uniform_int_block, and the tests that
scan dice or digits, draw by it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import RandomStream, scan


def uniform01_map(stream: RandomStream, raw: np.ndarray) -> np.ndarray:
    """Map raw outputs of `stream` to [0, 1) as a float64 array.

    The map is strictly increasing over the stream's range: distinct
    integers below 2^32, less one minimum and divided by one range of
    at most 2^32, differ by far more than a float64 rounds away.  So
    tests of order alone (runs, permutation, the maxima of max-of-t and
    KS's sort) may compare raw words instead of their uniforms.
    """
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


def _value_type(a: int, b: int) -> type:
    """uint32 for draws from {a, ..., b} that fit 32 bits, else int64."""
    return np.uint32 if 0 <= a and b < 2**32 else np.int64


def int_draws(stream: RandomStream, raw: np.ndarray, a: int,
              b: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The draws from {a, ..., b} that the raw block `raw` of `stream`
    yields: (values, accepted, words).

    With R the stream's range size and m = b - a + 1, a candidate is one
    output minus the minimum when m <= R.  Otherwise it combines the
    smallest number k of outputs with R^k >= m, most significant first,
    as sum of w_i R^(k-i) (Boost's uniform_int); R^k may not pass 2^63.
    A candidate below R^k - R^k mod m is accepted as a + candidate mod m.
    One output's candidate and its residue are worked in 32 bits, from
    the draw on, unless m is 2^32; combined ones in 64 bits.  Values are
    of `_value_type(a, b)`.

    `words` outputs make a candidate, and `accepted` holds the index of
    each accepted candidate, so draw i ends at raw output
    (accepted[i] + 1) * words.  Outputs past the last whole candidate
    yield nothing.
    """
    m, words, limit = _int_params(stream, a, b)
    # in uint64 when outputs combine, so w * r cannot wrap
    cand = np.uint32 if words == 1 and m < 2**32 else np.uint64
    digits = np.subtract(raw[:raw.size - raw.size % words], stream.min_value,
                         dtype=cand).reshape(-1, words)
    w = digits[:, 0]
    r = np.uint64(stream.range_size)
    for i in range(1, words):
        w = w * r + digits[:, i]
    acc = np.flatnonzero(w < limit)
    return a + (w[acc] % cand(m)).astype(_value_type(a, b), copy=False), \
        acc, words


def uniform_int_block(stream: RandomStream, a: int, b: int, n: int) -> np.ndarray:
    """n unbiased draws from {a, ..., b}, by `int_draws`'s rule.

    Reads through `scan`: consumes raw outputs exactly through the one
    yielding the n-th accepted value, and a finite stream holding that
    many serves them.
    """
    _, words, limit = _int_params(stream, a, b)
    parts = [np.empty(0, dtype=_value_type(a, b))]

    def step(raw, remaining):
        values, acc, _ = int_draws(stream, raw, a, b)
        parts.append(values[:remaining])
        if acc.size >= remaining:
            return remaining, (int(acc[remaining - 1]) + 1) * words
        return acc.size, raw.size - raw.size % words

    # a candidate of `words` outputs is accepted with probability
    # limit / R^k
    scan(stream, n, step, words * stream.range_size ** words / limit)
    return np.concatenate(parts)
