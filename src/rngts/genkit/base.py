"""Stream model: raw integer generators with a declared inclusive range.

Engines produce blocks for speed; the base class buffers so single draws
and block draws can be mixed freely without perturbing the sequence.
`scan` is the one loop that reads a data-dependent number of outputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError, StreamExhausted, TestAborted


class RandomStream:
    """Source of raw unsigned integer outputs in [min_value, max_value].

    Subclasses implement `_generate(n)` returning a numpy array of at most
    n outputs (any unsigned dtype); an empty array signals exhaustion.
    Streams are single-owner: not safe for concurrent draws.
    """

    name: str = "stream"
    min_value: int = 0
    max_value: int = 1

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0

    # size of the raw output range
    @property
    def range_size(self) -> int:
        return self.max_value - self.min_value + 1

    # bits needed to hold the largest output
    @property
    def bit_width(self) -> int:
        return self.max_value.bit_length()

    def _generate(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def next_block(self, n: int) -> np.ndarray:
        """Return exactly n raw outputs as uint64, or raise StreamExhausted."""
        if n < 0:
            raise ConfigurationError("block size must be non-negative")
        avail = self._buf.size - self._pos
        if avail >= n:
            out = self._buf[self._pos:self._pos + n]
            self._pos += n
            return out
        parts = [self._buf[self._pos:]] if avail else []
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        got = avail
        while got < n:
            try:
                chunk = self._generate(n - got)
            except StreamExhausted:
                # an inner stream ran out, so this one ends here too
                chunk = np.empty(0, dtype=np.uint64)
            if chunk.size == 0:
                # failed reads consume nothing: keep what was collected
                if parts:
                    self._buf = np.concatenate(parts)
                raise StreamExhausted(
                    f"{self.name}: stream exhausted, {got} of {n} outputs "
                    "available", available=got
                )
            chunk = np.ascontiguousarray(chunk, dtype=np.uint64)
            if chunk.size > n - got:
                parts.append(chunk[:n - got])
                self._buf = chunk[n - got:]
                got = n
            else:
                parts.append(chunk)
                got += chunk.size
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def next(self) -> int:
        if self._pos < self._buf.size:
            v = int(self._buf[self._pos])
            self._pos += 1
            return v
        return int(self.next_block(1)[0])

    def unread(self, values: np.ndarray) -> None:
        """Push raw outputs back; they are served again before new ones."""
        if len(values) == 0:
            return
        values = np.ascontiguousarray(values, dtype=np.uint64)
        self._buf = np.concatenate([values, self._buf[self._pos:]])
        self._pos = 0

    def warmup(self, w: int) -> None:
        """Discard exactly w raw outputs."""
        if w < 0:
            raise ConfigurationError("warmup count must be non-negative")
        left = w
        while left > 0:
            step = min(left, 65536)
            self.next_block(step)
            left -= step

    def _reset_buffer(self) -> None:
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0


class SeedableStream(RandomStream):
    """Stream whose sequence is a deterministic function of an integer seed."""

    def seed(self, s: int) -> None:
        raise NotImplementedError


_FIRST_BLOCK = 65536
_MAX_BLOCK = 1 << 22


def scan(stream: RandomStream, needed: int,
         step: Callable[[np.ndarray, int], tuple[int, int]],
         words_per_unit: int = 0) -> None:
    """Feed raw blocks of `stream` to `step` until `needed` units are done.

    `step(raw, remaining)` scans one block and returns (units_done,
    consumed): the units it completed, and the raw outputs used through
    the end of the last completed unit.  The unconsumed tail is pushed
    back onto the stream, so consumption is exact whatever the block
    size.  A block that completes no unit doubles the next one, up to
    _MAX_BLOCK; no progress at that size aborts the test.

    With `words_per_unit`, a block holds at least that many words per
    unit still needed, clamped to [_FIRST_BLOCK, _MAX_BLOCK].

    A finite stream serves every output it holds: when a read fails, the
    outputs still available are read and stepped on.  If that short
    block completes no unit, the read's StreamExhausted is raised.
    """
    block = _FIRST_BLOCK
    while needed > 0:
        size = block
        if words_per_unit:
            size = max(block, min(words_per_unit * needed, _MAX_BLOCK))
        short = None
        try:
            raw = stream.next_block(size)
        except StreamExhausted as exc:
            if not exc.available:
                raise
            short = exc
            raw = stream.next_block(exc.available)
        done, consumed = step(raw, needed)
        if consumed < raw.size:
            stream.unread(raw[consumed:])
        needed -= done
        if done == 0:
            if short is not None:
                raise short
            if size >= _MAX_BLOCK:
                raise TestAborted(
                    "scanner made no progress at maximum buffer size"
                )
            block = min(size * 2, _MAX_BLOCK)
