"""Bit-level access to raw stream outputs.

Each raw output contributes its stream-width bits most-significant-first;
successive outputs are concatenated in draw order.  Wider values read
through a BitReader are therefore big-endian concatenations of fields,
e.g. two 4-bit fields 0xA then 0x5 read as one byte give 0xA5.
"""

from __future__ import annotations

import numpy as np

from .base import RandomStream


class BitReader:
    """Serves the bit expansion of a stream's raw outputs."""

    def __init__(self, stream: RandomStream):
        self._stream = stream
        self._width = stream.bit_width
        # the last output drawn, and how many of its bits are unread
        self._tail = np.empty(0, dtype=np.uint64)
        self._left = 0

    def _words(self, n_bits: int) -> tuple[np.ndarray, int]:
        """Raw outputs holding the next n_bits bits, and the bit of the
        first output they start at."""
        w = self._width
        words = self._tail
        start = words.size * w - self._left
        n_raw = -(-(n_bits - self._left) // w)
        if n_raw > 0:
            words = np.concatenate([words, self._stream.next_block(n_raw)])
        self._left = words.size * w - start - n_bits
        self._tail = words[-1:]
        return words, start

    def read(self, n_bits: int) -> np.ndarray:
        """Return exactly n_bits bits as a uint8 array of 0s and 1s,
        unpacked from the big-endian bytes of outputs shifted to the top."""
        words, start = self._words(n_bits)
        top = (words << np.uint64(64 - self._width)).astype(">u8")
        bits = np.unpackbits(top.view(np.uint8).reshape(-1, 8), axis=1,
                             count=self._width)
        return bits.ravel()[start:start + n_bits]

    def read_values(self, count: int, value_bits: int) -> np.ndarray:
        """Return `count` integers of `value_bits` bits each (big-endian).

        Each field is cut from the output holding its last bit, shifted
        right, and from the outputs before it, shifted left.  A shift of
        64 or more, which numpy turns into 0, reaches only outputs
        outside the field.
        """
        w = self._width
        words, start = self._words(count * value_bits)
        # earlier outputs a field may reach into; zeros pad the first ones
        back = (value_bits + w - 2) // w
        words = np.concatenate([np.zeros(back, dtype=np.uint64), words])
        ends = start + back * w + value_bits * np.arange(1, count + 1)
        last = (ends - 1) // w
        right = ((last + 1) * w - ends).astype(np.uint64)
        vals = words[last] >> right
        for s in range(1, back + 1):
            vals |= words[last - s] << (np.uint64(s * w) - right)
        vals &= np.uint64((1 << value_bits) - 1)
        return vals.astype(np.int64)
