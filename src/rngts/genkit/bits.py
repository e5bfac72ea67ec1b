"""Bit-level reads of raw stream outputs.

Each raw output contributes its stream-width bits most-significant-first;
successive outputs are concatenated in draw order.  A read of n bits
draws ceil(n / width) outputs and starts at the first bit of the first
one; bits of the last output past the n-th are not used.  Wider values
are big-endian concatenations of fields, e.g. two 4-bit fields 0xA then
0x5 read as one byte give 0xA5.
"""

from __future__ import annotations

import numpy as np

from .base import RandomStream


def _words(stream: RandomStream, n_bits: int) -> np.ndarray:
    """The raw outputs holding the next n_bits bits of the stream."""
    return stream.next_block(-(-n_bits // stream.bit_width))


def read_bits(stream: RandomStream, n_bits: int) -> np.ndarray:
    """Return n_bits bits as a uint8 array of 0s and 1s, unpacked from
    the big-endian bytes of outputs shifted to the top."""
    w = stream.bit_width
    top = (_words(stream, n_bits) << np.uint32(32 - w)).astype(">u4")
    bits = np.unpackbits(top.view(np.uint8).reshape(-1, 4), axis=1, count=w)
    return bits.ravel()[:n_bits]


def read_fields(stream: RandomStream, count: int,
                value_bits: int) -> np.ndarray:
    """Return `count` integers of `value_bits` bits each (big-endian).

    Each field is cut from the output holding its last bit, shifted
    right, and from the outputs before it, shifted left.  A shift of
    64 or more, which numpy turns into 0, reaches only outputs outside
    the field.
    """
    w = stream.bit_width
    # earlier outputs a field may reach into; zeros pad the first ones
    back = (value_bits + w - 2) // w
    words = np.concatenate([np.zeros(back, dtype=np.uint64),
                            _words(stream, count * value_bits)])
    ends = back * w + value_bits * np.arange(1, count + 1)
    last = (ends - 1) // w
    right = ((last + 1) * w - ends).astype(np.uint64)
    vals = words[last] >> right
    for s in range(1, back + 1):
        vals |= words[last - s] << (np.uint64(s * w) - right)
    vals &= np.uint64((1 << value_bits) - 1)
    return vals.astype(np.int64)
