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


# fields cut at a time: a chunk's index, shift and value arrays take a
# few hundred KiB whatever the count
_FIELD_CHUNK = 1 << 14


def read_fields(stream: RandomStream, count: int,
                value_bits: int) -> np.ndarray:
    """Return `count` integers of `value_bits` bits each (big-endian), as
    the narrowest unsigned type that holds them.

    Each field is cut from the output holding its last bit, shifted
    right, and from the outputs before it, shifted left.  A shift of
    64 or more, which numpy turns into 0, reaches only outputs outside
    the field; so does a shift of an output before the first, for which
    the first output stands in.  Fields are cut _FIELD_CHUNK at a time,
    so beside the outputs and the result only one chunk's arrays are
    held.
    """
    w = stream.bit_width
    # earlier outputs a field may reach into
    back = (value_bits + w - 2) // w
    words = _words(stream, count * value_bits)
    top = (1 << value_bits) - 1
    out = np.empty(count, dtype=np.min_scalar_type(top))
    for at in range(0, count, _FIELD_CHUNK):
        stop = min(at + _FIELD_CHUNK, count)
        ends = value_bits * np.arange(at + 1, stop + 1)
        last = (ends - 1) // w
        right = ((last + 1) * w - ends).astype(np.uint64)
        vals = words[last].astype(np.uint64) >> right
        for s in range(1, back + 1):
            before = words[np.maximum(last - s, 0)].astype(np.uint64)
            vals |= before << (np.uint64(s * w) - right)
        vals &= np.uint64(top)
        out[at:stop] = vals
    return out
