"""Stream model: raw generators of 32-bit words with a declared
inclusive range.

A stream's outputs are unsigned 32-bit words: its declared range lies
in [0, 2^32), and every block it serves is uint32.  Engines produce
blocks for speed; the base class buffers so blocks of any size, and
outputs pushed back with `unread`, read one sequence.  A read is
generated at most TAPE_WORDS outputs at a time, so a long read holds
one chunk beside its result, never a list of parts and their
concatenation.  `scan` is the one loop that reads a data-dependent
number of outputs.
A `Tape` builds one source and keeps its outputs, so that several
readers can each read them from the start without generating them
again.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, StreamExhausted, TestAborted


class RandomStream:
    """Source of raw 32-bit words in [min_value, max_value].

    Subclasses implement `_generate(n)` returning a numpy array of at most
    n outputs (any integer dtype; `next_block` converts it to uint32); an
    empty array signals exhaustion.
    A read that must generate outputs of a stream declaring max_value
    of 2^32 or more raises ConfigurationError, so no output is
    truncated.  Streams are single-owner: not safe for concurrent draws.
    """

    name: str = "stream"
    min_value: int = 0
    max_value: int = 1

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0
        # outputs served by next_block, less those unread
        self.served = 0

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
        """Return exactly n raw outputs as uint32, or raise StreamExhausted.

        Outputs not buffered are asked of `_generate` at most TAPE_WORDS
        at a time.  A read that one generated chunk serves returns that
        chunk, uncopied; a longer one is assembled in one new array.  A
        stream is one sequence whatever the block sizes, so chunking
        changes no output.
        """
        if n < 0:
            raise ConfigurationError("block size must be non-negative")
        avail = self._buf.size - self._pos
        if avail >= n:
            out = self._buf[self._pos:self._pos + n]
            self._pos += n
            self.served += n
            return out
        if self.max_value >= 1 << 32:
            raise ConfigurationError(
                f"{self.name}: declares outputs up to {self.max_value}, "
                "wider than the 32-bit words a stream serves"
            )
        out = None
        if avail:
            out = np.empty(n, dtype=np.uint32)
            out[:avail] = self._buf[self._pos:]
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0
        got = avail
        while got < n:
            try:
                chunk = self._generate(min(n - got, TAPE_WORDS))
            except StreamExhausted:
                # an inner stream ran out, so this one ends here too
                chunk = np.empty(0, dtype=np.uint32)
            if chunk.size == 0:
                # failed reads consume nothing: keep what was collected
                if got:
                    self._buf = out[:got]
                raise StreamExhausted(
                    f"{self.name}: stream exhausted, {got} of {n} outputs "
                    "available", available=got
                )
            chunk = np.ascontiguousarray(chunk, dtype=np.uint32)
            take = min(chunk.size, n - got)
            if chunk.size > take:
                self._buf = chunk[take:]
            if out is None and take == n:
                out = chunk[:n]
            else:
                if out is None:
                    out = np.empty(n, dtype=np.uint32)
                out[got:got + take] = chunk[:take]
            got += take
        self.served += n
        return out

    def unread(self, values: np.ndarray) -> None:
        """Push raw outputs back; they are served again before new ones."""
        if len(values) == 0:
            return
        values = np.ascontiguousarray(values, dtype=np.uint32)
        self._buf = np.concatenate([values, self._buf[self._pos:]])
        self._pos = 0
        self.served -= values.size

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
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0


class SeedableStream(RandomStream):
    """Stream whose sequence is a deterministic function of an integer seed.

    Built by its factory and seeded with s, it always yields the same
    outputs.  The runner seeds it before its task's `Tape` records it;
    every source goes on a tape, but only a seedable one is seeded.
    Since each build yields the same outputs, a replay of the tape
    reads exactly what a freshly seeded stream would, also past the
    tape's cap, where it continues on another stream built, seeded and
    warmed up the same way.
    """

    def seed(self, s: int) -> None:
        raise NotImplementedError


# The most outputs a Tape records: 1 MiB of uint32.
TAPE_WORDS = 1 << 18


def close_stream(stream: RandomStream) -> None:
    """Call the stream's close() method, if it has one."""
    method = getattr(stream, "close", None)
    if method is not None:
        method()


class Tape:
    """The outputs of one source, recorded once and replayed from the start.

    `build()` returns a new stream at the source's first output, and
    every stream it returns yields the same outputs.  The first replay
    builds the tape's source; a build that raises records nothing, so
    the next replay builds again.  The tape records the source's outputs
    as its replays ask for them, through the last output asked for, up
    to TAPE_WORDS; a source that ends sooner is recorded through its
    last output.  The tape's array is allocated whole, so recording
    ahead of the reads would save no copy, only generate outputs that
    no replay may read.  A replay that reads past a full tape
    continues on its own stream from `build()`, moved past the recorded
    outputs.  A replay read that the tape alone serves is a read-only
    view of the recorded outputs; a longer one is assembled by
    `next_block` a tape's length at a time.
    """

    def __init__(self, build: Callable[[], RandomStream]):
        self._build = build
        self.source = None
        self._words = np.empty(TAPE_WORDS, dtype=np.uint32)
        self._size = 0

    def words(self, stop: int) -> np.ndarray:
        """The recorded outputs, first recording through `stop` if the
        tape has room for them."""
        stop = min(stop, self._words.size)
        if self._size < stop:
            try:
                block = self.source.next_block(stop - self._size)
            except StreamExhausted as exc:
                block = self.source.next_block(exc.available)
            self._words[self._size:self._size + block.size] = block
            self._size += block.size
        view = self._words[:self._size]
        view.flags.writeable = False
        return view

    @property
    def full(self) -> bool:
        return self._size == self._words.size

    def past_end(self) -> RandomStream:
        """A new stream of the source's outputs after the recorded ones."""
        stream = self._build()
        try:
            stream.warmup(self._size)
        except BaseException:
            close_stream(stream)
            raise
        return stream

    def replay(self) -> RandomStream:
        """A new stream of the source's outputs from the first one."""
        if self.source is None:
            self.source = self._build()
        return _Replay(self)

    def close(self) -> None:
        close_stream(self.source)


class _Replay(RandomStream):
    """Reads a Tape from the start, then a stream past its end.

    `next_block` asks `_generate` for at most TAPE_WORDS outputs, so the
    stream past the end is asked for no more than that at a time either.
    """

    def __init__(self, tape: Tape):
        super().__init__()
        self._tape = tape
        self._at = 0
        self._rest = None
        self.name = tape.source.name
        self.min_value = tape.source.min_value
        self.max_value = tape.source.max_value

    def _generate(self, n: int) -> np.ndarray:
        if self._rest is None:
            words = self._tape.words(self._at + n)
            if self._at < words.size or not self._tape.full:
                # a tape short of the cap holds all its source had
                out = words[self._at:self._at + n]
                self._at += out.size
                return out
            self._rest = self._tape.past_end()
        try:
            return self._rest.next_block(n)
        except StreamExhausted as exc:
            # a finite source serves every output it still holds
            return self._rest.next_block(exc.available)

    def close(self) -> None:
        close_stream(self._rest)


_MAX_BLOCK = 1 << 22
# the words a block reads beyond the expected need of its units
_HINT_SLACK = 64


def scan(stream: RandomStream, needed: int,
         step: Callable[[np.ndarray, int], tuple[int, int]],
         words_per_unit: float, max_block: int = 65536) -> None:
    """Feed raw blocks of `stream` to `step` until `needed` units are done.

    `step(raw, remaining)` scans one block and returns (units_done,
    consumed): the units it completed, and the raw outputs used through
    the end of the last completed unit.  The unconsumed tail is pushed
    back onto the stream, so consumption is exact whatever the block
    size.

    `words_per_unit` is the words a unit takes on average by the test's
    own law.  A block holds that many words per unit still needed plus
    _HINT_SLACK, at most `max_block`, so a scan reads about what it
    needs.  A block that completes no unit doubles the next one, up to
    _MAX_BLOCK; no progress at that size aborts the test.  A scan holds
    one block at a time: each is dropped before the next is read.

    Blocks come from `next_block`, so a step takes uint32 blocks.

    A finite stream serves every output it holds: when a read fails, the
    outputs still available are read and stepped on.  If that short
    block completes no unit, the read's StreamExhausted is raised.
    """
    grown = 0
    while needed > 0:
        size = max(min(math.ceil(words_per_unit * needed) + _HINT_SLACK,
                       max_block), grown)
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
        del raw
        needed -= done
        if done == 0:
            if short is not None:
                raise short
            if size >= _MAX_BLOCK:
                raise TestAborted(
                    "scanner made no progress at maximum buffer size"
                )
            grown = min(size * 2, _MAX_BLOCK)
