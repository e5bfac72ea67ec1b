"""Generator engines.

Every engine produces raw unsigned integers in its declared range and is
seedable.  Block generation is vectorized: the multiplicative congruential
engines, and both components of L'Ecuyer's combined generator, step
through one precomputed multiplier table (x_{k+j} = a^j x_k mod m); the
Mersenne Twister is numpy's own MT19937; the Bays-Durham shuffle draws
its inner words a block at a time and walks only the slot addresses.
"""

from __future__ import annotations

import array
import functools

import numpy as np

from ..errors import ConfigurationError
from .base import SeedableStream

_BLOCK = 4096


@functools.lru_cache(maxsize=None)
def _power_table(a: int, m: int) -> np.ndarray:
    """A[j] = a^(j+1) mod m for j < _BLOCK, as read-only int64.

    Built once per (a, m) by doubling: with the first k entries known,
    A[k + j] = A[j] * a^k mod m, and a^k is A[k - 1].  Entries lie below
    m <= 2^31, so the products stay below 2^62.  Shared by every engine
    with that pair.
    """
    table = np.empty(_BLOCK, dtype=np.int64)
    table[0] = a % m
    k = 1
    while k < _BLOCK:
        c = min(k, _BLOCK - k)
        np.multiply(table[:c], table[k - 1], out=table[k:k + c])
        table[k:k + c] %= m
        k *= 2
    table.flags.writeable = False
    return table


class _MultiplicativeLcg(SeedableStream):
    """Pure multiplicative congruential engine x' = a*x mod m.

    Outputs lie in [1, m-1]; the multiplier table keeps every product
    below 2^63 for the moduli used here, so int64 arithmetic is exact.
    """

    _a: int
    _m: int

    def __init__(self, seed: int = 1):
        super().__init__()
        self.min_value = 1
        self.max_value = self._m - 1
        self._table = _power_table(self._a, self._m)
        self.seed(seed)

    def _remap_seed(self, s: int) -> int:
        x = s % self._m
        return 1 if x == 0 else x

    def seed(self, s: int) -> None:
        if s < 0:
            raise ConfigurationError("seed must be non-negative")
        self._x = self._remap_seed(s)
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        """Advance by min(n, _BLOCK) steps; return those states as int64."""
        out = (self._table[:min(n, _BLOCK)] * self._x) % self._m
        self._x = int(out[-1])
        return out


class Minstd(_MultiplicativeLcg):
    """Park-Miller minimal standard generator, x' = 16807 x mod (2^31 - 1)."""

    name = "minstd"
    _a = 16807
    _m = 2**31 - 1


class Randu(_MultiplicativeLcg):
    """The infamous RANDU, x' = 65539 x mod 2^31.  Test fixture only."""

    name = "randu"
    _a = 65539
    _m = 2**31

    def _remap_seed(self, s: int) -> int:
        # x must be odd or the sequence degenerates immediately
        x = s % self._m
        return x | 1


class _Ecuyer1988First(_MultiplicativeLcg):
    _a = 40014
    _m = 2147483563


class _Ecuyer1988Second(_MultiplicativeLcg):
    _a = 40692
    _m = 2147483399


class Ecuyer1988(SeedableStream):
    """L'Ecuyer's 1988 combined generator.

    Two multiplicative congruential components (moduli 2147483563 and
    2147483399, multipliers 40014 and 40692); outputs are the difference
    of the component outputs shifted into [1, 2147483562].  Each
    component is seeded from s modulo its own modulus, zero remapped to 1.
    """

    name = "ecuyer1988"

    def __init__(self, seed: int = 1):
        super().__init__()
        self._c1 = _Ecuyer1988First()
        self._c2 = _Ecuyer1988Second()
        self.min_value = 1
        self.max_value = self._c1.max_value
        self.seed(seed)

    def seed(self, s: int) -> None:
        self._c1.seed(s)
        self._c2.seed(s)
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        z = (self._c1._generate(n) - self._c2._generate(n)) % self.max_value
        z[z == 0] = self.max_value
        return z


class Mt19937(SeedableStream):
    """Mersenne Twister MT19937 with the 2002 integer seeding recurrence,
    run by numpy's MT19937 bit generator.

    numpy.random is reached only through `np.random` here, so importing
    this module does not load it.
    """

    name = "mt-19937"

    def __init__(self, seed: int = 5489):
        super().__init__()
        self.min_value = 0
        self.max_value = 2**32 - 1
        self._bg = np.random.MT19937()
        # serves the bit generator's 32-bit outputs as uint32, in order
        self._words = np.random.Generator(self._bg)
        self.seed(seed)

    def seed(self, s: int) -> None:
        if s < 0:
            raise ConfigurationError("seed must be non-negative")
        # RandomState seeds an integer by the 2002 recurrence (init_genrand)
        self._bg.state = np.random.RandomState(
            s & 0xFFFFFFFF
        ).get_state(legacy=False)
        self._reset_buffer()

    def load_state(self, words) -> None:
        """Load a full 624-word state directly (historical/reference runs)."""
        state = np.asarray(words, dtype=np.uint32)
        if state.shape != (624,):
            raise ConfigurationError("state must hold exactly 624 words")
        self._bg.state = {"bit_generator": "MT19937",
                          "state": {"key": state, "pos": 624}}
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        return self._words.integers(0, 2**32, n, dtype=np.uint32)


class LaggedFibonacci1279(SeedableStream):
    """Additive lagged Fibonacci x_n = (x_{n-418} + x_{n-1279}) mod 2^32.

    The 1279-word buffer is filled from a minstd stream seeded with s and
    emitted verbatim as the first 1279 outputs; the recurrence continues
    from there.
    """

    name = "lagged-fibonacci-1279"
    _LONG = 1279
    _SHORT = 418

    def __init__(self, seed: int = 1):
        super().__init__()
        self.min_value = 0
        self.max_value = 2**32 - 1
        self.seed(seed)

    def seed(self, s: int) -> None:
        filler = Minstd(seed=s)
        self._hist = filler.next_block(self._LONG)
        self._initial_left = self._LONG
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        if self._initial_left > 0:
            start = self._LONG - self._initial_left
            c = min(n, self._initial_left)
            self._initial_left -= c
            return self._hist[start:start + c]
        c = min(n, self._SHORT)
        gap = self._LONG - self._SHORT
        new = self._hist[gap:gap + c] + self._hist[:c]
        self._hist = np.concatenate([self._hist[c:], new])
        return new


class ShuffledStream(SeedableStream):
    """Bays-Durham shuffle over an inner seedable stream.

    A table of `table_size` inner outputs is kept; each draw picks the slot
    addressed by the previous output's high bits, emits it, and refills the
    slot from the inner stream.  The initial previous-output register is the
    last table entry; no extra priming draw is taken.
    """

    def __init__(self, inner: SeedableStream, table_size: int = 32):
        if table_size < 2:
            raise ConfigurationError("shuffle table needs at least 2 entries")
        super().__init__()
        self._inner = inner
        self._size = table_size
        self.min_value = inner.min_value
        self.max_value = inner.max_value
        self.name = f"shuffled({inner.name})"
        self._fill()

    def _fill(self) -> None:
        self._tbl = self._inner.next_block(self._size)
        self._j = int(self._slots(self._tbl[-1:])[0])
        self._reset_buffer()

    def seed(self, s: int) -> None:
        self._inner.seed(s)
        self._fill()

    def _slots(self, words: np.ndarray) -> np.ndarray:
        """The table slot each word addresses when it is the last output."""
        # in uint64, so the product cannot wrap
        return (np.subtract(words, self.min_value, dtype=np.uint64)
                * self._size // self.range_size)

    def _generate(self, n: int) -> np.ndarray:
        # each output refills its slot with one inner word, so drawing
        # exactly as many inner words as outputs keeps consumption exact
        fresh = self._inner.next_block(min(n, 65536))
        words = np.concatenate([self._tbl, fresh])
        size = self._size
        # The walk moves slot numbers only: addr[j] is the slot that the
        # word now in slot j addresses, and visits[t] is draw t's slot.
        # C unsigned int buffers hold any table size and iterate fast.
        slot = array.array("I", self._slots(words).astype(np.uintc).tobytes())
        addr = list(slot[:size])
        visits = array.array("I")
        visit = visits.append
        j = self._j
        for s in slot[size:]:
            visit(j)
            addr[j], j = s, addr[j]
        self._j = j
        # sorted as the narrowest type that holds a slot: a stable sort
        # of 8- or 16-bit keys is a radix sort
        visits = np.frombuffer(visits, dtype=np.uintc).astype(
            np.min_scalar_type(size - 1))
        # The writes to the table are word j to slot j, then draw t's
        # fresh word, words[size + t], to slot visits[t].  A draw outputs
        # the word of the previous write to its slot; a stable sort by
        # slot puts that write just before it, and starts each slot's run
        # with its table word.
        order = np.argsort(
            np.concatenate([np.arange(size, dtype=visits.dtype), visits]),
            kind="stable")
        previous = np.empty(order.size, dtype=np.intp)
        previous[order[1:]] = order[:-1]
        ends = np.append(np.flatnonzero(order < size)[1:], order.size) - 1
        self._tbl = words[order[ends]]
        return words[previous[size:]]
