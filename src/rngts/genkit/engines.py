"""Generator engines.

Every engine produces raw unsigned integers in its declared range and is
seedable.  Block generation is vectorized: the multiplicative congruential
engines use a precomputed multiplier table (x_{k+j} = a^j x_k mod m), the
twisted generator runs its update over whole state arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import SeedableStream

_BLOCK = 4096


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
        # A[j] = a^(j+1) mod m
        table = np.empty(_BLOCK, dtype=np.int64)
        acc = 1
        for j in range(_BLOCK):
            acc = (acc * self._a) % self._m
            table[j] = acc
        self._table = table
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
        c = min(n, _BLOCK)
        out = (self._table[:c] * self._x) % self._m
        self._x = int(out[-1])
        return out.astype(np.uint64)


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


class Ecuyer1988(SeedableStream):
    """L'Ecuyer's 1988 combined generator.

    Two multiplicative congruential components (moduli 2147483563 and
    2147483399, multipliers 40014 and 40692); outputs are the difference
    of the component outputs shifted into [1, 2147483562].  Each
    component is seeded from s modulo its own modulus, zero remapped to 1.
    """

    name = "ecuyer1988"
    _m1, _a1 = 2147483563, 40014
    _m2, _a2 = 2147483399, 40692

    def __init__(self, seed: int = 1):
        super().__init__()
        self.min_value = 1
        self.max_value = self._m1 - 1
        self._t1 = self._power_table(self._a1, self._m1)
        self._t2 = self._power_table(self._a2, self._m2)
        self.seed(seed)

    @staticmethod
    def _power_table(a: int, m: int) -> np.ndarray:
        table = np.empty(_BLOCK, dtype=np.int64)
        acc = 1
        for j in range(_BLOCK):
            acc = (acc * a) % m
            table[j] = acc
        return table

    def seed(self, s: int) -> None:
        if s < 0:
            raise ConfigurationError("seed must be non-negative")
        self._x1 = (s % self._m1) or 1
        self._x2 = (s % self._m2) or 1
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        c = min(n, _BLOCK)
        v1 = (self._t1[:c] * self._x1) % self._m1
        v2 = (self._t2[:c] * self._x2) % self._m2
        self._x1 = int(v1[-1])
        self._x2 = int(v2[-1])
        z = (v1 - v2) % (self._m1 - 1)
        z[z == 0] = self._m1 - 1
        return z.astype(np.uint64)


class Mt19937(SeedableStream):
    """Mersenne Twister MT19937 with the 2002 integer seeding recurrence."""

    name = "mt-19937"
    _N = 624
    _M = 397

    def __init__(self, seed: int = 5489):
        super().__init__()
        self.min_value = 0
        self.max_value = 2**32 - 1
        self.seed(seed)

    def seed(self, s: int) -> None:
        if s < 0:
            raise ConfigurationError("seed must be non-negative")
        state = np.empty(self._N, dtype=np.uint32)
        prev = s & 0xFFFFFFFF
        state[0] = prev
        for i in range(1, self._N):
            prev = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
            state[i] = prev
        self._mt = state
        self._reset_buffer()

    def load_state(self, words) -> None:
        """Load a full 624-word state directly (historical/reference runs)."""
        state = np.asarray(words, dtype=np.uint32)
        if state.shape != (self._N,):
            raise ConfigurationError("state must hold exactly 624 words")
        self._mt = state.copy()
        self._reset_buffer()

    def _twist(self) -> None:
        mt = self._mt
        upper = np.uint32(0x80000000)
        lower = np.uint32(0x7FFFFFFF)
        matrix = np.uint32(0x9908B0DF)
        y = (mt[:623] & upper) | (mt[1:] & lower)
        tw = (y >> np.uint32(1)) ^ np.where(y & np.uint32(1), matrix, np.uint32(0))
        new = np.empty_like(mt)
        new[:227] = mt[397:] ^ tw[:227]
        new[227:454] = new[:227] ^ tw[227:454]
        new[454:623] = new[227:396] ^ tw[454:623]
        y_last = (int(mt[623]) & 0x80000000) | (int(new[0]) & 0x7FFFFFFF)
        last = (y_last >> 1) ^ (0x9908B0DF if y_last & 1 else 0)
        new[623] = np.uint32(int(new[396]) ^ last)
        self._mt = new

    def _generate(self, n: int) -> np.ndarray:
        blocks = []
        for _ in range((n + self._N - 1) // self._N):
            self._twist()
            y = self._mt.copy()
            y ^= y >> np.uint32(11)
            y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
            y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
            y ^= y >> np.uint32(18)
            blocks.append(y)
        out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return out.astype(np.uint64)


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
        self._hist = filler.next_block(self._LONG).astype(np.uint32)
        self._initial_left = self._LONG
        self._reset_buffer()

    def _generate(self, n: int) -> np.ndarray:
        if self._initial_left > 0:
            start = self._LONG - self._initial_left
            c = min(n, self._initial_left)
            out = self._hist[start:start + c].copy()
            self._initial_left -= c
            return out.astype(np.uint64)
        c = min(n, self._SHORT)
        gap = self._LONG - self._SHORT
        new = self._hist[gap:gap + c] + self._hist[:c]
        self._hist = np.concatenate([self._hist[c:], new])
        return new.astype(np.uint64)


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
        self._tbl = [self._inner.next() for _ in range(self._size)]
        self._prev = self._tbl[-1]
        self._reset_buffer()

    def seed(self, s: int) -> None:
        self._inner.seed(s)
        self._fill()

    def _generate(self, n: int) -> np.ndarray:
        c = min(n, 1024)
        out = np.empty(c, dtype=np.uint64)
        lo = self.min_value
        span = self.range_size
        size = self._size
        tbl = self._tbl
        inner = self._inner
        prev = self._prev
        for i in range(c):
            j = ((prev - lo) * size) // span
            v = tbl[j]
            tbl[j] = inner.next()
            prev = v
            out[i] = v
        self._prev = prev
        return out
