"""Game-like and entropy tests: squeeze, craps, repetition time, gcd,
Maurer's universal statistic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..genkit.base import RandomStream, scan
from ..genkit.bits import read_fields
from ..genkit.distributions import int_draws, uniform01_map, \
    uniform_int_block
from .base import (
    Param,
    TestCase,
    block_counts,
    check_budget,
    chi_square_result,
    gaussian_result,
)
from .kernels import craps_kernel, euclid, maurer_sum, repetition_times, \
    squeeze_kernel


# Iteration-count frequencies for cells 6..48 from a 10^8-game
# calibration run (count-down from 2^31 by k = ceil(k*u)); cells below 6
# and above 48 are folded into the edge cells.
_SQUEEZE_COUNTS = (
    2077, 5773, 17596, 46803, 111279, 237777, 463436, 830920,
    1370312, 2108299, 3036077, 4103306, 5237823, 6324417, 7245817,
    7909938, 8258487, 8237138, 7889491, 7262811, 6436430, 5504038,
    4542701, 3634356, 2812454, 2116322, 1547642, 1100421, 762569,
    515830, 338569, 218216, 138284, 85795, 51967, 30765, 17909,
    10358, 5772, 3267, 1795, 970, 1167,
)

SQUEEZE_CELL_PROBS = np.asarray(_SQUEEZE_COUNTS, dtype=np.float64)
SQUEEZE_CELL_PROBS /= SQUEEZE_CELL_PROBS.sum()
SQUEEZE_CELL_PROBS.flags.writeable = False


class SqueezeTest(TestCase):
    """Iterations to squeeze 2^31 down to 1 by k = ceil(k*u), per game."""

    test_name = "Squeeze-Test"

    _GAME_CAP = 10000
    # raw words read per game still needed: a game takes 23.07 on
    # average, and the lockstep kernel wants large blocks, up to 2^20
    # words (4 MiB)
    _WORDS_PER_GAME = 24
    _MAX_BLOCK = 1 << 20

    PARAMS = (Param("games", "Number of Games", 100000, 1),)

    def run(self, stream: RandomStream):
        """Consumes through the draw finishing the last game."""
        counts = np.zeros(SQUEEZE_CELL_PROBS.size, dtype=np.int64)

        def step(raw, remaining):
            return squeeze_kernel(raw, lambda r: uniform01_map(stream, r),
                                  counts, remaining, self._GAME_CAP)

        scan(stream, self.games, step, self._WORDS_PER_GAME, self._MAX_BLOCK)
        return [chi_square_result(counts, SQUEEZE_CELL_PROBS, self.games)]


def craps_win_probability() -> Fraction:
    """Exact win probability of the shooter, from the come-out table."""
    ways = {s: 6 - abs(s - 7) for s in range(2, 13)}
    p = Fraction(ways[7] + ways[11], 36)
    for point in (4, 5, 6, 8, 9, 10):
        w = ways[point]
        p += Fraction(w, 36) * Fraction(w, w + 6)
    return p


def craps_throw_probabilities(cells: int = 21) -> np.ndarray:
    """P(game lasts exactly n throws) for n = 1..cells-1 plus the tail.

    A game ends on throw 1 with probability 12/36; with a point
    established, each later throw resolves with the point's own odds,
    giving a geometric continuation.
    """
    ways = {s: 6 - abs(s - 7) for s in range(2, 13)}
    probs = [Fraction(ways[7] + ways[11] + ways[2] + ways[3] + ways[12], 36)]
    for n in range(2, cells):
        p = Fraction(0)
        for point in (4, 5, 6, 8, 9, 10):
            w = ways[point]
            resolve = Fraction(w + 6, 36)
            p += Fraction(w, 36) * (1 - resolve) ** (n - 2) * resolve
        probs.append(p)
    tail = 1 - sum(probs)
    return np.asarray([float(p) for p in probs] + [float(tail)])


class CrapsTest(TestCase):
    """Craps games: win rate as a Gaussian, throw counts as a chi-square.

    Dice are the draws from {0, ..., 5} by `int_draws`, the rule by
    which uniform_int_block(stream, 1, 6, n) draws them; both reference
    laws are computed exactly at run time from the dice-sum table.
    """

    test_name = "Craps-Test"

    _THROW_CAP = 10000
    _CELLS = 21
    # dice per game: a game takes 557/165 throws on average
    _DICE_PER_GAME = 2 * 557 / 165

    PARAMS = (Param("games", "Number of Games", 200000, 1),)

    def run(self, stream: RandomStream):
        """Consumes through the draw deciding the last game."""
        throws = np.zeros(self._CELLS, dtype=np.int64)
        wins = 0

        def step(raw, remaining):
            nonlocal wins
            dice, acc, words = int_draws(stream, raw, 0, 5)
            done, won, used = craps_kernel(dice, throws, remaining,
                                           self._THROW_CAP)
            wins += won
            return done, (int(acc[used - 1]) + 1) * words if used else 0

        scan(stream, self.games, step, self._DICE_PER_GAME)
        p_w = float(craps_win_probability())
        z = (wins - self.games * p_w) / math.sqrt(
            self.games * p_w * (1.0 - p_w)
        )
        self.diagnostics = (("Games Won", wins),)
        return [
            gaussian_result(z),
            chi_square_result(throws, craps_throw_probabilities(self._CELLS),
                              self.games),
        ]


def repetition_pmf(bits: int, coverage: float = 1.0 - 1e-9) -> np.ndarray:
    """P(T = t) for t = 0..tmax of the first-repeat time among 2^bits
    values; extends until the cdf reaches `coverage`.  Entries 0 and 1
    are zero (a repeat needs two draws)."""
    m = float(2**bits)
    tmax = int(6.0 * math.sqrt(m)) + 10
    while True:
        # survival S[j] = P(first j+1 draws all distinct), j = 0..
        fall = 1.0 - np.arange(1, tmax, dtype=np.float64) / m
        np.maximum(fall, 0.0, out=fall)
        surv = np.concatenate([[1.0], np.cumprod(fall)])
        pmf = np.zeros(tmax + 1)
        t = np.arange(2, tmax + 1, dtype=np.float64)
        pmf[2:] = surv[: tmax - 1] * (t - 1.0) / m
        if pmf.sum() >= coverage or tmax > 64 * int(math.sqrt(m) + 2):
            return pmf
        tmax *= 2


def repetition_bins(bits: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile bin edges and exact bin probabilities for the repeat time.

    Bin i covers t in (edges[i-1], edges[i]]; a final open bin catches
    the tail when it has mass.  Laws with short support yield fewer bins.
    """
    pmf = repetition_pmf(bits)
    cdf = np.cumsum(pmf)
    edges = []
    probs = []
    prev_cum = 0.0
    target = 1.0 / n_bins
    for t in range(2, pmf.size):
        if cdf[t] + 1e-15 >= target and pmf[t] > 0.0:
            edges.append(t)
            probs.append(cdf[t] - prev_cum)
            prev_cum = cdf[t]
            while target <= cdf[t] + 1e-15:
                target += 1.0 / n_bins
            if target > 1.0 - 1e-12:
                break
    tail = 1.0 - prev_cum
    if tail > 1e-12:
        probs.append(tail)
    if len(probs) < 2:
        raise ConfigurationError(
            "repeat-time law too concentrated for the requested bins"
        )
    return np.asarray(edges, dtype=np.int64), np.asarray(probs)


class RepetitionTest(TestCase):
    """Draws until the first repeated b-bit value, binned at the exact
    law's quantiles.

    Values are the high b bits of each raw output.  A scan block holds
    the law's mean words per repetition still needed, but at most
    max(2^14, 16 x the mean): one sort over about 16 repetitions costs
    less than one over many more.
    """

    test_name = "Repetition-Test"

    PARAMS = (
        Param("bits", "Field Width", 20, 1, 30),
        Param("reps", "Repetitions", 500, 10),
    )

    def run(self, stream: RandomStream):
        """Consumes through the draw ending the last repetition."""
        if stream.bit_width < self.bits:
            raise ConfigurationError(
                f"stream outputs have {stream.bit_width} bits; "
                f"cannot extract {self.bits}"
            )
        shift = stream.bit_width - self.bits
        ts = np.empty(self.reps, dtype=np.int64)
        done = 0
        pmf = repetition_pmf(self.bits)
        mean = float(pmf @ np.arange(pmf.size))

        def step(raw, remaining):
            nonlocal done
            times, used = repetition_times(raw >> np.uint32(shift), remaining)
            ts[done:done + times.size] = times
            done += times.size
            return times.size, used

        scan(stream, self.reps, step, mean, max(1 << 14, int(16 * mean)))
        n_bins = max(10, min(30, self.reps // 25))
        edges, probs = repetition_bins(self.bits, n_bins)
        cells = np.searchsorted(edges, ts, side="left")
        counts = np.bincount(cells, minlength=probs.size)[: probs.size]
        return [chi_square_result(counts, probs, self.reps)]


class GcdTest(TestCase):
    """gcd of uniform integer pairs vs P(g = j) proportional to 1/j^2."""

    test_name = "GCD-Test"

    _TOP = 50

    PARAMS = (Param("pairs", "Number of Pairs", 100000, 1),)

    def cell_probabilities(self) -> np.ndarray:
        j = np.arange(1, self._TOP + 1, dtype=np.float64)
        probs = (6.0 / math.pi**2) / (j * j)
        return np.concatenate([probs, [1.0 - probs.sum()]])

    def run(self, stream: RandomStream):
        """Consumes raw draws through the one yielding integer 2*pairs."""
        total = most = 0  # division steps over all pairs, and the most

        def cells(size):
            nonlocal total, most
            vals = uniform_int_block(stream, 1, 2**31 - 1, 2 * size)
            gs, steps = euclid(vals[0::2], vals[1::2])
            total += int(steps.sum())
            most = max(most, int(steps.max()))
            return np.minimum(gs, self._TOP + 1) - 1

        counts = block_counts(self._TOP + 1, self.pairs, 2, cells)
        self.diagnostics = (
            ("Mean Division Steps", total / self.pairs),
            ("Max Division Steps", most),
        )
        return [chi_square_result(counts, self.cell_probabilities(),
                                  self.pairs)]


@lru_cache(maxsize=32)
def maurer_reference(L: int) -> tuple[float, float]:
    """Expected value and variance of log2 distance between block
    recurrences for random L-bit blocks.

    E = sum over i >= 1 of q(1-q)^(i-1) log2 i with q = 2^-L; the
    variance uses the matching second moment.  The geometric series is
    summed in chunks until the remaining tail is negligible.
    """
    q = 2.0**-L
    e = 0.0
    m2 = 0.0
    start = 1
    chunk = 1 << 16
    while True:
        i = np.arange(start, start + chunk, dtype=np.float64)
        w = q * (1.0 - q) ** (i - 1.0)
        lg = np.log2(i)
        e += float(w @ lg)
        m2 += float(w @ (lg * lg))
        start += chunk
        tail_weight = (1.0 - q) ** (start - 1.0)
        bound = tail_weight * math.log2(start + 64.0 / q) ** 2
        if bound < 1e-12 * max(m2, 1e-300):
            break
        if start > (1 << 28):
            break
    return e, m2 - e * e


class MaurersUniversalTest(TestCase):
    """Maurer's universal statistic over L-bit blocks of the bit stream."""

    test_name = "Maurers-Universal-Test"

    PARAMS = (
        Param("L", "Block Bits", 8, 1, 24),
        Param("Q", "Initialization Blocks", 2560, 1),
        Param("K", "Test Blocks", 256000, 1),
    )

    def check_arguments(self):
        if self.Q < 10 * 2**self.L:
            raise ConfigurationError(
                f"{self.Q} initialization blocks cannot cover a "
                f"{2**self.L}-entry table; need at least {10 * 2**self.L}"
            )
        check_budget("(Q + K) * L", (self.Q + self.K) * self.L)

    def run(self, stream: RandomStream):
        """Consumes ceil((Q+K)*L / width) raw draws via bits."""
        vals = np.ascontiguousarray(
            read_fields(stream, self.Q + self.K, self.L)
        )
        total = maurer_sum(vals, self.Q, self.K)
        f = total / self.K
        e, var = maurer_reference(self.L)
        c = (0.7 - 0.8 / self.L
             + (4.0 + 32.0 / self.L) * self.K ** (-3.0 / self.L) / 15.0)
        sigma = c * math.sqrt(var / self.K)
        self.diagnostics = (("Statistic f", f),)
        return [gaussian_result((f - e) / sigma)]
