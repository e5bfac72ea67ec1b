"""Occupancy, spacing, and geometry tests: collision, birthday spacings,
binary rank, parking lot, minimum distance, random walk, monkey words.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..genkit.base import RandomStream
from ..genkit.bits import read_bits, read_fields
from ..genkit.distributions import uniform01_block, uniform_int_block
from ..stats import StatKind, StatisticResult
from .base import (
    WORD_VALUES,
    Param,
    TestCase,
    check_budget,
    chi_square_result,
    gaussian_result,
    ks_result,
)
from .kernels import gf2_rank_counts, min_squared_distance, parking_kernel


@lru_cache(maxsize=8)
def collision_null_distribution(m: int, n: int) -> tuple:
    """Exact distribution of the collision count for n balls in m urns.

    Returns (pmf, cdf) over c = 0..n; built by the occupancy recurrence
    over the number of occupied urns, one ball at a time.  After i
    balls, no more than i urns are occupied, and the entries below the
    first nonzero one have underflowed to 0 for good; each step updates
    only the band between.
    """
    p = np.zeros(n + 1)
    p[0] = 1.0
    occ = np.arange(n + 1, dtype=np.float64)
    stay = occ / m
    grow = (m - occ) / m
    lo = 0
    for i in range(n):
        band = p[lo:i + 2]
        shifted = band[:-1] * grow[lo:i + 1]
        band *= stay[lo:i + 2]
        band[1:] += shifted
        while p[lo] == 0.0:
            lo += 1
    # p[occ] = P(occupied == occ); collisions c = n - occ
    pmf = p[::-1].copy()
    cdf = np.cumsum(pmf)
    pmf.flags.writeable = False
    cdf.flags.writeable = False
    return pmf, cdf


class CollisionTest(TestCase):
    """Number of urn collisions against its exact sparse-occupancy law."""

    test_name = "Collision-Test"

    PARAMS = (
        Param("m", "Number of Urns", 2**20, 2, WORD_VALUES),
        Param("n", "Number of Balls", 2**14, 1),
    )

    def check_arguments(self):
        if self.n >= self.m:
            raise ConfigurationError(
                f"{self.n} balls into {self.m} urns is not sparse; need n < m"
            )

    def run(self, stream: RandomStream):
        """Consumes exactly n draws."""
        u = uniform01_block(stream, self.n)
        urns = (u * self.m).astype(np.int64)
        urns.sort()
        c = int(np.count_nonzero(urns[1:] == urns[:-1]))  # n - distinct
        pmf, cdf = collision_null_distribution(self.m, self.n)
        lower = float(cdf[c])                         # P(C <= c)
        upper = float(cdf[c - 1]) if c > 0 else 0.0   # 1 - P(C >= c)
        return [StatisticResult(
            kind=StatKind.GAUSSIAN,
            statistic_value=float(c),
            p_values={"lower": min(lower, 1.0), "upper": min(upper, 1.0)},
        )]


class BirthdaySpacingsTest(TestCase):
    """Duplicate spacings among sorted birthdays vs a Poisson law."""

    test_name = "Birthday-Spacings-Test"

    PARAMS = (
        Param("m", "Number of Days", 2**24, 2, WORD_VALUES),
        Param("n", "Number of Birthdays", 512, 3),
        Param("reps", "Repetitions", 200, 10),
    )

    @property
    def lam(self) -> float:
        return self.n**3 / (4.0 * self.m)

    def check_arguments(self):
        if self.lam > 100.0:
            raise ConfigurationError(
                f"Poisson rate {self.lam:.1f} too large; the asymptotic law "
                "needs n^3/(4m) <= 100"
            )
        check_budget("n * reps", self.n * self.reps)

    def run(self, stream: RandomStream):
        """Consumes raw draws through the one yielding birthday n*reps."""
        vals = uniform_int_block(stream, 0, self.m - 1, self.n * self.reps)
        days = np.sort(vals.reshape(self.reps, self.n), axis=1)
        spacings = np.sort(np.diff(days, axis=1), axis=1)
        y = (spacings[:, 1:] == spacings[:, :-1]).sum(axis=1)
        ycap = int(self.lam + 10.0 * math.sqrt(self.lam) + 15.0)
        pmf = np.empty(ycap + 1)
        pmf[0] = math.exp(-self.lam)
        for k in range(1, ycap):
            pmf[k] = pmf[k - 1] * self.lam / k
        pmf[ycap] = max(0.0, 1.0 - pmf[:ycap].sum())
        counts = np.bincount(np.minimum(y, ycap), minlength=ycap + 1)
        return [chi_square_result(counts, pmf, self.reps)]


def _rank_probability(rows: int, cols: int, r: int) -> Fraction:
    """Exact P(rank = r) for a random GF(2) matrix: the product over
    i < r of (2^rows - 2^i)(2^cols - 2^i) / (2^r - 2^i), over
    2^(rows cols), as one Fraction of two integer products."""
    num = den = 1
    for i in range(r):
        num *= ((1 << rows) - (1 << i)) * ((1 << cols) - (1 << i))
        den *= (1 << r) - (1 << i)
    return Fraction(num, den << (rows * cols))


def rank_distribution(rows: int, cols: int) -> list:
    """Exact P(rank = r) for random GF(2) matrices, as Fractions."""
    return [_rank_probability(rows, cols, r)
            for r in range(min(rows, cols) + 1)]


class BinaryRankTest(TestCase):
    """GF(2) rank census of random bit matrices.

    Categories are full rank, full-1, full-2, and everything below,
    matching where the analytic law still has mass.
    """

    test_name = "Binary-Rank-Test"

    # a row of bits is packed in one word of at most 64 bits
    PARAMS = (
        Param("rows", "Rows", 32, 1, 64),
        Param("cols", "Columns", 32, 1, 64),
        Param("n_matrices", "Number of Matrices", 4000, 1),
    )

    def check_arguments(self):
        check_budget("rows * cols * n_matrices",
                     self.rows * self.cols * self.n_matrices)

    def _categories(self) -> tuple[list, np.ndarray]:
        """Ranks listed per category (descending) plus a pooled-low tail."""
        full = min(self.rows, self.cols)
        named = [full - i for i in range(min(3, full + 1))]
        exact = [_rank_probability(self.rows, self.cols, r) for r in named]
        probs = [float(p) for p in exact]
        tail = 1.0 - float(sum(exact))
        if len(named) <= full:
            probs.append(tail)
        return named, np.asarray(probs)

    def run(self, stream: RandomStream):
        """Consumes ceil(n_matrices*rows*cols / width) raw draws via bits."""
        rows = read_fields(stream, self.n_matrices * self.rows, self.cols)
        mats = rows.reshape(self.n_matrices, self.rows)
        rank_counts = gf2_rank_counts(mats, self.cols)
        named, probs = self._categories()
        counts = [int(rank_counts[r]) for r in named]
        if len(probs) > len(named):
            counts.append(int(self.n_matrices - sum(counts)))
        return [chi_square_result(np.asarray(counts), probs,
                                  self.n_matrices)]


class ParkingLotTest(TestCase):
    """Sequential parking on a square; success count vs its calibrated law.

    The reference constants (mean 3523, deviation 21.9) are calibrated
    for the default geometry of 12000 attempts on side 100.
    """

    test_name = "Parking-Lot-Test"

    _MEAN = 3523.0
    _SIGMA = 21.9

    # the side must exceed the crash distance 1
    PARAMS = (
        Param("attempts", "Attempts", 12000, 1),
        Param("side", "Side Length", 100.0, 1.0, WORD_VALUES, low_open=True),
    )

    def park(self, stream: RandomStream) -> int:
        """Park up to `attempts` cars; returns the success count."""
        u = uniform01_block(stream, 2 * self.attempts)
        return parking_kernel(u[0::2] * self.side, u[1::2] * self.side)

    def run(self, stream: RandomStream):
        """Consumes exactly 2 * attempts draws."""
        k = self.park(stream)
        z = (k - self._MEAN) / self._SIGMA
        result = gaussian_result(z)
        self.diagnostics = (("Cars Parked", k),)
        return [result]


class MinimumDistanceTest(TestCase):
    """Minimum pairwise distance of random points, repeated; KS on the
    transformed statistic U = 1 - exp(-d^2 / 0.995)."""

    test_name = "Minimum-Distance-Test"

    _SCALE = 0.995

    PARAMS = (
        Param("points", "Number of Points", 8000, 2),
        Param("side", "Side Length", 10000.0, 0.0, WORD_VALUES,
              low_open=True),
        Param("reps", "Repetitions", 100, 1),
    )

    def check_arguments(self):
        check_budget("points * reps", self.points * self.reps)

    def minimum_squared_distance(self, stream: RandomStream) -> float:
        u = uniform01_block(stream, 2 * self.points)
        return min_squared_distance(u[0::2] * self.side, u[1::2] * self.side)

    def run(self, stream: RandomStream):
        """Consumes exactly 2 * points * reps draws."""
        us = np.empty(self.reps)
        for i in range(self.reps):
            d2 = self.minimum_squared_distance(stream)
            us[i] = 1.0 - math.exp(-d2 / self._SCALE)
        return [ks_result(us)]


class RandomWalkTest(TestCase):
    """Final quadrants of diagonal random walks vs uniform.

    Each step moves (+-1, +-1); two stream bits choose the signs, the
    first bit driving x, with bit 0 mapping to +1.  An odd step count
    keeps both final coordinates off the axes.
    """

    test_name = "Random-Walk-Test"

    PARAMS = (
        Param("walkers", "Number of Walkers", 10000, 1),
        Param("steps", "Number of Steps", 101, 1),
    )

    def check_arguments(self):
        if self.steps % 2 == 0:
            raise ConfigurationError(
                f"step count {self.steps} must be odd so no walk ends on "
                "an axis"
            )
        check_budget("walkers * steps", self.walkers * self.steps)

    def run(self, stream: RandomStream):
        """Consumes ceil(2*walkers*steps / width) raw draws via bits."""
        bits = read_bits(stream, 2 * self.walkers * self.steps)
        ones = bits.reshape(self.walkers, self.steps, 2).sum(
            axis=1, dtype=np.int64)
        finals = self.steps - 2 * ones
        quadrant = 2 * (finals[:, 0] < 0) + (finals[:, 1] < 0)
        counts = np.bincount(quadrant, minlength=4)
        return [chi_square_result(counts, np.full(4, 0.25), self.walkers)]


class Monkey20BitTest(TestCase):
    """Missing 20-bit words among 2^21 overlapping windows of a bit stream.

    The window slides one bit per step; the deviation scale 428 is a
    calibration constant, the mean 2^20 * e^-2 is computed here.  The
    window at bit o of packed byte k is bits o..o+19 of bytes k..k+3
    read as one big-endian 32-bit value: eight shifts give them all.
    """

    test_name = "Monkey-20bit-Test"

    _WORD_BITS = 20
    _N_WORDS = 2**21
    _SIGMA = 428.0

    def run(self, stream: RandomStream):
        """Consumes ceil((2^21 + 19) / width) raw draws via bits."""
        packed = np.packbits(
            read_bits(stream, self._N_WORDS + self._WORD_BITS - 1))
        joined = np.ndarray(self._N_WORDS // 8, ">u4", packed,
                            strides=(1,)).astype(np.uint32)
        seen = np.zeros(2**self._WORD_BITS, dtype=bool)
        for o in range(8):
            seen[(joined >> (12 - o)) & 0xFFFFF] = True
        missing = int(seen.size - np.count_nonzero(seen))
        mean = 2.0**self._WORD_BITS * math.exp(-2.0)
        z = (missing - mean) / self._SIGMA
        self.diagnostics = (("Missing Words", missing),)
        return [gaussian_result(z)]
