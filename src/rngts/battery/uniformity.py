"""Digit- and uniform-based tests: frequency, gap, serial, poker, coupon
collector, permutation, runs, max-of-t, serial correlation.

Tests that scan a data-dependent number of draws (gap, coupon collector,
runs) supply a per-block step to `genkit.base.scan`, which pushes
unconsumed raw outputs back onto the stream, so every draw is accounted
for exactly.  Chi-square, serial, poker and permutation draw and count
their sample a block at a time through `block_counts`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ..errors import ConfigurationError, TestAborted
from ..genkit.base import RandomStream, scan
from ..genkit.distributions import (
    int_draws,
    uniform01_block,
    uniform01_map,
    uniform_int_block,
)
from .base import (
    WORD_VALUES,
    Param,
    TestCase,
    block_counts,
    check_budget,
    chi_square_result,
    gaussian_result,
    ks_result,
)
from .kernels import coupon_kernel, row_maxima, runs_kernel


def _stirling2_rows(n: int, k: int) -> list:
    """Stirling numbers of the second kind S(m, j), m <= n, j <= k.

    Row m is built from row m - 1 by S(m, j) = j S(m-1, j) + S(m-1, j-1)
    in exact integers, without recursion, so n is not bounded by the
    interpreter's stack.
    """
    row = [1] + [0] * k
    rows = [row]
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
        rows.append(row)
    return rows


class ChisqrUniformityTest(TestCase):
    """Chi-square of [0, 1) draws binned into k equal cells."""

    test_name = "Chi-Square-Uniformity-Test"

    PARAMS = (
        Param("n", "Number of Numbers", 100000, 1),
        Param("k", "Number of Classes", 256, 2),
    )

    def check_arguments(self):
        if self.n < 5 * self.k:
            raise ConfigurationError(
                f"{self.n} draws into {self.k} cells leaves expected "
                "counts below 5"
            )

    def run(self, stream: RandomStream):
        """Consumes exactly n draws."""
        counts = block_counts(
            self.k, self.n, 1,
            lambda size: (uniform01_block(stream, size)
                          * self.k).astype(np.int64))
        probs = np.full(self.k, 1.0 / self.k)
        return [chi_square_result(counts, probs, self.n)]


class KsUniformityTest(TestCase):
    """KS of [0, 1) draws against F(x) = x; reports both one-sided p's."""

    test_name = "KS-Uniformity-Test"

    PARAMS = (Param("n", "Number of Numbers", 100000, 1),)

    def run(self, stream: RandomStream):
        """Consumes exactly n draws.

        The draws are sorted as raw words, in a copy the test owns, and
        the sorted words are mapped: the map is increasing, so their
        uniforms are the sorted sample, which KS does not sort again.
        """
        u = uniform01_map(stream, np.sort(stream.next_block(self.n)))
        return [ks_result(u)]


class GapTest(TestCase):
    """Lengths of gaps between hits of [alpha, beta) among [0, 1) draws."""

    test_name = "Gap-Test"

    _GAP_CAP = 1_000_000

    # a gap longer than the cap aborts, so a larger t is never reached
    PARAMS = (
        Param("alpha", "Alpha", 0.0, 0.0, 1.0),
        Param("beta", "Beta", 0.5, 0.0, 1.0),
        Param("t", "Maximum Gap Length", 16, 1, _GAP_CAP),
        Param("n_gaps", "Number of Gaps", 10000, 1),
    )

    def check_arguments(self):
        if not (0.0 < self.beta - self.alpha < 1.0):
            raise ConfigurationError(
                f"hit range [{self.alpha}, {self.beta}) must be a proper "
                "subinterval of [0, 1)"
            )

    def cell_probabilities(self) -> np.ndarray:
        p = self.beta - self.alpha
        r = np.arange(self.t, dtype=np.float64)
        probs = p * (1.0 - p) ** r
        return np.concatenate([probs, [(1.0 - p) ** self.t]])

    def run(self, stream: RandomStream):
        """Consumes through the hit closing the n_gaps-th gap."""
        counts = np.zeros(self.t + 1, dtype=np.int64)
        carry = 0  # draws since the last hit, across blocks

        def step(raw, remaining):
            nonlocal carry
            u = uniform01_map(stream, raw)
            hits = np.flatnonzero((u >= self.alpha) & (u < self.beta))
            hits = hits[:remaining]  # stop at the hit closing the last gap
            if hits.size:
                gaps = np.concatenate(
                    [[carry + int(hits[0])], np.diff(hits) - 1]
                )
                counts[:] += np.bincount(
                    np.minimum(gaps, self.t), minlength=self.t + 1
                )
                if hits.size == remaining:
                    return hits.size, int(hits[-1]) + 1
                carry = raw.size - (int(hits[-1]) + 1)
            else:
                carry += raw.size
            if carry > self._GAP_CAP:
                raise TestAborted(
                    f"open gap exceeded {self._GAP_CAP} draws without a hit"
                )
            return hits.size, raw.size

        # a draw is a hit with probability beta - alpha
        scan(stream, self.n_gaps, step, 1.0 / (self.beta - self.alpha))
        return [chi_square_result(counts, self.cell_probabilities(),
                                  self.n_gaps)]


class SerialTest(TestCase):
    """Chi-square of non-overlapping digit pairs over all d^2 cells."""

    test_name = "Serial-Test"

    PARAMS = (
        Param("d", "Alphabet Size", 64, 2, WORD_VALUES),
        Param("n_pairs", "Number of Pairs", 25000, 1),
    )

    def check_arguments(self):
        if self.n_pairs < 5 * self.d * self.d:
            raise ConfigurationError(
                f"{self.n_pairs} pairs over {self.d * self.d} cells leaves "
                "expected counts below 5"
            )

    def run(self, stream: RandomStream):
        """Consumes raw draws through the one yielding digit 2*n_pairs."""
        def cells(size):
            digits = uniform_int_block(stream, 0, self.d - 1, 2 * size)
            # a cell passes 32 bits once d passes 2^16
            return (np.multiply(digits[0::2], self.d, dtype=np.int64)
                    + digits[1::2])

        counts = block_counts(self.d * self.d, self.n_pairs, 2, cells)
        probs = np.full(self.d * self.d, 1.0 / (self.d * self.d))
        return [chi_square_result(counts, probs, self.n_pairs)]


class PokerTest(TestCase):
    """Distinct-digit count in 5-digit hands vs the partition distribution."""

    test_name = "Poker-Test"

    PARAMS = (
        Param("d", "Alphabet Size", 16, 2, WORD_VALUES),
        Param("n_hands", "Number of Hands", 10000, 1),
    )

    def cell_probabilities(self) -> np.ndarray:
        # P(r distinct) = S(5, r) * d(d-1)...(d-r+1) / d^5; r > d impossible
        d = self.d
        s5 = _stirling2_rows(5, 5)[5]
        probs = []
        for r in range(1, min(5, d) + 1):
            ff = Fraction(1)
            for i in range(r):
                ff *= d - i
            probs.append(float(s5[r] * ff / d**5))
        return np.asarray(probs)

    def run(self, stream: RandomStream):
        """Consumes raw draws through the one yielding digit 5*n_hands."""
        def cells(size):
            digits = uniform_int_block(stream, 0, self.d - 1, 5 * size)
            hands = np.sort(digits.reshape(size, 5), axis=1)
            # distinct digits less one: below min(5, d)
            return (np.diff(hands, axis=1) != 0).sum(axis=1)

        counts = block_counts(min(5, self.d), self.n_hands, 5, cells)
        return [chi_square_result(counts, self.cell_probabilities(),
                                  self.n_hands)]


class CouponCollectorTest(TestCase):
    """Segment lengths needed to see all d digit values at least once.

    Digits are the draws from {0, ..., d-1} by `int_draws`, the rule by
    which uniform_int_block(stream, 0, d - 1, n) draws them.
    """

    test_name = "Coupon-Collector-Test"

    _SEGMENT_CAP = 1_000_000
    # The exact law is a table of t rows by d + 1 exact integers of up
    # to t log2(d) bits; at this size it takes up to about 2 s to build.
    _LAW_SIZE = 2**15

    PARAMS = (
        Param("d", "Alphabet Size", 8, 2, WORD_VALUES),
        Param("t", "Maximum Segment Length", 30, 3),
        Param("n_segments", "Number of Segments", 5000, 1),
    )

    def check_arguments(self):
        if self.t <= self.d:
            raise ConfigurationError(
                f"maximum segment length {self.t} must exceed alphabet "
                f"size {self.d}"
            )
        if self.d * self.t > self._LAW_SIZE:
            raise ConfigurationError(
                f"d * t = {self.d * self.t} exceeds {self._LAW_SIZE}, the "
                "largest exact law of segment lengths built"
            )

    def cell_probabilities(self) -> np.ndarray:
        # P(r) = d!/d^r * S(r-1, d-1) for r = d..t-1, plus the complement tail
        d, t = self.d, self.t
        dfact = math.factorial(d)
        s = _stirling2_rows(t - 1, d)
        probs = [
            float(Fraction(dfact, d**r) * s[r - 1][d - 1])
            for r in range(d, t)
        ]
        tail = 1.0 - float(Fraction(dfact, d ** (t - 1)) * s[t - 1][d])
        return np.asarray(probs + [tail])

    def run(self, stream: RandomStream):
        """Consumes through the draw completing the last segment."""
        counts = np.zeros(self.t - self.d + 1, dtype=np.int64)

        def step(raw, remaining):
            digits, acc, words = int_draws(stream, raw, 0, self.d - 1)
            done, used = coupon_kernel(digits, self.d, self.t, counts,
                                       remaining, self._SEGMENT_CAP)
            return done, (int(acc[used - 1]) + 1) * words if used else 0

        # a segment takes d H_d digits on average
        scan(stream, self.n_segments, step,
             self.d * math.fsum(1 / k for k in range(1, self.d + 1)))
        return [chi_square_result(counts, self.cell_probabilities(),
                                  self.n_segments)]


class PermutationTest(TestCase):
    """Order patterns of non-overlapping groups of t draws vs uniform on t!."""

    test_name = "Permutation-Test"

    # t! cells: 8 gives 40320
    PARAMS = (
        Param("t", "Group Size", 5, 2, 8),
        Param("n_groups", "Number of Groups", 12000, 1),
    )

    def check_arguments(self):
        check_budget("t * n_groups", self.t * self.n_groups)

    @staticmethod
    def pattern_index(group: np.ndarray) -> int:
        """Rank one group's order pattern; ties resolve to the later draw."""
        return int(PermutationTest._rank_groups(
            np.asarray(group, dtype=np.float64).reshape(1, -1))[0])

    @staticmethod
    def _rank_by_swaps(g: np.ndarray) -> np.ndarray:
        """Knuth's algorithm P over each row of g, one step per position.

        For r = t, ..., 2, s is the last position of the largest of the
        row's first r entries, the rank becomes f r + s, and entries s
        and r - 1 swap places.
        """
        g = g.copy()
        n, t = g.shape
        rows = np.arange(n)
        f = np.zeros(n, dtype=np.int64)
        for r in range(t, 1, -1):
            seg = g[:, :r]
            # last position of the maximum: earlier draws compare smaller
            s = r - 1 - seg[:, ::-1].argmax(axis=1)
            f = f * r + s
            tmp = g[rows, s].copy()
            g[rows, s] = g[:, r - 1]
            g[:, r - 1] = tmp
        return f

    @staticmethod
    def _rank_groups(g: np.ndarray) -> np.ndarray:
        """Algorithm P's rank of each row of g, of raw words or uniforms.

        A row of distinct entries has one of t! orders, and its Lehmer
        code (for each entry, how many later entries are smaller, in
        the mixed radix (t-1)!, ..., 1!) is that order's index among
        the orderings of range(t) in lexicographic order.  So a table of
        algorithm P's rank of every ordering turns the codes, found by
        t (t - 1) / 2 column comparisons, into ranks.  A row with equal
        entries is ranked by algorithm P itself: its tie rule goes by
        where entries stand after the earlier swaps, not where they
        were drawn.
        """
        n, t = g.shape
        cols = np.ascontiguousarray(g.T)
        code = np.zeros(n, dtype=np.intp)
        tied = np.zeros(n, dtype=bool)
        less = np.empty((t - 1, n), dtype=bool)
        for i in range(t - 1):
            later = cols[i + 1:]
            code *= t - i
            np.less(later, cols[i], out=less[:t - 1 - i])
            code += less[:t - 1 - i].sum(axis=0)
            tied |= (later == cols[i]).any(axis=0)
        f = _pattern_ranks(t)[code]
        if tied.any():
            at = np.flatnonzero(tied)
            f[at] = PermutationTest._rank_by_swaps(g[at])
        return f

    def run(self, stream: RandomStream):
        """Consumes exactly t * n_groups draws."""
        cells = math.factorial(self.t)
        # raw words have the order of their uniforms
        counts = block_counts(
            cells, self.n_groups, self.t,
            lambda size: self._rank_groups(
                stream.next_block(self.t * size).reshape(size, self.t)))
        probs = np.full(cells, 1.0 / cells)
        return [chi_square_result(counts, probs, self.n_groups)]


@functools.lru_cache(maxsize=None)
def _pattern_ranks(t: int) -> np.ndarray:
    """Algorithm P's rank of every ordering of range(t), in
    lexicographic order, as read-only int64: t! entries, at most
    40320."""
    orders = np.array(list(itertools.permutations(range(t))))
    ranks = PermutationTest._rank_by_swaps(orders)
    ranks.flags.writeable = False
    return ranks


class RunsTest(TestCase):
    """Lengths of maximal ascending runs, one draw discarded after each."""

    test_name = "Run-Test"

    _RUN_CAP = 1000

    _PROBS = np.array(
        [1 / math.factorial(r) - 1 / math.factorial(r + 1) for r in range(1, 6)]
        + [1 / math.factorial(6)]
    )

    PARAMS = (Param("n_runs", "Number of Runs", 10000, 1),)

    def run(self, stream: RandomStream):
        """Consumes through the draw breaking the last run."""
        counts = np.zeros(6, dtype=np.int64)

        def step(raw, remaining):
            return runs_kernel(raw, counts, remaining, self._RUN_CAP)

        # a run and the draw after it take e draws on average
        scan(stream, self.n_runs, step, math.e)
        return [chi_square_result(counts, self._PROBS, self.n_runs)]


class MaxOfTTest(TestCase):
    """V = (max of t draws)^t is uniform under the null; KS against that."""

    test_name = "Maximum-of-t-Test"

    PARAMS = (
        Param("t", "Group Size", 8, 1),
        Param("n_groups", "Number of Groups", 10000, 1),
    )

    def check_arguments(self):
        check_budget("t * n_groups", self.t * self.n_groups)

    def run(self, stream: RandomStream):
        """Consumes exactly t * n_groups draws.

        The map is increasing, so each group's largest raw word maps to
        its largest uniform, and only the maxima are mapped.  The powers
        are sorted in place, so KS sorts no copy of them.
        """
        maxima = row_maxima(stream.next_block(
            self.t * self.n_groups).reshape(self.n_groups, self.t))
        v = uniform01_map(stream, maxima)
        del maxima
        v **= self.t
        v.sort()
        return [ks_result(v)]


class SerialCorrelationTest(TestCase):
    """Circular lag-1 serial correlation standardized to a Gaussian."""

    test_name = "Serial-Correlation-Test"

    PARAMS = (Param("n", "Number of Numbers", 100000, 10),)

    def run(self, stream: RandomStream):
        """Consumes exactly n draws."""
        n = self.n
        u = uniform01_block(stream, n)
        s1 = float(u.sum())
        s2 = float((u * u).sum())
        circ = float((u * np.roll(u, -1)).sum())
        denom = n * s2 - s1 * s1
        if denom == 0.0:
            raise TestAborted(
                "zero variance in the draw sequence; correlation undefined"
            )
        c = (n * circ - s1 * s1) / denom
        mu = -1.0 / (n - 1)
        sigma = math.sqrt(n * (n - 3.0) / (n + 1.0)) / (n - 1)
        return [gaussian_result((c - mu) / sigma)]
