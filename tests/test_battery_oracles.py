"""Null-distribution oracles for the battery.

Every reference law is checked against an independent computation done
here: exhaustive enumeration for small cases (all 64 urn sequences, all
512 binary 3x3 matrices, all 243 poker hands, depth-first sequence
enumeration with exact rationals), absorbing-chain algebra for craps,
and mpmath series values for Maurer's statistic.  Kernels are exercised
on hand-written buffers with known outcomes, including rollback and
abort paths.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngts.battery import kernels
from rngts.battery.games import (
    SQUEEZE_CELL_PROBS,
    craps_throw_probabilities,
    craps_win_probability,
    maurer_reference,
    repetition_bins,
    repetition_pmf,
)
from rngts.battery.kernels import (
    _walk,
    coupon_kernel,
    craps_kernel,
    euclid,
    gf2_rank_counts,
    maurer_sum,
    min_squared_distance,
    parking_kernel,
    previous_occurrence,
    repetition_times,
    runs_kernel,
    squeeze_kernel,
)
from rngts.battery.spatial import (
    BirthdaySpacingsTest,
    CollisionTest,
    MinimumDistanceTest,
    ParkingLotTest,
    collision_null_distribution,
    rank_distribution,
)
from rngts.battery.uniformity import (
    CouponCollectorTest,
    GapTest,
    PermutationTest,
    PokerTest,
    RunsTest,
)
from rngts.errors import ConfigurationError, TestAborted as AbortedError
from rngts.genkit.base import RandomStream
from rngts.genkit.distributions import int_draws, uniform01_map
from rngts.genkit.engines import Mt19937


class Scripted(RandomStream):
    name = "scripted"

    def __init__(self, values, max_value):
        super().__init__()
        self._vals = np.asarray(values, dtype=np.uint64)
        self._i = 0
        self.min_value = 0
        self.max_value = max_value

    def _generate(self, n):
        out = self._vals[self._i:self._i + n]
        self._i += out.size
        return out


# ---------------------------------------------------------------------------
# collision


class TestCollisionOracle:
    def test_enumeration_m4_n3(self):
        # all 64 ways to drop 3 balls into 4 urns; c = 3 - distinct urns.
        # with dyadic cell probabilities the float recurrence is exact.
        counts = {0: 0, 1: 0, 2: 0}
        for seq in itertools.product(range(4), repeat=3):
            counts[3 - len(set(seq))] += 1
        pmf, cdf = collision_null_distribution(4, 3)
        assert pmf.size == 4
        for c in range(3):
            assert pmf[c] == counts[c] / 64
        assert pmf[3] == 0.0
        assert cdf[0] == 24 / 64 and cdf[1] == 60 / 64 and cdf[2] == 1.0

    def test_enumeration_m3_n3(self):
        counts = {0: 0, 1: 0, 2: 0}
        for seq in itertools.product(range(3), repeat=3):
            counts[3 - len(set(seq))] += 1
        pmf, _ = collision_null_distribution(3, 3)
        for c in range(3):
            assert pmf[c] == pytest.approx(counts[c] / 27, abs=1e-15)

    def test_large_case_properties(self):
        pmf, cdf = collision_null_distribution(2**20, 2**14)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0.0)
        assert np.all(np.diff(cdf) >= -1e-15)
        # expected collisions n - m(1 - (1 - 1/m)^n) is about 127.9
        mean = float((np.arange(pmf.size) * pmf).sum())
        m, n = 2.0**20, 2.0**14
        assert mean == pytest.approx(n - m * (1 - (1 - 1 / m) ** n), rel=1e-6)

    def test_scripted_run(self):
        # urns (1, 1, 2): one collision
        case = CollisionTest(m=4, n=3)
        out = case.execute(Scripted([1, 1, 2], max_value=3), [0.05])
        res = out.results[0]
        assert res.statistic_value == 1.0
        assert res.p_values["lower"] == 60 / 64   # P(C <= 1)
        assert res.p_values["upper"] == 24 / 64   # P(C <= 0)

    def test_scripted_zero_collisions(self):
        out = CollisionTest(m=4, n=3).execute(
            Scripted([0, 1, 2], max_value=3), [0.05])
        res = out.results[0]
        assert res.p_values["lower"] == 24 / 64
        assert res.p_values["upper"] == 0.0

    def test_dense_case_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionTest(m=64, n=64)

    @pytest.mark.parametrize("m, n", [
        (2**20, 2**14), (2**16, 2**12), (1024, 1000), (100, 50), (7, 6),
    ])
    def test_banded_law_matches_full_recurrence(self, m, n):
        # the full-width occupancy recurrence the banded one replaced
        p = np.zeros(n + 1)
        p[0] = 1.0
        occ = np.arange(n + 1, dtype=np.float64)
        stay = occ / m
        grow = (m - occ) / m
        for _ in range(n):
            shifted = (p * grow)[:-1]
            p = p * stay
            p[1:] += shifted
        pmf = p[::-1].copy()
        got_pmf, got_cdf = collision_null_distribution(m, n)
        assert np.array_equal(got_pmf, pmf)
        assert np.array_equal(got_cdf, np.cumsum(pmf))


# ---------------------------------------------------------------------------
# binary rank


def _rank_gf2(matrix):
    """Row-reduce a list of 0/1 lists; plain scalar arithmetic."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rows):
            if r != rank and m[r][c]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestRankOracle:
    def test_census_3x3(self):
        # all 512 binary 3x3 matrices, ranked by independent elimination
        census = [0, 0, 0, 0]
        packed = np.empty((512, 3), dtype=np.uint64)
        for idx, bits in enumerate(itertools.product((0, 1), repeat=9)):
            matrix = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
            census[_rank_gf2(matrix)] += 1
            for r in range(3):
                packed[idx, r] = (matrix[r][0] << 2) | (matrix[r][1] << 1) \
                    | matrix[r][2]
        dist = rank_distribution(3, 3)
        for r in range(4):
            assert dist[r] == Fraction(census[r], 512)
        # the batched elimination reproduces the census exactly
        assert list(gf2_rank_counts(packed, 3)) == census

    def test_census_2x4(self):
        census = [0, 0, 0]
        for bits in itertools.product((0, 1), repeat=8):
            census[_rank_gf2([list(bits[:4]), list(bits[4:])])] += 1
        dist = rank_distribution(2, 4)
        for r in range(3):
            assert dist[r] == Fraction(census[r], 256)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 7), (32, 32)])
    def test_distribution_sums_to_one(self, shape):
        assert sum(rank_distribution(*shape)) == 1

    def test_kernel_known_matrices(self):
        identity = np.array([[4, 2, 1]], dtype=np.uint64)  # rank 3
        zero = np.zeros((1, 3), dtype=np.uint64)           # rank 0
        twice = np.array([[4, 4, 1]], dtype=np.uint64)     # rank 2
        for mats, expect in ((identity, 3), (zero, 0), (twice, 2)):
            counts = gf2_rank_counts(mats, 3)
            assert counts[expect] == 1 and counts.sum() == 1

    def test_batch_reaches_full_rank_at_different_columns(self):
        mats = np.array([
            [0b10000, 0b01000, 0b00100],  # full rank after column 3
            [0b00001, 0b10000, 0b00010],  # full rank only at column 5
            [0b01110, 0b00111, 0b01001],  # rows sum to 0: rank 2
            [0b11000, 0b11000, 0b00000],  # rank 1
            [0b00000, 0b00100, 0b10000],  # pivots below a zero row: 2
        ], dtype=np.uint64)
        assert list(gf2_rank_counts(mats, 5)) == [0, 1, 2, 2]

    # rows of at most 32 columns are uint32, wider ones uint64
    @pytest.mark.parametrize("rows, cols", [
        (6, 9), (9, 6), (32, 32), (5, 1), (40, 31), (20, 32), (40, 33),
        (12, 64),
    ])
    def test_batch_matches_scalar_elimination(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        # sparse bits spread the ranks over several values
        bits = (rng.random((300, rows, cols)) < 0.2).astype(np.uint64)
        weights = np.uint64(1) << np.arange(cols - 1, -1, -1,
                                            dtype=np.uint64)
        mats = (bits * weights).sum(axis=2, dtype=np.uint64)
        expect = np.zeros(min(rows, cols) + 1, dtype=np.int64)
        for m in bits.tolist():
            expect[_rank_gf2(m)] += 1
        assert list(gf2_rank_counts(mats, cols)) == list(expect)


# ---------------------------------------------------------------------------
# repetition time


def _repeat_pmf_enumerated(m):
    """P(first repeat at draw t) by depth-first sequence enumeration."""
    pmf = {}

    def walk(seen, prob, t):
        for v in range(m):
            p = prob * Fraction(1, m)
            if v in seen:
                pmf[t + 1] = pmf.get(t + 1, Fraction(0)) + p
            else:
                walk(seen | {v}, p, t + 1)

    walk(frozenset(), Fraction(1), 0)
    return pmf


class TestRepetitionOracle:
    def test_one_bit_enumeration(self):
        exact = _repeat_pmf_enumerated(2)
        assert exact == {2: Fraction(1, 2), 3: Fraction(1, 2)}
        pmf = repetition_pmf(1)
        assert pmf[0] == 0.0 and pmf[1] == 0.0
        assert pmf[2] == 0.5 and pmf[3] == 0.5
        assert pmf[4:].sum() == 0.0

    def test_two_bit_enumeration(self):
        exact = _repeat_pmf_enumerated(4)
        pmf = repetition_pmf(2)
        for t, frac in exact.items():
            assert pmf[t] == float(frac)  # dyadic: float arithmetic exact
        assert pmf.sum() == 1.0

    def test_wide_field_properties(self):
        pmf = repetition_pmf(16)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        # the mode sits near sqrt(M) for M = 2^16
        assert abs(int(pmf.argmax()) - 256) < 10

    def test_bins_partition_the_pmf(self):
        pmf = repetition_pmf(8)
        edges, probs = repetition_bins(8, 10)
        assert np.all(np.diff(edges) > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # bin i covers (edges[i-1], edges[i]]; recompute its mass
        prev = 1  # t starts at 2
        for i, edge in enumerate(edges):
            assert probs[i] == pytest.approx(
                pmf[prev + 1:edge + 1].sum(), abs=1e-12)
            prev = edge
        if probs.size > edges.size:
            assert probs[-1] == pytest.approx(
                pmf[edges[-1] + 1:].sum(), abs=1e-9)

    def test_kernel_counts_draws(self):
        # 3 1 4 1 -> repeat of 1 at draw 4; then 5 9 2 6 5 -> draw 5
        vals = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5], dtype=np.int64)
        ts, consumed = repetition_times(vals, 2)
        assert (ts.size, consumed) == (2, 9)
        assert list(ts[:2]) == [4, 5]

    def test_kernel_rolls_back_partial(self):
        vals = np.array([3, 1, 4, 1, 5, 9], dtype=np.int64)
        ts, consumed = repetition_times(vals, 2)
        assert (ts.size, consumed) == (1, 4)
        # rescan of the tail must not see the rolled-back 5 and 9:
        # each call reads only its own buffer
        again = np.array([5, 9, 2, 6, 5], dtype=np.int64)
        more, consumed = repetition_times(again, 1)
        assert (ts.size + more.size, consumed) == (2, 5)
        assert list(ts) + list(more) == [4, 5]


# ---------------------------------------------------------------------------
# craps


def _craps_throw_distribution_markov(cells):
    """P(game length = n) by stepping the absorbing chain with Fractions."""
    ways = {s: 6 - abs(s - 7) for s in range(2, 13)}
    # state: None = come-out, 4..10 = point held; absorb on resolution
    probs = []
    alive = {None: Fraction(1)}
    for _ in range(1, cells):
        resolved = Fraction(0)
        nxt = {}
        for state, p in alive.items():
            for d1 in range(1, 7):
                for d2 in range(1, 7):
                    q = p * Fraction(1, 36)
                    s = d1 + d2
                    if state is None:
                        if s in (7, 11, 2, 3, 12):
                            resolved += q
                        else:
                            nxt[s] = nxt.get(s, Fraction(0)) + q
                    else:
                        if s == state or s == 7:
                            resolved += q
                        else:
                            nxt[state] = nxt.get(state, Fraction(0)) + q
        probs.append(resolved)
        alive = nxt
    tail = 1 - sum(probs)
    return probs + [tail]


class TestCrapsOracle:
    def test_win_probability_exact(self):
        assert craps_win_probability() == Fraction(244, 495)

    def test_first_throw_resolution(self):
        assert craps_throw_probabilities()[0] == float(Fraction(12, 36))

    def test_throw_distribution_vs_markov_chain(self):
        mine = craps_throw_probabilities(21)
        markov = _craps_throw_distribution_markov(21)
        assert mine.size == 21
        for i in range(21):
            assert mine[i] == pytest.approx(float(markov[i]), abs=1e-15)
        assert mine.sum() == pytest.approx(1.0, abs=1e-12)

    def test_kernel_natural_and_point_games(self):
        # dice d in 0..5, sum = d1 + d2 + 2:
        # game 1: (2,3) -> 7, natural win in 1 throw
        # game 2: (1,1) -> 4 point, then (2,3) -> 7, loss in 2 throws
        dice = np.array([2, 3, 1, 1, 2, 3], dtype=np.uint32)
        throws = np.zeros(21, dtype=np.int64)
        assert craps_kernel(dice, throws, 2, 100) == (2, 1, 6)
        assert throws[0] == 1 and throws[1] == 1

    def test_kernel_point_made(self):
        # (1,1) -> 4 point; (3,5) -> 10 no; (1,1) -> 4 point made: win, 3 throws
        dice = np.array([1, 1, 3, 5, 1, 1], dtype=np.uint32)
        throws = np.zeros(21, dtype=np.int64)
        assert craps_kernel(dice, throws, 1, 100) == (1, 1, 6)
        assert throws[2] == 1

    def test_dice_skip_rejected_raws(self):
        # range 8, limit 6: the raws 7 and 6 are skipped, dice are
        # (2, 3) -> win, and the game ends at the fourth raw
        stream = Scripted([7, 2, 6, 3], max_value=7)
        dice, acc, words = int_draws(stream, stream.next_block(4), 0, 5)
        throws = np.zeros(21, dtype=np.int64)
        assert craps_kernel(dice, throws, 1, 100) == (1, 1, 2)
        assert (int(acc[1]) + 1) * words == 4

    def test_kernel_rolls_back_unfinished_game(self):
        # second game establishes a point but never resolves
        dice = np.array([2, 3, 1, 1], dtype=np.uint32)
        throws = np.zeros(21, dtype=np.int64)
        assert craps_kernel(dice, throws, 2, 100) == (1, 1, 2)

    def test_kernel_cap_aborts(self):
        # point 4 established, then endless 6s: never resolves
        dice = np.concatenate([[1, 1], np.full(38, 2)]).astype(np.uint32)
        throws = np.zeros(21, dtype=np.int64)
        with pytest.raises(AbortedError,
                           match="craps game exceeded 10 throws"):
            craps_kernel(dice, throws, 1, 10)


# ---------------------------------------------------------------------------
# squeeze


class TestSqueezeOracle:
    def test_calibration_probabilities_normalized(self):
        assert SQUEEZE_CELL_PROBS.size == 43
        assert SQUEEZE_CELL_PROBS.sum() == pytest.approx(1.0, abs=1e-12)
        assert not SQUEEZE_CELL_PROBS.flags.writeable

    def test_half_takes_31_steps(self):
        # k = ceil(k * 0.5) halves 2^31 exactly down to 1 in 31 steps
        u = np.full(40, 0.5)
        counts = np.zeros(43, dtype=np.int64)
        assert _squeeze(u, counts, 1, 100) == (1, 31)
        assert counts[31 - 6] == 1

    def test_low_step_games_fold_into_first_cell(self):
        # tiny u ends each game in very few steps; cells below 6 clamp
        u = np.full(10, 1e-12)
        counts = np.zeros(43, dtype=np.int64)
        done, consumed = _squeeze(u, counts, 3, 100)
        assert done == 3
        assert counts[0] == 3

    def test_rollback_when_buffer_dries_up(self):
        u = np.full(10, 0.5)  # not enough for one 31-step game
        counts = np.zeros(43, dtype=np.int64)
        assert _squeeze(u, counts, 1, 100) == (0, 0)

    def test_cap_aborts(self):
        u = np.full(200, 0.999999)
        counts = np.zeros(43, dtype=np.int64)
        with pytest.raises(AbortedError,
                           match="squeeze game exceeded 50 iterations"):
            _squeeze(u, counts, 1, 50)

    def test_recorded_games_are_not_played_again(self, monkeypatch):
        played = []
        game = kernels._squeeze_game
        monkeypatch.setattr(kernels, "_squeeze_game",
                            lambda *args: played.append(args[2]) or
                            game(*args))
        # the one lane records the one game; the second is played by
        # the scalar loop and runs out of buffer
        counts = np.zeros(43, dtype=np.int64)
        assert _squeeze(np.full(40, 0.5), counts, 1, 100) == (1, 31)
        assert played == []
        assert _squeeze(np.full(40, 0.5), counts, 2, 100) == (1, 31)
        assert played == [31]
        # at the default block on Mt19937(1), 77 of 100000 games
        played.clear()
        stream = Mt19937(1)
        raw = stream.next_block(2400000)
        assert squeeze_kernel(
            raw, lambda r: uniform01_map(stream, r),
            np.zeros(43, dtype=np.int64), 100000, 10000) == (100000, 2308617)
        assert len(played) == 77


# ---------------------------------------------------------------------------
# runs


class TestRunsOracle:
    def test_cell_probabilities_telescope(self):
        probs = RunsTest._PROBS
        for r in range(1, 6):
            expect = 1 / math.factorial(r) - 1 / math.factorial(r + 1)
            assert probs[r - 1] == pytest.approx(expect, abs=1e-15)
        assert probs[5] == pytest.approx(1 / 720, abs=1e-18)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)

    def test_kernel_scans_ascending_runs(self):
        # run 0.1<0.2<0.3 (len 3, breaker 0.25), run 0.5 (len 1, breaker 0.4)
        u = np.array([0.1, 0.2, 0.3, 0.25, 0.5, 0.4, 0.9])
        counts = np.zeros(6, dtype=np.int64)
        assert runs_kernel(u, counts, 2, 1000) == (2, 6)
        assert counts[2] == 1 and counts[0] == 1

    def test_kernel_equal_values_break(self):
        u = np.array([0.4, 0.4, 0.7, 0.2])
        counts = np.zeros(6, dtype=np.int64)
        # 0.4 then 0.4: not strictly greater, run length 1
        assert runs_kernel(u, counts, 1, 1000) == (1, 2)
        assert counts[0] == 1

    def test_kernel_long_runs_clamp_to_six(self):
        u = np.concatenate([np.linspace(0.1, 0.9, 9), [0.0, 0.5]])
        counts = np.zeros(6, dtype=np.int64)
        done, consumed = runs_kernel(u, counts, 1, 1000)
        assert done == 1 and counts[5] == 1

    def test_kernel_rollback(self):
        u = np.array([0.1, 0.2, 0.3])  # run never breaks in-buffer
        counts = np.zeros(6, dtype=np.int64)
        assert runs_kernel(u, counts, 1, 1000) == (0, 0)


# ---------------------------------------------------------------------------
# coupon collector


def _coupon_pmf_enumerated(d, t):
    """Segment length law by depth-first enumeration with exact rationals."""
    pmf = {}

    def walk(seen, prob, length):
        if length >= t:  # tail bucket
            pmf[t] = pmf.get(t, Fraction(0)) + prob
            return
        for v in range(d):
            p = prob * Fraction(1, d)
            got = seen | {v}
            if len(got) == d:
                pmf[length + 1] = pmf.get(length + 1, Fraction(0)) + p
            else:
                walk(got, p, length + 1)

    walk(frozenset(), Fraction(1), 0)
    return pmf


class TestCouponOracle:
    def test_two_symbols_exact(self):
        probs = CouponCollectorTest(d=2, t=4, n_segments=100) \
            .cell_probabilities()
        # lengths 2, 3, then the >= 4 tail: 1/2, 1/4, 1/4
        assert list(probs) == [0.5, 0.25, 0.25]
        # a long tail is computed without recursion: P(r) = 2^(1-r)
        probs = CouponCollectorTest(d=2, t=3000).cell_probabilities()
        assert probs.size == 2999
        assert list(probs[:3]) == [0.5, 0.25, 0.125]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_d3(self):
        case = CouponCollectorTest(d=3, t=7, n_segments=100)
        probs = case.cell_probabilities()
        exact = _coupon_pmf_enumerated(3, 7)
        for i, r in enumerate(range(3, 7)):
            assert probs[i] == pytest.approx(float(exact[r]), abs=1e-15)
        assert probs[-1] == pytest.approx(float(exact[7]), abs=1e-15)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_known_segments(self):
        # d=2: segment 0,0,1 (len 3), segment 1,0 (len 2)
        digits = np.array([0, 0, 1, 1, 0], dtype=np.uint32)
        counts = np.zeros(4, dtype=np.int64)  # lengths 2..4 and >= 5 (t=5)
        assert coupon_kernel(digits, 2, 5, counts, 2, 1000) == (2, 5)
        assert counts[1] == 1 and counts[0] == 1

    def test_digits_skip_rejected_raws(self):
        # range 11, limit 10: the raws 10 are skipped entirely
        stream = Scripted([10, 0, 10, 1], max_value=10)
        digits, acc, words = int_draws(stream, stream.next_block(4), 0, 1)
        counts = np.zeros(4, dtype=np.int64)
        assert coupon_kernel(digits, 2, 5, counts, 1, 1000) == (1, 2)
        assert (int(acc[1]) + 1) * words == 4
        assert counts[0] == 1  # segment 0,1 of length 2

    def test_kernel_rollback(self):
        digits = np.array([0, 0, 0], dtype=np.uint32)
        counts = np.zeros(4, dtype=np.int64)
        assert coupon_kernel(digits, 2, 5, counts, 1, 1000) == (0, 0)

    def test_kernel_cap_aborts(self):
        digits = np.zeros(50, dtype=np.uint32)
        counts = np.zeros(4, dtype=np.int64)
        with pytest.raises(AbortedError,
                           match="coupon segment exceeded 20 draws"):
            coupon_kernel(digits, 2, 5, counts, 1, 20)


# ---------------------------------------------------------------------------
# poker


class TestPokerOracle:
    def test_enumeration_d3(self):
        census = {1: 0, 2: 0, 3: 0}
        for hand in itertools.product(range(3), repeat=5):
            census[len(set(hand))] += 1
        probs = PokerTest(d=3, n_hands=100).cell_probabilities()
        assert probs.size == 3
        for r in (1, 2, 3):
            assert probs[r - 1] == pytest.approx(census[r] / 243, abs=1e-15)

    def test_known_value_d10(self):
        # S(5,2) = 15 and 10*9 ordered pairs: 15 * 90 / 10^5
        probs = PokerTest(d=10, n_hands=100).cell_probabilities()
        assert probs[1] == 0.0135

    def test_probabilities_sum_to_one(self):
        for d in (2, 5, 16, 64):
            probs = PokerTest(d=d, n_hands=100).cell_probabilities()
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gap


class TestGapOracle:
    def test_geometric_probabilities_exact(self):
        probs = GapTest(alpha=0.0, beta=0.5, t=16,
                        n_gaps=100).cell_probabilities()
        for r in range(16):
            assert probs[r] == 0.5 ** (r + 1)  # dyadic, exact
        assert probs[16] == 0.5 ** 16
        assert math.fsum(probs) == 1.0

    def test_interior_band(self):
        probs = GapTest(alpha=0.3, beta=0.5, t=8,
                        n_gaps=100).cell_probabilities()
        p = 0.2
        for r in range(8):
            assert probs[r] == pytest.approx(p * (1 - p) ** r, abs=1e-15)
        assert probs[8] == pytest.approx((1 - p) ** 8, abs=1e-15)

    def test_band_validation(self):
        with pytest.raises(ConfigurationError):
            GapTest(alpha=0.5, beta=0.5)
        with pytest.raises(ConfigurationError):
            GapTest(alpha=0.0, beta=1.5)


# ---------------------------------------------------------------------------
# permutation


class TestPermutationOracle:
    def test_known_pattern(self):
        assert PermutationTest.pattern_index(np.array([0.3, 0.1, 0.2])) == 0

    def test_bijection_t4(self):
        # all 24 orderings of distinct values map to 24 distinct cells
        seen = set()
        for perm in itertools.permutations((0.1, 0.4, 0.6, 0.9)):
            f = PermutationTest.pattern_index(np.array(perm))
            assert 0 <= f < 24
            seen.add(f)
        assert len(seen) == 24

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(12)
        groups = rng.random((300, 5))
        batch = PermutationTest._rank_groups(groups.copy())
        for i in range(300):
            assert batch[i] == PermutationTest.pattern_index(groups[i])

    def test_tie_takes_later_position(self):
        # the later of two equal maxima is treated as the larger draw
        assert PermutationTest.pattern_index(np.array([0.7, 0.5])) == 0
        assert PermutationTest.pattern_index(np.array([0.5, 0.7])) == 1
        assert PermutationTest.pattern_index(np.array([0.5, 0.5])) == 1

    def test_group_size_limits(self):
        with pytest.raises(ConfigurationError):
            PermutationTest(t=1)
        with pytest.raises(ConfigurationError):
            PermutationTest(t=9)


# ---------------------------------------------------------------------------
# gcd


class TestGcdOracle:
    def test_euclid_known_pairs(self):
        a = np.array([48, 1, 7, 1071], dtype=np.int64)
        b = np.array([36, 1, 13, 462], dtype=np.int64)
        gs, steps = euclid(a, b)
        assert list(gs) == [12, 1, 1, 21]
        assert steps[0] == 2   # 48,36 -> 36,12 -> 12,0
        assert steps[1] == 1   # 1,1 -> 1,0
        for i in range(4):
            assert gs[i] == math.gcd(int(a[i]), int(b[i]))

    def test_divisor_equal_and_swapped_pairs(self):
        a = np.array([48, 7, 3, 10], dtype=np.int64)
        b = np.array([12, 7, 10, 3], dtype=np.int64)
        gs, steps = euclid(a, b)
        assert list(gs) == [12, 7, 1, 1]
        assert steps[0] == 1   # b | a: 48,12 -> 12,0
        assert steps[1] == 1   # a == b: 7,7 -> 7,0
        # a < b spends one step swapping: 3,10 -> 10,3 -> 3,1 -> 1,0
        assert steps[2] == 3 and steps[3] == 2

    def test_matches_scalar_euclid(self):
        rng = np.random.default_rng(17)
        a = rng.integers(1, 2**31 - 1, 3000)
        b = rng.integers(1, 2**31 - 1, 3000)
        gs, steps = euclid(a, b)
        for i in range(a.size):
            assert (gs[i], steps[i]) == _euclid_loop(a[i], b[i])

    @pytest.mark.parametrize("top, width", [
        (2**31 - 1, np.int32), (2**31, np.int64), (2**62 + 1, np.int64),
    ])
    def test_width_switch_matches_scalar_euclid(self, top, width):
        # operands below 2^31 run in int32, and one of 2^31 or more puts
        # every pair in int64; either way the gcds and steps are exact
        edge = [1, 2, top - 1, top]
        rng = np.random.default_rng(top % 1000)
        drawn = rng.integers(1, top, 200, endpoint=True).tolist()
        pairs = ([(x, y) for x in edge for y in edge]  # with equal pairs
                 + [(x, 0) for x in edge] + [(0, x) for x in edge]
                 + list(zip(drawn[::2], drawn[1::2])))
        a = np.array([x for x, _ in pairs], dtype=np.int64)
        b = np.array([y for _, y in pairs], dtype=np.int64)
        gs, steps = euclid(a, b)
        assert gs.dtype == width and steps.dtype == width
        for (x, y), g, s in zip(pairs, gs.tolist(), steps.tolist()):
            assert g == math.gcd(x, y)
            assert (g, s) == _euclid_loop(x, y)


def _euclid_loop(x, y):
    """gcd and division steps of one pair, by Python integers."""
    x, y, s = int(x), int(y), 0
    while y:
        x, y, s = y, x % y, s + 1
    return x, s


# ---------------------------------------------------------------------------
# maurer


class TestMaurerOracle:
    # mpmath: sum q(1-q)^(i-1) log2(i) and its second moment, q = 2^-L
    @pytest.mark.parametrize("L, e, var", [
        (4, 3.3112247204, 2.35773692617),
        (6, 5.21770524986, 2.95403239938),
        (8, 7.18366555352, 3.23866216071),
    ])
    def test_reference_table(self, L, e, var):
        got_e, got_var = maurer_reference(L)
        assert got_e == pytest.approx(e, abs=5e-10)
        assert got_var == pytest.approx(var, abs=5e-10)

    def test_kernel_distances(self):
        # init: 3 at 1, 1 at 2, 3 at 3 (1-based positions)
        # test: 2 unseen at position 4 -> log2(4); 1 seen at 2, now 5 -> log2(3)
        vals = np.ascontiguousarray([3, 1, 3, 2, 1], dtype=np.int64)
        total = maurer_sum(vals, 3, 2)
        assert total == pytest.approx(2.0 + math.log2(3.0), abs=1e-12)

    def test_kernel_repeat_next_block(self):
        # immediate repeats have distance 1 and contribute zero
        vals = np.ascontiguousarray([0, 0, 0, 0], dtype=np.int64)
        assert maurer_sum(vals, 1, 3) == 0.0


# ---------------------------------------------------------------------------
# parking and minimum distance


class TestParkingOracle:
    def test_far_apart_both_park(self):
        xs = np.array([10.0, 50.0])
        ys = np.array([10.0, 50.0])
        assert parking_kernel(xs, ys) == 2

    def test_overlap_crashes(self):
        xs = np.array([10.0, 10.5])
        ys = np.array([10.0, 10.5])
        assert parking_kernel(xs, ys) == 1

    def test_crash_needs_both_axes_close(self):
        # |dx| = 0.5 but |dy| = 1.0 exactly: no crash (strict < 1)
        xs = np.array([10.0, 10.5])
        ys = np.array([10.0, 11.0])
        assert parking_kernel(xs, ys) == 2

    def test_cross_cell_crash_detected(self):
        # neighbors in adjacent unit cells still collide
        xs = np.array([10.99, 11.01])
        ys = np.array([10.99, 11.01])
        assert parking_kernel(xs, ys) == 1

    @pytest.mark.parametrize("side", [math.nan, math.inf, -math.inf])
    def test_side_must_be_finite(self, side):
        with pytest.raises(ConfigurationError, match="finite"):
            ParkingLotTest(side=side)


def _brute_min_d2(xs, ys):
    """Minimum of (xi - xj)^2 + (yi - yj)^2 over all pairs i < j."""
    best = math.inf
    for i in range(xs.size - 1):
        dx = xs[i] - xs[i + 1:]
        dy = ys[i] - ys[i + 1:]
        best = min(best, float((dx * dx + dy * dy).min()))
    return best


class TestMinimumDistanceOracle:
    def test_known_configuration(self):
        xs = np.array([0.0, 3.0, 1.0, 7.0])
        ys = np.array([0.0, 4.0, 1.0, 1.0])
        assert min_squared_distance(xs, ys) == pytest.approx(2.0)

    @pytest.mark.parametrize("case", [
        "two", "coincident", "equal_x", "one_x", "random", "dense",
    ])
    def test_sweep_matches_brute_force(self, case):
        rng = np.random.default_rng(5)
        if case == "two":
            xs, ys = np.array([3.5, 1.25]), np.array([2.0, 9.0])
        elif case == "coincident":
            xs = rng.random(300) * 100.0
            ys = rng.random(300) * 100.0
            xs[200], ys[200] = xs[17], ys[17]
        elif case == "equal_x":
            xs = rng.integers(0, 6, 400).astype(np.float64)
            ys = rng.random(400) * 100.0
        elif case == "one_x":
            xs = np.full(300, 42.0)
            ys = rng.random(300) * 100.0
        elif case == "random":
            xs = rng.random(300) * 100.0
            ys = rng.random(300) * 100.0
        else:
            xs = rng.random(8000) * 100.0
            ys = rng.random(8000) * 100.0
        got = min_squared_distance(xs, ys)
        assert got == _brute_min_d2(xs, ys)
        if case == "coincident":
            assert got == 0.0

    @pytest.mark.parametrize("side", [math.nan, math.inf, -math.inf])
    def test_side_must_be_finite(self, side):
        with pytest.raises(ConfigurationError, match="finite"):
            MinimumDistanceTest(side=side)


# ---------------------------------------------------------------------------
# birthday spacings


class TestBirthdayOracle:
    def test_default_rate_is_two(self):
        assert BirthdaySpacingsTest().lam == 2.0

    def test_oversized_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            BirthdaySpacingsTest(m=2**10, n=512, reps=100)

    def test_poisson_reference(self):
        # spot-check the closed form the test builds its cells from
        lam = 2.0
        assert math.exp(-lam) == pytest.approx(0.1353352832366127, abs=1e-15)
        assert math.exp(-lam) * lam**3 / 6 == pytest.approx(
            0.18044704431548356, rel=1e-12)


# ---------------------------------------------------------------------------
# whole-array kernels against the scalar loops they replaced, kept here
# as oracles


def _squeeze(u, counts, games_needed, cap):
    """squeeze_kernel over the uniforms u: raw word i maps to u[i]."""
    return squeeze_kernel(np.arange(u.size, dtype=np.uint64),
                          lambda raw: u[raw], counts, games_needed, cap)


def _draws(w, limit, d):
    """The digits that rejection below `limit` takes from the raw offsets
    w, as int_draws takes one-output candidates, and the index in w of
    each."""
    accepted = np.flatnonzero(w < limit)
    return w[accepted] % d, accepted


def _craps(w, limit, throws_counts, games_needed, cap):
    """craps_kernel on the dice of the raw offsets w, with consumption
    mapped back to raw offsets as CrapsTest's step maps it."""
    dice, accepted = _draws(w, limit, 6)
    games, wins, used = craps_kernel(dice, throws_counts, games_needed, cap)
    return games, wins, int(accepted[used - 1]) + 1 if used else 0


def _coupon(w, limit, d, t, counts, segments_needed, cap):
    """coupon_kernel on the digits of the raw offsets w, with consumption
    mapped back to raw offsets as CouponCollectorTest's step maps it."""
    digits, accepted = _draws(w, limit, d)
    done, used = coupon_kernel(digits, d, t, counts, segments_needed, cap)
    return done, int(accepted[used - 1]) + 1 if used else 0


def _matches_loop(kernel, want):
    """Check kernel() against a scalar loop's result `want`, whose last
    entry is the loop's abort flag: where it is set, kernel() must raise
    TestAborted, and otherwise return the rest of `want`.  Returns
    whether both ran to the end, so that their counts compare."""
    if want[-1]:
        with pytest.raises(AbortedError):
            kernel()
        return False
    assert tuple(int(x) for x in kernel()) == want[:-1]
    return True


def _squeeze_loop(u, counts, games_needed, cap):
    pos = 0
    n = u.shape[0]
    done = 0
    while done < games_needed:
        k = 2147483648
        steps = 0
        start = pos
        while True:
            if steps >= cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            k = int(np.ceil(k * u[pos]))
            pos += 1
            steps += 1
            if k <= 1:
                break
        j = min(max(steps, 6), 48)
        counts[j - 6] += 1
        done += 1
    return done, pos, 0


def _craps_loop(w, limit, throws_counts, games_needed, cap):
    pos = 0
    n = w.shape[0]
    games = 0
    wins = 0
    while games < games_needed:
        start = pos
        throws = 0
        point = 0
        won = 0
        aborted = False
        dry = False
        while True:
            if throws >= cap:
                aborted = True
                break
            dice = []
            while len(dice) < 2:
                if pos >= n:
                    dry = True
                    break
                v = w[pos]
                pos += 1
                if v < limit:
                    dice.append(v % 6)
            if dry:
                break
            s = dice[0] + dice[1] + 2
            throws += 1
            if point == 0:
                if s in (7, 11):
                    won = 1
                    break
                elif s in (2, 3, 12):
                    won = 0
                    break
                else:
                    point = s
            elif s == point:
                won = 1
                break
            elif s == 7:
                won = 0
                break
        if aborted:
            return games, wins, start, 1
        if dry:
            return games, wins, start, 0
        throws_counts[min(throws, 21) - 1] += 1
        wins += won
        games += 1
    return games, wins, pos, 0


def _repetition_loop(vals, reps_needed):
    pos = 0
    n = vals.shape[0]
    ts = []
    while len(ts) < reps_needed:
        start = pos
        seen = set()
        while True:
            if pos >= n:
                return ts, start
            v = int(vals[pos])
            pos += 1
            if v in seen:
                break
            seen.add(v)
        ts.append(pos - start)
    return ts, pos


def _walk_loop(chain, needed):
    """The one-step-per-unit walk that pointer doubling replaced."""
    chain = chain.tolist()
    starts = []
    at = 0
    while len(starts) < needed and at < len(chain) and chain[at] >= 0:
        starts.append(at)
        at = chain[at]
    return starts, at


def _maurer_loop(vals, q, k, size):
    table = np.zeros(size, dtype=np.int64)
    for i in range(q):
        table[vals[i]] = i + 1
    total = 0.0
    for i in range(q, q + k):
        pos = i + 1
        d = pos - table[vals[i]]
        total += math.log2(d)
        table[vals[i]] = pos
    return total


def _coupon_loop(w, limit, d, t, counts, segments_needed, cap):
    pos = 0
    n = w.shape[0]
    done = 0
    seen = np.zeros(d, dtype=np.uint8)
    while done < segments_needed:
        start = pos
        for i in range(d):
            seen[i] = 0
        distinct = 0
        length = 0
        while distinct < d:
            if length >= cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            v = w[pos]
            pos += 1
            if v >= limit:
                continue
            digit = v % d
            length += 1
            if seen[digit] == 0:
                seen[digit] = 1
                distinct += 1
        idx = length - d
        if idx > t - d:
            idx = t - d
        counts[idx] += 1
        done += 1
    return done, pos, 0


def _runs_loop(u, counts, runs_needed, cap):
    pos = 0
    n = u.shape[0]
    done = 0
    while done < runs_needed:
        start = pos
        if pos >= n:
            return done, start, 0
        prev = u[pos]
        pos += 1
        length = 1
        while True:
            if length > cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            cur = u[pos]
            pos += 1
            if cur > prev:
                prev = cur
                length += 1
            else:
                break
        j = length
        if j > 6:
            j = 6
        counts[j - 1] += 1
        done += 1
    return done, pos, 0


def _parking_loop(xs, ys, grid, px, py):
    n = xs.shape[0]
    k = 0
    for i in range(n):
        x = xs[i]
        y = ys[i]
        cx = int(x) + 1
        cy = int(y) + 1
        crash = False
        for dx in range(-1, 2):
            for dy in range(-1, 2):
                idx = grid[cx + dx, cy + dy]
                if idx >= 0:
                    if abs(x - px[idx]) < 1.0 and abs(y - py[idx]) < 1.0:
                        crash = True
                        break
            if crash:
                break
        if not crash:
            px[k] = x
            py[k] = y
            grid[cx, cy] = k
            k += 1
    return k


def _parked_by_loop(xs, ys, side):
    ncells = int(math.ceil(side))
    grid = np.full((ncells + 2, ncells + 2), -1, dtype=np.int64)
    return _parking_loop(xs, ys, grid, np.empty(xs.size), np.empty(xs.size))


# buffer lengths: empty, tiny, around and off the 2048-word lane span
_LENGTHS = [0, 1, 2, 7, 31, 100, 2047, 2048, 2049, 5000, 12289]


class TestWholeArrayKernels:
    @pytest.mark.parametrize("cap", [30, 10000])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_squeeze_matches_loop(self, n, cap):
        rng = np.random.default_rng(1000 + n)
        u = rng.random(n)
        for needed in (1, 3, n // 20 + 1, 10**6):
            got_counts = np.zeros(43, dtype=np.int64)
            want_counts = np.zeros(43, dtype=np.int64)
            want = _squeeze_loop(u, want_counts, needed, cap)
            if _matches_loop(lambda: _squeeze(u, got_counts, needed, cap),
                             want):
                assert np.array_equal(got_counts, want_counts)

    def test_squeeze_stalling_games_hit_the_cap_first(self):
        # u near 1 stalls small k; with cap 30 the true chain meets such
        # a game, and the cap wins over the end of the buffer
        rng = np.random.default_rng(5)
        u = rng.random(9000)
        u[3000:3100] = 0.999999
        for n in (3050, 3100, 3200, 9000):
            counts = np.zeros(43, dtype=np.int64)
            want_counts = np.zeros(43, dtype=np.int64)
            want = _squeeze_loop(u[:n], want_counts, 10**6, 30)
            assert want[2] == 1
            _matches_loop(lambda: _squeeze(u[:n], counts, 10**6, 30), want)

    def test_squeeze_speculative_lane_over_cap_does_not_abort(self):
        # Games on [0, span - 2) end within 30 draws (u < 0.3).
        # u[span - 2] ends any game, and the game from span - 1 halves
        # 2^29 over the 0.5s to finish in 30 draws.  The lane that starts
        # a game at span halves 2^31 thirty times and reaches the cap
        # there; the true chain never starts a game at span.
        span = kernels._SQUEEZE_SPAN
        rng = np.random.default_rng(7)
        u = rng.random(span + kernels._SQUEEZE_HORIZON + 2000) * 0.3
        u[span - 2] = 1e-12
        u[span - 1] = 0.25
        u[span:span + 30] = 0.5
        u[span + 30] = 1e-12
        assert _squeeze_loop(u[span:], np.zeros(43, dtype=np.int64),
                             1, 30)[2] == 1
        counts = np.zeros(43, dtype=np.int64)
        want_counts = np.zeros(43, dtype=np.int64)
        want = _squeeze_loop(u, want_counts, 10**6, 30)
        assert want[2] == 0 and want[1] > span + 30
        assert _matches_loop(lambda: _squeeze(u, counts, 10**6, 30), want)
        assert np.array_equal(counts, want_counts)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(
            st.sampled_from([
                edge + d
                for edge in (kernels._SQUEEZE_CHUNK, kernels._SQUEEZE_SPAN,
                             kernels._SQUEEZE_HORIZON,
                             kernels._SQUEEZE_SPAN + kernels._SQUEEZE_HORIZON)
                for d in (-1, 0, 1)]),
            st.integers(0, 3 * kernels._SQUEEZE_HORIZON)),
        seed=st.integers(0, 2**32 - 1),
        halves=st.booleans(),
        near_one=st.sampled_from([0.0, 0.01, 0.2]),
        cap=st.sampled_from([1, 5, 30, 60, 10000]),
        needed=st.sampled_from([1, 3, 50, 10**6]),
    )
    def test_squeeze_matches_the_sequential_loop(self, n, seed, halves,
                                                 near_one, cap, needed):
        # With u = 1/2 every game takes 31 draws, so lanes 4096 draws
        # apart never meet and the chain leaves each lane's records for
        # scalar games.  u close to 1 stalls small k, so games grow long
        # and small caps abort them; 10**6 games never fit, so the
        # buffer's end is met.
        rng = np.random.default_rng(seed)
        u = np.full(n, 0.5) if halves else rng.random(n)
        u[rng.random(n) < near_one] = 1.0 - 2.0**-32
        got_counts = np.zeros(43, dtype=np.int64)
        want_counts = np.zeros(43, dtype=np.int64)
        want = _squeeze_loop(u, want_counts, needed, cap)
        if _matches_loop(lambda: _squeeze(u, got_counts, needed, cap), want):
            assert np.array_equal(got_counts, want_counts)

    def test_squeeze_cap_zero_aborts_at_once(self):
        counts = np.zeros(43, dtype=np.int64)
        for n in (0, 10):
            assert _squeeze_loop(np.full(n, 0.5), counts, 1, 0) == (0, 0, 1)
            with pytest.raises(AbortedError):
                _squeeze(np.full(n, 0.5), counts, 1, 0)

    @pytest.mark.parametrize("cap", [0, 1, 3, 10000])
    @pytest.mark.parametrize("limit, top", [(6, 6), (6, 9), (4294967292, 2**32)])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_craps_matches_loop(self, n, limit, top, cap):
        rng = np.random.default_rng(2000 + n)
        w = rng.integers(0, top, n, dtype=np.int64)
        for needed in (1, 2, n // 7 + 1, 10**6):
            got_throws = np.zeros(21, dtype=np.int64)
            want_throws = np.zeros(21, dtype=np.int64)
            want = _craps_loop(w, limit, want_throws, needed, cap)
            if _matches_loop(
                    lambda: _craps(w, limit, got_throws, needed, cap), want):
                assert np.array_equal(got_throws, want_throws)

    def test_craps_long_points_meet_small_caps(self):
        # points of 4 and 10 resolve slowly: many games need > 3 throws
        rng = np.random.default_rng(9)
        w = rng.choice(np.array([0, 0, 0, 1, 2, 3, 4, 5, 6, 7]), 4000)
        for cap in (2, 3, 4, 6):
            for n in (0, 3, 40, 999, 4000):
                got_throws = np.zeros(21, dtype=np.int64)
                want_throws = np.zeros(21, dtype=np.int64)
                want = _craps_loop(w[:n], 6, want_throws, 10**6, cap)
                if _matches_loop(
                        lambda: _craps(w[:n], 6, got_throws, 10**6, cap),
                        want):
                    assert np.array_equal(got_throws, want_throws)

    @pytest.mark.parametrize("broken", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_walk_matches_loop(self, n, broken):
        # hand-overs 1..5 units on, clipped to n (the end), with a share
        # of units that do not complete, one of them at 0 in turn
        rng = np.random.default_rng(6000 + n)
        chain = np.minimum(np.arange(n) + rng.integers(1, 6, n), n)
        chain[rng.random(n) < broken] = -1
        for first in (None, -1):
            if first is not None and n:
                chain[0] = first
            for needed in (0, 1, 2, 3, n // 5 + 1, n, 10**6):
                starts, stop = _walk(chain, needed)
                want, want_stop = _walk_loop(chain, needed)
                assert starts.tolist() == want
                assert stop == want_stop

    def test_walk_of_an_empty_chain(self):
        for needed in (0, 1, 10):
            starts, stop = _walk(np.zeros(0, dtype=np.int64), needed)
            assert starts.tolist() == [] and stop == 0

    def test_walk_to_the_end(self):
        # every unit hands over to the end: one unit, stopped at n
        chain = np.full(9, 9)
        starts, stop = _walk(chain, 5)
        assert starts.tolist() == [0] and stop == 9
        assert _walk_loop(chain, 5) == ([0], 9)

    @pytest.mark.parametrize("bits", [1, 3, 10, 20])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_repetition_matches_loop(self, n, bits):
        rng = np.random.default_rng(3000 + n)
        vals = rng.integers(0, 2**bits, n).astype(np.uint64)
        for needed in (1, 4, 10**6):
            times, consumed = repetition_times(vals, needed)
            want, want_consumed = _repetition_loop(vals, needed)
            assert times.tolist() == want
            assert consumed == want_consumed

    # the sum runs a chunk of terms at a time: k below, at and past the
    # chunk, and not a multiple of it
    @pytest.mark.parametrize("L, q, k", [
        (1, 20, 1), (2, 40, 500), (4, 160, 5000), (8, 2560, 25600),
        (12, 40960, 100000), (3, 80, kernels._MAURER_CHUNK),
        (5, 320, 2 * kernels._MAURER_CHUNK + 7),
    ])
    def test_maurer_matches_loop(self, L, q, k):
        rng = np.random.default_rng(L)
        vals = rng.integers(0, 2**L, q + k)
        got = maurer_sum(vals, q, k)
        assert got.hex() == _maurer_loop(vals, q, k, 2**L).hex()

    # value bits plus index bits of 32 sort uint32 keys, and of 33
    # uint64 keys; values that differ only in their top bit must not meet
    @pytest.mark.parametrize("value_bits", [20, 21])
    @pytest.mark.parametrize("n", [2049, 4096])
    def test_previous_occurrence_at_the_key_width(self, n, value_bits):
        rng = np.random.default_rng(n + value_bits)
        top = 1 << (value_bits - 1)
        vals = rng.integers(0, 8, n) + top * rng.integers(0, 2, n)
        vals[-1] = top  # the largest value has value_bits bits
        assert (n - 1).bit_length() + value_bits in (32, 33)
        last = {}
        want = []
        for i, v in enumerate(vals.tolist()):
            want.append(last.get(v, -1))
            last[v] = i
        for dtype in (np.int64, np.uint64, np.uint32):
            got = previous_occurrence(vals.astype(dtype))
            assert got.dtype == np.int32  # indexes below 2^31
            assert got.tolist() == want

    @pytest.mark.parametrize("d", [1621, 7957, 57803])
    def test_maurer_log2_comes_from_math(self, d):
        # np.log2 and math.log2 disagree on these integers; a value cycle
        # of period d makes both test distances d, and the sum must
        # follow math.log2, as the loop did
        vals = np.arange(d + 2) % d
        assert maurer_sum(vals, d, 2) == _maurer_loop(vals, d, 2, d)
        assert maurer_sum(vals, d, 2) == 2 * math.log2(d)
        assert np.log2(np.array([d]))[0] != math.log2(d)

    @pytest.mark.parametrize("cap", [0, 1, 2, 5, 40, 10**6])
    @pytest.mark.parametrize("d, limit, top", [
        (2, 100, 100), (3, 9, 12), (5, 10, 40), (8, 4294967288, 2**32),
    ])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_coupon_matches_loop(self, n, d, limit, top, cap):
        rng = np.random.default_rng(4000 + n)
        w = rng.integers(0, top, n, dtype=np.int64)
        for needed in (1, 2, n // 15 + 1, 10**6):
            got_counts = np.zeros(8, dtype=np.int64)
            want_counts = np.zeros(8, dtype=np.int64)
            want = _coupon_loop(w, limit, d, d + 7, want_counts, needed, cap)
            if _matches_loop(lambda: _coupon(w, limit, d, d + 7, got_counts,
                                             needed, cap), want):
                assert np.array_equal(got_counts, want_counts)

    def test_coupon_cap_reached_at_buffer_end(self):
        # one completed segment (0, 1), then six 0s fill the cap of 6
        # with the last word of the buffer: the cap wins over the end
        w = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        for cap, want in [(6, (1, 2, 1)), (7, (1, 2, 0))]:
            counts = np.zeros(4, dtype=np.int64)
            assert _coupon_loop(w, 100, 2, 5, counts, 5, cap) == want
            counts = np.zeros(4, dtype=np.int64)
            _matches_loop(lambda: _coupon(w, 100, 2, 5, counts, 5, cap),
                          want)

    def test_coupon_rejected_words_after_last_segment(self):
        # rejected words end the buffer: a finished segment consumes
        # through its last digit, and the trailing rejects are left over
        w = np.array([50, 1, 0, 77, 0, 1, 60, 99, 70], dtype=np.int64)
        for needed in (1, 2, 3):
            got_counts = np.zeros(4, dtype=np.int64)
            want_counts = np.zeros(4, dtype=np.int64)
            want = _coupon_loop(w, 50, 2, 5, want_counts, needed, 100)
            assert _matches_loop(
                lambda: _coupon(w, 50, 2, 5, got_counts, needed, 100), want)
            assert np.array_equal(got_counts, want_counts)
        assert want == (2, 6, 0)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 6, 1000])
    @pytest.mark.parametrize("levels", [3, 8, 0])
    @pytest.mark.parametrize("n", _LENGTHS)
    def test_runs_matches_loop(self, n, levels, cap):
        # few levels give many ties; levels 0 draws continuous values
        rng = np.random.default_rng(5000 + n)
        u = (rng.integers(0, levels, n) / levels if levels
             else rng.random(n))
        for needed in (1, 2, n // 3 + 1, 10**6):
            got_counts = np.zeros(6, dtype=np.int64)
            want_counts = np.zeros(6, dtype=np.int64)
            want = _runs_loop(u, want_counts, needed, cap)
            if _matches_loop(lambda: runs_kernel(u, got_counts, needed, cap),
                             want):
                assert np.array_equal(got_counts, want_counts)

    def test_runs_over_cap_and_ending_mid_run(self):
        # run of 5, breaker, then a rising run the buffer cuts off
        u = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 0.1, 0.2, 0.3])
        for cap, n, want in [(4, 9, (0, 0, 1)), (5, 9, (1, 6, 0)),
                             (3, 9, (0, 0, 1)), (5, 5, (0, 0, 0)),
                             (4, 5, (0, 0, 1)), (2, 9, (0, 0, 1)),
                             (3, 6, (0, 0, 1)), (10, 9, (1, 6, 0))]:
            counts = np.zeros(6, dtype=np.int64)
            assert _runs_loop(u[:n], counts, 10, cap) == want, (cap, n)
            _matches_loop(lambda: runs_kernel(u[:n], counts, 10, cap), want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("attempts, side", [
        (1, 2.0), (50, 2.5), (400, 7.3), (3000, 31.7), (12000, 100.0),
    ])
    def test_parking_matches_loop(self, seed, attempts, side):
        u = np.random.default_rng(seed).random(2 * attempts)
        xs, ys = u[0::2] * side, u[1::2] * side
        assert parking_kernel(xs, ys) == _parked_by_loop(xs, ys, side)

    def test_parking_points_on_cell_edges(self):
        # integer and half-integer coordinates sit on the cell edges and
        # at exactly distance 1 from each other, which does not crash
        rng = np.random.default_rng(11)
        side = 9.5
        xs = rng.integers(0, 19, 600) / 2.0
        ys = rng.integers(0, 19, 600) / 2.0
        got = parking_kernel(xs, ys)
        assert got == _parked_by_loop(xs, ys, side)
        assert got > 1
