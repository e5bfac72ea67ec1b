"""Catalog infrastructure: pooling, result helpers, TestCase plumbing."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rngts.battery.base import (
    chi_square_result,
    gaussian_result,
    ks_result,
    pool_cells,
)
from rngts.battery.base import TestCase as BatteryCase
from rngts.errors import ConfigurationError, StreamExhausted
from rngts.errors import TestAborted as AbortedError
from rngts.genkit.base import TAPE_WORDS, RandomStream, scan
from rngts.stats import StatKind, StatisticResult, Verdict


def _pool_cells_loop(counts, probs, sample_size):
    """The cell-by-cell pooling loop that `pool_cells` replaced."""
    pooled_counts = []
    pooled_probs = []
    acc_c = 0
    acc_p = 0.0
    for c, p in zip(counts, probs):
        acc_c += int(c)
        acc_p += float(p)
        if acc_p * sample_size >= 5.0:
            pooled_counts.append(acc_c)
            pooled_probs.append(acc_p)
            acc_c = 0
            acc_p = 0.0
    if acc_p > 0.0 or acc_c > 0:
        if not pooled_counts:
            raise ConfigurationError(
                "pooling left no complete cell; sample too small for the bins"
            )
        pooled_counts[-1] += acc_c
        pooled_probs[-1] += acc_p
    if len(pooled_counts) < 2:
        raise ConfigurationError("pooling left fewer than 2 cells")
    return np.asarray(pooled_counts, dtype=np.int64), np.asarray(pooled_probs)


def _pooled_or_error(counts, probs, sample_size, pool):
    try:
        pc, pp = pool(counts, probs, sample_size)
    except ConfigurationError as exc:
        return str(exc)
    return pc.dtype, pc.tolist(), pp.dtype, [p.hex() for p in pp.tolist()]


class TestPoolCells:
    def test_closes_cells_at_expected_five(self):
        counts = np.array([10, 20, 30, 25, 15])
        probs = np.array([0.5, 0.3, 0.1, 0.06, 0.04])
        pc, pp = pool_cells(counts, probs, 100)
        # last cell (expected 4) merges backward into its neighbor
        assert list(pc) == [10, 20, 30, 40]
        assert np.allclose(pp, [0.5, 0.3, 0.1, 0.1])

    def test_accumulates_small_cells_forward(self):
        counts = np.ones(100, dtype=np.int64)
        probs = np.full(100, 0.01)
        pc, pp = pool_cells(counts, probs, 100)
        # expected count 1 per cell: groups of 5 close at exactly 5
        assert len(pc) == 20
        assert all(c == 5 for c in pc)
        assert np.allclose(pp, 0.05)

    def test_no_pooling_when_all_large(self):
        counts = np.array([40, 30, 30])
        probs = np.array([0.4, 0.3, 0.3])
        pc, pp = pool_cells(counts, probs, 100)
        assert list(pc) == [40, 30, 30]

    def test_trailing_remainder_merges_backward(self):
        counts = np.array([30, 30, 39, 1])
        probs = np.array([0.3, 0.3, 0.39, 0.01])
        pc, pp = pool_cells(counts, probs, 100)
        assert list(pc) == [30, 30, 40]
        assert pp[-1] == pytest.approx(0.4)

    def test_sample_too_small(self):
        with pytest.raises(ConfigurationError):
            pool_cells(np.array([2, 2]), np.array([0.5, 0.5]), 4)

    def test_single_surviving_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            pool_cells(np.array([9, 1]), np.array([0.9, 0.1]), 10)

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=2, max_size=40))
    def test_invariants(self, raw_counts):
        counts = np.asarray(raw_counts, dtype=np.int64)
        n = int(counts.sum())
        assume(n > 0)
        k = len(raw_counts)
        probs = np.full(k, 1.0 / k)
        try:
            pc, pp = pool_cells(counts, probs, n)
        except ConfigurationError:
            assume(False)
        assert pc.sum() == n
        assert pp.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(pc) == len(pp) >= 2
        # every pooled cell meets the expected-count floor
        assert np.all(pp * n >= 5.0 - 1e-9)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.floats(min_value=0.0, max_value=0.3)),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=200))
    def test_matches_the_cell_by_cell_loop(self, cells, sample_size):
        counts = np.array([c for c, _ in cells], dtype=np.int64)
        probs = np.array([p for _, p in cells])
        assert (_pooled_or_error(counts, probs, sample_size, pool_cells)
                == _pooled_or_error(counts, probs, sample_size,
                                    _pool_cells_loop))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_cell_by_cell_loop_on_mixed_tables(self, seed):
        # long runs of cells that close on their own, broken by stretches
        # of small cells, with and without a deficient tail
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5000))
        probs = rng.dirichlet(rng.choice([0.05, 1.0, 20.0], size=k))
        probs[rng.random(k) < 0.2] *= 1e-3
        counts = rng.integers(0, 100, size=k)
        sample_size = int(rng.integers(10, 10**6))
        assert (_pooled_or_error(counts, probs, sample_size, pool_cells)
                == _pooled_or_error(counts, probs, sample_size,
                                    _pool_cells_loop))


class TestResultHelpers:
    def test_chi_square_result_unpooled(self):
        counts = np.array([30, 70])
        probs = np.array([0.5, 0.5])
        r = chi_square_result(counts, probs, 100)  # no cell below 5
        assert r.kind is StatKind.CHI_SQUARE
        assert r.statistic_value == pytest.approx(16.0)
        assert r.dof == 1
        assert set(r.p_values) == {"p"}

    def test_chi_square_result_pools_by_default(self):
        counts = np.array([50, 49, 1])
        probs = np.array([0.5, 0.49, 0.01])
        r = chi_square_result(counts, probs, 100)
        assert r.dof == 1  # 3 cells pooled to 2

    def test_ks_result_shape(self):
        r = ks_result(np.array([0.1, 0.2, 0.3, 0.9]))
        assert r.k_plus == pytest.approx(0.9)
        assert r.k_minus == pytest.approx(0.3)
        assert r.statistic_value == pytest.approx(0.9)
        assert set(r.p_values) == {"plus", "minus"}

    def test_gaussian_result_two_sided(self):
        r = gaussian_result(0.0)
        assert r.p_values["p"] == pytest.approx(1.0)
        assert gaussian_result(1.96).p_values["p"] == pytest.approx(
            0.05, abs=1e-3)
        # sign preserved on the statistic, p symmetric
        assert gaussian_result(-1.96).statistic_value == -1.96
        assert gaussian_result(-1.96).p_values["p"] == pytest.approx(
            gaussian_result(1.96).p_values["p"])


class _Zeros(RandomStream):
    """Serves zeros."""

    max_value = 2**32 - 1

    def _generate(self, n):
        return np.zeros(n, dtype=np.uint64)


def _recording(step, sizes):
    """`step`, appending the size of every block handed to it to `sizes`."""
    def recorded(raw, remaining):
        sizes.append(raw.size)
        return step(raw, remaining)
    return recorded


class TestScan:
    def test_no_progress_doubles_the_block_then_aborts(self):
        sizes = []
        with pytest.raises(AbortedError,
                           match="no progress at maximum buffer size"):
            scan(_Zeros(), 1, _recording(lambda raw, remaining: (0, 0),
                                         sizes), words_per_unit=65536)
        assert sizes == [65536 << i for i in range(7)]
        assert sizes[-1] == 1 << 22

    def test_hint_sizes_blocks_by_units_still_needed(self):
        sizes = []
        scan(_Zeros(), 100000, _recording(lambda raw, remaining:
             (min(remaining, raw.size // 30), raw.size), sizes),
             words_per_unit=24, max_block=1 << 20)
        # 24 words per unit left and 64 more, at most 2^20: 100000 and
        # 65048 units (capped), then 30096, 6018, 1202, 239, 46 and 8
        assert sizes == [1 << 20, 1 << 20, 722368, 144496, 28912, 5800,
                         1168, 256]
        sizes = []
        scan(_Zeros(), 10**6, _recording(lambda raw, remaining:
             (remaining, raw.size), sizes), words_per_unit=24,
             max_block=1 << 20)
        assert sizes == [1 << 20]

    def test_a_hinted_block_never_passes_the_first_block(self):
        # by default a hint only shrinks blocks, to about the need
        sizes = []
        scan(_Zeros(), 100000, _recording(lambda raw, remaining:
             (min(remaining, raw.size // 2), raw.size), sizes),
             words_per_unit=2.0)
        assert sizes == [65536] * 3 + [2 * 1696 + 64]
        sizes = []
        scan(_Zeros(), 1000, _recording(lambda raw, remaining:
             (remaining, raw.size), sizes), words_per_unit=math.e)
        assert sizes == [math.ceil(1000 * math.e) + 64]

    def test_a_hinted_block_without_progress_doubles(self):
        sizes = []
        scan(_Zeros(), 1, _recording(lambda raw, remaining:
             (int(raw.size > 1000), raw.size), sizes), words_per_unit=2.0)
        assert sizes == [66, 132, 264, 528, 1056]

    def test_a_block_is_dropped_before_the_next_is_read(self):
        # beside the stream, a scan holds one block at a time
        held = []

        class Watched(_Zeros):
            def next_block(self, n):
                assert all(ref() is None for ref in held)
                return super().next_block(n)

        def step(raw, remaining):
            held.append(weakref.ref(raw))
            return 1, raw.size // 2

        scan(Watched(), 3, step, words_per_unit=TAPE_WORDS,
             max_block=1 << 20)
        scan(Watched(), 3, step, words_per_unit=TAPE_WORDS)
        assert len(held) == 6

    def test_every_block_holds_32_bit_words(self):
        # at any size, though _Zeros generates uint64
        seen = []

        def step(raw, remaining):
            seen.append((raw.size, raw.dtype))
            return 1, raw.size

        scan(_Zeros(), 4, step, words_per_unit=TAPE_WORDS // 2,
             max_block=1 << 20)
        scan(_Zeros(), 1, step, words_per_unit=TAPE_WORDS)
        assert seen == [
            (2 * TAPE_WORDS + 64, np.uint32),
            (3 * TAPE_WORDS // 2 + 64, np.uint32),
            (TAPE_WORDS + 64, np.uint32), (TAPE_WORDS // 2 + 64, np.uint32),
            (65536, np.uint32),
        ]

    def test_hint_falls_back_on_a_short_stream(self):
        stream = _Counting(200000)
        seen = []

        def step(raw, remaining):
            seen.append((int(raw[0]), raw.size))
            return 1, 1000

        scan(stream, 3, step, words_per_unit=100000, max_block=1 << 20)
        # a failed read keeps its words, and the scan steps on every word
        # the stream still holds before the next read
        assert seen == [(0, 200000), (1000, 199000), (2000, 100064)]
        assert int(stream.next_block(1)[0]) == 3000


class _Counting(RandomStream):
    """Serves 0, 1, 2, ... up to `size` words; records block sizes."""

    max_value = 2**32 - 1

    def __init__(self, size):
        super().__init__()
        self.requests = []
        self._left = size
        self._next = 0

    def next_block(self, n):
        self.requests.append(n)
        return super().next_block(n)

    def _generate(self, n):
        n = min(n, self._left, 65536)
        out = np.arange(self._next, self._next + n, dtype=np.uint64)
        self._left -= n
        self._next += n
        return out


class _FixedResults(BatteryCase):
    test_name = "Fixed"

    def __init__(self, results, fail=None):
        self._results = results
        self._fail = fail

    def parameters(self):
        return [("Alpha", 1)]

    def run(self, stream):
        if self._fail is not None:
            raise self._fail
        self.diagnostics = (("Note", 7),)
        return self._results


def _result(p):
    return StatisticResult(StatKind.GAUSSIAN, 0.0, {"p": p})


class TestTestCase:
    def test_analyze_two_tail_rule(self):
        case = _FixedResults([_result(0.03)])
        out = case.execute(None, [0.05, 0.95])
        assert out.verdicts[0][0.05] is Verdict.FAILED
        assert out.verdicts[0][0.95] is Verdict.PASSED

    def test_analyze_high_tail(self):
        out = _FixedResults([_result(0.97)]).execute(None, [0.05, 0.95])
        assert out.verdicts[0][0.05] is Verdict.PASSED
        assert out.verdicts[0][0.95] is Verdict.FAILED

    def test_any_named_p_fails_the_level(self):
        res = StatisticResult(StatKind.KOLMOGOROV_SMIRNOV, 1.0,
                              {"plus": 0.5, "minus": 0.01})
        out = _FixedResults([res]).execute(None, [0.05])
        assert out.verdicts[0][0.05] is Verdict.FAILED

    def test_outcome_carries_everything(self):
        out = _FixedResults([_result(0.5)]).execute(None, [0.05])
        assert out.test_name == "Fixed"
        assert out.parameters == (("Alpha", 1),)
        assert len(out.results) == 1
        assert out.diagnostics == (("Note", 7),)
        assert out.aborted is None

    def test_abort_contained(self):
        out = _FixedResults([], fail=AbortedError("ran dry")).execute(
            None, [0.05])
        assert out.aborted == "ran dry"
        assert out.results == () and out.verdicts == ()

    def test_exhaustion_contained(self):
        out = _FixedResults([], fail=StreamExhausted("empty")).execute(
            None, [0.05])
        assert out.aborted == "empty"

    def test_configuration_error_propagates(self):
        with pytest.raises(ConfigurationError):
            _FixedResults([], fail=ConfigurationError("bad")).execute(
                None, [0.05])
