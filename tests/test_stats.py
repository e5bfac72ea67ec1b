"""Statistical backend checks against independently computed constants.

Reference values were computed with mpmath at 30 significant digits
(erf, regularized incomplete gamma, Kolmogorov distribution) and frozen
here; property tests cover symmetry, monotonicity, and input policing.
The chi-square and KS statistics are also checked bit for bit against
the input-record implementation they replaced, kept below as an oracle,
and the incomplete gamma function against scipy at large shapes.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaincc

from rngts.errors import ConfigurationError
from rngts.stats import (
    KsStatisticResult,
    MetaStatisticResult,
    StatKind,
    StatisticResult,
    chi_square_pvalue,
    chi_square_statistic,
    erf,
    gaussian_pvalue,
    ks_pvalue,
    ks_statistic,
    ks_two_sided_pvalue,
    regularized_gamma_q,
)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-30.0, max_value=30.0)


class TestErf:
    # mpmath: erf(x) at 30 digits
    @pytest.mark.parametrize("x, expected", [
        (1.0, 0.84270079294971486934),
        (2.0, 0.99532226501895273416),
        (0.5, 0.52049987781304653768),
        (3.7, 0.99999983284894209085),
        (5.5, 0.99999999999999264215),
    ])
    def test_reference_values(self, x, expected):
        assert erf(x) == pytest.approx(expected, abs=1e-14)

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_large_saturates(self):
        assert erf(10.0) == pytest.approx(1.0, abs=1e-15)
        assert erf(-10.0) == pytest.approx(-1.0, abs=1e-15)

    @given(finite)
    def test_odd_symmetry(self, x):
        assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)

    @given(finite, finite)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert erf(lo) <= erf(hi) + 1e-15


class TestRegularizedGammaQ:
    # mpmath: gammainc(a, x, inf, regularized=True)
    @pytest.mark.parametrize("a, x, expected", [
        (0.3, 7.1, 0.000064271313101467325026),
        (127.5, 121.165, 0.70573168495254333164),
    ])
    def test_reference_values(self, a, x, expected):
        assert regularized_gamma_q(a, x) == pytest.approx(expected, rel=1e-12)

    def test_at_zero(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0

    def test_integer_shape_closed_form(self):
        # a = 1: Q(1, x) = exp(-x)
        for x in (0.1, 1.0, 3.0, 12.0):
            assert regularized_gamma_q(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=200.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_in_unit_interval(self, a, x):
        q = regularized_gamma_q(a, x)
        assert 0.0 <= q <= 1.0

    # values from the fixed 500-step cap, which these pairs never reach
    @pytest.mark.parametrize("a, x, expected", [
        (0.5, 4.0, "0x1.328f5ec350e64p-8"),
        (127.5, 121.165, "0x1.6955a9d53e910p-1"),
        (2047.5, 2000.0, "0x1.b4e09a6286004p-1"),
        (4999.5, 5100.0, "0x1.40b00d07589cep-4"),
        (50000.0, 50100.0, "0x1.4ec6bd9e4c895p-2"),
    ])
    def test_pinned_bits(self, a, x, expected):
        assert regularized_gamma_q(a, x).hex() == expected

    # near x = a the series and the continued fraction need about
    # 8 sqrt(a) steps; 1677721 is the largest a (dof / 2) the tables
    # admit.  Bounds measured: 9.2e-11 up to a = 2e5, 1.23e-9 above.
    @pytest.mark.parametrize("a, tol", [
        (5e4, 1e-10), (2e5, 1e-10), (1.6e6, 1.5e-9), (1677721.0, 1.5e-9),
    ])
    @pytest.mark.parametrize("offset", [-3.0, 0.0, 1.5, 10.0, 100.0])
    def test_large_shape_against_scipy(self, a, tol, offset):
        x = a + offset
        assert regularized_gamma_q(a, x) == pytest.approx(
            gammaincc(a, x), abs=tol)


class TestChiSquarePvalue:
    def test_dof_two_closed_form(self):
        # dof = 2 reduces to exp(-x / 2)
        for x in (0.1, 1.0, 5.0, 20.0):
            assert chi_square_pvalue(x, 2) == pytest.approx(
                math.exp(-x / 2.0), abs=1e-10)

    # mpmath: gammainc(dof/2, chi2/2, inf, regularized=True)
    @pytest.mark.parametrize("chi2, dof, expected, rel", [
        (242.33, 255, 0.70573168495254333164, 1e-12),
        (299.592, 255, 0.028777844797996083682, 1e-12),
        (12.0, 3, 0.007383160505359769743, 1e-12),
        (0.5, 5, 0.99212329323262959221, 1e-12),
        (1000.0, 255, 9.3784773436583980501e-89, 1e-9),
        (8.0, 1, 0.0046777349810472658379, 1e-12),
    ])
    def test_reference_values(self, chi2, dof, expected, rel):
        assert chi_square_pvalue(chi2, dof) == pytest.approx(expected, rel=rel)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            chi_square_pvalue(-1.0, 5)
        with pytest.raises(ConfigurationError):
            chi_square_pvalue(1.0, 0)
        with pytest.raises(ConfigurationError):
            chi_square_pvalue(float("nan"), 5)

    @given(st.floats(min_value=0.0, max_value=2000.0),
           st.floats(min_value=0.0, max_value=2000.0),
           st.integers(min_value=1, max_value=400))
    def test_monotone_in_chi2(self, a, b, dof):
        lo, hi = sorted((a, b))
        assert chi_square_pvalue(lo, dof) >= chi_square_pvalue(hi, dof) - 1e-12


class TestChiSquareStatistic:
    def test_hand_computed(self):
        # counts (30, 70) vs fair halves of 100: (20^2 + 20^2) / 50 = 16
        chi2, dof = chi_square_statistic((30, 70), (0.5, 0.5), 100)
        assert chi2 == pytest.approx(16.0)
        assert dof == 1

    def test_perfect_fit_is_zero(self):
        chi2, dof = chi_square_statistic((25, 25, 25, 25), (0.25,) * 4, 100)
        assert chi2 == 0.0
        assert dof == 3

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            chi_square_statistic((10,), (1.0,), 10)  # one cell
        with pytest.raises(ConfigurationError):
            chi_square_statistic((5, 6), (0.5, 0.5), 10)  # counts mismatch
        with pytest.raises(ConfigurationError):
            chi_square_statistic((5, 5), (0.5, 0.6), 10)  # probs exceed 1
        with pytest.raises(ConfigurationError):
            chi_square_statistic((-1, 11), (0.5, 0.5), 10)  # negative count
        with pytest.raises(ConfigurationError):
            chi_square_statistic((5, 5), (1.0, -0.0), 10)  # zero probability


class TestGaussianPvalue:
    def test_center(self):
        assert gaussian_pvalue(0.0) == pytest.approx(0.5, abs=1e-12)

    # mpmath: erfc(x / sqrt(2)) / 2
    def test_reference_values(self):
        assert gaussian_pvalue(1.0) == pytest.approx(
            0.15865525393145705141, abs=1e-14)
        assert gaussian_pvalue(-2.5) == pytest.approx(
            0.99379033467422386483, abs=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            gaussian_pvalue(float("nan"))

    @given(finite)
    def test_complement(self, x):
        assert gaussian_pvalue(x) + gaussian_pvalue(-x) == pytest.approx(
            1.0, abs=1e-12)

    @given(finite, finite)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert gaussian_pvalue(lo) >= gaussian_pvalue(hi) - 1e-15


class TestKs:
    def test_two_sided_reference_values(self):
        # mpmath: 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 t^2)
        assert ks_two_sided_pvalue(1.0) == pytest.approx(
            0.2699996716773545212, abs=1e-12)
        assert ks_two_sided_pvalue(0.5) == pytest.approx(
            0.96394524366487509439, abs=1e-12)

    def test_at_one_sided_median(self):
        # at t = sqrt(ln 2 / 2) the leading exp(-2 t^2) term is exactly
        # 1/2; the full alternating series gives 0.87887... (mpmath)
        t = 0.58870501125773734551
        assert ks_two_sided_pvalue(t) == pytest.approx(
            0.87887579199741949754, abs=1e-12)
        assert ks_pvalue(t, 10**12) == pytest.approx(0.5, abs=1e-5)

    def test_two_sided_edges(self):
        assert ks_two_sided_pvalue(0.0) == 1.0
        assert ks_two_sided_pvalue(-1.0) == 1.0
        assert ks_two_sided_pvalue(10.0) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_two_sided_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert ks_two_sided_pvalue(lo) >= ks_two_sided_pvalue(hi) - 1e-12

    def test_one_sided_formula(self):
        # p = exp(-2 t^2) (1 - 2t / (3 sqrt(n))), clamped to [0, 1]
        expected_plus = math.exp(-2 * 1.2**2) * (1 - 2 * 1.2 / 30.0)
        expected_minus = math.exp(-2 * 0.3**2) * (1 - 2 * 0.3 / 30.0)
        assert ks_pvalue(1.2, 100) == pytest.approx(expected_plus)
        assert ks_pvalue(0.3, 100) == pytest.approx(expected_minus)

    def test_statistic_known_sample(self):
        # n = 4 uniform sample; empirical steps at 1/4 ... 4/4
        k_plus, k_minus = ks_statistic((0.1, 0.2, 0.3, 0.9))
        # K+ = sqrt(4) max(i/n - F) = 2 * (3/4 - 0.3) = 0.9
        assert k_plus == pytest.approx(0.9)
        # K- = sqrt(4) max(F - (i-1)/n) = 2 * (0.9 - 3/4) = 0.3
        assert k_minus == pytest.approx(0.3)

    def test_statistic_unsorted_input(self):
        assert (ks_statistic((0.9, 0.1, 0.3, 0.2))
                == ks_statistic((0.1, 0.2, 0.3, 0.9)))

    def test_statistic_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ks_statistic(())

    def test_statistic_bounds_enforced(self):
        with pytest.raises(ConfigurationError, match="sqrt"):
            ks_statistic((3.0,) * 4)  # K- = 2 * 3, above sqrt(4)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=60))
    def test_statistic_bounds(self, xs):
        k_plus, k_minus = ks_statistic(xs)
        root = math.sqrt(len(xs))
        assert 0.0 <= k_plus <= root
        assert 0.0 <= k_minus <= root


class TestResultTypes:
    def test_dof_only_for_chi_square(self):
        StatisticResult(StatKind.CHI_SQUARE, 1.0, {"p": 0.5}, dof=3)
        with pytest.raises(ConfigurationError):
            StatisticResult(StatKind.CHI_SQUARE, 1.0, {"p": 0.5})
        with pytest.raises(ConfigurationError):
            StatisticResult(StatKind.GAUSSIAN, 1.0, {"p": 0.5}, dof=3)

    def test_p_value_range_enforced(self):
        with pytest.raises(ConfigurationError):
            StatisticResult(StatKind.GAUSSIAN, 1.0, {"p": 1.5})
        with pytest.raises(ConfigurationError):
            StatisticResult(StatKind.GAUSSIAN, 1.0, {})

    def test_ks_result_carries_sides(self):
        r = KsStatisticResult(StatKind.KOLMOGOROV_SMIRNOV, 0.9,
                              {"plus": 0.2, "minus": 0.8},
                              k_plus=0.9, k_minus=0.3)
        assert r.k_plus == 0.9 and r.k_minus == 0.3

    def test_meta_result_kind_string(self):
        r = MetaStatisticResult(StatKind.KOLMOGOROV_SMIRNOV, 0.5,
                                {"p": 0.4})
        assert r.meta_kind == "KS"


# ---------------------------------------------------------------------------
# the input-record implementation that the plain functions replaced, kept
# as the oracle they must match bit for bit


@dataclass(frozen=True)
class _ChiSquareInput:
    observed_counts: Sequence[int]
    cell_probabilities: Sequence[float]
    sample_size: int

    def __post_init__(self):
        k = len(self.observed_counts)
        if k != len(self.cell_probabilities) or k < 2:
            raise ConfigurationError(
                "chi-square needs matching count/probability cells, at least 2"
            )
        if any(c < 0 for c in self.observed_counts):
            raise ConfigurationError("observed counts must be non-negative")
        if self.sample_size <= 0:
            raise ConfigurationError("sample size must be positive")
        if sum(self.observed_counts) != self.sample_size:
            raise ConfigurationError("observed counts must sum to the sample size")
        if any(not (0.0 < p <= 1.0) for p in self.cell_probabilities):
            raise ConfigurationError("cell probabilities must lie in (0, 1]")
        if abs(math.fsum(self.cell_probabilities) - 1.0) > 1e-9:
            raise ConfigurationError("cell probabilities must sum to 1 within 1e-9")


@dataclass(frozen=True)
class _KsInput:
    samples: Sequence[float]
    theoretical_cdf: Callable[[float], float]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ConfigurationError("KS needs a non-empty sample")


@dataclass(frozen=True)
class _KsStatistic:
    k_plus: float
    k_minus: float
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigurationError("KS statistic needs a positive sample size")
        root = math.sqrt(self.n)
        if not (0.0 <= self.k_plus <= root and 0.0 <= self.k_minus <= root):
            raise ConfigurationError("KS statistics must lie in [0, sqrt(n)]")


def _oracle_chi_square(counts, probs, sample_size):
    inp = _ChiSquareInput([int(c) for c in counts],
                          [float(p) for p in probs], sample_size)
    observed = np.asarray(inp.observed_counts, dtype=np.float64)
    expected = np.asarray(inp.cell_probabilities, dtype=np.float64) * inp.sample_size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return chi2, len(inp.observed_counts) - 1


def _oracle_ks(samples):
    """(K+, K-, p+, p-, two-sided p) through the record types."""
    inp = _KsInput(samples=list(samples), theoretical_cdf=lambda x: x)
    xs = np.sort(np.asarray(inp.samples, dtype=np.float64))
    n = xs.size
    f = inp.theoretical_cdf
    try:
        fx = np.asarray(f(xs), dtype=np.float64)
        if fx.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        fx = np.array([f(x) for x in xs], dtype=np.float64)
    if np.any(np.diff(fx) < 0.0):
        raise ConfigurationError("theoretical CDF is not non-decreasing on the sample")
    i = np.arange(1, n + 1, dtype=np.float64)
    root = math.sqrt(n)
    k_plus = root * max(0.0, float((i / n - fx).max()))
    k_minus = root * max(0.0, float((fx - (i - 1.0) / n).max()))
    stat = _KsStatistic(k_plus=k_plus, k_minus=k_minus, n=n)

    def one_sided(t):
        p = math.exp(-2.0 * t * t) * (1.0 - 2.0 * t / (3.0 * math.sqrt(stat.n)))
        return min(1.0, max(0.0, p))

    return (stat.k_plus, stat.k_minus, one_sided(stat.k_plus),
            one_sided(stat.k_minus),
            ks_two_sided_pvalue(max(stat.k_plus, stat.k_minus)))


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@st.composite
def _chi_square_cells(draw):
    k = draw(st.integers(min_value=2, max_value=40))
    counts = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                            min_size=k, max_size=k))
    total = math.fsum(weights)
    return counts, [w / total for w in weights], sum(counts)


class TestAgainstRecordOracle:
    @given(_chi_square_cells())
    def test_chi_square_bits(self, cells):
        counts, probs, n = cells
        if n == 0:
            counts[0], n = 1, 1
        expected = _hex(_oracle_chi_square(counts, probs, n))
        assert _hex(chi_square_statistic(
            np.asarray(counts, dtype=np.int64), np.asarray(probs), n)) == expected
        assert _hex(chi_square_statistic(counts, probs, n)) == expected

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                    min_size=1, max_size=300))
    def test_ks_bits(self, xs):
        expected = _hex(_oracle_ks(xs))
        for sample in (xs, np.asarray(xs)):
            k_plus, k_minus = ks_statistic(sample)
            n = len(xs)
            assert _hex((k_plus, k_minus, ks_pvalue(k_plus, n),
                         ks_pvalue(k_minus, n),
                         ks_two_sided_pvalue(max(k_plus, k_minus)))) == expected

    @pytest.mark.parametrize("counts, probs, n", [
        ((10,), (1.0,), 10),
        ((5, 6), (0.5, 0.5), 10),
        ((5, 5), (0.5, 0.6), 10),
        ((-1, 11), (0.5, 0.5), 10),
        ((5, 5), (1.0, -0.0), 10),
        ((5, 5), (0.5, 0.5), 0),
        ((5, 5, 5), (0.5, 0.5), 15),
    ], ids=["one-cell", "count-mismatch", "probs-above-one", "negative-count",
            "zero-probability", "zero-sample", "length-mismatch"])
    def test_chi_square_rejects_like_oracle(self, counts, probs, n):
        with pytest.raises(ConfigurationError) as oracle:
            _oracle_chi_square(counts, probs, n)
        with pytest.raises(ConfigurationError) as new:
            chi_square_statistic(counts, probs, n)
        assert str(new.value) == str(oracle.value)
        with pytest.raises(ConfigurationError) as arrays:
            chi_square_statistic(np.asarray(counts), np.asarray(probs), n)
        assert str(arrays.value) == str(oracle.value)

    def test_ks_rejects_empty_like_oracle(self):
        with pytest.raises(ConfigurationError) as oracle:
            _oracle_ks([])
        for sample in ([], np.array([])):
            with pytest.raises(ConfigurationError) as new:
                ks_statistic(sample)
            assert str(new.value) == str(oracle.value)
