"""Statistical backends: chi-square, Kolmogorov-Smirnov, Gaussian, verdicts.

The operations are plain functions over arrays and numbers.  The
chi-square statistic compares cell counts with cell probabilities; the
KS statistics K+ and K- measure a sample against the uniform law on
[0, 1], the law that every KS caller maps its values to first.

All p-values follow the upper-tail convention: small p means the statistic
landed improbably high under the null hypothesis of a perfect random source.
The special functions (erf, regularized incomplete gamma) are implemented
here directly so the suite carries its own numerics.

The verdict rule is two-tailed over the confidence value c: for c < 0.5
a p-value below c fails (left tail); for c >= 0.5 a p-value above c
fails (right tail).  A run at levels 0.05 and 0.95 therefore rejects
both suspiciously bad and suspiciously good fits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError

_SQRT_PI = 1.7724538509055160273
_SQRT_2 = math.sqrt(2.0)
_MAX_ITER = 500
# ks_statistic checks its sample's order and takes its maxima this many
# sorted entries at a time
_KS_CHUNK = 1 << 16


class StatKind(enum.Enum):
    CHI_SQUARE = "ChiSquare"
    KOLMOGOROV_SMIRNOV = "KolmogorovSmirnov"
    GAUSSIAN = "Gaussian"


class Verdict(enum.Enum):
    PASSED = "PASSED"
    FAILED = "FAILED"


def verdict(p: float, level: float) -> Verdict:
    """Judge a p-value at one confidence level (two-tail rule above)."""
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"p-value {p} outside [0, 1]")
    if not (0.0 < level < 1.0):
        raise ConfigurationError(f"confidence level {level} outside (0, 1)")
    if level < 0.5:
        return Verdict.FAILED if p < level else Verdict.PASSED
    return Verdict.FAILED if p > level else Verdict.PASSED


# ---------------------------------------------------------------------------
# special functions


def erf(z: float) -> float:
    """Error function, absolute error below 1e-12 for |z| <= 6.

    Positive-term series for |z| < 2, continued fraction for the
    complement beyond.  Odd symmetry is exact by construction.
    """
    if not math.isfinite(z):
        raise ConfigurationError("erf requires a finite argument")
    if z == 0.0:
        return 0.0
    sign = -1.0 if z < 0.0 else 1.0
    x = abs(z)
    if x < 2.0:
        # erf(x) = 2x e^{-x^2}/sqrt(pi) * sum (2x^2)^n / (1*3*...*(2n+1))
        twoxx = 2.0 * x * x
        term = 1.0
        total = 1.0
        n = 0
        while term > total * 1e-17:
            n += 1
            term *= twoxx / (2.0 * n + 1.0)
            total += term
            if n > _MAX_ITER:
                raise RuntimeError("erf series did not converge")
        return sign * 2.0 * x * math.exp(-x * x) / _SQRT_PI * total
    return sign * (1.0 - _erfc_cf(x))


def _erfc_cf(x: float) -> float:
    # erfc(x) = e^{-x^2}/sqrt(pi) / (x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...))))
    # evaluated by the modified Lentz method
    tiny = 1e-300
    f = x
    c = f
    d = 0.0
    for k in range(1, _MAX_ITER + 1):
        a = k / 2.0
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(-x * x) / _SQRT_PI / f
    raise RuntimeError("erfc continued fraction did not converge")


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Series expansion for x < a + 1, continued fraction otherwise.  Near
    x = a both need about 8 sqrt(a) steps, so the step cap grows with
    sqrt(a).  Absolute error, measured against scipy's gammaincc, is at
    most 1e-10 up to a = 2e5 and 1.3e-9 up to the largest chi-square a
    the battery admits (about 1.68e6).
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ConfigurationError("regularized_gamma_q requires finite arguments")
    if a <= 0.0:
        raise ConfigurationError("regularized_gamma_q requires a > 0")
    if x < 0.0:
        raise ConfigurationError("regularized_gamma_q requires x >= 0")
    if x == 0.0:
        return 1.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    max_iter = _MAX_ITER + int(16.0 * math.sqrt(a))
    if x < a + 1.0:
        # series for the lower function P; Q = 1 - P
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(max_iter):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                p = total * math.exp(log_prefix)
                return min(1.0, max(0.0, 1.0 - p))
        raise RuntimeError("incomplete gamma series did not converge")
    # Lentz continued fraction for Q directly
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            q = h * math.exp(log_prefix)
            return min(1.0, max(0.0, q))
    raise RuntimeError("incomplete gamma continued fraction did not converge")


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class StatisticResult:
    kind: StatKind
    statistic_value: float
    p_values: dict[str, float]
    dof: Optional[int] = None

    def __post_init__(self):
        if not self.p_values:
            raise ConfigurationError("a statistic result needs at least one p-value")
        for name, p in self.p_values.items():
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"p-value {name!r} outside [0, 1]: {p}")
        if (self.dof is not None) != (self.kind is StatKind.CHI_SQUARE):
            raise ConfigurationError("dof is present exactly for chi-square results")


@dataclass(frozen=True)
class KsStatisticResult(StatisticResult):
    """KS result carrying both one-sided statistics for reporting."""

    k_plus: float = 0.0
    k_minus: float = 0.0


@dataclass(frozen=True)
class MetaStatisticResult(StatisticResult):
    """Result of a second-order test over repeated inner-test p-values.

    meta_kind names the aggregation ("KS" for a uniformity fit of the
    p sample, "COUNT_FAILS" for per-level failure counting).
    """

    meta_kind: str = "KS"


# ---------------------------------------------------------------------------
# operations


def chi_square_statistic(counts, probs, sample_size: int) -> tuple[float, int]:
    """Pearson's chi-square of observed cell counts against cell
    probabilities times the sample size, and its degrees of freedom."""
    counts = np.asarray(counts)
    probs = np.asarray(probs, dtype=np.float64)
    k = len(counts)
    if k != len(probs) or k < 2:
        raise ConfigurationError(
            "chi-square needs matching count/probability cells, at least 2"
        )
    if (counts < 0).any():
        raise ConfigurationError("observed counts must be non-negative")
    if sample_size <= 0:
        raise ConfigurationError("sample size must be positive")
    if counts.sum() != sample_size:
        raise ConfigurationError("observed counts must sum to the sample size")
    if not ((probs > 0.0) & (probs <= 1.0)).all():
        raise ConfigurationError("cell probabilities must lie in (0, 1]")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ConfigurationError("cell probabilities must sum to 1 within 1e-9")
    observed = counts.astype(np.float64)
    expected = probs * sample_size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return chi2, k - 1


def chi_square_pvalue(chi2: float, dof: int) -> float:
    if not math.isfinite(chi2):
        raise ConfigurationError("chi2 must be finite")
    if chi2 < 0.0:
        raise ConfigurationError("chi2 must be non-negative")
    if dof <= 0:
        raise ConfigurationError("dof must be positive")
    return regularized_gamma_q(dof / 2.0, chi2 / 2.0)


def _ascending(xs: np.ndarray) -> bool:
    """Whether no entry of xs is below the one before, checked
    _KS_CHUNK entries at a time."""
    n = xs.size
    for at in range(1, n, _KS_CHUNK):
        end = min(at + _KS_CHUNK, n)
        if np.less(xs[at:end], xs[at - 1:end - 1]).any():
            return False
    return True


def ks_statistic(samples) -> tuple[float, float]:
    """(K+, K-) of a sample against the uniform law on [0, 1].

    The sample is read as float64 and sorted, in a copy, unless it
    already ascends: a test that sorts its own sample, as KS and
    max-of-t do, does not pay for a second sort.  The maxima of
    i/n - x_(i) and x_(i) - (i-1)/n are taken _KS_CHUNK entries at a
    time, so beside the sorted sample only one chunk's arrays are held;
    a max over chunk maxima is the max over all.
    """
    xs = np.asarray(samples, dtype=np.float64)
    if not _ascending(xs):
        xs = np.sort(xs)
    n = xs.size
    if n == 0:
        raise ConfigurationError("KS needs a non-empty sample")
    above, below = [], []
    for at in range(0, n, _KS_CHUNK):
        part = xs[at:at + _KS_CHUNK]
        i = np.arange(at + 1, at + part.size + 1, dtype=np.float64)
        above.append((i / n - part).max())
        below.append((part - (i - 1.0) / n).max())
    root = math.sqrt(n)
    k_plus = root * max(0.0, float(np.max(above)))
    k_minus = root * max(0.0, float(np.max(below)))
    if not (k_plus <= root and k_minus <= root):
        raise ConfigurationError("KS statistics must lie in [0, sqrt(n)]")
    return k_plus, k_minus


def ks_pvalue(t: float, n: int) -> float:
    """One-sided p-value of a KS statistic t (K+ or K-) of n samples."""
    p = math.exp(-2.0 * t * t) * (1.0 - 2.0 * t / (3.0 * math.sqrt(n)))
    return min(1.0, max(0.0, p))


def ks_two_sided_pvalue(t: float) -> float:
    if t <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 10000):
        term = math.exp(-2.0 * j * j * t * t)
        total += sign * term
        sign = -sign
        if term < 1e-12:
            break
    return min(1.0, max(0.0, 2.0 * total))


def gaussian_pvalue(x: float) -> float:
    if not math.isfinite(x):
        raise ConfigurationError("gaussian_pvalue requires a finite argument")
    return 0.5 - 0.5 * erf(x / _SQRT_2)
