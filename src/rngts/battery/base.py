"""Test catalog infrastructure: TestCase, TestOutcome, cell pooling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, StreamExhausted, TestAborted
from ..genkit.base import RandomStream
from ..stats import (
    ChiSquareInput,
    KsInput,
    KsStatisticResult,
    KsSide,
    StatisticResult,
    StatKind,
    chi_square_pvalue,
    chi_square_statistic,
    gaussian_pvalue,
    ks_pvalue,
    ks_statistic,
)


@dataclass(frozen=True)
class TestOutcome:
    """One test's parameters, results, and per-level verdicts.

    `verdicts[i][level]` is the verdict of results[i] at that confidence
    level; aborted outcomes carry no verdicts.
    """

    test_name: str
    parameters: tuple
    results: tuple
    verdicts: tuple
    aborted: Optional[str] = None
    diagnostics: tuple = ()


class TestCase:
    """A battery test: fixed parameters, run(stream), pure analyze().

    `run` consumes the stream and returns StatisticResults; the draw
    consumption rule of each test is stated in its docstring.  `analyze`
    judges results against confidence levels; a result with several named
    p-values fails at a level when any of them fails.
    """

    test_name: str = "test"
    # (label, value) pairs for the report, set by `run` for its last stream
    diagnostics: tuple = ()

    def parameters(self) -> list:
        raise NotImplementedError

    def run(self, stream: RandomStream) -> list:
        raise NotImplementedError

    def analyze(self, results: Sequence[StatisticResult],
                levels: Sequence[float]) -> TestOutcome:
        from ..report import verdict, Verdict
        verdicts = []
        for res in results:
            per_level = {}
            for level in levels:
                vs = [verdict(p, level) for p in res.p_values.values()]
                per_level[level] = (
                    Verdict.FAILED if Verdict.FAILED in vs else Verdict.PASSED
                )
            verdicts.append(per_level)
        return TestOutcome(
            test_name=self.test_name,
            parameters=tuple(self.parameters()),
            results=tuple(results),
            verdicts=tuple(verdicts),
            diagnostics=self.diagnostics,
        )

    def execute(self, stream: RandomStream,
                levels: Sequence[float]) -> TestOutcome:
        """run + analyze with abort containment."""
        try:
            results = self.run(stream)
        except (TestAborted, StreamExhausted) as exc:
            reason = exc.reason if isinstance(exc, TestAborted) else str(exc)
            return TestOutcome(
                test_name=self.test_name,
                parameters=tuple(self.parameters()),
                results=(),
                verdicts=(),
                aborted=reason,
            )
        return self.analyze(results, levels)


def pool_cells(counts: np.ndarray, probs: np.ndarray,
               sample_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge cells with expected count < 5 into their neighbor toward the tail.

    Scans left to right accumulating cells until the expected count
    reaches 5; a deficient trailing remainder merges backward into the
    last closed cell.  Depends only on probabilities and sample size, so
    the pooling is fixed before any data are seen.
    """
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


def chi_square_result(counts: np.ndarray, probs: np.ndarray,
                      sample_size: int, pool: bool = True) -> StatisticResult:
    if pool:
        counts, probs = pool_cells(counts, probs, sample_size)
    inp = ChiSquareInput(
        observed_counts=[int(c) for c in counts],
        cell_probabilities=[float(p) for p in probs],
        sample_size=sample_size,
    )
    chi2, dof = chi_square_statistic(inp)
    return StatisticResult(
        kind=StatKind.CHI_SQUARE,
        statistic_value=chi2,
        dof=dof,
        p_values={"p": chi_square_pvalue(chi2, dof)},
    )


def ks_result(samples: np.ndarray, cdf) -> KsStatisticResult:
    stat = ks_statistic(KsInput(samples=samples, theoretical_cdf=cdf))
    return KsStatisticResult(
        kind=StatKind.KOLMOGOROV_SMIRNOV,
        statistic_value=max(stat.k_plus, stat.k_minus),
        p_values={
            "plus": ks_pvalue(stat, KsSide.PLUS),
            "minus": ks_pvalue(stat, KsSide.MINUS),
        },
        k_plus=stat.k_plus,
        k_minus=stat.k_minus,
    )


def gaussian_result(z: float) -> StatisticResult:
    """Two-sided Gaussian result for a standardized deviation z."""
    p = min(1.0, 2.0 * gaussian_pvalue(abs(z)))
    return StatisticResult(
        kind=StatKind.GAUSSIAN,
        statistic_value=z,
        p_values={"p": p},
    )
