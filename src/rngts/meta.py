"""Second-order tests: repeat an inner test and analyze its p-values.

The two aggregations are a KS fit of the p sample against uniform
(iterate) and per-confidence-level failure counting with an exact
binomial reference (count-fails).  Inner repetitions continue on the
given stream; they never reseed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .battery.base import TestCase
from .errors import ConfigurationError, StreamExhausted, TestAborted
from .genkit.base import RandomStream
from .stats import (
    KsInput,
    KsSide,
    MetaStatisticResult,
    StatKind,
    ks_pvalue,
    ks_statistic,
)

_ABORT_FRACTION = 0.1


@dataclass(frozen=True)
class MetaOutcome:
    """Aggregate of repeated runs of one inner test.

    repetitions counts the successful runs; aborted_runs the rest.  A
    meta outcome itself aborts (meta_result None) when more than 10% of
    the inner runs abort.
    """

    inner_test_name: str
    repetitions: int
    per_run_p: tuple
    p_name: str
    meta_result: Optional[MetaStatisticResult]
    fail_counts: Optional[dict] = None
    aborted_runs: int = 0
    aborted: Optional[str] = None


def ks_of_pvalues(ps: Sequence[float]) -> MetaStatisticResult:
    """KS of a p-value sample against the uniform law, as a meta result."""
    stat = ks_statistic(KsInput(samples=list(ps), theoretical_cdf=lambda x: x))
    return MetaStatisticResult(
        kind=StatKind.KOLMOGOROV_SMIRNOV,
        statistic_value=max(stat.k_plus, stat.k_minus),
        p_values={"p": ks_pvalue(stat, KsSide.TWO_SIDED)},
        meta_kind="KS",
    )


def binomial_two_sided_pvalue(observed: int, n: int, rate: float) -> float:
    """Exact two-sided binomial p: total mass of outcomes no more likely
    than the observed count."""
    if not (0 <= observed <= n):
        raise ConfigurationError(f"observed count {observed} outside 0..{n}")
    if not (0.0 < rate < 1.0):
        raise ConfigurationError(f"nominal rate {rate} outside (0, 1)")
    log_rate = math.log(rate)
    log_comp = math.log1p(-rate)
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * log_rate + (n - k) * log_comp
        for k in range(n + 1)
    ]
    cutoff = logs[observed] + 1e-9
    p = sum(math.exp(lp) for lp in logs if lp <= cutoff)
    return min(1.0, p)


def _first_p(results, p_name: Optional[str]) -> tuple[str, float]:
    if p_name is None:
        first = results[0]
        name = next(iter(first.p_values))
        return name, first.p_values[name]
    for res in results:
        if p_name in res.p_values:
            return p_name, res.p_values[p_name]
    available = sorted({n for r in results for n in r.p_values})
    raise ConfigurationError(
        f"no p-value named {p_name!r}; test reports {available}"
    )


def _repeat_inner(inner: TestCase, repetitions: int, stream: RandomStream,
                  collect):
    """Run inner `repetitions` times, collecting per successful run.

    Returns (collected, aborted_runs, abort_reason)."""
    if repetitions < 10:
        raise ConfigurationError("meta tests need at least 10 repetitions")
    collected = []
    aborted_runs = 0
    reason = None
    allowed = int(_ABORT_FRACTION * repetitions)
    for _ in range(repetitions):
        try:
            collected.append(collect(stream))
        except (TestAborted, StreamExhausted) as exc:
            aborted_runs += 1
            if aborted_runs > allowed:
                detail = exc.reason if isinstance(exc, TestAborted) else str(exc)
                reason = (
                    f"{aborted_runs} of {repetitions} inner runs aborted "
                    f"(last: {detail})"
                )
                break
    return collected, aborted_runs, reason


def iterate_test(inner: TestCase, repetitions: int,
                 stream: RandomStream, p_name: Optional[str] = None
                 ) -> MetaOutcome:
    """Repeat the inner test and KS-fit its p-values against uniform."""
    seen_name = [p_name if p_name is not None else ""]

    def collect(s):
        name, p = _first_p(inner.run(s), p_name)
        seen_name[0] = name
        return p

    ps, aborted_runs, reason = _repeat_inner(inner, repetitions, stream,
                                             collect)
    if reason is not None:
        return MetaOutcome(
            inner_test_name=inner.test_name,
            repetitions=len(ps),
            per_run_p=tuple(ps),
            p_name=seen_name[0],
            meta_result=None,
            aborted_runs=aborted_runs,
            aborted=reason,
        )
    return MetaOutcome(
        inner_test_name=inner.test_name,
        repetitions=len(ps),
        per_run_p=tuple(ps),
        p_name=seen_name[0],
        meta_result=ks_of_pvalues(ps),
        aborted_runs=aborted_runs,
    )


def count_fails_test(inner: TestCase, repetitions: int,
                     levels: Sequence[float], stream: RandomStream,
                     p_name: Optional[str] = None) -> MetaOutcome:
    """Repeat the inner test and count Failed verdicts per level.

    The meta p-value per level is an exact two-sided binomial tail
    against the level's nominal failure rate min(c, 1-c).
    """
    from .report import Verdict

    levels = list(levels)
    if not levels:
        raise ConfigurationError("count-fails needs at least one level")
    for c in levels:
        if not (0.0 < c < 1.0):
            raise ConfigurationError(f"confidence level {c} outside (0, 1)")
    seen_name = [p_name if p_name is not None else ""]

    def collect(s):
        results = inner.run(s)
        name, p = _first_p(results, p_name)
        seen_name[0] = name
        outcome = inner.analyze(results, levels)
        failed = tuple(
            any(per[c] is Verdict.FAILED for per in outcome.verdicts)
            for c in levels
        )
        return p, failed

    collected, aborted_runs, reason = _repeat_inner(
        inner, repetitions, stream, collect
    )
    ps = tuple(p for p, _ in collected)
    if reason is not None:
        return MetaOutcome(
            inner_test_name=inner.test_name,
            repetitions=len(ps),
            per_run_p=ps,
            p_name=seen_name[0],
            meta_result=None,
            aborted_runs=aborted_runs,
            aborted=reason,
        )
    n = len(collected)
    counts = {}
    p_values = {}
    for i, c in enumerate(levels):
        key = f"{c:g}"
        fails = sum(1 for _, flags in collected if flags[i])
        counts[key] = fails
        p_values[key] = binomial_two_sided_pvalue(fails, n, min(c, 1.0 - c))
    meta = MetaStatisticResult(
        kind=StatKind.GAUSSIAN,
        statistic_value=float(counts[f"{levels[0]:g}"]),
        p_values=p_values,
        meta_kind="COUNT_FAILS",
    )
    return MetaOutcome(
        inner_test_name=inner.test_name,
        repetitions=n,
        per_run_p=ps,
        p_name=seen_name[0],
        meta_result=meta,
        fail_counts=counts,
        aborted_runs=aborted_runs,
    )


class IterateTestCase(TestCase):
    """TestCase adapter running iterate_test, so meta tests fit the
    runner and report like any battery test."""

    def __init__(self, inner: TestCase, repetitions: int = 100,
                 p_name: Optional[str] = None):
        if repetitions < 10:
            raise ConfigurationError("meta tests need at least 10 repetitions")
        self.inner = inner
        self.repetitions = repetitions
        self.p_name = p_name
        self.test_name = f"Iterate-{inner.test_name}"

    def parameters(self):
        return [
            ("Inner Test", self.inner.test_name),
            ("Repetitions", self.repetitions),
        ] + self.inner.parameters()

    def run(self, stream: RandomStream):
        outcome = iterate_test(self.inner, self.repetitions, stream,
                               self.p_name)
        if outcome.aborted is not None:
            raise TestAborted(outcome.aborted)
        self.diagnostics = (("Successful Repetitions", outcome.repetitions),)
        if outcome.aborted_runs:
            self.diagnostics += (("Aborted Repetitions", outcome.aborted_runs),)
        return [outcome.meta_result]


class CountFailsTestCase(TestCase):
    """TestCase adapter running count_fails_test at fixed levels."""

    def __init__(self, inner: TestCase, repetitions: int,
                 levels: Sequence[float], p_name: Optional[str] = None):
        if repetitions < 10:
            raise ConfigurationError("meta tests need at least 10 repetitions")
        self.inner = inner
        self.repetitions = repetitions
        self.levels = list(levels)
        self.p_name = p_name
        self.test_name = f"Count-Fails-{inner.test_name}"

    def parameters(self):
        return [
            ("Inner Test", self.inner.test_name),
            ("Repetitions", self.repetitions),
            ("Counted Levels", " ".join(f"{c:g}" for c in self.levels)),
        ] + self.inner.parameters()

    def run(self, stream: RandomStream):
        outcome = count_fails_test(self.inner, self.repetitions, self.levels,
                                   stream, self.p_name)
        if outcome.aborted is not None:
            raise TestAborted(outcome.aborted)
        self.diagnostics = tuple(
            (f"Failures at {key}", count)
            for key, count in outcome.fail_counts.items()
        )
        return [outcome.meta_result]
