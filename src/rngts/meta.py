"""Second-order tests: repeat an inner test and analyze its p-values.

The two aggregations are a KS fit of the p sample against uniform
(iterate) and per-confidence-level failure counting with an exact
binomial reference (count-fails).  Inner repetitions continue on the
given stream; they never reseed it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .battery.base import Param, TestCase
from .errors import ConfigurationError, StreamExhausted, TestAborted
from .genkit.base import RandomStream
from .stats import (
    MetaStatisticResult,
    StatKind,
    Verdict,
    ks_statistic,
    ks_two_sided_pvalue,
    verdict,
)

_ABORT_FRACTION = 0.1


def ks_of_pvalues(ps: Sequence[float]) -> MetaStatisticResult:
    """KS of a p-value sample against the uniform law, as a meta result."""
    t = max(ks_statistic(ps))
    return MetaStatisticResult(
        kind=StatKind.KOLMOGOROV_SMIRNOV,
        statistic_value=t,
        p_values={"p": ks_two_sided_pvalue(t)},
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


class _RepeatedTest(TestCase):
    """An inner test run `repetitions` times on one stream.

    Each run contributes one p-value: the one named `p_name`, searched
    across the run's results, or else the first result's first.
    """

    PARAMS = (Param("repetitions", "Repetitions", 100, 10),)

    def __init__(self, inner: TestCase, repetitions: int,
                 p_name: Optional[str]):
        super().__init__(repetitions=repetitions)
        if not (p_name is None or isinstance(p_name, str)):
            raise ConfigurationError(f"p_name must be a string: {p_name!r}")
        self.inner = inner
        self.p_name = p_name

    def parameters(self):
        return ([("Inner Test", self.inner.test_name)]
                + super().parameters() + self.inner.parameters())

    def _p(self, results) -> float:
        if self.p_name is None:
            return next(iter(results[0].p_values.values()))
        for res in results:
            if self.p_name in res.p_values:
                return res.p_values[self.p_name]
        available = sorted({n for r in results for n in r.p_values})
        raise ConfigurationError(
            f"no p-value named {self.p_name!r}; test reports {available}"
        )

    def _repeat(self, stream: RandomStream) -> tuple[list, int]:
        """The chosen p-value of each inner run that did not abort, and
        the number that did.  Aborted runs are skipped while they are at
        most 10% of the repetitions; one more aborts the whole test."""
        ps = []
        aborted = 0
        allowed = int(_ABORT_FRACTION * self.repetitions)
        for _ in range(self.repetitions):
            try:
                results = self.inner.run(stream)
            except (TestAborted, StreamExhausted) as exc:
                aborted += 1
                if aborted > allowed:
                    raise TestAborted(
                        f"{aborted} of {self.repetitions} inner runs "
                        f"aborted (last: {exc})"
                    ) from None
                continue
            ps.append(self._p(results))
        return ps, aborted


class IterateTestCase(_RepeatedTest):
    """KS fit of the inner test's p-values against uniform.

    Diagnostics: the successful repetitions, and the aborted ones if any.
    """

    def __init__(self, inner: TestCase, repetitions: int = 100,
                 p_name: Optional[str] = None):
        super().__init__(inner, repetitions, p_name)
        self.test_name = f"Iterate-{inner.test_name}"

    def run(self, stream: RandomStream):
        ps, aborted = self._repeat(stream)
        self.diagnostics = (("Successful Repetitions", len(ps)),)
        if aborted:
            self.diagnostics += (("Aborted Repetitions", aborted),)
        return [ks_of_pvalues(ps)]


class CountFailsTestCase(_RepeatedTest):
    """Count of inner runs failed at each level, against the binomial law.

    A run fails at a level when its chosen p-value (the one named
    `p_name`, or else the first) does.  The meta p-value per level is an
    exact two-sided binomial tail against the level's nominal failure
    rate min(c, 1-c).  Diagnostics: the failure count at each level.
    """

    def __init__(self, inner: TestCase, repetitions: int,
                 levels: Sequence[float], p_name: Optional[str] = None):
        super().__init__(inner, repetitions, p_name)
        self.levels = list(levels)
        if not self.levels:
            raise ConfigurationError("count-fails needs at least one level")
        for c in self.levels:
            if not (0.0 < c < 1.0):
                raise ConfigurationError(f"confidence level {c} outside (0, 1)")
        self.test_name = f"Count-Fails-{inner.test_name}"

    def parameters(self):
        shared = super().parameters()
        levels = " ".join(f"{c:g}" for c in self.levels)
        return shared[:2] + [("Counted Levels", levels)] + shared[2:]

    def run(self, stream: RandomStream):
        ps, _ = self._repeat(stream)
        counts, p_values = {}, {}
        for c in self.levels:
            key = f"{c:g}"
            counts[key] = sum(verdict(p, c) is Verdict.FAILED for p in ps)
            p_values[key] = binomial_two_sided_pvalue(
                counts[key], len(ps), min(c, 1.0 - c))
        self.diagnostics = tuple(
            (f"Failures at {key}", n) for key, n in counts.items()
        )
        return [MetaStatisticResult(
            kind=StatKind.GAUSSIAN,
            statistic_value=float(counts[f"{self.levels[0]:g}"]),
            p_values=p_values,
            meta_kind="COUNT_FAILS",
        )]
