"""Test catalog infrastructure: TestCase, TestOutcome, cell pooling."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, StreamExhausted, TestAborted
from ..genkit.base import TAPE_WORDS, RandomStream
from ..stats import (
    KsStatisticResult,
    StatisticResult,
    StatKind,
    Verdict,
    chi_square_pvalue,
    chi_square_statistic,
    gaussian_pvalue,
    ks_pvalue,
    ks_statistic,
    verdict,
)


# The ceiling of every count argument, and of each product of counts
# that sizes one cell's draws.  It admits every default (the largest is
# binary rank's 32 * 32 * 4000 bits) and a 64 x 64 rank census of 4000
# matrices.  Whole-array cells at the budget peak at 0.2-0.45 GB
# (serial correlation over 2^24 draws peaks at 0.42 GB; KS and max-of-t,
# which sort raw words or only the maxima they map, at 0.23 GB).
DRAW_BUDGET = 2**24

# The number of values of one 32-bit word: the ceiling of the ranges
# that draws are scaled to (days, urns, side lengths).
WORD_VALUES = 2**32

# The most draws a counting test maps and counts at once: one tape.
COUNT_BLOCK = TAPE_WORDS


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Param:
    """One test argument: name, report label, default, and range.

    The default's type is the argument's type: an int row takes an
    integer that is not a bool, a float row any finite real, stored as
    a float.  A value lies in [low, high], or in (low, high] when
    `low_open`.
    """

    name: str
    label: str
    default: object
    low: float
    high: float = DRAW_BUDGET
    low_open: bool = False

    def check(self, value):
        """The value as stored; ConfigurationError names the argument."""
        if isinstance(self.default, int):
            if not is_integer(value):
                raise ConfigurationError(
                    f"{self.name} must be an integer, got {value!r}"
                )
            value = int(value)
        else:
            if not is_real(value):
                raise ConfigurationError(
                    f"{self.name} must be a number, got {value!r}"
                )
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{self.name} must be finite, got {value!r}"
                )
            value = float(value)
        if (value < self.low or value > self.high
                or (self.low_open and value == self.low)):
            raise ConfigurationError(
                f"{self.name} must lie in {'(' if self.low_open else '['}"
                f"{self.low}, {self.high}], got {value!r}"
            )
        return value


def block_counts(cells: int, units: int, draws_per_unit: int,
                 draw_cells: Callable[[int], np.ndarray]) -> np.ndarray:
    """Counts over `cells` cells of `units` units drawn a block at a time.

    `draw_cells(k)` draws the next k units and returns the cell of
    each.  A block is as many whole units as COUNT_BLOCK draws hold, at
    least one, so the stream is read as one call for every unit would
    read it, and the counts are the same, while no array longer than a
    block is made.
    """
    per_block = max(1, COUNT_BLOCK // draws_per_unit)
    counts = np.zeros(cells, dtype=np.int64)
    for start in range(0, units, per_block):
        counts += np.bincount(draw_cells(min(per_block, units - start)),
                              minlength=cells)
    return counts


def check_budget(what: str, value: int) -> None:
    """Reject a product of count arguments above DRAW_BUDGET."""
    if value > DRAW_BUDGET:
        raise ConfigurationError(
            f"{what} = {value} exceeds the draw budget {DRAW_BUDGET}"
        )


@dataclass(frozen=True)
class TestOutcome:
    """One test's parameters, results, and per-level verdicts.

    `verdicts[i][level]` is the verdict of results[i] at that confidence
    level; aborted outcomes carry no verdicts.  `wall_s` and `words`, the
    cell's wall time and net raw words as the runner measured them, are
    never reported and take no part in comparisons.
    """

    test_name: str
    parameters: tuple
    results: tuple
    verdicts: tuple
    aborted: Optional[str] = None
    diagnostics: tuple = ()
    wall_s: float = field(default=0.0, compare=False)
    words: int = field(default=0, compare=False)


class TestCase:
    """A battery test: fixed parameters, run(stream), pure analyze().

    The arguments are declared once, as the `PARAMS` table: the
    constructor takes them by keyword, fills in defaults, checks each
    against its row in table order, then runs `check_arguments` for the
    rules that tie arguments together.  `parameters()` lists them for
    the report.  `run` consumes the stream and returns StatisticResults;
    the draw consumption rule of each test is stated in its docstring.
    `analyze` judges results against confidence levels; a result with
    several named p-values fails at a level when any of them fails.

    An instance may run any number of streams, one after another.  The
    `diagnostics` belong to the last `run`, which sets them for the
    stream it ends; `execute` reads them in the `analyze` that follows,
    and an aborted outcome carries none.
    """

    test_name: str = "test"
    PARAMS: tuple = ()
    # (label, value) pairs for the report, set by `run` for its last stream
    diagnostics: tuple = ()

    def __init__(self, **kwargs):
        names = [row.name for row in self.PARAMS]
        for key in kwargs:
            if key not in names:
                raise ConfigurationError(
                    f"unknown argument {key!r}; "
                    f"takes {', '.join(names) or 'none'}"
                )
        for row in self.PARAMS:
            setattr(self, row.name, row.check(kwargs.get(row.name,
                                                         row.default)))
        self.check_arguments()

    def check_arguments(self) -> None:
        """Rules tying arguments together, run once every row holds."""

    def parameters(self) -> list:
        return [(row.label, getattr(self, row.name)) for row in self.PARAMS]

    def run(self, stream: RandomStream) -> list:
        raise NotImplementedError

    def analyze(self, results: Sequence[StatisticResult],
                levels: Sequence[float]) -> TestOutcome:
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

    def aborted(self, reason: str) -> TestOutcome:
        """The outcome of a run of this test that could not complete."""
        return TestOutcome(
            test_name=self.test_name,
            parameters=tuple(self.parameters()),
            results=(),
            verdicts=(),
            aborted=reason,
        )

    def execute(self, stream: RandomStream,
                levels: Sequence[float]) -> TestOutcome:
        """run + analyze with abort containment."""
        try:
            results = self.run(stream)
        except (TestAborted, StreamExhausted) as exc:
            return self.aborted(str(exc))
        return self.analyze(results, levels)


def pool_cells(counts: np.ndarray, probs: np.ndarray,
               sample_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge cells with expected count < 5 into their neighbor toward the tail.

    Scans left to right accumulating cells until the expected count
    reaches 5; a deficient trailing remainder merges backward into the
    last closed cell.  Depends only on probabilities and sample size, so
    the pooling is fixed before any data are seen.
    """
    counts = np.asarray(counts, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    # A cell whose expected count reaches 5 with nothing pending closes
    # on its own, as itself (0.0 + p == p), so runs of such cells are
    # copied whole; the scan steps only through the stretches from each
    # other cell to the cell that closes its sum.
    pooled_counts = []
    pooled_probs = []
    acc_c = 0
    acc_p = 0.0
    start = 0  # the first cell not yet pooled
    for i in np.flatnonzero(~(probs * sample_size >= 5.0)).tolist():
        if i < start:
            continue
        pooled_counts.append(counts[start:i])
        pooled_probs.append(probs[start:i])
        start = probs.size
        for j in range(i, probs.size):
            acc_c += int(counts[j])
            acc_p += float(probs[j])
            if acc_p * sample_size >= 5.0:
                pooled_counts.append([acc_c])
                pooled_probs.append([acc_p])
                acc_c = 0
                acc_p = 0.0
                start = j + 1
                break
    pooled_counts = np.concatenate([*pooled_counts, counts[start:]],
                                   dtype=np.int64)
    pooled_probs = np.concatenate([*pooled_probs, probs[start:]],
                                  dtype=np.float64)
    if acc_p > 0.0 or acc_c > 0:
        if not pooled_counts.size:
            raise ConfigurationError(
                "pooling left no complete cell; sample too small for the bins"
            )
        pooled_counts[-1] += acc_c
        pooled_probs[-1] += acc_p
    if pooled_counts.size < 2:
        raise ConfigurationError("pooling left fewer than 2 cells")
    return pooled_counts, pooled_probs


def chi_square_result(counts: np.ndarray, probs: np.ndarray,
                      sample_size: int) -> StatisticResult:
    """Chi-square of the counts against the probabilities, cells pooled."""
    counts, probs = pool_cells(counts, probs, sample_size)
    chi2, dof = chi_square_statistic(counts, probs, sample_size)
    return StatisticResult(
        kind=StatKind.CHI_SQUARE,
        statistic_value=chi2,
        dof=dof,
        p_values={"p": chi_square_pvalue(chi2, dof)},
    )


def ks_result(samples: np.ndarray) -> KsStatisticResult:
    """One-sided KS of the samples against the uniform law on [0, 1]."""
    k_plus, k_minus = ks_statistic(samples)
    n = len(samples)
    return KsStatisticResult(
        kind=StatKind.KOLMOGOROV_SMIRNOV,
        statistic_value=max(k_plus, k_minus),
        p_values={
            "plus": ks_pvalue(k_plus, n),
            "minus": ks_pvalue(k_minus, n),
        },
        k_plus=k_plus,
        k_minus=k_minus,
    )


def gaussian_result(z: float) -> StatisticResult:
    """Two-sided Gaussian result for a standardized deviation z."""
    p = min(1.0, 2.0 * gaussian_pvalue(abs(z)))
    return StatisticResult(
        kind=StatKind.GAUSSIAN,
        statistic_value=z,
        p_values={"p": p},
    )
