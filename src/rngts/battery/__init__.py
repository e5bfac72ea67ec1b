"""Statistical test catalog over RandomStreams."""

from .base import (
    TestCase,
    TestOutcome,
    chi_square_result,
    gaussian_result,
    ks_result,
    pool_cells,
)
from .games import (
    CrapsTest,
    GcdTest,
    MaurersUniversalTest,
    RepetitionTest,
    SqueezeTest,
    SQUEEZE_CELL_PROBS,
    craps_throw_probabilities,
    craps_win_probability,
    maurer_reference,
    repetition_bins,
    repetition_pmf,
)
from .spatial import (
    BinaryRankTest,
    BirthdaySpacingsTest,
    CollisionTest,
    MinimumDistanceTest,
    Monkey20BitTest,
    ParkingLotTest,
    RandomWalkTest,
    collision_null_distribution,
    rank_distribution,
)
from .uniformity import (
    ChisqrUniformityTest,
    CouponCollectorTest,
    GapTest,
    KsUniformityTest,
    MaxOfTTest,
    PermutationTest,
    PokerTest,
    RunsTest,
    SerialCorrelationTest,
    SerialTest,
)

# (alias, class) of every catalog test, in registry order; the runner
# registers each as `<alias>_test`
CATALOG = (
    ("chisqr_uniformity", ChisqrUniformityTest),
    ("ks_uniformity", KsUniformityTest),
    ("gap", GapTest),
    ("serial", SerialTest),
    ("poker", PokerTest),
    ("coupon_collector", CouponCollectorTest),
    ("permutation", PermutationTest),
    ("runs", RunsTest),
    ("max_of_t", MaxOfTTest),
    ("collision", CollisionTest),
    ("serial_correlation", SerialCorrelationTest),
    ("birthday_spacings", BirthdaySpacingsTest),
    ("binary_rank", BinaryRankTest),
    ("parking_lot", ParkingLotTest),
    ("minimum_distance", MinimumDistanceTest),
    ("squeeze", SqueezeTest),
    ("craps", CrapsTest),
    ("random_walk", RandomWalkTest),
    ("repetition", RepetitionTest),
    ("gcd", GcdTest),
    ("maurers_universal", MaurersUniversalTest),
    ("monkey_20bit", Monkey20BitTest),
)

__all__ = [
    "TestCase",
    "TestOutcome",
    "chi_square_result",
    "gaussian_result",
    "ks_result",
    "pool_cells",
    "CATALOG",
    "SQUEEZE_CELL_PROBS",
    "collision_null_distribution",
    "craps_throw_probabilities",
    "craps_win_probability",
    "maurer_reference",
    "rank_distribution",
    "repetition_bins",
    "repetition_pmf",
] + [cls.__name__ for _, cls in CATALOG]
