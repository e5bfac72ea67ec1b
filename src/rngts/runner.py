"""Suite orchestration: registries, the run matrix, and execution.

A run is a full cross product: generators (outer), then seeds, then
tests.  Every cell gets a freshly constructed, freshly seeded stream,
so cells are independent and may execute concurrently in forked worker
processes, at most one per cell; the report is assembled in matrix
order regardless of completion order.
"""

from __future__ import annotations

import datetime
import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .battery import (
    BinaryRankTest,
    BirthdaySpacingsTest,
    ChisqrUniformityTest,
    CollisionTest,
    CouponCollectorTest,
    CrapsTest,
    GapTest,
    GcdTest,
    KsUniformityTest,
    MaurersUniversalTest,
    MaxOfTTest,
    MinimumDistanceTest,
    Monkey20BitTest,
    ParkingLotTest,
    PermutationTest,
    PokerTest,
    RandomWalkTest,
    RepetitionTest,
    RunsTest,
    SerialCorrelationTest,
    SerialTest,
    SqueezeTest,
)
from .battery.base import TestCase, TestOutcome
from .errors import ConfigurationError, StreamExhausted, TestAborted
from .genkit.adapters import external_stream, file_stream
from .genkit.base import RandomStream, SeedableStream
from .genkit.engines import (
    Ecuyer1988,
    LaggedFibonacci1279,
    Minstd,
    Mt19937,
    Randu,
    ShuffledStream,
)
from .report import (
    ReportDocument,
    RngSection,
    SeedSection,
    test_section_from_outcome,
)

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# registries


_GENERATORS: dict = {}
_GENERATOR_CANON: list = []
_TESTS: dict = {}
_TEST_CANON: list = []


def register_generator(name: str, factory: Callable[[], RandomStream],
                       aliases: Sequence[str] = ()) -> None:
    """Add a stream factory to the catalog; duplicate names are errors."""
    for key in (name, *aliases):
        if key in _GENERATORS:
            raise ConfigurationError(f"generator {key!r} already registered")
    _GENERATORS[name] = factory
    _GENERATOR_CANON.append(name)
    for key in aliases:
        _GENERATORS[key] = factory


def register_test(name: str, factory: Callable[..., TestCase],
                  aliases: Sequence[str] = ()) -> None:
    """Add a test factory to the catalog; duplicate names are errors."""
    for key in (name, *aliases):
        if key in _TESTS:
            raise ConfigurationError(f"test {key!r} already registered")
    _TESTS[name] = factory
    _TEST_CANON.append(name)
    for key in aliases:
        _TESTS[key] = factory


def generator_names() -> list:
    return sorted(_GENERATOR_CANON)


def test_names() -> list:
    return sorted(_TEST_CANON)


def resolve_generator(name: str) -> Callable[[], RandomStream]:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown generator {name!r}; available: "
            + ", ".join(generator_names())
        ) from None


def resolve_test(name: str) -> Callable[..., TestCase]:
    try:
        return _TESTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown test {name!r}; available: " + ", ".join(test_names())
        ) from None


def _register_builtins() -> None:
    register_generator("minstd", Minstd)
    register_generator("randu", Randu)
    register_generator("ecuyer1988", Ecuyer1988)
    register_generator("mt19937", Mt19937, aliases=("mt-19937",))
    register_generator("lagged_fibonacci_1279", LaggedFibonacci1279,
                       aliases=("lagged-fibonacci-1279",))
    register_generator("shuffled_minstd",
                       lambda: ShuffledStream(Minstd(), 32))

    catalog = [
        ("chisqr_uniformity_test", ChisqrUniformityTest, "chisqr_uniformity"),
        ("ks_uniformity_test", KsUniformityTest, "ks_uniformity"),
        ("gap_test", GapTest, "gap"),
        ("serial_test", SerialTest, "serial"),
        ("poker_test", PokerTest, "poker"),
        ("coupon_collector_test", CouponCollectorTest, "coupon_collector"),
        ("permutation_test", PermutationTest, "permutation"),
        ("runs_test", RunsTest, "runs"),
        ("max_of_t_test", MaxOfTTest, "max_of_t"),
        ("collision_test", CollisionTest, "collision"),
        ("serial_correlation_test", SerialCorrelationTest,
         "serial_correlation"),
        ("birthday_spacings_test", BirthdaySpacingsTest, "birthday_spacings"),
        ("binary_rank_test", BinaryRankTest, "binary_rank"),
        ("parking_lot_test", ParkingLotTest, "parking_lot"),
        ("minimum_distance_test", MinimumDistanceTest, "minimum_distance"),
        ("squeeze_test", SqueezeTest, "squeeze"),
        ("craps_test", CrapsTest, "craps"),
        ("random_walk_test", RandomWalkTest, "random_walk"),
        ("repetition_test", RepetitionTest, "repetition"),
        ("gcd_test", GcdTest, "gcd"),
        ("maurers_universal_test", MaurersUniversalTest, "maurers_universal"),
        ("monkey_20bit_test", Monkey20BitTest, "monkey_20bit"),
    ]
    for name, cls, alias in catalog:
        register_test(name, cls, aliases=(alias,))


_register_builtins()


# ---------------------------------------------------------------------------
# run matrix


@dataclass(frozen=True)
class RunMatrix:
    """Cross product to execute: generators outer, then seeds, then tests.

    generators hold (name, zero-argument stream factory, warmup count);
    tests hold (zero-argument TestCase factories), one instance built
    per cell.
    """

    generators: tuple
    seeds: tuple
    levels: tuple
    tests: tuple

    def __post_init__(self):
        if not self.generators or not self.seeds or not self.tests:
            raise ConfigurationError(
                "run matrix needs at least one generator, seed, and test"
            )
        if not self.levels:
            raise ConfigurationError("run matrix needs at least one level")
        names = [name for name, _, _ in self.generators]
        if len(set(names)) != len(names):
            raise ConfigurationError("generator names must be unique")
        for _, _, warmup in self.generators:
            if warmup < 0:
                raise ConfigurationError("warmup must be non-negative")
        for seed in self.seeds:
            if seed < 0:
                raise ConfigurationError("seeds must be non-negative")
        for level in self.levels:
            if not (0.0 < level < 1.0):
                raise ConfigurationError(
                    f"confidence level {level} outside (0, 1)"
                )


@dataclass(frozen=True)
class RunManifest:
    """A RunMatrix plus output options read from a manifest file."""

    matrix: RunMatrix
    output: Optional[str] = None
    html: Optional[str] = None
    jobs: Optional[int] = None


def _run_cell(factory: Callable[[], RandomStream], warmup: int, seed: int,
              test_factory: Callable[[], TestCase],
              levels: Sequence[float]) -> TestOutcome:
    case = test_factory()
    stream = None
    try:
        stream = factory()
        if isinstance(stream, SeedableStream):
            stream.seed(seed)
        if warmup:
            stream.warmup(warmup)
        return case.execute(stream, levels)
    except (ConfigurationError, StreamExhausted, TestAborted) as exc:
        # execute() already contains aborts raised inside run(); this
        # catches stream construction, seeding, and warmup failures
        reason = exc.reason if isinstance(exc, TestAborted) else str(exc)
    except Exception as exc:
        # any other fault ends this cell only; the traceback goes to the log
        _log.exception("cell %s aborted", case.test_name)
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    return _aborted(case, reason)


def _aborted(case: TestCase, reason: str) -> TestOutcome:
    return TestOutcome(
        test_name=case.test_name,
        parameters=tuple(case.parameters()),
        results=(),
        verdicts=(),
        aborted=reason,
    )


# The cells and levels of the run a forked worker serves.  They are set
# by the pool's initializer, whose arguments fork hands over without
# pickling, so cells may hold lambdas, closures, locally defined tests,
# and file or external generators.
_worker_cells: list = []
_worker_levels: tuple = ()


def _init_worker(cells: list, levels: tuple) -> None:
    global _worker_cells, _worker_levels
    _worker_cells, _worker_levels = cells, levels


def _run_cell_at(index: int) -> TestOutcome:
    (_, factory, warmup), seed, test_factory = _worker_cells[index]
    # looked up at call time, so a wrapper installed on the module runs
    return _run_cell(factory, warmup, seed, test_factory, _worker_levels)


def _run_in_workers(cells: list, levels: tuple, jobs: int,
                    progress: Optional[Callable]) -> list:
    """Every cell's outcome, in matrix order, from forked workers.

    A cell whose future raises (its worker died, or its outcome could
    not be pickled) aborts; the cells already finished keep theirs.
    """
    # imported here: these modules add about 18 ms to the start-up of
    # every run, and --jobs 1 never uses them
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise ConfigurationError(
            "jobs above 1 need the 'fork' start method, which this "
            "platform lacks"
        ) from None
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                             mp_context=context, initializer=_init_worker,
                             initargs=(cells, levels)) as pool:
        futures = []
        for index in range(len(cells)):
            try:
                futures.append(pool.submit(_run_cell_at, index))
            except BrokenProcessPool as exc:
                # a worker died while cells were still being submitted
                futures.append(Future())
                futures[-1].set_exception(exc)
        outcomes = []
        for ((name, _, _), seed, test_factory), future in zip(cells,
                                                              futures):
            try:
                outcome = future.result()
            except Exception as exc:
                outcome = _aborted(test_factory(),
                                   f"{type(exc).__name__}: {exc}")
            if progress is not None:
                progress(name, seed, outcome)
            outcomes.append(outcome)
    return outcomes


def run_suite(matrix: RunMatrix, progress: Optional[Callable] = None,
              jobs: int = 1, date: Optional[str] = None) -> ReportDocument:
    """Execute the matrix and assemble the result document.

    With `jobs` above 1, cells run in forked worker processes, at most
    one per cell, and `progress` is called in matrix order as results
    are read; output order and content are independent of the job
    count.  Aborted cells (exhausted or misconfigured streams, any other
    exception in a cell, or a worker that died) appear in the report and
    never halt the run.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    # validate test construction before any cell runs
    for test_factory in matrix.tests:
        test_factory()

    cells = [
        (gen, seed, test_factory)
        for gen in matrix.generators
        for seed in matrix.seeds
        for test_factory in matrix.tests
    ]

    def execute(cell):
        (name, factory, warmup), seed, test_factory = cell
        outcome = _run_cell(factory, warmup, seed, test_factory,
                            matrix.levels)
        if progress is not None:
            progress(name, seed, outcome)
        return outcome

    if jobs == 1:
        outcomes = [execute(cell) for cell in cells]
    else:
        outcomes = _run_in_workers(cells, matrix.levels, jobs, progress)

    sections = []
    index = 0
    for name, _, warmup in matrix.generators:
        seed_sections = []
        for seed in matrix.seeds:
            tests = []
            for _ in matrix.tests:
                tests.append(test_section_from_outcome(outcomes[index],
                                                       matrix.levels))
                index += 1
            seed_sections.append(SeedSection(seed=str(seed),
                                             tests=tuple(tests)))
        sections.append(RngSection(name=name, warmup=str(warmup),
                                   seeds=tuple(seed_sections)))
    if date is None:
        date = datetime.date.today().isoformat()
    return ReportDocument(date=date, generators=tuple(sections))


def document_has_failures(doc: ReportDocument) -> bool:
    return any(
        kind == "FAILED"
        for rng in doc.generators
        for seed in rng.seeds
        for test in seed.tests
        for analysis in test.analyses
        for kind, _ in analysis.verdicts
    )


# ---------------------------------------------------------------------------
# manifest loading


def _is_count(value) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _generator_entry(entry) -> tuple:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigurationError(
            "each generator entry must be an object with a 'name'"
        )
    name = entry["name"]
    warmup = entry.get("warmup", 0)
    if not _is_count(warmup) or warmup < 0:
        raise ConfigurationError(
            f"generator {name!r}: warmup must be a non-negative integer"
        )
    if name == "file":
        path = entry.get("path")
        if not isinstance(path, str):
            raise ConfigurationError("file generator needs a 'path' string")
        label = entry.get("label", f"file:{path}")
        return label, (lambda: file_stream(path)), warmup
    if name == "external":
        command = entry.get("command")
        if (not isinstance(command, list) or not command
                or not all(isinstance(c, str) for c in command)):
            raise ConfigurationError(
                "external generator needs a 'command' list of strings"
            )
        label = entry.get("label", f"external:{command[0]}")
        return label, (lambda: external_stream(command)), warmup
    factory = resolve_generator(name)
    return name, factory, warmup


def _test_entry(entry) -> Callable[[], TestCase]:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigurationError(
            "each test entry must be an object with a 'name'"
        )
    name = entry["name"]
    params = entry.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"test {name!r}: 'parameters' must be an object"
        )
    cls = resolve_test(name)
    try:
        cls(**params)
    except TypeError as exc:
        raise ConfigurationError(f"test {name!r}: {exc}") from None
    return lambda: cls(**params)


def load_manifest(path) -> RunManifest:
    """Read a JSON run description and resolve it against the registries."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("manifest root must be a JSON object")
    for key in ("generators", "seeds", "levels", "tests"):
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigurationError(
                f"manifest needs a non-empty {key!r} array"
            )
    generators = tuple(_generator_entry(e) for e in data["generators"])
    seeds = []
    for seed in data["seeds"]:
        if not _is_count(seed) or seed < 0:
            raise ConfigurationError(
                f"seed {seed!r} must be a non-negative integer"
            )
        seeds.append(seed)
    levels = []
    for level in data["levels"]:
        if not isinstance(level, (int, float)) or not (0.0 < level < 1.0):
            raise ConfigurationError(
                f"confidence level {level!r} must lie in (0, 1)"
            )
        levels.append(float(level))
    tests = tuple(_test_entry(e) for e in data["tests"])
    jobs = data.get("jobs")
    if jobs is not None and (not _is_count(jobs) or jobs < 1):
        raise ConfigurationError("'jobs' must be a positive integer")
    output = data.get("output")
    html = data.get("html")
    for key, value in (("output", output), ("html", html)):
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(f"{key!r} must be a string path")
    matrix = RunMatrix(
        generators=generators,
        seeds=tuple(seeds),
        levels=tuple(levels),
        tests=tests,
    )
    return RunManifest(matrix=matrix, output=output, html=html, jobs=jobs)
